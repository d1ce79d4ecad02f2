"""Tests for the shared weak-order engine: one divided difference per chain
node on a cold cache, a warm node read from the table of its cut alone, no
table left by a refused rank or anchor, one key object per monomial shared
by the chain nodes, and the rank check on every chain
move (ordinary Schubert polynomials included, as the mu = (1^n) case), atoms and
relative atoms against the oracle walk down the weak order and the inverse
action it steps down by, the climb from the identity that enumerates I_mu
(against the definition, and short of the count), and the graph builder's
breadth-first ranks and direct JSON writer."""

from __future__ import annotations

import json
import random
import re

import pytest
import characterization
from characterization import (
    atom_words,
    climb_by_scan,
    code_by_definition,
    graph_by_sorting,
    greedy_moves_by_scan,
    has_edge,
    lower,
    mu_involution_words,
)

from invschub import permutations, weak_order
from invschub.involutions import (
    identity_involution,
    inv_schubert,
    involutions,
    weak_order_graph,
)
from invschub.mu_involutions import (
    Composition,
    all_compositions,
    atoms_mu_bruteforce,
    atoms_mu_top,
    identity_mu_involution,
    mu_inv_schubert,
    mu_involutions,
    mu_weak_order_graph,
)
from invschub.permutations import EnumerationBoundError, Permutation, all_permutations, identity
from invschub.polynomials import ONE, ZERO, add_linear_multiple
from invschub.schubert import schubert
from invschub.verify import verify_all
from invschub.weak_order import (
    WeakOrderGraph,
    _count_step,
    _greedy_moves,
    _lower_involution,
    _peel,
    _pipe_dream_moves,
    _rank_change,
    act,
    build_graph,
    clear_cache,
    climb,
    involution_atom_words,
    lhat_mu,
    relative_atom_words,
    shat_mu,
)


def _chain(tau):
    return shat_mu(tau.oneline, (0, tau.n))


def test_cold_descent_divides_once_per_node_below_the_top(monkeypatch):
    calls = []
    real = weak_order._divided_difference

    def counted(f, i, keys):
        calls.append(i)
        return real(f, i, keys)

    monkeypatch.setattr(weak_order, "_divided_difference", counted)
    # Involutions reach the chain through shat_mu at nu = (0, n): their
    # Shat is built from pipe dreams.
    families = (
        [(list(involutions(n)), _chain) for n in (5, 6)]
        + [
            (list(mu_involutions(Composition(parts))), mu_inv_schubert)
            for parts in ((3, 2), (2, 2, 2), (1, 4))
        ]
        + [(list(all_permutations(n)), schubert) for n in (5, 6)]
    )
    for elements, polynomial in families:
        clear_cache()
        calls.clear()
        for x in elements:
            polynomial(x)
        assert len(calls) == len(elements) - 1, elements[0]
    clear_cache()


def test_every_chain_move_is_rank_checked(monkeypatch):
    # A block that is not an involution is rejected by the rank itself.
    with pytest.raises(AssertionError):
        lhat_mu((3, 4, 2, 1), (0, 3, 4))
    # An image that is not a word on the block's letters is refused.
    with pytest.raises(AssertionError):
        _rank_change(1, (1, 2, 3), (4, 1, 3), (0, 3))
    real = weak_order.act
    corruptions = (
        # m(s_1) sends the identity two ranks up, as m(s_2) m(s_1) does.
        lambda word, nu: real(2, real(1, word, nu), nu),
        # m(s_1) fixes the identity, where 1 lies left of 2.
        lambda word, nu: word,
    )
    elements = (
        (identity(3), schubert),
        (identity_involution(3), _chain),
        (identity_mu_involution(Composition((2, 1))), mu_inv_schubert),
    )
    for corrupt in corruptions:
        monkeypatch.setattr(
            weak_order,
            "act",
            lambda i, word, nu, p=None, q=None, corrupt=corrupt: corrupt(word, nu)
            if (i, word) == (1, (1, 2, 3))
            else real(i, word, nu, p, q),
        )
        for x, polynomial in elements:
            clear_cache()
            with pytest.raises(AssertionError):
                polynomial(x)
    clear_cache()


def test_a_warm_node_is_one_lookup_in_the_table_of_its_cut(monkeypatch):
    clear_cache()
    words = [(w.inverse().oneline, tuple(range(5))) for w in all_permutations(4)]
    words += [(word, (0, 2, 3, 4)) for word in mu_involution_words((2, 1, 1))]
    cold = {(word, nu): shat_mu(word, nu) for word, nu in words}

    def refused(*args):
        raise AssertionError("a warm node took the slow path")

    for name in ("_divided_difference", "anchor", "act", "refuse_rank", "_greedy_moves"):
        monkeypatch.setattr(weak_order, name, refused)
    for (word, nu), poly in cold.items():
        assert shat_mu(word, nu) is poly, (word, nu)
    clear_cache()


def test_a_refused_rank_or_anchor_leaves_no_table():
    clear_cache()
    with pytest.raises(EnumerationBoundError):
        shat_mu(tuple(range(1, 258)), tuple(range(258)))
    assert weak_order._CACHE == {}
    # The anchor at nu = (0, 13) is a product of 36 factors x_i + x_j,
    # refused by the term budget.
    with pytest.raises(EnumerationBoundError):
        shat_mu(tuple(range(1, 14)), (0, 13))
    assert weak_order._CACHE == {}
    assert weak_order._KEYS == {}


def test_chain_nodes_share_one_key_object_per_monomial():
    clear_cache()
    verify_all(6)
    keys = weak_order._KEYS
    shared, objects, terms = set(), set(), 0
    for nu, nodes in weak_order._CACHE.items():
        top = tuple(range(nu[-1], 0, -1))
        for word, poly in nodes.items():
            if word == top:
                continue  # the anchor is a product, made before any division
            terms += len(poly._terms)
            for key in poly._terms:
                assert keys[key] is key, (word, nu, key)
                shared.add(key)
                objects.add(id(key))
    assert len(objects) == len(shared) == len(keys)
    assert terms > 2 * len(keys)  # the nodes do share keys
    clear_cache()
    assert weak_order._CACHE == {} and weak_order._KEYS == {}


def test_one_word_under_two_cuts_has_an_entry_in_each_table():
    clear_cache()
    # (2, 1) is w0 of both cuts, and both anchors are x1.
    assert str(shat_mu((2, 1), (0, 2))) == str(shat_mu((2, 1), (0, 1, 2))) == "x1"
    assert sorted(weak_order._CACHE) == [(0, 1, 2), (0, 2)]
    assert all(list(nodes) == [(2, 1)] for nodes in weak_order._CACHE.values())
    word = (1, 4, 3, 2)
    involution, permutation = shat_mu(word, (0, 4)), shat_mu(word, (0, 1, 2, 3, 4))
    assert involution != permutation
    assert weak_order._CACHE[0, 4][word] is involution
    assert weak_order._CACHE[0, 1, 2, 3, 4][word] is permutation
    assert involution == weak_order.shat_involution(word)
    assert permutation == schubert(Permutation(word).inverse())
    clear_cache()


def test_a_two_block_image_that_is_not_the_swap_is_refused():
    # Every letter is its own block, so m(s_1) must swap the letters 1 and 2.
    nu = (0, 1, 2, 3, 4)
    assert _rank_change(1, (1, 2, 3, 4), (2, 1, 3, 4), nu) == 1
    assert _rank_change(1, (2, 1, 3, 4), (2, 1, 3, 4), nu) == 0
    for image in ((2, 1), (2, 1, 3), (2, 1, 3, 4, 5), (2, 1, 4, 3), (2, 1, 3, 3)):
        with pytest.raises(AssertionError):
            _rank_change(1, (1, 2, 3, 4), image, nu)


def _pipe_dreams(word):
    return _peel(word, _pipe_dream_moves(word), ONE, ZERO, add_linear_multiple)


def test_pipe_dreams_equal_the_chain_on_every_involution_through_rank_8(monkeypatch):
    # The 1,115 involutions with n <= 8, dominant ones included, against the
    # divided-difference chain, its oracle.  inv_schubert takes the Dhat
    # product at the dominant ones, whose code by the definition is weakly
    # decreasing, and the pipe dreams at exactly the others.
    reached = []
    monkeypatch.setattr(weak_order, "_pipe_dream_moves", lambda word: reached.append(word) or _pipe_dream_moves(word))
    expected = []
    for n in range(1, 9):
        clear_cache()
        for tau in involutions(n):
            chain = shat_mu(tau.oneline, (0, n))
            assert _pipe_dreams(tau.oneline) == chain, tau
            assert inv_schubert(tau) == chain, tau
            c = code_by_definition(tau.perm)
            if any(a < b for a, b in zip(c, c[1:])):
                expected.append(tau.oneline)
    # 147 of them are dominant: C(n, n // 2) of I_n for each n.
    assert reached == expected and len(expected) == 1115 - 147
    clear_cache()


def test_lowering_step_equals_the_four_case_oracle_at_every_descent():
    # Every (tau, a) of I_n with n <= 8: a is a descent exactly where the
    # oracle finds a predecessor, and there the two agree.
    for n in range(2, 9):
        for tau in involutions(n):
            word = tau.oneline
            for a in range(1, n):
                expected = lower(a, word, (0, n))
                if word[a - 1] > word[a]:
                    assert _lower_involution(a, word) == expected, (word, a)
                else:
                    assert expected is None, (word, a)


def test_integer_prediction_is_the_coefficient_sum_and_refuses_past_the_budget(monkeypatch):
    # Shat(1, ..., 1) on all of I_n, n <= 7.  With the budget one below it
    # the count refuses; at it, it does not.
    refused = 0
    for n in range(1, 8):
        for tau in involutions(n):
            word = tau.oneline
            total = sum(shat_mu(word, (0, n)).terms.values())
            rows = _pipe_dream_moves(word)
            monkeypatch.setattr(weak_order, "TERM_BUDGET", total)
            assert _peel(word, rows, 1, 0, _count_step) == total, tau
            if total > 1:
                monkeypatch.setattr(weak_order, "TERM_BUDGET", total - 1)
                with pytest.raises(EnumerationBoundError, match="more terms than the budget %d$" % (total - 1)):
                    _peel(word, rows, 1, 0, _count_step)
                refused += 1
    assert refused == 351 - 13  # all of I_1 .. I_7 but the 13 whose Shat is one monomial
    clear_cache()
    # The refusal comes before any polynomial is built.

    def no_polynomial(f, g, weight):
        raise AssertionError("built a polynomial")

    monkeypatch.setattr(weak_order, "add_linear_multiple", no_polynomial)
    monkeypatch.setattr(weak_order, "TERM_BUDGET", 5)
    with pytest.raises(EnumerationBoundError, match="sum to at least 6 may have more terms than the budget 5$"):
        weak_order.shat_involution((1, 4, 3, 2))


def test_pipe_dream_rows_hold_only_live_involutions_and_stay_in_budget(monkeypatch):
    # An involution enters row i only if it fixes 1 .. 2i - 2, the letters
    # the labels >= 2i - 1 of row i and below cannot move; the cells of a
    # row are taken right to left, labels n - 1 down to 2i - 1.
    for n in range(1, 9):
        for tau in involutions(n):
            rows = _pipe_dream_moves(tau.oneline)
            assert [i for i, _, _ in rows] == list(range(1, n // 2 + 1))
            for i, entries, cells in rows:
                assert all(u[: 2 * i - 2] == tuple(range(1, 2 * i - 1)) for u in entries), (tau, i)
                assert [j for j, _ in cells] == list(range(n - i, i - 1, -1))
    # The word and its lowered states are bounded by the vertex budget.
    word = (1, 4, 3, 2, 8, 7, 6, 5)
    states = 1 + sum(len(moves) for _, _, cells in _pipe_dream_moves(word) for _, moves in cells)
    monkeypatch.setattr(weak_order, "DEFAULT_VERTEX_BUDGET", states - 1)
    with pytest.raises(EnumerationBoundError, match="pass %d states, above the vertex budget %d" % (states, states - 1)):
        weak_order.shat_involution(word)
    monkeypatch.setattr(weak_order, "DEFAULT_VERTEX_BUDGET", states)
    assert weak_order.shat_involution(word) == shat_mu(word, (0, 8))
    clear_cache()


def test_walker_follows_the_scan_and_ranks_every_move_exactly():
    # Every mu-involution with n <= 6: the walker's chain is the scanning
    # oracle's, and on each of the 44,159 moves of I_mu the rank change
    # read off the two letters is the difference of lhat_mu.  The image
    # corrupted into another word of I_mu, or into a shuffled word, is
    # refused or given its exact change.
    rng = random.Random(19)
    moves = refused = ranked = 0
    for n in range(1, 7):
        for mu in all_compositions(n):
            nu = mu.nu
            words, _, edges = climb(nu)
            rank = {word: lhat_mu(word, nu) for word in words}
            first = {word: next(greedy_moves_by_scan(word, nu), None) for word in words}
            for word in words:
                expected, step = [], first[word]
                while step is not None:
                    expected.append(step)
                    step = first[step[1]]
                assert list(_greedy_moves(word, nu)) == expected, (word, nu)
            for u, i, v in edges:
                word, image = words[u], words[v]
                assert _rank_change(i, word, image, nu) == rank[image] - rank[word] == 1
                assert _rank_change(i, image, word, nu) == -1
                for bad in (rng.choice(words), tuple(rng.sample(image, n))):
                    try:
                        change = lhat_mu(bad, nu) - rank[word]
                    except AssertionError:
                        change = None
                    try:
                        found = _rank_change(i, word, bad, nu)
                    except AssertionError:
                        refused += 1
                        continue
                    assert found == change, (i, word, bad, nu)
                    ranked += 1
            moves += len(edges)
    assert moves == 44159
    assert refused and ranked


def test_lower_finds_the_one_predecessor_of_every_descent():
    for n in range(1, 7):
        for mu in all_compositions(n):
            words = [pi.oneline for pi in mu_involutions(mu)]
            preds: dict[tuple, list] = {}
            for sigma in words:
                for i in range(1, n):
                    image = act(i, sigma, mu.nu)
                    if image != sigma:
                        preds.setdefault((i, image), []).append(sigma)
            for word in words:
                for i in range(1, n):
                    found = lower(i, word, mu.nu)
                    assert preds.get((i, word), []) == ([] if found is None else [found])
                    assert (found is None) == (word.index(i) < word.index(i + 1))


def test_atom_words_equal_bruteforce_on_small_mu_involutions():
    # Relative atoms of every pair at n <= 4 (atoms of every pi among them)
    # against the definitional scan of S_n.
    for n in range(1, 5):
        for mu in all_compositions(n):
            elements = list(mu_involutions(mu))
            for base in elements:
                for pi in elements:
                    slow = atoms_mu_bruteforce(pi, base)
                    fast = atom_words(pi.oneline, base.oneline, mu.nu)
                    assert fast == {w.oneline for w in slow}, (str(base), str(pi))


def test_atom_words_at_the_top_equal_atoms_mu_top():
    for mu in all_compositions(6):
        top = tuple(range(6, 0, -1))
        found = atom_words(top, tuple(range(1, 7)), mu.nu)
        assert found == {w.oneline for w in atoms_mu_top(mu)}, mu


def test_move_closure_equals_atom_words_through_rank_7():
    # All 351 involutions of I_1..I_7: the closure of one seed atom under
    # cab <-> bca against the walk down the weak order.
    for n in range(1, 8):
        identity_word = tuple(range(1, n + 1))
        for tau in climb((0, n))[0]:
            assert involution_atom_words(tau) == atom_words(tau, identity_word, (0, n)), tau
    # Relative atoms read off the closure, on all 6,573 ordered pairs of
    # I_1..I_6, incomparable ones included, and on every coatom of w0_10.
    pairs = 0
    for n in range(1, 7):
        words = climb((0, n))[0]
        for base in words:
            for target in words:
                assert relative_atom_words(target, base) == atom_words(target, base, (0, n)), (base, target)
                pairs += 1
    assert pairs == 6573
    top, nu = tuple(range(10, 0, -1)), (0, 10)
    coatoms = [w for w in climb(nu)[0] if lhat_mu(w, nu) == lhat_mu(top, nu) - 1]
    assert coatoms
    for base in coatoms:
        assert relative_atom_words(top, base) == atom_words(top, base, nu), base


def test_every_atom_step_is_length_checked(monkeypatch):
    # A predecessor whose atoms already descend at s_1 must be refused by
    # the walk: the chain (3,2,1) -> (2,1,3) -> id applies s_1 twice.
    real = characterization.lower
    monkeypatch.setattr(
        characterization, "lower", lambda i, word, nu: (2, 1, 3) if word == (3, 2, 1) else real(i, word, nu)
    )
    with pytest.raises(AssertionError):
        atom_words((3, 2, 1), (1, 2, 3), (0, 3))
    # The cycle seed of the move closure must have the involution length:
    # counted one inversion long, the seed (3,1,2) of (3,2,1) is refused.
    real_inversions = weak_order.inversions
    monkeypatch.setattr(
        weak_order, "inversions", lambda seq: real_inversions(seq) + (list(seq) == [3, 1, 2])
    )
    with pytest.raises(AssertionError, match=r"seed \(3, 1, 2\) of \(3, 2, 1\)"):
        involution_atom_words((3, 2, 1))


def test_involution_atom_words_refuses_a_word_that_is_not_an_involution():
    # A 3-cycle, a repeated letter and a letter outside 1..n are refused
    # at once, with no seed and no closure.
    for word in [(2, 3, 1), (1, 1), (0, 2, 1)]:
        with pytest.raises(ValueError, match=re.escape("%r is not an involution" % (word,))):
            involution_atom_words(word)


def test_atom_words_refuses_a_word_outside_i_mu():
    # A repeated letter, a 3-cycle and a bad base are refused as words that
    # are not involutions, and a target and base of different lengths as
    # such, before any atom is found.
    cases = [
        ((1, 1), (1, 2), "(1, 1) is not an involution of 1..2"),
        ((2, 3, 1), (1, 2, 3), "(2, 3, 1) is not an involution of 1..3"),
        ((2, 1), (2, 2), "(2, 2) is not an involution of 1..2"),
        ((3, 2, 1), (1, 2), "(3, 2, 1) and (1, 2) differ in length"),
    ]
    for target, base, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            relative_atom_words(target, base)


def _graphs():
    """(graph, nu) for I_1..I_8 and I_mu of every composition with n <= 6."""
    for n in range(1, 9):
        yield weak_order_graph(n), (0, n)
    for n in range(1, 7):
        for mu in all_compositions(n):
            yield mu_weak_order_graph(mu), mu.nu


@pytest.fixture(scope="module")
def rank_10_graphs():
    # Two-digit letters: I_10 labeled by cycles, and I_(10) labeled by its
    # one block, with commas between the letters.  9,496 vertices each.
    graphs = [weak_order_graph(10), mu_weak_order_graph(Composition((10,)))]
    assert [graph.vertex_count for graph in graphs] == [9496, 9496]
    assert graphs[1].vertices[1][1] == "1,2,3,4,5,6,7,8,10,9"
    return graphs


def test_climb_equals_the_climb_that_acts_by_every_generator():
    # The climb skips the stays by the letters' positions; the oracle calls
    # act for every generator and drops the images equal to their words.
    nus = [mu.nu for n in range(1, 7) for mu in all_compositions(n)] + [(0, n) for n in range(1, 9)]
    for nu in nus:
        assert climb(nu) == climb_by_scan(nu), nu


def test_act_with_positions_equals_act_without():
    # The climb hands act the positions p < q of the letters i and i+1; act
    # must then give what it gives when it finds them itself.
    for n in range(1, 7):
        for mu in all_compositions(n):
            for word in mu_involution_words(mu.parts):
                for i in range(1, n):
                    p, q = word.index(i), word.index(i + 1)
                    if p < q:
                        assert act(i, word, mu.nu, p, q) == act(i, word, mu.nu), (word, mu, i)


def test_build_graph_equals_the_builder_that_sorts_everything():
    # Record for record: the same vertices with the same labels and ranks,
    # and the same edges in the same order.
    nus = [mu.nu for n in range(1, 7) for mu in all_compositions(n)] + [(0, n) for n in range(1, 9)]
    for nu in nus:
        graph, oracle = build_graph("g", nu, str), graph_by_sorting("g", nu, str)
        assert graph.vertices == oracle.vertices, nu
        assert graph.edges == oracle.edges, nu


def test_graph_edges_are_sorted_and_has_edge_finds_exactly_them():
    # The edges are sorted triples, and m(s_j) sends a vertex to one target,
    # so no two edges share (u, j).  The first and last edge are found by
    # their ends' words, and not with the target replaced by another vertex.
    for graph, _ in _graphs():
        assert graph.edges == tuple(sorted(graph.edges)), graph.name
        assert len({(u, j) for u, j, _ in graph.edges}) == len(graph.edges), graph.name
        words = [word for word, _, _ in graph.vertices]
        for u, j, v in graph.edges[:1] + graph.edges[-1:]:
            assert has_edge(graph, words[u], j, words[v])
            assert not has_edge(graph, words[u], j, words[v - 1])


def test_graph_ranks_equal_lhat_mu():
    for graph, nu in _graphs():
        for word, _, rank in graph.vertices:
            assert rank == lhat_mu(word, nu), (graph.name, word)
        keys = [(rank, word) for word, _, rank in graph.vertices]
        assert keys == sorted(keys), graph.name


def test_graph_builder_rejects_an_edge_that_skips_a_level(monkeypatch):
    # m(s_1) sends the identity of I_3 straight to the top, two ranks up.
    real = weak_order.act
    monkeypatch.setattr(
        weak_order,
        "act",
        lambda i, word, nu, *at: real(2, real(1, word, nu), nu)
        if (i, word) == (1, (1, 2, 3))
        else real(i, word, nu, *at),
    )
    with pytest.raises(AssertionError, match=r"from level \d+ to level \d+"):
        build_graph("jump", (0, 3), str)


def test_graph_builder_rejects_a_climb_short_of_the_count(monkeypatch):
    # m(s_2) fixes the identity of I_3, so (1,3,2) is never reached.
    real = weak_order.act
    monkeypatch.setattr(
        weak_order,
        "act",
        lambda i, word, nu, *at: word if (i, word) == (2, (1, 2, 3)) else real(i, word, nu, *at),
    )
    with pytest.raises(AssertionError, match=r"reached 3 words from the identity, expected \|I_mu\| = 4"):
        build_graph("short", (0, 3), str)


def test_climb_enumerates_the_definition_of_i_mu():
    for n in range(1, 7):
        for mu in all_compositions(n):
            assert [pi.oneline for pi in mu_involutions(mu)] == mu_involution_words(mu.parts), mu
    for n in range(1, 8):
        assert [tau.oneline for tau in involutions(n)] == mu_involution_words((n,)), n


def _json_dict(graph):
    # The schema the JSON writer follows, as the dict json.dumps renders.
    return {
        "vertices": [
            {
                "id": idx,
                "oneline": "[" + ",".join(str(v) for v in ol) + "]",
                "cycles": label,
                "rank": rank,
            }
            for idx, (ol, label, rank) in enumerate(graph.vertices)
        ],
        "edges": [
            {"from": u, "to": v, "label": "s_%d" % gen}
            for (u, gen, v) in graph.edges
        ],
    }


def test_graph_json_equals_json_dumps_of_the_schema(rank_10_graphs):
    for graph in [graph for graph, _ in _graphs()] + rank_10_graphs:
        expected = json.dumps(_json_dict(graph), indent=2, sort_keys=True) + "\n"
        assert graph.to_json() == expected, graph.name
    assert '"edges": []' in weak_order_graph(1).to_json()
    # A label that needs escaping, in a graph with no edges.
    odd = WeakOrderGraph("odd", (((1,), 'a"b\\c\u00e9\n', 0),), ())
    assert odd.to_json() == json.dumps(_json_dict(odd), indent=2, sort_keys=True) + "\n"


def _dot_lines(graph):
    # The DOT writer's schema, one line per vertex and per edge.
    return (
        ["digraph %s {" % graph.name]
        + ['  n%d [label="%s"];' % (idx, label) for idx, (_, label, _) in enumerate(graph.vertices)]
        + ['  n%d -> n%d [label="s_%d"];' % (u, v, gen) for (u, gen, v) in graph.edges]
        + ["}"]
    )


def _text_lines(graph):
    # The text writer's schema, one line per vertex and per edge.
    return (
        ["%s: %d vertices, %d edges" % (graph.name, len(graph.vertices), len(graph.edges))]
        + [
            "  n%d rank=%d [%s] %s" % (idx, rank, ",".join(str(v) for v in ol), label)
            for idx, (ol, label, rank) in enumerate(graph.vertices)
        ]
        + ["  n%d -s_%d-> n%d" % (u, gen, v) for (u, gen, v) in graph.edges]
    )


@pytest.mark.parametrize("rows", [1, permutations.CHUNK_ROWS])
def test_graph_chunks_join_to_the_schemas_at_every_chunk_size(monkeypatch, rows):
    # At one row per chunk every vertex and every edge is a chunk of its
    # own, so each boundary between chunks is crossed.
    monkeypatch.setattr(permutations, "CHUNK_ROWS", rows)
    odd = WeakOrderGraph("odd", (((1,), 'a"b\\c\u00e9\n%s', 0),), ())
    for graph in [graph for graph, _ in _graphs()] + [odd]:
        text = list(graph.text_chunks())
        assert "".join(text) == "\n".join(_text_lines(graph)) + "\n", graph.name
        assert "".join(graph.dot_chunks()) == "\n".join(_dot_lines(graph)) + "\n", graph.name
        expected = json.dumps(_json_dict(graph), indent=2, sort_keys=True) + "\n"
        assert "".join(graph.json_chunks()) == expected, graph.name
        # The head line, then the vertices and the edges in ceil(rows / CHUNK_ROWS) chunks each.
        assert len(text) == 1 + sum(-(-len(part) // rows) for part in (graph.vertices, graph.edges)), graph.name


def test_graph_dot_and_text_equal_their_line_by_line_schemas(rank_10_graphs):
    odd = WeakOrderGraph("odd", (((1,), "%s", 0),), ())
    for graph in [graph for graph, _ in _graphs()] + rank_10_graphs + [odd]:
        assert graph.to_dot() == "\n".join(_dot_lines(graph)) + "\n", graph.name
        assert graph.to_text() == "\n".join(_text_lines(graph)) + "\n", graph.name
