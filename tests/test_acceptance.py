"""Acceptance suite: one test per top-level acceptance criterion.

Each criterion gets exactly one test function, so ``pytest -v`` prints one
pass/fail line per criterion.  Criteria that bundle several claims collect
every violation before asserting, so a single red line still reports all
failing sub-checks.  All polynomial comparisons are exact equalities of
integer polynomials; there are no tolerances anywhere.

Three conventions of the engine are pinned here as documented in the
README ("What it computes") and in the ``mu_involutions`` docstrings:

* block order (criterion 5): the closed-orbit product of a composition mu
  is the atom sum over the top element of the REVERSED composition, so the
  (3,1) fixture set {4231, 4312} is the atom set of (1,3), i.e. the set of
  inverses of the (3,1) atoms;
* the all-singleton reduction (criterion 9): for mu = (1,...,1) the
  polynomial of a word pi is the ordinary Schubert polynomial of pi^-1;
  the form without the inverse holds exactly on involutions;
* the top rank (criterion 9): the rank of the top element is the full
  degenerate diagram size |D0|+|D1|+|D2|, the strict cells D2 included.

Each convention is settled by an independent cross-check: exhaustive brute
force over S_4 for the atom sets, the ordinary Schubert polynomials for the
reduction, and the degree of the factored closed-orbit product for the
rank.
"""

from __future__ import annotations

import itertools
import json

from characterization import (
    degree,
    has_edge,
    index_of,
    maximal_vertices,
    minimal_vertices,
    mu_strings,
    rank_profile,
    relative_atoms_among,
    sort_mu,
    standardize,
)

from invschub import cli
from invschub.involutions import (
    Involution,
    atoms,
    atoms_bruteforce,
    inv_schubert,
    inv_schubert_dominant,
    involution_length,
    involutions,
    monoid_apply,
    parse_involution,
    relative_atoms,
    relative_atoms_bruteforce,
    weak_order_graph,
)
from invschub.mu_involutions import (
    Composition,
    all_compositions,
    atoms_mu_bruteforce,
    atoms_mu_top,
    degenerate_diagram,
    identity_mu_involution,
    mu_closed_orbit_polynomial,
    mu_inv_schubert,
    mu_involutions,
    mu_length,
    mu_monoid_apply,
    mu_weak_order_graph,
    parse_composition,
    parse_mu_involution,
    top_mu_involution,
)
from invschub.permutations import (
    Permutation,
    code,
    is_dominant,
    longest,
    parse_permutation,
)
from invschub.polynomials import (
    ZERO,
    divided_difference,
    monomial,
    parse_polynomial,
    variable,
)
from invschub.schubert import expand_in_schubert_basis, schubert
from invschub.verify import verify_brion_general, verify_mu_identity
from invschub.weak_order import clear_cache

x = variable


def test_criterion_01_dominant_schubert_is_the_code_monomial() -> None:
    """S_[6,4,3,5,7,2,1] from the divided-difference recursion is the single
    monomial x1^5 x2^3 x3^2 x4^2 x5^2 x6, i.e. the Rothe-diagram monomial."""
    clear_cache()
    w = parse_permutation("[6,4,3,5,7,2,1]")
    poly = schubert(w)
    assert poly == monomial((5, 3, 2, 2, 2, 1))
    assert is_dominant(w)
    assert code(w) == (5, 3, 2, 2, 2, 1, 0)
    assert poly == monomial(code(w))


def test_criterion_02_dominant_involution_ten_factor_product() -> None:
    """The involution Schubert polynomial of (1,6)(2,5)(3,7) in S_7 equals
    the 10-factor product read off its involution diagram, by both the
    product formula and the divided-difference chain from the longest
    involution."""
    tau = parse_involution("(1,6)(2,5)(3,7)", 7)
    expected = (
        x(1) * x(2) * x(3)
        * (x(1) + x(2)) * (x(1) + x(3)) * (x(1) + x(4)) * (x(1) + x(5))
        * (x(2) + x(3)) * (x(2) + x(4))
        * (x(3) + x(4))
    )
    assert inv_schubert_dominant(tau) == expected
    clear_cache()
    assert inv_schubert(tau) == expected


def test_criterion_03_atom_set_of_15_23() -> None:
    """atoms((1,5)(2,3)) = {32451, 32514, 35124, 51324}, by the minimal-length
    characterization and by brute force over S_5."""
    tau = parse_involution("(1,5)(2,3)", 5)
    expected = {"32451", "32514", "35124", "51324"}
    assert {w.compact() for w in atoms(tau)} == expected
    assert {w.compact() for w in atoms_bruteforce(tau)} == expected


def test_criterion_04_atom_sum_identity_at_n5() -> None:
    """Sum of S_{w^-1} over the atoms of (1,5)(2,3) equals
    x1 x2 (x1+x2)(x1+x3)(x1+x4), and its Schubert expansion is exactly
    {52134, 42153, 34152, 24351}, all coefficients 1."""
    tau = parse_involution("(1,5)(2,3)", 5)
    total = sum((schubert(w.inverse()) for w in atoms(tau)), ZERO)
    expected = x(1) * x(2) * (x(1) + x(2)) * (x(1) + x(3)) * (x(1) + x(4))
    assert total == expected
    expansion = expand_in_schubert_basis(total, 5)
    assert expansion.is_multiplicity_free()
    items = expansion.sorted_items()
    assert {w.compact() for w, _ in items} == {"52134", "42153", "34152", "24351"}
    assert all(coeff == 1 for _, coeff in items)


def test_criterion_05_mu_identity_for_3_1() -> None:
    """For mu = (3,1), stated in the engine's block-order convention: the
    closed-orbit product of mu is the atom sum over the top element of the
    REVERSED composition (see ``mu_closed_orbit_polynomial`` and
    ``verify_mu_identity``).

    * The top (3,1)-involution has the atoms {3421, 4231}.
    * The fixture set {4231, 4312} is the atom set of the top
      (1,3)-involution, and equals the set of inverses of the (3,1) atoms.
    * Summing S_{w^-1} over that set gives S_4231 + S_3421, which equals
      x1^2 x2 x3 (x1+x2) and the closed-orbit product of (3,1).

    Both atom sets are also confirmed by exhaustive brute force over S_4.
    Violations are collected so every failing sub-check is reported.
    """
    failures: list[str] = []
    mu = parse_composition("3,1")
    reversed_mu = parse_composition("1,3")

    def brute(m: Composition) -> set[str]:
        return {
            w.compact()
            for w in atoms_mu_bruteforce(top_mu_involution(m), identity_mu_involution(m))
        }

    computed = {w.compact() for w in atoms_mu_top(mu)}
    computed_brute = brute(mu)
    if not computed == computed_brute == {"3421", "4231"}:
        failures.append(
            "atoms of the top (3,1)-involution: %s, brute force %s, expected "
            "['3421', '4231']" % (sorted(computed), sorted(computed_brute))
        )

    stated = {"4231", "4312"}
    reversed_set = {w.compact() for w in atoms_mu_top(reversed_mu)}
    reversed_brute = brute(reversed_mu)
    inverses = {w.inverse().compact() for w in atoms_mu_top(mu)}
    if not stated == reversed_set == reversed_brute == inverses:
        failures.append(
            "stated set %s vs atoms of the top (1,3)-involution %s, brute force "
            "%s, inverses of the (3,1) atoms %s"
            % (sorted(stated), sorted(reversed_set), sorted(reversed_brute),
               sorted(inverses))
        )

    total = schubert(parse_permutation("4231")) + schubert(parse_permutation("3421"))
    atom_sum = sum(
        (schubert(parse_permutation(w).inverse()) for w in sorted(stated)), ZERO
    )
    expected = x(1) ** 2 * x(2) * x(3) * (x(1) + x(2))
    product = mu_closed_orbit_polynomial(mu)
    if not total == atom_sum == expected == product:
        failures.append(
            "S_4231 + S_3421 = %s, sum of S_{w^-1} over %s = %s, "
            "x1^2*x2*x3*(x1+x2) = %s, closed-orbit product of (3,1) = %s"
            % (total, sorted(stated), atom_sum, expected, product)
        )

    report = verify_mu_identity(mu)
    if not (report.equal and report.multiplicity_free and report.lhs == expected):
        failures.append(
            "verify_mu_identity((3,1)): equal=%s, multiplicity_free=%s, lhs=%s"
            % (report.equal, report.multiplicity_free, report.lhs)
        )

    assert not failures, "\n".join(failures)


def test_criterion_06_atoms_of_4_1_3() -> None:
    """The atom set of the top (4,1,3)-involution is the six permutations
    {76854231, 76854312, 78564231, 78564312, 85764231, 85764312}, by the
    characterization and by brute force restricted to the letter-interval
    candidates (every atom of the top element carries the letters
    {5,6,7,8}, {4}, {1,2,3} in its three blocks, so the 4!*1*3! = 144
    candidates are exhaustive; scanning all of S_8 would check the same
    144 survivors of the block filter)."""
    mu = parse_composition("4,1,3")
    expected = {
        "76854231",
        "76854312",
        "78564231",
        "78564312",
        "85764231",
        "85764312",
    }
    computed = {w.compact() for w in atoms_mu_top(mu)}
    assert computed == expected
    # Letter-interval structure of the computed atoms, then the restricted
    # exhaustive scan.
    for w in atoms_mu_top(mu):
        assert set(w.oneline[0:4]) == {5, 6, 7, 8}
        assert w.oneline[4] == 4
        assert set(w.oneline[5:8]) == {1, 2, 3}
    pool = [
        Permutation(list(a) + [4] + list(b))
        for a in itertools.permutations((5, 6, 7, 8))
        for b in itertools.permutations((1, 2, 3))
    ]
    assert len(pool) == 144
    brute = relative_atoms_among(top_mu_involution(mu), identity_mu_involution(mu), pool)
    assert {w.compact() for w in brute} == expected


def test_criterion_07_mu_length_of_586_21_743() -> None:
    """lhat_mu([586|21|743]) = 17, decomposing as blockwise involution
    lengths (1,1,2) plus l(sort) = 13."""
    pi = parse_mu_involution("586|21|743")
    assert pi.mu.parts == (3, 2, 3)
    blockwise = tuple(
        involution_length(Involution(standardize(block))) for block in mu_strings(pi.perm, pi.mu)
    )
    assert blockwise == (1, 1, 2)
    assert sort_mu(pi).compact() == "56812347"
    assert sort_mu(pi).length() == 13
    assert mu_length(pi) == sum(blockwise) + 13 == 17


def test_criterion_08_poset_fixtures() -> None:
    """Weak-order posets: the 26 involutions of S_5 with rank profile
    (1,4,6,6,5,3,1), the 16 mu-involutions of mu=(3,1) with rank profile
    (1,3,4,4,3,1), and five labeled covering edges spot-checked in each."""
    g5 = weak_order_graph(5)
    assert g5.vertex_count == 26
    assert rank_profile(g5) == (1, 4, 6, 6, 5, 3, 1)

    def inv(text: str) -> tuple[int, ...]:
        return parse_involution(text, 5).oneline

    for src, gen, dst in [
        ("id", 1, "(1,2)"),
        ("(1,2)", 2, "(1,3)"),
        ("(1,2)", 3, "(1,2)(3,4)"),
        ("(1,5)", 2, "(1,5)(2,3)"),
        ("(1,5)(2,3)", 3, "(1,5)(2,4)"),
    ]:
        assert has_edge(g5, inv(src), gen, inv(dst)), (src, gen, dst)

    mu = parse_composition("3,1")
    gmu = mu_weak_order_graph(mu)
    assert gmu.vertex_count == 16
    assert rank_profile(gmu) == (1, 3, 4, 4, 3, 1)

    def mi(text: str) -> tuple[int, ...]:
        return parse_mu_involution(text, mu).perm.oneline

    for src, gen, dst in [
        ("324|1", 3, "432|1"),
        ("243|1", 2, "432|1"),
        ("431|2", 1, "432|1"),
        ("234|1", 2, "324|1"),
        ("123|4", 1, "213|4"),
    ]:
        assert has_edge(gmu, mi(src), gen, mi(dst)), (src, gen, dst)

    # unique bottom and top
    assert minimal_vertices(gmu) == (index_of(gmu, mi("123|4")),)
    assert maximal_vertices(gmu) == (index_of(gmu, mi("432|1")),)


def test_criterion_09_property_suite() -> None:
    """Bundled structural properties.  Violations are collected so every
    failing sub-check is reported:

    * nilpotence, commutation and braid relations for divided differences;
    * idempotence, commutation and braid relations for the monoid actions;
    * atom characterization vs brute force on all involutions in S_5,
      relative atoms vs brute force on all ordered pairs in S_4;
    * the atom-sum (Brion) identity against the divided-difference chain
      for every involution in S_5 and every composition top up to n = 6,
      with multiplicity-free expansions everywhere an expansion is taken;
    * single-block reduction to involution Schubert polynomials on S_5;
    * all-singleton-blocks reduction on all 24 words of S_4: the polynomial
      of a word pi is the ordinary Schubert polynomial of pi^-1, and the
      form without the inverse holds on exactly the 10 involutions;
    * the rank of the top element counts every cell of the degenerate
      diagram, the strict cells D2 included: lhat_mu(top) = |D0|+|D1|+|D2|
      = |D0 ∪ D1 ∪ D2| = the degree of the closed-orbit product, for all
      127 compositions with n <= 7.
    """
    failures: list[str] = []

    # --- divided differences: d_i^2 = 0, commutation, braid -------------
    samples = [
        schubert(longest(4)),
        parse_polynomial("x1^3*x2 + 2*x2^2*x3 - x1*x3^2"),
        schubert(parse_permutation("35142")),
    ]
    for f in samples:
        for i in (1, 2, 3):
            if divided_difference(divided_difference(f, i), i) != ZERO:
                failures.append("d_%d^2 != 0 on %s" % (i, f))
        lhs = divided_difference(divided_difference(f, 1), 3)
        rhs = divided_difference(divided_difference(f, 3), 1)
        if lhs != rhs:
            failures.append("d_1 d_3 != d_3 d_1 on %s" % f)
        lhs = divided_difference(divided_difference(divided_difference(f, 1), 2), 1)
        rhs = divided_difference(divided_difference(divided_difference(f, 2), 1), 2)
        if lhs != rhs:
            failures.append("braid d_1d_2d_1 != d_2d_1d_2 on %s" % f)

    # --- monoid relations ------------------------------------------------
    for tau in involutions(4):
        for i in (1, 2, 3):
            if monoid_apply(i, monoid_apply(i, tau)) != monoid_apply(i, tau):
                failures.append("m(s_%d) not idempotent at %s" % (i, tau))
        if monoid_apply(1, monoid_apply(3, tau)) != monoid_apply(3, monoid_apply(1, tau)):
            failures.append("monoid commutation fails at %s" % tau)
        for i, j in ((1, 2), (2, 3)):
            lhs = monoid_apply(i, monoid_apply(j, monoid_apply(i, tau)))
            rhs = monoid_apply(j, monoid_apply(i, monoid_apply(j, tau)))
            if lhs != rhs:
                failures.append("monoid braid fails at %s" % tau)
    for mu in all_compositions(4):
        for pi in mu_involutions(mu):
            for i in (1, 2, 3):
                if mu_monoid_apply(i, mu_monoid_apply(i, pi)) != mu_monoid_apply(i, pi):
                    failures.append("mu-monoid m(s_%d) not idempotent at %s" % (i, pi))
            if mu_monoid_apply(1, mu_monoid_apply(3, pi)) != mu_monoid_apply(
                3, mu_monoid_apply(1, pi)
            ):
                failures.append("mu-monoid commutation fails at %s" % pi)
            for i, j in ((1, 2), (2, 3)):
                lhs = mu_monoid_apply(i, mu_monoid_apply(j, mu_monoid_apply(i, pi)))
                rhs = mu_monoid_apply(j, mu_monoid_apply(i, mu_monoid_apply(j, pi)))
                if lhs != rhs:
                    failures.append("mu-monoid braid fails at %s" % pi)

    # --- atoms: characterization vs brute force ---------------------------
    for tau in involutions(5):
        if atoms(tau) != atoms_bruteforce(tau):
            failures.append("atom characterization != brute force at %s" % tau)

    all_i4 = list(involutions(4))
    for tau in all_i4:
        for tau_prime in all_i4:
            if relative_atoms(tau, tau_prime) != relative_atoms_bruteforce(
                tau, tau_prime
            ):
                failures.append(
                    "relative atoms mismatch for (%s, %s)" % (tau, tau_prime)
                )

    # --- atom-sum identity vs divided-difference chain -------------------
    for tau in involutions(5):
        report = verify_brion_general(tau)
        if not report.equal:
            failures.append("atom sum != chain polynomial at %s" % report.subject)
        if not report.multiplicity_free:
            failures.append("expansion not multiplicity-free at %s" % report.subject)
    for n in range(1, 7):
        for mu in all_compositions(n):
            top = top_mu_involution(mu)
            lhs = mu_inv_schubert(top)
            rhs = sum((schubert(w.inverse()) for w in atoms_mu_top(mu)), ZERO)
            if lhs != rhs:
                failures.append("mu atom sum != chain polynomial at top of %s" % mu)
            elif n <= 5:
                expansion = expand_in_schubert_basis(lhs, n)
                if not expansion.is_multiplicity_free():
                    failures.append(
                        "mu top expansion not multiplicity-free for %s" % mu
                    )

    # --- single-block reduction: mu=(n) matches involution polynomials ---
    mu5 = parse_composition("5")
    for tau in involutions(5):
        pi = parse_mu_involution("".join(str(v) for v in tau.oneline), mu5)
        if mu_inv_schubert(pi) != inv_schubert(tau):
            failures.append("mu=(5) reduction fails at %s" % tau)
        if mu_length(pi) != involution_length(tau):
            failures.append("mu=(5) rank function differs at %s" % tau)

    # --- all-singleton reduction: mu=(1,1,1,1) gives S of the inverse -----
    mu1111 = parse_composition("1,1,1,1")
    words = list(mu_involutions(mu1111))
    bad = [pi for pi in words if mu_inv_schubert(pi) != schubert(pi.perm.inverse())]
    if bad or len(words) != 24:
        failures.append(
            "mu=(1,1,1,1) reduction Shat^mu_pi = S_{pi^-1} fails for %d of %d "
            "one-line words (first: %s)"
            % (len(bad), len(words), bad[0] if bad else None)
        )
    # Without the inverse the reduction holds exactly on the involutions.
    uninverted = {
        pi.perm.oneline for pi in words if mu_inv_schubert(pi) == schubert(pi.perm)
    }
    involution_words = {tau.oneline for tau in involutions(4)}
    if uninverted != involution_words or len(uninverted) != 10:
        first = sorted(uninverted ^ involution_words)
        failures.append(
            "mu=(1,1,1,1): Shat^mu_pi = S_pi holds on %d words, not exactly on "
            "the 10 involutions of S_4 (first difference: %s)"
            % (len(uninverted), first[0] if first else None)
        )

    # --- top rank: lhat_mu(top) = |D0|+|D1|+|D2| = degree of the product ----
    rank_bad: list[tuple[tuple[int, ...], int, int, int, int]] = []
    total = 0
    for n in range(1, 8):
        for mu in all_compositions(n):
            total += 1
            d = degenerate_diagram(mu)
            counts = (
                mu_length(top_mu_involution(mu)),
                d.size,
                len(d.d0 | d.d1 | d.d2),
                degree(mu_closed_orbit_polynomial(mu)),
            )
            if len(set(counts)) != 1:
                rank_bad.append((mu.parts, *counts))
    if rank_bad or total != 127:
        first = rank_bad[0] if rank_bad else None
        failures.append(
            "top rank lhat_mu(top) = |D0|+|D1|+|D2| = |D0 ∪ D1 ∪ D2| = degree of "
            "the closed-orbit product fails for %d of %d compositions with "
            "n <= 7 (first: mu, lhat, size, |union|, degree = %s)"
            % (len(rank_bad), total, first)
        )

    assert not failures, "%d sub-check(s) failed:\n%s" % (
        len(failures),
        "\n".join(failures),
    )


# The command matrix documented in README.md ("CLI tour"); criterion 10
# replays every entry twice and requires byte-identical output.  Keep the
# two lists in sync.
DOCUMENTED_COMMANDS: list[list[str]] = [
    ["schubert", "-w", "6435721"],
    ["schubert", "-w", "321", "--format", "json"],
    ["inv-schubert", "-t", "(1,5)(2,3)", "-n", "5"],
    ["inv-schubert", "-t", "(1,6)(2,5)(3,7)", "-n", "7", "--format", "json"],
    ["mu-schubert", "-m", "3,1", "-p", "432|1"],
    ["mu-schubert", "-m", "3,2,3", "-p", "586|21|743", "--format", "json"],
    ["atoms", "-t", "(1,5)(2,3)", "-n", "5"],
    ["atoms", "-t", "(1,3)", "-n", "3", "--bruteforce", "--format", "json"],
    ["relative-atoms", "-t", "(1,2)", "-u", "(1,2)(3,4)", "-n", "4"],
    ["poset", "-n", "4"],
    ["poset", "-m", "3,1", "--format", "dot"],
    ["poset", "-n", "5", "--format", "json"],
    ["verify", "--dominant-involution", "(1,5)(2,3)", "-n", "5", "--format", "text"],
    ["verify", "--mu", "3,1"],
    ["verify", "--all-n", "4", "--format", "text"],
    ["expand", "-f", "x1^2*x2 + x1*x2^2", "-n", "4"],
    ["diagram", "-w", "4231"],
    ["diagram", "-t", "(1,6)(2,5)(3,7)", "-n", "7"],
    ["diagram", "-m", "4,1,3", "--format", "json"],
]


def test_criterion_10_cli_determinism_and_failure_exit_code(capsys, monkeypatch) -> None:
    """Every documented CLI invocation succeeds and is byte-deterministic
    across repeated runs (caches cleared in between), and a failed
    verification surfaces as exit code 3."""

    for argv in DOCUMENTED_COMMANDS:
        clear_cache()
        rc1 = cli.main(argv)
        first = capsys.readouterr()
        clear_cache()
        rc2 = cli.main(argv)
        second = capsys.readouterr()
        assert rc1 == rc2 == 0, argv
        assert first.out == second.out, argv
        assert first.err == second.err, argv
        assert first.out.endswith("\n"), argv
        if "json" in argv:
            json.loads(first.out)

    # exit code 3: any report that is not (equal and multiplicity-free)
    genuine = verify_mu_identity(parse_composition("2"))
    doctored = genuine._replace(equal=False)
    monkeypatch.setattr(cli, "verify_mu_identity", lambda mu: doctored)
    rc = cli.main(["verify", "--mu", "2"])
    out = capsys.readouterr().out
    assert rc == 3
    assert json.loads(out)["equal"] is False
