"""The benchmark's workloads: seeded operations on invschub and their checks.

Every operation is a call (or, for ``cli_queries``, a process) whose result
is rendered to text and checked after the timer stops.  A failed check, an
exception or a non-zero exit marks the operation failed.

Submodules are reached through ``importlib.import_module``: the package
attributes ``invschub.schubert`` and ``invschub.involutions`` are functions
that shadow the submodules of the same name, so ``import invschub.schubert
as m`` would bind the function.

The seed picks the inputs and their order.  Samples are drawn so that every
seed does the same amount of work: whole populations (S_7, I_7, I_6) are
shuffled rather than sampled, and a composition is always drawn together
with the choice between it and its reverse, which has the same number of
mu-involutions.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

perms = importlib.import_module("invschub.permutations")
polys = importlib.import_module("invschub.polynomials")
schub = importlib.import_module("invschub.schubert")
invol = importlib.import_module("invschub.involutions")
muinv = importlib.import_module("invschub.mu_involutions")
verify = importlib.import_module("invschub.verify")
cli = importlib.import_module("invschub.cli")

# The criterion-10 commands of the acceptance suite, replayed verbatim.
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


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` runs after the timer stops.

    ``run(session)`` returns ``(result, text)``, where ``text`` is the
    rendered output that the digest covers; ``check(result, session)``
    returns an error message, or None when the output is right.
    """

    kind: str
    key: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    ops: list[Op]
    # Extra operations run only by traced passes, after ``ops``.
    probes: list[Op]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def polynomial_error(kind: str, x, p) -> str | None:
    """Check a polynomial answer against properties the engine cannot fake.

    The polynomial must be homogeneous of degree l(w), lhat(tau) or
    lhat_mu(pi).  S_w must have trailing term x^code(w) with coefficient 1,
    and dominant inputs must equal the closed product formula.
    """
    if p.is_zero():
        return "zero polynomial"
    if kind == "schubert":
        degree = x.length()
    elif kind == "inv_schubert":
        degree = invol.involution_length(x)
    else:
        degree = muinv.mu_length(x)
    if any(sum(exps) != degree for exps in p.terms):
        return "not homogeneous of degree %d: %s" % (degree, p)
    if kind == "schubert":
        if p.trailing_term() != polys.monomial(perms.code(x)).trailing_term():
            return "trailing term of S_%s is not x^code" % x
        if perms.is_dominant(x) and p != schub.schubert_dominant(x):
            return "S_%s differs from the dominant monomial" % x
    elif kind == "inv_schubert" and perms.is_dominant(x.perm):
        if p != invol.inv_schubert_dominant(x):
            return "Shat_%s differs from the dominant product" % x
    return None


def _count_terms(p, counters) -> None:
    terms = len(p.terms)
    counters["polynomials.terms_total"] += terms
    counters["polynomials.terms_max"] = max(counters["polynomials.terms_max"], terms)


def _render_perms(atom_set) -> str:
    return " ".join(str(w) for w in sorted(atom_set, key=lambda w: w.oneline))


# ---------------------------------------------------------------------------
# Operation builders
# ---------------------------------------------------------------------------

_POLY_CALLS = {
    "schubert": ("schubert.schubert", schub.schubert),
    "inv_schubert": ("involutions.inv_schubert", invol.inv_schubert),
    "mu_inv_schubert": ("mu_involutions.mu_inv_schubert", muinv.mu_inv_schubert),
}


def poly_op(kind: str, x) -> Op:
    """Compute and render S_w, Shat_tau or Shat^mu_pi."""
    name, fn = _POLY_CALLS[kind]

    def run(s):
        p = s.call(name, fn, x)
        return p, s.call("polynomials.render", str, p)

    def check(p, s):
        _count_terms(p, s.counters)
        if kind == "inv_schubert":
            top = invol.involution_length(invol.longest_involution(x.n))
            s.counters["involutions.chain_steps"] += top - invol.involution_length(x)
        return polynomial_error(kind, x, p)

    return Op(kind, "%s %s n=%d" % (kind, x, x.n), run, check)


def _greedy_labels(x, raise_fn, top):
    # Labels of the chain x -> ... -> top, smallest raising generator first.
    labels = []
    while x.oneline != top:
        for i in range(1, len(top)):
            image = raise_fn(i, x)
            if image.oneline != x.oneline:
                labels.append(i)
                x = image
                break
        else:
            raise AssertionError("no raising generator below the top at %s" % x)
    return labels


def kernel_probe_op(kind: str, x) -> Op:
    """Replay divided differences down the greedy chain from a public anchor.

    The labels come from ``right_multiply_s``, ``monoid_apply`` or
    ``mu_monoid_apply``; the anchor is the staircase monomial,
    ``closed_orbit_polynomial`` or ``mu_closed_orbit_polynomial`` of the
    reversed composition.  The result must equal the engine's answer.
    """
    top = tuple(range(x.n, 0, -1))
    if kind == "schubert":
        # Right multiplication lowers at a descent, so only ascents raise.
        raise_fn = lambda i, w: w.right_multiply_s(i) if i in w.ascents() else w
        anchor = lambda: polys.monomial(tuple(range(x.n - 1, -1, -1)))
    elif kind == "inv_schubert":
        raise_fn = invol.monoid_apply
        anchor = lambda: invol.closed_orbit_polynomial(x.n)
    else:
        raise_fn = muinv.mu_monoid_apply
        reversed_mu = muinv.Composition(tuple(reversed(x.mu.parts)))
        anchor = lambda: muinv.mu_closed_orbit_polynomial(reversed_mu)

    def run(s):
        f = anchor()
        terms = 0
        for i in reversed(_greedy_labels(x, raise_fn, top)):
            terms += len(f.terms)
            f = s.call("polynomials.divided_difference", polys.divided_difference, f, i)
        return (f, terms), str(f)

    def check(result, s):
        f, terms = result
        s.counters["polynomials.divided_difference.terms_in"] += terms
        if f != _POLY_CALLS[kind][1](x):
            return "replayed chain for %s %s differs from the engine" % (kind, x)
        return None

    return Op("kernel_probe", "kernel_probe %s %s" % (kind, x), run, check)


def atoms_op(tau) -> Op:
    def run(s):
        found = s.call("involutions.atoms", invol.atoms, tau)
        return found, _render_perms(found)

    def check(found, s):
        s.counters["involutions.atoms.found"] += len(found)
        if not found:
            return "no atoms for %s" % tau
        base = invol.identity_involution(tau.n)
        length = invol.involution_length(tau)
        for w in found:
            if w.length() != length or invol.monoid_apply_word(w, base) != tau:
                return "%s is not an atom of %s" % (w, tau)
        return None

    return Op("atoms", "atoms %s n=%d" % (tau, tau.n), run, check)


def relative_atoms_op(tau, upper) -> Op:
    def run(s):
        found = s.call("involutions.relative_atoms", invol.relative_atoms, tau, upper)
        return found, _render_perms(found)

    def check(found, s):
        if not found:
            return "no relative atoms for %s < %s" % (tau, upper)
        gap = invol.involution_length(upper) - invol.involution_length(tau)
        for w in found:
            if w.length() != gap or invol.monoid_apply_word(w, tau) != upper:
                return "%s is not a relative atom of %s < %s" % (w, tau, upper)
        return None

    return Op("relative_atoms", "relative_atoms %s %s n=%d" % (tau, upper, tau.n), run, check)


def atoms_mu_top_op(mu) -> Op:
    def run(s):
        found = s.call("mu_involutions.atoms_mu_top", muinv.atoms_mu_top, mu)
        return found, _render_perms(found)

    def check(found, s):
        top = muinv.top_mu_involution(mu)
        base = muinv.identity_mu_involution(mu)
        length = muinv.mu_length(top)
        if not found:
            return "no atoms for the top of %s" % mu
        for w in found:
            if w.length() != length or muinv.mu_monoid_apply_word(w, base) != top:
                return "%s is not an atom of the top of %s" % (w, mu)
        return None

    return Op("atoms_mu_top", "atoms_mu_top %s" % mu, run, check)


def report_op(function: str, x) -> Op:
    """One identity report from ``verify.<function>``."""
    fn = getattr(verify, function)

    def run(s):
        report = s.call("verify." + function, fn, x)
        return report, report.to_json()

    def check(report, s):
        s.counters["verify.reports"] += 1
        if not (report.equal and report.multiplicity_free):
            return "identity failed: %s" % report.subject
        return None

    return Op("report", "%s %s n=%d" % (function, x, x.n), run, check)


def expand_op(mu) -> Op:
    """Expand the factored product of ``mu`` in the Schubert basis."""
    n = mu.n

    def run(s):
        f = muinv.mu_closed_orbit_polynomial(mu)
        expansion = s.call(
            "schubert.expand_in_schubert_basis", schub.expand_in_schubert_basis, f, n
        )
        return expansion, str(expansion)

    def check(expansion, s):
        reversed_mu = muinv.Composition(tuple(reversed(mu.parts)))
        expected = {w.inverse(): 1 for w in muinv.atoms_mu_top(reversed_mu)}
        if expansion.coefficients != expected:
            return "expansion of the %s product is not its inverted atom set" % mu
        return None

    return Op("expand", "expand %s" % mu, run, check)


def _involution_count(n: int) -> int:
    """|I_n| from the recurrence |I_n| = |I_{n-1}| + (n-1)|I_{n-2}|."""
    counts = [1, 1]
    for m in range(2, n + 1):
        counts.append(counts[-1] + (m - 1) * counts[-2])
    return counts[n]


def poset_op(kind: str, x) -> Op:
    """Build a weak-order poset and render it as JSON and as DOT."""
    if kind == "weak_order_graph":
        name, build = "involutions.weak_order_graph", invol.weak_order_graph
        expected = _involution_count(x)
    else:
        name, build = "mu_involutions.mu_weak_order_graph", muinv.mu_weak_order_graph
        expected = muinv.count_mu_involutions(x)

    def run(s):
        graph = s.call(name, build, x)
        as_json = s.call("involutions.WeakOrderGraph.to_json", graph.to_json)
        as_dot = s.call("involutions.WeakOrderGraph.to_dot", graph.to_dot)
        return (graph, as_json, as_dot), as_json + as_dot

    def check(result, s):
        graph, as_json, as_dot = result
        vertices, edges = graph.vertex_count, len(graph.edges)
        s.counters[name + ".vertices"] += vertices
        s.counters[name + ".edges"] += edges
        if vertices != expected:
            return "%s has %d vertices, expected %d" % (graph.name, vertices, expected)
        parsed = json.loads(as_json)
        if (len(parsed["vertices"]), len(parsed["edges"])) != (vertices, edges):
            return "JSON of %s disagrees with the graph" % graph.name
        if as_dot.count("\n") != vertices + edges + 2:
            return "DOT of %s disagrees with the graph" % graph.name
        return None

    return Op(kind, "%s %s" % (kind, x), run, check)


class Launcher:
    """A small process that starts the ``python -m invschub`` queries.

    A child started from the worker, which holds the engine and its caches,
    would count the worker's memory in its own peak; the launcher holds only
    the interpreter, so the children's peak is their own.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return subprocess.CompletedProcess(
            argv, reply["returncode"],
            base64.b64decode(reply["stdout"]), base64.b64decode(reply["stderr"]),
        )

    def close(self) -> int:
        """Stop the launcher; return its children's peak RSS in KiB."""
        self._proc.stdin.close()
        last = json.loads(self._proc.stdout.readline())
        self._proc.stdout.close()
        self._proc.wait(timeout=60)
        return last["child_rss_kb"]


class Session:
    """What operations use while a pass runs: the tracer's ``call``, the
    output counters and the launcher for command-line queries."""

    def __init__(self, tracer, launcher: Launcher | None = None):
        self.tracer = tracer
        self.call = tracer.call
        self.counters: dict[str, int] = defaultdict(int)
        self.launcher = launcher

    def launch(self, argv: list[str]) -> subprocess.CompletedProcess:
        return self.launcher.run(argv)

    def close(self) -> int | None:
        return self.launcher.close() if self.launcher is not None else None


def _main_in_process(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def _parse(argv):
    try:
        return cli.build_parser().parse_args(list(argv))
    except SystemExit as exc:
        raise ValueError("argv %r does not parse" % (argv,)) from exc


def cli_op(argv: list[str]) -> Op:
    """``python -m invschub <argv>`` in a fresh process; stdout must equal
    the same argv run in-process through ``invschub.cli.main``."""

    def run(s):
        proc = s.call("cli.process", s.launch, argv)
        return proc, proc.stdout.decode("utf-8", "replace")

    def check(proc, s):
        s.counters["cli.stdout_bytes"] += len(proc.stdout)
        code, expected = s.call("cli.main", _main_in_process, argv)
        s.call("cli.parse", _parse, argv)
        if proc.returncode != 0:
            return "exit %d: %s" % (proc.returncode, proc.stderr.decode("utf-8", "replace").strip())
        if code != 0 or proc.stdout != expected.encode("utf-8"):
            return "stdout differs from the in-process cli.main output"
        return None

    return Op("cli", " ".join(argv), run, check)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def pick_compositions(rng: random.Random, n: int) -> list:
    """Every palindromic composition of n, and one of each composition and
    its reverse; so every seed gets the same multiset of block sizes."""
    chosen = []
    for mu in muinv.all_compositions(n):
        reverse = tuple(reversed(mu.parts))
        if mu.parts == reverse:
            chosen.append(mu)
        elif mu.parts < reverse:
            chosen.append(rng.choice([mu, muinv.Composition(reverse)]))
    return chosen


def systematic_sample(rng: random.Random, population: list, k: int) -> list:
    """k elements evenly spaced through ``population`` from a seeded offset."""
    step = len(population) // k
    offset = rng.randrange(step)
    return [population[offset + j * step] for j in range(k)]


def walk_up(rng: random.Random, tau, steps: int):
    """A random element above tau in weak order, ``steps`` raising moves up
    (fewer when tau reaches the top first)."""
    for _ in range(steps):
        images = [invol.monoid_apply(i, tau) for i in range(1, tau.n)]
        raised = [image for image in images if image != tau]
        if not raised:
            break
        tau = rng.choice(raised)
    return tau


def interval(rng: random.Random, n: int):
    """A seeded pair tau < tau' of I_n."""
    below = list(invol.involutions(n))[:-1]  # all but the top, w0
    tau = rng.choice(below)
    return tau, walk_up(rng, tau, rng.randint(1, 3))


def random_permutation(rng: random.Random, n: int):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return perms.Permutation(images)


def random_mu_involution(rng: random.Random, mu):
    """A uniform choice of block alphabets and of an involution per block."""
    letters = list(range(1, mu.n + 1))
    rng.shuffle(letters)
    word: list[int] = []
    start = 0
    for part in mu.parts:
        alphabet = sorted(letters[start:start + part])
        start += part
        block = rng.choice(list(invol.involutions(part)))
        word += [alphabet[v - 1] for v in block.oneline]
    return muinv.MuInvolution(perms.Permutation(word), mu)


def _format(rng: random.Random, choices=("text", "json")) -> list[str]:
    return ["--format", rng.choice(choices)]


def cli_query(rng: random.Random, command: str, r: int) -> list[str]:
    """One valid query of ``command`` at rank r.

    Commands that scan all of S_n (atoms, relative-atoms, verify of one
    involution) stay at n <= 7, and mu-posets at n <= 6, so that no single
    query outgrows the start-up cost it is measured against.
    """
    if command == "schubert":
        return ["schubert", "-w", random_permutation(rng, r).compact()] + _format(rng)
    if command == "inv-schubert":
        tau = rng.choice(list(invol.involutions(r)))
        return ["inv-schubert", "-t", tau.cycles_string(), "-n", str(r)] + _format(rng)
    if command == "mu-schubert":
        mu = rng.choice(muinv.all_compositions(r))
        pi = random_mu_involution(rng, mu)
        return ["mu-schubert", "-m", str(mu), "-p", str(pi)] + _format(rng)
    if command == "atoms":
        tau = rng.choice(list(invol.involutions(min(r, 7))))
        return ["atoms", "-t", tau.cycles_string(), "-n", str(tau.n)] + _format(rng)
    if command == "relative-atoms":
        tau, upper = interval(rng, min(r, 7))
        return [
            "relative-atoms", "-t", tau.cycles_string(), "-u", upper.cycles_string(),
            "-n", str(tau.n),
        ] + _format(rng)
    if command == "poset":
        if r <= 6:
            return ["poset", "-m", str(rng.choice(muinv.all_compositions(r)))] + _format(
                rng, ("text", "json", "dot"))
        # The largest poset always renders JSON, the largest output of any
        # query, so the children's peak memory is set by the same query on
        # every seed.
        return ["poset", "-n", str(r), "--format", "json" if r == 8 else rng.choice(("text", "json", "dot"))]
    if command == "verify":
        if r <= 5:
            target = ["--all-n", str(r)]
        elif r == 6:
            dominant = [t for t in invol.involutions(r) if perms.is_dominant(t.perm)]
            target = ["--dominant-involution", rng.choice(dominant).cycles_string(), "-n", str(r)]
        else:
            mus = [mu for mu in muinv.all_compositions(r) if max(mu.parts) <= 7]
            target = ["--mu", str(rng.choice(mus))]
        return ["verify"] + target + _format(rng)
    if command == "expand":
        u, v = random_permutation(rng, r), random_permutation(rng, r)
        f = schub.schubert(u) + schub.schubert(v)
        return ["expand", "-f", str(f), "-n", str(r)] + _format(rng)
    if command == "diagram":
        if r == 6:
            tau = rng.choice(list(invol.involutions(r)))
            target = ["-t", tau.cycles_string(), "-n", str(r)]
        elif r == 7:
            target = ["-m", str(rng.choice(muinv.all_compositions(r)))]
        else:
            target = ["-w", random_permutation(rng, r).compact()]
        return ["diagram"] + target + _format(rng)
    raise ValueError("unknown command %r" % command)


CLI_COMMANDS = (
    "schubert", "inv-schubert", "mu-schubert", "atoms", "relative-atoms",
    "poset", "verify", "expand", "diagram",
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def poly_sweep(rng: random.Random, toy: bool) -> Workload:
    """S_w over S_7, Shat over I_7 and a sample of I_8, Shat^mu over the
    mu-involutions of seeded compositions of 6; all rendered."""
    n_perm, n_inv, n_big, big_k, n_mu, probe_k = (4, 4, 5, 2, 3, 2) if toy else (7, 7, 8, 32, 6, 24)
    items = [("schubert", w) for w in perms.all_permutations(n_perm)]
    items += [("inv_schubert", tau) for tau in invol.involutions(n_inv)]
    big = systematic_sample(rng, list(invol.involutions(n_big)), big_k)
    items += [("inv_schubert", tau) for tau in big]
    items += [
        ("mu_inv_schubert", pi)
        for mu in pick_compositions(rng, n_mu)
        for pi in muinv.mu_involutions(mu)
    ]
    rng.shuffle(items)
    probes = [("inv_schubert", tau) for tau in big]
    for kind in ("schubert", "inv_schubert", "mu_inv_schubert"):
        pool = [item for item in items if item[0] == kind and item[1].n != n_big]
        probes += rng.sample(pool, probe_k)
    return Workload(
        [poly_op(kind, x) for kind, x in items],
        [kernel_probe_op(kind, x) for kind, x in probes],
    )


def atom_verify(rng: random.Random, toy: bool) -> Workload:
    """The verify_all(6) sweep one report at a time, atoms on a sample of
    I_8, relative atoms of seeded intervals of I_7, and the top atoms,
    identity and expansion for compositions of 7."""
    n_rep, n_atoms, atoms_k, n_rel, rel_k, n_mu, mu_k = (3, 5, 2, 4, 2, 4, 1) if toy else (6, 8, 6, 7, 8, 7, 4)
    ops = [report_op("verify_brion_general", tau) for tau in invol.involutions(n_rep)]
    ops += [
        report_op("verify_involution_identity", tau)
        for tau in invol.involutions(n_rep)
        if perms.is_dominant(tau.perm)
    ]
    ops += [report_op("verify_mu_identity", mu) for mu in muinv.all_compositions(n_rep)]
    ops += [
        atoms_op(tau)
        for tau in systematic_sample(rng, list(invol.involutions(n_atoms)), atoms_k)
    ]
    ops += [relative_atoms_op(*interval(rng, n_rel)) for _ in range(rel_k)]
    # Every palindromic composition of 7 and a few others: these operations
    # take about a millisecond, and a few of them keep the median inside the
    # n=6 reports rather than between the two groups.
    picks = pick_compositions(rng, n_mu)
    others = [mu for mu in picks if mu.parts != mu.parts[::-1]]
    for mu in [mu for mu in picks if mu not in others] + systematic_sample(rng, others, mu_k):
        ops += [atoms_mu_top_op(mu), report_op("verify_mu_identity", mu), expand_op(mu)]
    rng.shuffle(ops)
    return Workload(ops, [])


def poset_build(rng: random.Random, toy: bool) -> Workload:
    """Weak-order posets of I_6..I_8 and of I_mu for every composition of 5
    and 6, in seeded order.  That is 51 operations, so the tail percentile
    (p75) has twelve samples beyond it, and the median falls among the
    compositions of 6 rather than in the gap below them.  The set is the
    same on every seed, so the median does not depend on a draw."""
    ranks, mu_sizes = ((3, 4), (3,)) if toy else ((6, 7, 8), (5, 6))
    ops = [poset_op("weak_order_graph", n) for n in ranks]
    ops += [
        poset_op("mu_weak_order_graph", mu) for m in mu_sizes for mu in muinv.all_compositions(m)
    ]
    rng.shuffle(ops)
    return Workload(ops, [])


def cli_queries(rng: random.Random, toy: bool) -> Workload:
    """The documented commands plus one seeded query of every subcommand at
    each rank 5..8, one process per query."""
    documented, ranks = (DOCUMENTED_COMMANDS[:3], (4,)) if toy else (DOCUMENTED_COMMANDS, (5, 6, 7, 8))
    queries = [list(argv) for argv in documented]
    queries += [cli_query(rng, command, r) for command in CLI_COMMANDS for r in ranks]
    rng.shuffle(queries)
    return Workload([cli_op(argv) for argv in queries], [])


WORKLOADS = {
    "poly_sweep": poly_sweep,
    "atom_verify": atom_verify,
    "poset_build": poset_build,
    "cli_queries": cli_queries,
}


def layer_probe() -> list[Op]:
    """One toy-sized call into every layer the traced metrics name.

    Traced passes of every workload end with it, so that each per-layer
    metric is measured on every workload; on a workload that does not use
    a layer the probe is all that layer shows.
    """
    w = perms.Permutation([2, 3, 1])
    tau = invol.parse_involution("(1,3)", 3)
    pi = muinv.parse_mu_involution("21|3")
    mu = muinv.Composition((2, 1))
    return [
        poly_op("schubert", w),
        poly_op("inv_schubert", tau),
        poly_op("mu_inv_schubert", pi),
        kernel_probe_op("schubert", w),
        kernel_probe_op("inv_schubert", tau),
        kernel_probe_op("mu_inv_schubert", pi),
        atoms_op(tau),
        relative_atoms_op(invol.identity_involution(3), tau),
        atoms_mu_top_op(mu),
        report_op("verify_brion_general", tau),
        report_op("verify_involution_identity", invol.parse_involution("(1,2)", 2)),
        report_op("verify_mu_identity", mu),
        expand_op(mu),
        poset_op("weak_order_graph", 3),
        poset_op("mu_weak_order_graph", mu),
        cli_op(["diagram", "-w", "21"]),
    ]


def build(name: str, seed: int, toy: bool) -> Workload:
    """The workload ``name`` for ``seed``; the same seed gives the same ops."""
    return WORKLOADS[name](random.Random("%s:%d" % (name, seed)), toy)


def digest(lines: list[str]) -> str:
    """Order-free digest of ``key<TAB>sha256(output)`` lines."""
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def output_line(op: Op, text: str) -> str:
    return "%s\t%s" % (op.key, hashlib.sha256(text.encode("utf-8")).hexdigest())
