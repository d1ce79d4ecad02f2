"""
Command-line front end.

Subcommands: schubert, inv-schubert, mu-schubert, atoms, relative-atoms,
poset, verify, expand, diagram.  All output is deterministic (sorted term
and node order) and every rendered value is re-parseable by the CLI.

Every command renders through one path: its handler parses and computes
the result once and returns one renderer per format it supports, and
``main`` calls only the renderer of the format asked for and writes each
str chunk it yields as it comes: a poset or an atom list in chunks of
``CHUNK_ROWS`` rows, a sweep one report at a time.  So text mode never
builds JSON, no large output is held whole, and, as every bound is
checked before the first chunk, a command that is refused prints nothing
on stdout.  Out of memory after the first chunk leaves stdout cut short.

Exit codes: 0 success (also when the reader closes stdout early); 1
parse/validation error (one-line diagnostic on stderr); 2
enumeration-bound refusal or out of memory; 3 failed verification.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, Iterator

from .involutions import (
    atoms,
    atoms_bruteforce,
    inv_schubert,
    involution_diagram,
    parse_involution,
    relative_atoms,
    relative_atoms_bruteforce,
    weak_order_graph,
)
from .mu_involutions import (
    BRUTE_FORCE_BOUND,
    degenerate_diagram,
    mu_inv_schubert,
    mu_weak_order_graph,
    parse_composition,
    parse_mu_involution,
)
from .permutations import (
    EnumerationBoundError,
    Permutation,
    formatted,
    json_list,
    parse_permutation,
    rothe_diagram,
)
from .polynomials import IntPolynomial, parse_polynomial
from .schubert import expand_in_schubert_basis, schubert
from .verify import (
    VERIFY_BOUND,
    IdentityReport,
    reports_json,
    verify_sweep,
    verify_involution_identity,
    verify_mu_identity,
)

__all__ = ["build_parser", "main"]

# A command's result: one renderer per format, each yielding str chunks,
# and the exit code, or for a sweep a function that reads it once the
# output is written.
Output = tuple[dict[str, Callable[[], Iterable[str]]], int | Callable[[], int]]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1.

    The stock behaviour (usage dump, exit 2) is replaced by a one-line
    diagnostic, because this tool reserves exit code 2 for
    enumeration-bound refusals.
    """

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, "error: %s\n" % message)


def _render_perm(w: Permutation) -> str:
    return w.compact() if w.n <= 9 else str(w)


def _text_json(text: Callable[[], str], payload: Callable[[], object]) -> Output:
    """The text and json renderers, each one chunk; the JSON payload is
    built only when that format is asked for."""
    return {"text": lambda: [text()], "json": lambda: [json.dumps(payload(), indent=2, sort_keys=True) + "\n"]}, 0


def _polynomial(poly: IntPolynomial, header: dict) -> Output:
    return _text_json(lambda: "%s\n" % poly, lambda: {**header, "polynomial": str(poly)})


def _cmd_schubert(args: argparse.Namespace) -> Output:
    w = parse_permutation(args.word)
    return _polynomial(schubert(w), {"word": str(w)})


def _cmd_inv_schubert(args: argparse.Namespace) -> Output:
    tau = parse_involution(args.tau, args.n)
    return _polynomial(inv_schubert(tau), {"cycles": tau.cycles_string(), "n": tau.n})


def _cmd_mu_schubert(args: argparse.Namespace) -> Output:
    mu = parse_composition(args.mu)
    pi = parse_mu_involution(args.pi, mu)
    return _polynomial(mu_inv_schubert(pi), {"mu": str(mu), "word": str(pi)})


def _atoms(args: argparse.Namespace, header: dict, atom_set) -> Output:
    ordered = [_render_perm(w) for w in sorted(atom_set, key=lambda w: w.oneline)]
    # The default method's label predates the atoms read off local moves.
    method = "bruteforce" if args.bruteforce else "characterization"

    def as_json() -> Iterator[str]:
        # "atoms" sorts before every other key, and a word needs no escaping.
        rest = json.dumps({**header, "method": method, "count": len(ordered)}, indent=2, sort_keys=True)
        yield '{\n  "atoms": '
        yield from json_list('    "%s"', zip(ordered))
        yield ",\n" + rest[2:] + "\n"

    return {"text": lambda: formatted("%s\n", zip(ordered)), "json": as_json}, 0


def _bound(args: argparse.Namespace, default: int) -> int:
    if args.max_n is None:
        return default
    print("warning: enumeration bound overridden to %d" % args.max_n, file=sys.stderr)
    return args.max_n


def _cmd_atoms(args: argparse.Namespace) -> Output:
    tau = parse_involution(args.tau, args.n)
    if args.bruteforce:
        atom_set = atoms_bruteforce(tau, max_n=_bound(args, BRUTE_FORCE_BOUND))
    else:
        atom_set = atoms(tau)
    return _atoms(args, {"cycles": tau.cycles_string(), "n": tau.n}, atom_set)


def _cmd_relative_atoms(args: argparse.Namespace) -> Output:
    base = parse_involution(args.tau, args.n)
    target = parse_involution(args.upper, args.n)
    if args.bruteforce:
        atom_set = relative_atoms_bruteforce(base, target, max_n=_bound(args, BRUTE_FORCE_BOUND))
    else:
        atom_set = relative_atoms(base, target)
    header = {"base": base.cycles_string(), "target": target.cycles_string(), "n": base.n}
    return _atoms(args, header, atom_set)


def _cmd_poset(args: argparse.Namespace) -> Output:
    if args.n is not None:
        graph = weak_order_graph(args.n)
    else:
        graph = mu_weak_order_graph(parse_composition(args.mu))
    return {"text": graph.text_chunks, "json": graph.json_chunks, "dot": graph.dot_chunks}, 0


def _passed(report: IdentityReport) -> bool:
    return report.equal and report.multiplicity_free


def _cmd_verify(args: argparse.Namespace) -> Output:
    if args.all_n is not None:
        reports = verify_sweep(args.all_n, max_n=_bound(args, VERIFY_BOUND))
        passed: list[bool] = []  # one entry per report, as it is written

        def checked() -> Iterator[IdentityReport]:
            for report in reports:
                passed.append(_passed(report))
                yield report

        def text() -> Iterator[str]:
            for report in checked():
                yield "%s %s\n" % ("ok" if passed[-1] else "FAIL", report.subject)
            yield "checked %d identities\n" % len(passed)

        return {"text": text, "json": lambda: reports_json(checked())}, lambda: 0 if all(passed) else 3
    if args.mu is not None:
        report = verify_mu_identity(parse_composition(args.mu))
    else:
        if args.n is None:
            raise ValueError("--dominant-involution requires -n")
        report = verify_involution_identity(parse_involution(args.dominant_involution, args.n))
    return {"text": lambda: [report.to_text()], "json": lambda: [report.to_json()]}, 0 if _passed(report) else 3


def _cmd_expand(args: argparse.Namespace) -> Output:
    f = parse_polynomial(args.f, args.n)
    expansion = expand_in_schubert_basis(f, args.n)
    return _text_json(
        lambda: "%s\n" % expansion,
        lambda: {
            "polynomial": str(f),
            "n": args.n,
            "expansion": [{"perm": str(w), "coeff": c} for w, c in expansion.sorted_items()],
            "multiplicity_free": expansion.is_multiplicity_free(),
        },
    )


def _diagram_table(args: argparse.Namespace) -> tuple[str, dict, list, list]:
    """A diagram as (title line, JSON header, named cell families, trailing values)."""
    if args.word is not None:
        w = parse_permutation(args.word)
        rothe = rothe_diagram(w)
        title, header = "rothe diagram of %s" % _render_perm(w), {"kind": "rothe", "word": str(w)}
        return title, header, [("cells", rothe.cells)], [("code", rothe.code), ("length", len(rothe.cells))]
    if args.tau is not None:
        if args.n is None:
            raise ValueError("diagram -t requires -n")
        tau = parse_involution(args.tau, args.n)
        diagram = involution_diagram(tau)
        title = "involution diagram of %s in S_%d" % (tau.cycles_string(), tau.n)
        header = {"kind": "involution", "cycles": tau.cycles_string(), "n": tau.n}
        families = [("cells", diagram.d_all), ("diagonal", diagram.d1), ("strict", diagram.d2)]
        return title, header, families, [("code", diagram.inv_code), ("length", diagram.inv_length)]
    mu = parse_composition(args.mu)
    diagram = degenerate_diagram(mu)
    families = [("cross", diagram.d0), ("diagonal", diagram.d1), ("strict", diagram.d2)]
    header = {"kind": "degenerate", "mu": str(mu)}
    return "degenerate diagram of mu %s" % mu, header, families, [("size", diagram.size)]


def _cmd_diagram(args: argparse.Namespace) -> Output:
    title, header, families, values = _diagram_table(args)
    families = [(name, sorted(cells)) for name, cells in families]

    def text() -> str:
        lines = [title]
        for name, cells in families:
            lines.append("%s (%d): %s" % (name, len(cells), " ".join("(%d,%d)" % cell for cell in cells)))
        for name, value in values:
            lines.append("%s: %s" % (name, ",".join(map(str, value)) if isinstance(value, tuple) else value))
        return "\n".join(lines) + "\n"

    # json renders tuples as lists: cells as [i, j] pairs, codes as lists.
    return _text_json(text, lambda: {**header, **dict(families), **dict(values)})


def _add_format(parser: argparse.ArgumentParser, choices=("text", "json"), default: str = "text") -> None:
    parser.add_argument("--format", choices=list(choices), default=default, help="output format (default: %(default)s)")


def _bound_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("bound must be at least 1, got %d" % value)
    return value


def _add_max_n(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-n", type=_bound_value, default=None, metavar="N", help="override the enumeration bound (prints a warning)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invschub",
        description="Schubert polynomials of permutations, involutions and "
        "mu-involutions: polynomials, atom sets, weak-order posets, and "
        "identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("schubert", help="ordinary Schubert polynomial")
    p.add_argument("-w", "--word", required=True, help='permutation, e.g. 6435721 or "[6,4,3,5,7,2,1]"')
    _add_format(p)
    p.set_defaults(func=_cmd_schubert)

    p = sub.add_parser("inv-schubert", help="involution Schubert polynomial")
    p.add_argument("-t", "--tau", required=True, help='involution in cycle notation, e.g. "(1,5)(2,3)" or "id"')
    p.add_argument("-n", type=int, required=True, help="rank of the symmetric group")
    _add_format(p)
    p.set_defaults(func=_cmd_inv_schubert)

    p = sub.add_parser("mu-schubert", help="degenerate involution Schubert polynomial")
    p.add_argument("-m", "--mu", required=True, help='composition, e.g. "3,1"')
    p.add_argument("-p", "--pi", required=True, help='mu-involution, blocks pipe-separated, e.g. "432|1"')
    _add_format(p)
    p.set_defaults(func=_cmd_mu_schubert)

    p = sub.add_parser("atoms", help="atom set of an involution")
    p.add_argument("-t", "--tau", required=True, help="involution in cycle notation")
    p.add_argument("-n", type=int, required=True, help="rank of the symmetric group")
    p.add_argument("--bruteforce", action="store_true", help="enumerate by the definition instead of the local moves")
    _add_max_n(p)
    _add_format(p)
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("relative-atoms", help="atoms of a weak-order interval")
    p.add_argument("-t", "--tau", required=True, help="base involution in cycle notation")
    p.add_argument("-u", "--upper", required=True, help="target involution in cycle notation")
    p.add_argument("-n", type=int, required=True, help="rank of the symmetric group")
    p.add_argument("--bruteforce", action="store_true", help="enumerate by the definition instead of the local moves")
    _add_max_n(p)
    _add_format(p)
    p.set_defaults(func=_cmd_relative_atoms)

    p = sub.add_parser("poset", help="weak-order poset (involutions or mu-involutions)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", type=int, default=None, help="rank: the poset of involutions in S_n")
    group.add_argument("-m", "--mu", default=None, help="composition: the poset of mu-involutions")
    _add_format(p, choices=("text", "json", "dot"))
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("verify", help="check the atom-sum factorization identities")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dominant-involution", default=None, metavar="TAU", help="cycle notation; requires -n")
    group.add_argument("--mu", default=None, help="composition for the top mu-involution identity")
    group.add_argument("--all-n", type=int, default=None, metavar="N", help="sweep every identity at rank N")
    p.add_argument("-n", type=int, default=None, help="rank (with --dominant-involution)")
    _add_max_n(p)
    _add_format(p, default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="expand a polynomial in the Schubert basis")
    p.add_argument("-f", required=True, help='polynomial, e.g. "x1^2*x2 + x1*x3"')
    p.add_argument("-n", type=int, required=True, help="rank of the ambient symmetric group")
    _add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("diagram", help="Rothe, involution, or degenerate diagram")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-w", "--word", default=None, help="permutation: its Rothe diagram")
    group.add_argument("-t", "--tau", default=None, help="involution (cycle notation): its involution diagram; requires -n")
    group.add_argument("-m", "--mu", default=None, help="composition: the degenerate diagram of its top element")
    p.add_argument("-n", type=int, default=None, help="rank (with -t)")
    _add_format(p)
    p.set_defaults(func=_cmd_diagram)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        renderers, status = args.func(args)
        for chunk in renderers[args.format]():
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has closed stdout: stop writing, and send what is left
        # in its buffer to the null device, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except EnumerationBoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return status() if callable(status) else status


if __name__ == "__main__":
    sys.exit(main())
