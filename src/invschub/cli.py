"""
Command-line front end.

Subcommands: schubert, inv-schubert, mu-schubert, atoms, relative-atoms,
poset, verify, expand, diagram.  All output is deterministic (sorted term
and node order) and every rendered value is re-parseable by the CLI.

Exit codes: 0 success; 1 parse/validation error (one-line diagnostic on
stderr); 2 enumeration-bound refusal; 3 failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys

from .involutions import (
    BRUTE_FORCE_BOUND,
    POSET_RANK_BOUND,
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
    degenerate_diagram,
    mu_inv_schubert,
    mu_weak_order_graph,
    parse_composition,
    parse_mu_involution,
)
from .permutations import (
    EnumerationBoundError,
    Permutation,
    code,
    parse_permutation,
    rothe_diagram,
)
from .polynomials import parse_polynomial
from .schubert import expand_in_schubert_basis, schubert
from .verify import (
    verify_all,
    verify_involution_identity,
    verify_mu_identity,
)

__all__ = ["build_parser", "main"]


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


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_schubert(args: argparse.Namespace) -> int:
    w = parse_permutation(args.word)
    poly = schubert(w)
    if args.format == "json":
        _emit_json({"word": str(w), "polynomial": str(poly)})
    else:
        print(poly)
    return 0


def _cmd_inv_schubert(args: argparse.Namespace) -> int:
    tau = parse_involution(args.tau, args.n)
    poly = inv_schubert(tau)
    if args.format == "json":
        _emit_json(
            {"cycles": tau.cycles_string(), "n": tau.n, "polynomial": str(poly)}
        )
    else:
        print(poly)
    return 0


def _cmd_mu_schubert(args: argparse.Namespace) -> int:
    mu = parse_composition(args.mu)
    pi = parse_mu_involution(args.pi, mu)
    poly = mu_inv_schubert(pi)
    if args.format == "json":
        _emit_json({"mu": str(mu), "word": str(pi), "polynomial": str(poly)})
    else:
        print(poly)
    return 0


def _print_atoms(args: argparse.Namespace, header: dict, atom_set) -> int:
    ordered = sorted(atom_set, key=lambda w: w.oneline)
    if args.format == "json":
        # The default method's label predates the weak-order recursion.
        method = "bruteforce" if args.bruteforce else "characterization"
        atoms_json = [_render_perm(w) for w in ordered]
        _emit_json({**header, "method": method, "atoms": atoms_json, "count": len(ordered)})
    else:
        for w in ordered:
            print(_render_perm(w))
    return 0


def _bound(args: argparse.Namespace, default: int) -> int:
    if args.max_n is None:
        return default
    print("warning: enumeration bound overridden to %d" % args.max_n, file=sys.stderr)
    return args.max_n


def _cmd_atoms(args: argparse.Namespace) -> int:
    tau = parse_involution(args.tau, args.n)
    if args.bruteforce:
        atom_set = atoms_bruteforce(tau, max_n=_bound(args, BRUTE_FORCE_BOUND))
    else:
        atom_set = atoms(tau)
    return _print_atoms(args, {"cycles": tau.cycles_string(), "n": tau.n}, atom_set)


def _cmd_relative_atoms(args: argparse.Namespace) -> int:
    base = parse_involution(args.tau, args.n)
    target = parse_involution(args.upper, args.n)
    if args.bruteforce:
        atom_set = relative_atoms_bruteforce(base, target, max_n=_bound(args, BRUTE_FORCE_BOUND))
    else:
        atom_set = relative_atoms(base, target)
    header = {"base": base.cycles_string(), "target": target.cycles_string(), "n": base.n}
    return _print_atoms(args, header, atom_set)


def _cmd_poset(args: argparse.Namespace) -> int:
    bound = _bound(args, POSET_RANK_BOUND)
    if args.n is not None:
        graph = weak_order_graph(args.n, max_n=bound)
    else:
        graph = mu_weak_order_graph(parse_composition(args.mu), max_n=bound)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot())
    elif args.format == "json":
        sys.stdout.write(graph.to_json())
    else:
        sys.stdout.write(graph.to_text())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.all_n is not None:
        reports = verify_all(args.all_n, max_n=_bound(args, BRUTE_FORCE_BOUND))
    elif args.mu is not None:
        reports = [verify_mu_identity(parse_composition(args.mu))]
    else:
        if args.n is None:
            raise ValueError("--dominant-involution requires -n")
        tau = parse_involution(args.dominant_involution, args.n)
        reports = [verify_involution_identity(tau)]
    if args.format == "json":
        if len(reports) == 1 and args.all_n is None:
            sys.stdout.write(reports[0].to_json())
        else:
            _emit_json([r.to_json_dict() for r in reports])
    else:
        if args.all_n is None:
            for report in reports:
                sys.stdout.write(report.to_text())
        else:
            for report in reports:
                verdict = "ok" if report.equal and report.multiplicity_free else "FAIL"
                print("%s %s" % (verdict, report.subject))
            print("checked %d identities" % len(reports))
    failed = [r for r in reports if not r.equal or not r.multiplicity_free]
    return 3 if failed else 0


def _cmd_expand(args: argparse.Namespace) -> int:
    f = parse_polynomial(args.f)
    expansion = expand_in_schubert_basis(f, args.n)
    if args.format == "json":
        _emit_json(
            {
                "polynomial": str(f),
                "n": args.n,
                "expansion": [
                    {"perm": str(w), "coeff": c} for w, c in expansion.sorted_items()
                ],
                "multiplicity_free": expansion.is_multiplicity_free(),
            }
        )
    else:
        print(expansion)
    return 0


def _cells(pairs) -> str:
    return " ".join("(%d,%d)" % cell for cell in sorted(pairs))


def _cmd_diagram(args: argparse.Namespace) -> int:
    if args.word is not None:
        w = parse_permutation(args.word)
        cells = sorted(rothe_diagram(w).cells)
        if args.format == "json":
            _emit_json(
                {
                    "kind": "rothe",
                    "word": str(w),
                    "cells": [[i, j] for i, j in cells],
                    "code": list(code(w)),
                    "length": len(cells),
                }
            )
        else:
            print("rothe diagram of %s" % _render_perm(w))
            print("cells (%d): %s" % (len(cells), _cells(cells)))
            print("code: %s" % ",".join(str(c) for c in code(w)))
            print("length: %d" % len(cells))
    elif args.tau is not None:
        if args.n is None:
            raise ValueError("diagram -t requires -n")
        tau = parse_involution(args.tau, args.n)
        diagram = involution_diagram(tau)
        if args.format == "json":
            _emit_json(
                {
                    "kind": "involution",
                    "cycles": tau.cycles_string(),
                    "n": tau.n,
                    "cells": [[i, j] for i, j in sorted(diagram.d_all)],
                    "diagonal": [[i, j] for i, j in sorted(diagram.d1)],
                    "strict": [[i, j] for i, j in sorted(diagram.d2)],
                    "code": list(diagram.inv_code),
                    "length": diagram.inv_length,
                }
            )
        else:
            print(
                "involution diagram of %s in S_%d" % (tau.cycles_string(), tau.n)
            )
            print("cells (%d): %s" % (len(diagram.d_all), _cells(diagram.d_all)))
            print("diagonal (%d): %s" % (len(diagram.d1), _cells(diagram.d1)))
            print("strict (%d): %s" % (len(diagram.d2), _cells(diagram.d2)))
            print("code: %s" % ",".join(str(c) for c in diagram.inv_code))
            print("length: %d" % diagram.inv_length)
    else:
        mu = parse_composition(args.mu)
        diagram = degenerate_diagram(mu)
        if args.format == "json":
            _emit_json(
                {
                    "kind": "degenerate",
                    "mu": str(mu),
                    "cross": [[i, j] for i, j in sorted(diagram.d0)],
                    "diagonal": [[i, j] for i, j in sorted(diagram.d1)],
                    "strict": [[i, j] for i, j in sorted(diagram.d2)],
                    "size": diagram.size,
                }
            )
        else:
            print("degenerate diagram of mu %s" % mu)
            print("cross (%d): %s" % (len(diagram.d0), _cells(diagram.d0)))
            print("diagonal (%d): %s" % (len(diagram.d1), _cells(diagram.d1)))
            print("strict (%d): %s" % (len(diagram.d2), _cells(diagram.d2)))
            print("size: %d" % diagram.size)
    return 0


def _add_format(parser: argparse.ArgumentParser, choices=("text", "json"), default: str = "text") -> None:
    parser.add_argument(
        "--format",
        choices=list(choices),
        default=default,
        help="output format (default: %(default)s)",
    )


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
        "--max-n",
        type=_bound_value,
        default=None,
        metavar="N",
        help="override the enumeration bound (prints a warning)",
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
    p.add_argument("--bruteforce", action="store_true", help="enumerate by the definition instead of the weak-order recursion")
    _add_max_n(p)
    _add_format(p)
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("relative-atoms", help="atoms of a weak-order interval")
    p.add_argument("-t", "--tau", required=True, help="base involution in cycle notation")
    p.add_argument("-u", "--upper", required=True, help="target involution in cycle notation")
    p.add_argument("-n", type=int, required=True, help="rank of the symmetric group")
    p.add_argument("--bruteforce", action="store_true", help="enumerate by the definition instead of the weak-order recursion")
    _add_max_n(p)
    _add_format(p)
    p.set_defaults(func=_cmd_relative_atoms)

    p = sub.add_parser("poset", help="weak-order poset (involutions or mu-involutions)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-n", type=int, default=None, help="rank: the poset of involutions in S_n")
    group.add_argument("-m", "--mu", default=None, help="composition: the poset of mu-involutions")
    _add_max_n(p)
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
        return args.func(args)
    except EnumerationBoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
