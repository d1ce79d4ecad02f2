"""Tests for the command-line front end.

Every test drives ``cli.main`` in-process and asserts on exit code,
stdout, and stderr.  Output fixtures are frozen byte-for-byte: the CLI
promises deterministic, re-parseable output, so any drift is a bug.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from invschub import cli
from invschub.mu_involutions import parse_composition, parse_mu_involution
from invschub.verify import IdentityReport, verify_all, verify_mu_identity
from invschub import weak_order
from invschub.weak_order import clear_cache


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# polynomial subcommands
# ---------------------------------------------------------------------------


def test_schubert_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["schubert", "-w", "6435721"])
    assert rc == 0
    assert out == "x1^5*x2^3*x3^2*x4^2*x5^2*x6\n"
    assert err == ""
    # bracket notation names the same permutation
    rc, out2, _ = run_cli(capsys, ["schubert", "--word", "[6,4,3,5,7,2,1]"])
    assert rc == 0
    assert out2 == out


def test_schubert_json(capsys) -> None:
    rc, out, err = run_cli(capsys, ["schubert", "-w", "321", "--format", "json"])
    assert rc == 0
    assert err == ""
    assert out == (
        "{\n"
        '  "polynomial": "x1^2*x2",\n'
        '  "word": "[3,2,1]"\n'
        "}\n"
    )
    assert json.loads(out) == {"polynomial": "x1^2*x2", "word": "[3,2,1]"}


def test_inv_schubert_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["inv-schubert", "-t", "(1,5)(2,3)", "-n", "5"])
    assert rc == 0
    assert err == ""
    assert out == (
        "x1^4*x2 + x1^3*x2^2 + x1^3*x2*x3 + x1^3*x2*x4 + x1^2*x2^2*x3"
        " + x1^2*x2^2*x4 + x1^2*x2*x3*x4 + x1*x2^2*x3*x4\n"
    )
    rc, out, _ = run_cli(capsys, ["inv-schubert", "-t", "id", "-n", "3"])
    assert rc == 0
    assert out == "1\n"


def test_inv_schubert_past_the_w0_chain(capsys, monkeypatch) -> None:
    # No chain and no cache: the identity at any rank up to the limit is
    # the empty product, and (1,13) the product x1 (x1 + x2) ... (x1 + x12).
    def no_move(i, word, nu):
        raise AssertionError("moved %r by s_%d" % (word, i))

    monkeypatch.setattr(weak_order, "act", no_move)
    clear_cache()
    for n in ("12", "13", "200", "256"):
        assert run_cli(capsys, ["inv-schubert", "-t", "id", "-n", n]) == (0, "1\n", ""), n
    rc, out, err = run_cli(capsys, ["inv-schubert", "-t", "(1,13)", "-n", "13"])
    assert (rc, err) == (0, "")
    assert out.count(" + ") == 2047
    assert out.startswith("x1^12 + x1^11*x2 + ") and out.endswith(" + x1*x2*x3*x4*x5*x6*x7*x8*x9*x10*x11*x12\n")
    assert weak_order._CACHE == {}


def test_inv_schubert_json(capsys) -> None:
    rc, out, _ = run_cli(
        capsys, ["inv-schubert", "-t", "(1,3)", "-n", "3", "--format", "json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data == {"cycles": "(1,3)", "n": 3, "polynomial": "x1^2 + x1*x2"}


def test_mu_schubert_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["mu-schubert", "-m", "3,1", "-p", "432|1"])
    assert rc == 0
    assert err == ""
    assert out == "x1^3*x2^2 + x1^3*x2*x3\n"
    # singleton blocks: the polynomial of the inverse permutation
    rc, out, _ = run_cli(capsys, ["mu-schubert", "-m", "1,1,1,1", "-p", "2|1|4|3"])
    assert rc == 0
    assert out == "x1^2 + x1*x2 + x1*x3\n"


def test_mu_schubert_json(capsys) -> None:
    rc, out, _ = run_cli(
        capsys, ["mu-schubert", "-m", "3,1", "-p", "432|1", "--format", "json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data == {
        "mu": "3,1",
        "word": "432|1",
        "polynomial": "x1^3*x2^2 + x1^3*x2*x3",
    }
    # the rendered word is re-parseable
    pi = parse_mu_involution(data["word"], parse_composition(data["mu"]))
    assert str(pi) == data["word"]


def test_expand_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["expand", "-f", "x1^2 + x1*x2", "-n", "3"])
    assert rc == 0
    assert err == ""
    assert out == "S[2,3,1] + S[3,1,2]\n"


def test_expand_json(capsys) -> None:
    rc, out, _ = run_cli(
        capsys, ["expand", "-f", "x1 + x2", "-n", "3", "--format", "json"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data == {
        "polynomial": "x1 + x2",
        "n": 3,
        "expansion": [{"perm": "[1,3,2]", "coeff": 1}],
        "multiplicity_free": True,
    }


# ---------------------------------------------------------------------------
# atom subcommands
# ---------------------------------------------------------------------------


def test_atoms_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["atoms", "-t", "(1,3)", "-n", "3"])
    assert rc == 0
    assert err == ""
    assert out == "231\n312\n"


def test_atoms_json_bruteforce_agrees(capsys) -> None:
    rc, out, _ = run_cli(
        capsys, ["atoms", "-t", "(1,3)", "-n", "3", "--format", "json"]
    )
    assert rc == 0
    fast = json.loads(out)
    assert fast == {
        "atoms": ["231", "312"],
        "count": 2,
        "cycles": "(1,3)",
        "method": "characterization",
        "n": 3,
    }
    rc, out, _ = run_cli(
        capsys,
        ["atoms", "-t", "(1,3)", "-n", "3", "--bruteforce", "--format", "json"],
    )
    assert rc == 0
    slow = json.loads(out)
    assert slow["method"] == "bruteforce"
    assert slow["atoms"] == fast["atoms"]


def test_relative_atoms_text(capsys) -> None:
    rc, out, err = run_cli(
        capsys, ["relative-atoms", "-t", "(1,2)", "-u", "(1,2)(3,4)", "-n", "4"]
    )
    assert rc == 0
    assert err == ""
    assert out == "1243\n"
    # Incomparable involutions: an empty atom set prints nothing at all.
    rc, out, err = run_cli(
        capsys, ["relative-atoms", "-t", "(1,2)", "-u", "(3,4)", "-n", "4"]
    )
    assert (rc, out, err) == (0, "", "")


def test_relative_atoms_json(capsys) -> None:
    rc, out, _ = run_cli(
        capsys,
        [
            "relative-atoms",
            "-t",
            "id",
            "-u",
            "(1,3)",
            "-n",
            "3",
            "--format",
            "json",
        ],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["base"] == "id"
    assert data["target"] == "(1,3)"
    assert data["atoms"] == ["231", "312"]
    assert data["count"] == 2
    rc, out, _ = run_cli(
        capsys,
        ["relative-atoms", "-t", "(1,2)", "-u", "(3,4)", "-n", "4", "--format", "json"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["atoms"] == []
    assert data["count"] == 0


# ---------------------------------------------------------------------------
# poset subcommand
# ---------------------------------------------------------------------------


def test_poset_involutions_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["poset", "-n", "3"])
    assert rc == 0
    assert err == ""
    assert out == (
        "involutions_3: 4 vertices, 4 edges\n"
        "  n0 rank=0 [1,2,3] id\n"
        "  n1 rank=1 [1,3,2] (2,3)\n"
        "  n2 rank=1 [2,1,3] (1,2)\n"
        "  n3 rank=2 [3,2,1] (1,3)\n"
        "  n0 -s_1-> n2\n"
        "  n0 -s_2-> n1\n"
        "  n1 -s_1-> n3\n"
        "  n2 -s_2-> n3\n"
    )


def test_poset_mu_dot(capsys) -> None:
    rc, out, err = run_cli(capsys, ["poset", "-m", "2,1", "--format", "dot"])
    assert rc == 0
    assert err == ""
    assert out == (
        "digraph mu_involutions_2_1 {\n"
        '  n0 [label="12|3"];\n'
        '  n1 [label="13|2"];\n'
        '  n2 [label="21|3"];\n'
        '  n3 [label="23|1"];\n'
        '  n4 [label="31|2"];\n'
        '  n5 [label="32|1"];\n'
        '  n0 -> n2 [label="s_1"];\n'
        '  n0 -> n1 [label="s_2"];\n'
        '  n1 -> n3 [label="s_1"];\n'
        '  n2 -> n4 [label="s_2"];\n'
        '  n3 -> n5 [label="s_2"];\n'
        '  n4 -> n5 [label="s_1"];\n'
        "}\n"
    )


def test_poset_json(capsys) -> None:
    rc, out, _ = run_cli(capsys, ["poset", "-n", "1", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["edges"] == []
    assert data["vertices"] == [
        {"cycles": "id", "id": 0, "oneline": "[1]", "rank": 0}
    ]

    rc, out, _ = run_cli(capsys, ["poset", "-m", "2,1", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 6
    assert len(data["edges"]) == 6
    assert data["vertices"][0] == {
        "cycles": "12|3",
        "id": 0,
        "oneline": "[1,2,3]",
        "rank": 0,
    }
    assert {"from": 4, "label": "s_1", "to": 5} in data["edges"]


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------


def test_verify_mu_json(capsys) -> None:
    rc, out, err = run_cli(capsys, ["verify", "--mu", "3,1"])
    assert rc == 0
    assert err == ""
    data = json.loads(out)
    assert data == {
        "equal": True,
        "expansion": [
            {"coeff": 1, "perm": "[3,4,2,1]"},
            {"coeff": 1, "perm": "[4,2,3,1]"},
        ],
        "lhs": "x1^3*x2*x3 + x1^2*x2^2*x3",
        "multiplicity_free": True,
        "rhs": "x1^3*x2*x3 + x1^2*x2^2*x3",
        "subject": "mu 3,1",
    }


def test_verify_dominant_text(capsys) -> None:
    rc, out, err = run_cli(
        capsys,
        ["verify", "--dominant-involution", "(1,2)", "-n", "3", "--format", "text"],
    )
    assert rc == 0
    assert err == ""
    assert out == (
        "subject: dominant-involution (1,2) in S_3\n"
        "lhs: x1\n"
        "rhs: x1\n"
        "equal: True\n"
        "expansion: S[2,1,3]\n"
        "multiplicity_free: True\n"
    )
    rc, out, err = run_cli(
        capsys,
        ["verify", "--dominant-involution", "(1,2)", "-n", "3", "--format", "json"],
    )
    assert rc == 0
    assert err == ""
    assert json.loads(out) == {
        "equal": True,
        "expansion": [{"coeff": 1, "perm": "[2,1,3]"}],
        "lhs": "x1",
        "multiplicity_free": True,
        "rhs": "x1",
        "subject": "dominant-involution (1,2) in S_3",
    }


def test_verify_all_text(capsys, monkeypatch) -> None:
    # Text mode renders only text: building the JSON payload would fail here.
    monkeypatch.setattr(IdentityReport, "to_json_dict", None)
    rc, out, err = run_cli(capsys, ["verify", "--all-n", "3", "--format", "text"])
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "checked 11 identities"
    ok_lines = [line for line in lines[:-1] if line.startswith("ok ")]
    assert len(ok_lines) == 11
    assert "ok mu 2,1" in lines
    assert "ok dominant-involution (1,3) in S_3" in lines


def test_verify_all_n4_json(capsys) -> None:
    rc, out, _ = run_cli(capsys, ["verify", "--all-n", "4"])
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == 24
    assert all(r["equal"] for r in reports)
    assert all(r["multiplicity_free"] for r in reports)
    subjects = [r["subject"] for r in reports]
    assert len([s for s in subjects if s.startswith("involution ")]) == 10
    assert len([s for s in subjects if s.startswith("dominant-involution ")]) == 6
    assert len([s for s in subjects if s.startswith("mu ")]) == 8


def test_verify_all_json_is_the_json_dumps_of_the_reports(capsys) -> None:
    rc, out, _ = run_cli(capsys, ["verify", "--all-n", "5"])
    assert rc == 0
    expected = [r.to_json_dict() for r in verify_all(5)]
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_verify_requires_rank_for_dominant(capsys) -> None:
    rc, out, err = run_cli(capsys, ["verify", "--dominant-involution", "(1,2)"])
    assert rc == 1
    assert out == ""
    assert err == "error: --dominant-involution requires -n\n"


def test_out_of_memory_is_one_line_and_exit_two(capsys, monkeypatch) -> None:
    # A command that runs out of memory prints one line on stderr, nothing
    # on stdout, and exits 2, as a refusal does; no traceback.
    def exhausted(mu):
        raise MemoryError()

    monkeypatch.setattr(cli, "verify_mu_identity", exhausted)
    assert run_cli(capsys, ["verify", "--mu", "2"]) == (2, "", "error: out of memory\n")


def test_verify_failure_exits_three(capsys, monkeypatch) -> None:
    genuine = verify_mu_identity(parse_composition("2"))
    doctored = genuine._replace(equal=False)
    monkeypatch.setattr(cli, "verify_mu_identity", lambda mu: doctored)
    rc, out, err = run_cli(capsys, ["verify", "--mu", "2"])
    assert rc == 3
    assert json.loads(out)["equal"] is False

    monkeypatch.setattr(cli, "verify_all", lambda n, max_n: [doctored])
    rc, out, _ = run_cli(capsys, ["verify", "--all-n", "2", "--format", "text"])
    assert rc == 3
    assert out == "FAIL mu 2\nchecked 1 identities\n"


# ---------------------------------------------------------------------------
# diagram subcommand
# ---------------------------------------------------------------------------


def test_diagram_rothe_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["diagram", "-w", "4231"])
    assert rc == 0
    assert err == ""
    assert out == (
        "rothe diagram of 4231\n"
        "cells (5): (1,1) (1,2) (1,3) (2,1) (3,1)\n"
        "code: 3,1,1,0\n"
        "length: 5\n"
    )


def test_diagram_involution_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["diagram", "-t", "(1,3)", "-n", "3"])
    assert rc == 0
    assert err == ""
    assert out == (
        "involution diagram of (1,3) in S_3\n"
        "cells (2): (1,1) (1,2)\n"
        "diagonal (1): (1,1)\n"
        "strict (1): (1,2)\n"
        "code: 2,0,0\n"
        "length: 2\n"
    )


def test_diagram_degenerate_text(capsys) -> None:
    rc, out, err = run_cli(capsys, ["diagram", "-m", "3,1"])
    assert rc == 0
    assert err == ""
    assert out == (
        "degenerate diagram of mu 3,1\n"
        "cross (3): (1,4) (2,4) (3,4)\n"
        "diagonal (1): (1,1)\n"
        "strict (1): (1,2)\n"
        "size: 5\n"
    )


def test_diagram_rothe_json(capsys) -> None:
    rc, out, _ = run_cli(capsys, ["diagram", "-w", "4231", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "rothe"
    assert data["code"] == [3, 1, 1, 0]
    assert data["length"] == 5
    assert [1, 1] in data["cells"]
    # The involution diagram goes through the same table: every family and value.
    rc, out, _ = run_cli(
        capsys, ["diagram", "-t", "(1,6)(2,5)(3,7)", "-n", "7", "--format", "json"]
    )
    assert rc == 0
    assert json.loads(out) == {
        "kind": "involution",
        "cycles": "(1,6)(2,5)(3,7)",
        "n": 7,
        "cells": [[1, 1], [1, 2], [1, 3], [1, 4], [1, 5], [2, 2], [2, 3], [2, 4], [3, 3], [3, 4]],
        "diagonal": [[1, 1], [2, 2], [3, 3]],
        "strict": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [3, 4]],
        "code": [5, 3, 2, 0, 0, 0, 0],
        "length": 10,
    }


def test_diagram_degenerate_json(capsys) -> None:
    rc, out, _ = run_cli(capsys, ["diagram", "-m", "3,1", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["kind"] == "degenerate"
    assert data["cross"] == [[1, 4], [2, 4], [3, 4]]
    assert data["diagonal"] == [[1, 1]]
    assert data["strict"] == [[1, 2]]
    assert data["size"] == 5


def test_diagram_involution_requires_rank(capsys) -> None:
    rc, out, err = run_cli(capsys, ["diagram", "-t", "(1,3)"])
    assert rc == 1
    assert err == "error: diagram -t requires -n\n"


# ---------------------------------------------------------------------------
# exit codes, bounds, and diagnostics
# ---------------------------------------------------------------------------


BAD_INVOCATIONS = [
    [],
    ["nonsense"],
    ["schubert"],
    ["schubert", "-w", "1231"],
    ["atoms", "-t", "(1,2", "-n", "3"],
    ["mu-schubert", "-m", "3,1", "-p", "342|1"],
    ["mu-schubert", "-m", "0,2", "-p", "12"],
    ["diagram", "-m", "2,,1"],
    ["diagram", "-m", "2,1,"],
    ["poset", "-n", "3", "-m", "2,1"],
    ["poset", "-n", "0"],
    ["poset", "-n", "-2"],
    ["poset", "-n", "9", "--max-n", "9"],
    ["verify", "--all-n", "3", "--max-n", "0"],
    ["atoms", "-t", "(1,2)", "-n", "2", "--bruteforce", "--max-n", "-1"],
    ["verify"],
    ["verify", "--all-n", "0"],
    ["verify", "--all-n", "-1"],
    ["expand", "-f", "x1 + y2", "-n", "3"],
    ["expand", "-f", "x1 - - x2", "-n", "3"],
    ["expand", "-f", "x2000000", "-n", "3"],
    ["expand", "-f", "0", "-n", "-5", "--format", "json"],
    ["expand", "-f", "0", "-n", "0"],
    ["expand", "-f", "x1", "-n", "0"],
    ["expand", "-f", "x1", "-n", "-2"],
    ["expand", "-f", "x1^256", "-n", "3"],
    ["expand", "-f", "x1^300", "-n", "400"],
]


def test_exit_code_one_on_bad_input(capsys) -> None:
    for argv in BAD_INVOCATIONS:
        rc, out, err = run_cli(capsys, argv)
        assert rc == 1, argv
        assert out == "", argv
        assert err.startswith("error: "), argv
        assert err.endswith("\n") and err.count("\n") == 1, argv
        assert len(err) <= 200, argv
        if argv[:1] == ["expand"] and int(argv[argv.index("-n") + 1]) < 1:
            # The rank is refused before any variable of the polynomial is read.
            assert err == "error: rank must be at least 1\n", argv


def test_diagram_of_mu_is_refused_by_its_cell_count(capsys) -> None:
    # (100000) has floor(100000^2 / 4) cells in one block, far above the budget.
    rc, out, err = run_cli(capsys, ["diagram", "-m", "100000"])
    assert rc == 2
    assert out == ""
    assert err == "error: the degenerate diagram of mu 100000 has 2500000000 cells, above the budget 1000000\n"


def test_exit_code_two_on_enumeration_bound(capsys, monkeypatch) -> None:
    rc, out, err = run_cli(capsys, ["poset", "-n", "12"])
    assert rc == 2
    assert out == ""
    assert err == "error: |I_12| = 140152 exceeds the vertex budget 50000\n"

    rc, out, err = run_cli(capsys, ["atoms", "-t", "(1,8)", "-n", "8", "--bruteforce"])
    assert rc == 2
    assert err == "error: brute force over S_8 exceeds the bound 7\n"

    # verify has its own bound, above the brute-force one.
    rc, out, err = run_cli(capsys, ["verify", "--all-n", "9", "--format", "text"])
    assert rc == 2
    assert out == ""
    assert err == "error: verification sweep at rank 9 exceeds the bound 8\n"

    # inv-schubert is refused by a term bound before any polynomial work:
    # w0_13 by its Dhat product, a non-dominant involution by its pipe-dream
    # count, whose full value here is 88,087,724,032.
    def no_move(i, word, nu):
        raise AssertionError("moved %r by s_%d" % (word, i))

    monkeypatch.setattr(weak_order, "act", no_move)
    w0_13 = "(1,13)(2,12)(3,11)(4,10)(5,9)(6,8)"
    rc, out, err = run_cli(capsys, ["inv-schubert", "-t", w0_13, "-n", "13"])
    assert rc == 2
    assert out == ""
    assert err == (
        "error: a product of 36 factors x_i + x_j may have 3353011200 terms, above the budget 1000000000\n"
    )
    rc, out, err = run_cli(capsys, ["inv-schubert", "-t", "(2,5)(3,15)(6,16)", "-n", "20"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: an involution Schubert polynomial whose coefficients sum to at least ")
    assert err.endswith(" may have more terms than the budget 1000000000\n")


LETTERS_257 = ",".join(str(k) for k in range(1, 258))

# Each argv with the rank it asks for, above the 256 that monomials can hold.
UNREPRESENTABLE_RANKS = [
    (["schubert", "-w", "[%s]" % LETTERS_257], 257),
    (["expand", "-f", "1", "-n", "300"], 300),
    (["inv-schubert", "-t", "id", "-n", "257"], 257),
    (["mu-schubert", "-m", "257", "-p", LETTERS_257], 257),
    (["verify", "--dominant-involution", "id", "-n", "257"], 257),
    (["verify", "--mu", "200,57"], 257),
    (["verify", "--all-n", "300", "--max-n", "300"], 300),
]


def test_ranks_above_256_are_refused_before_any_work(capsys) -> None:
    clear_cache()
    for argv, n in UNREPRESENTABLE_RANKS:
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2, argv
        assert out == "", argv
        assert err.splitlines()[-1] == (
            "error: rank %d exceeds the limit 256: its anchor needs x1^%d, and exponents stop at 255" % (n, n - 1)
        ), argv
    assert weak_order._CACHE == {}
    # Rank 256 is not refused: its staircase anchor tops out at x1^255.
    rc, out, err = run_cli(capsys, ["schubert", "-w", "[%s]" % ",".join(str(k) for k in range(256, 0, -1))])
    assert rc == 0 and err == ""
    assert out.startswith("x1^255*x2^254*x3^253*") and out.endswith("*x254^2*x255\n")


def test_an_exponent_above_255_is_one_line_without_a_traceback() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "invschub", "expand", "-f", "x1^300", "-n", "400"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: exponent 300 of x1 is outside 0..255\n"


def test_max_n_override_warns_and_succeeds(capsys) -> None:
    rc, out, err = run_cli(capsys, ["atoms", "-t", "(1,8)", "-n", "8", "--bruteforce", "--max-n", "8"])
    assert rc == 0
    assert err == "warning: enumeration bound overridden to 8\n"
    assert len(out.splitlines()) == 7


def test_poset_is_limited_by_its_vertex_count_alone(capsys, monkeypatch) -> None:
    # Rank 9 builds with no override; |I_12| is refused from the count.
    rc, out, err = run_cli(capsys, ["poset", "-n", "9"])
    assert rc == 0
    assert err == ""
    assert out.startswith("involutions_9: 2620 vertices, 10480 edges\n")

    def no_climb(nu):
        raise AssertionError("climbed %r" % (nu,))

    monkeypatch.setattr(weak_order, "climb", no_climb)
    rc, out, err = run_cli(capsys, ["poset", "-n", "12"])
    assert rc == 2
    assert out == ""
    assert err == "error: |I_12| = 140152 exceeds the vertex budget 50000\n"

    # From rank 17 on, |I_n| >= 2^(n-1) > 50,000 refuses without the count.
    def no_count(nu):
        raise AssertionError("counted %r" % (nu,))

    monkeypatch.setattr(weak_order, "count", no_count)
    rc, out, err = run_cli(capsys, ["poset", "-n", "1000000000"])
    assert rc == 2
    assert out == ""
    assert err == "error: |I_1000000000| >= 2^999999999 exceeds the vertex budget 50000\n"


MAX_N_IGNORED = [
    ["verify", "--mu", "3,1", "--max-n", "5"],
    ["verify", "--dominant-involution", "(1,3)", "-n", "3", "--max-n", "5"],
    ["atoms", "-t", "(1,3)", "-n", "3", "--max-n", "5"],
    ["relative-atoms", "-t", "(1,2)", "-u", "(1,3)", "-n", "3", "--max-n", "5"],
]


def test_max_n_warns_only_where_a_bound_applies(capsys) -> None:
    # These paths take no enumeration bound, so nothing is overridden.
    for argv in MAX_N_IGNORED:
        rc, out, err = run_cli(capsys, argv)
        assert rc == 0, argv
        assert out != "", argv
        assert err == "", argv
    rc, _, err = run_cli(capsys, ["atoms", "-t", "(1,3)", "-n", "3", "--bruteforce", "--max-n", "5"])
    assert rc == 0
    assert err == "warning: enumeration bound overridden to 5\n"


def test_help_exits_zero(capsys) -> None:
    rc, out, _ = run_cli(capsys, ["--help"])
    assert rc == 0
    assert out.startswith("usage: invschub")
    for name in (
        "schubert",
        "inv-schubert",
        "mu-schubert",
        "atoms",
        "relative-atoms",
        "poset",
        "verify",
        "expand",
        "diagram",
    ):
        assert name in out
    rc, out, _ = run_cli(capsys, ["verify", "--help"])
    assert rc == 0
    assert "--max-n" in out
    rc, out, _ = run_cli(capsys, ["poset", "--help"])
    assert rc == 0
    assert "--max-n" not in out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


DETERMINISM_MATRIX = [
    ["schubert", "-w", "4231", "--format", "json"],
    ["inv-schubert", "-t", "(1,4)(2,3)", "-n", "4", "--format", "json"],
    ["mu-schubert", "-m", "3,1", "-p", "432|1", "--format", "json"],
    ["atoms", "-t", "(1,4)", "-n", "4", "--format", "json"],
    ["relative-atoms", "-t", "(1,2)", "-u", "(1,3)", "-n", "3", "--format", "json"],
    ["poset", "-n", "4", "--format", "json"],
    ["poset", "-m", "2,2", "--format", "dot"],
    ["verify", "--mu", "2,1,1"],
    ["verify", "--all-n", "3"],
    ["expand", "-f", "x1^2*x2 + x2^2*x3", "-n", "4", "--format", "json"],
    ["diagram", "-m", "1,3", "--format", "json"],
    ["diagram", "-t", "(1,6)(2,5)(3,7)", "-n", "7", "--format", "json"],
    ["diagram", "-w", "4231", "--format", "json"],
]


def test_output_is_byte_deterministic(capsys) -> None:
    for argv in DETERMINISM_MATRIX:
        clear_cache()
        rc1, out1, _ = run_cli(capsys, argv)
        clear_cache()
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0, argv
        assert out1 == out2, argv
        if "json" in argv or argv[0] == "verify":
            json.loads(out1)


def test_module_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "invschub", "schubert", "-w", "321"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x1^2*x2\n"

    proc = subprocess.run(
        [sys.executable, "-m", "invschub", "poset", "-n", "12"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
