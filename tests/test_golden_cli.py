"""Golden command-line output.

``golden_cli.json`` freezes the stdout SHA-256 and the exit code of every
command in the README's CLI tour (``DOCUMENTED_COMMANDS``), and the stdout,
stderr and exit code of two refusals.  Criterion 10 checks that a command
prints the same bytes on two runs of one tree; this test checks that it
prints the bytes it printed when the fixture was written, so a refactor
that changes any answer turns it red.

When an output changes on purpose, regenerate the fixture with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json

and say why in the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from test_acceptance import DOCUMENTED_COMMANDS

from invschub import cli
from invschub.weak_order import clear_cache

FIXTURE = Path(__file__).with_name("golden_cli.json")

# Malformed input: a one-line message on stderr, exit 1, nothing on stdout.
REFUSALS: list[list[str]] = [
    ["inv-schubert", "-t", "[2,3,1]", "-n", "3"],
    ["relative-atoms", "-t", "id", "-u", "(1,2)", "-n", "0"],
]


def _run(argv: list[str]) -> tuple[int, str, str]:
    clear_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def golden_entries() -> list[dict]:
    entries = []
    for argv in DOCUMENTED_COMMANDS:
        rc, out, _ = _run(argv)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        entries.append({"argv": argv, "exit": rc, "stdout_sha256": digest})
    for argv in REFUSALS:
        rc, out, err = _run(argv)
        entries.append({"argv": argv, "exit": rc, "stdout": out, "stderr": err})
    return entries


def test_cli_output_matches_the_golden_fixture() -> None:
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    actual = golden_entries()
    assert [e["argv"] for e in actual] == [e["argv"] for e in expected]
    changed = [e["argv"] for e, g in zip(actual, expected) if e != g]
    assert not changed, "output differs from the fixture for %s" % changed


if __name__ == "__main__":
    print("[\n%s\n]" % ",\n".join(json.dumps(e) for e in golden_entries()))
