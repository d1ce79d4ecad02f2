"""The one-line exit-1 contract of the command line, fuzzed.

Every parser is driven with generated text: text from the characters it
reads, and text from any characters.  The exit code must be 0, 1, 2 or 3;
on 1 or 2, stderr is one line that starts with "error: " and stdout is
empty; no exception escapes ``cli.main``.  Every rank and every part stays
at 9 or below, because ``diagram -m`` and ``verify --mu`` have no size
budget yet.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invschub import cli
from invschub.mu_involutions import parse_composition


def _small_rank(text: str) -> bool:
    # -n is read by int(), as argparse reads it.
    try:
        return int(text) <= 9
    except ValueError:
        return True


def _small_composition(text: str) -> bool:
    try:
        return parse_composition(text).n <= 9
    except ValueError:
        return True


def texts(alphabet: str) -> st.SearchStrategy[str]:
    return st.one_of(st.text(alphabet, max_size=16), st.text(max_size=6))


RANK = st.one_of(st.integers(-2, 9).map(str), texts("0123456789+- ")).filter(_small_rank)
CYCLES = st.one_of(st.just("id"), texts("()0123456789, "))
COMPOSITION = texts("0123456789, ").filter(_small_composition)
BLOCKS = texts("0123456789|, ")
WORD = texts("[]0123456789, ")
POLYNOMIAL = texts("x0123456789^*+- ")
FORMAT = st.sampled_from([[], ["--format", "json"]])

COMMANDS = {
    "inv-schubert": st.tuples(CYCLES, RANK).map(lambda a: ["inv-schubert", "-t", a[0], "-n", a[1]]),
    "mu-schubert": st.tuples(COMPOSITION, BLOCKS).map(lambda a: ["mu-schubert", "-m", a[0], "-p", a[1]]),
    "schubert": WORD.map(lambda w: ["schubert", "-w", w]),
    "expand": st.tuples(POLYNOMIAL, RANK).map(lambda a: ["expand", "-f", a[0], "-n", a[1]]),
    "relative-atoms": st.tuples(CYCLES, CYCLES, RANK).map(
        lambda a: ["relative-atoms", "-t", a[0], "-u", a[1], "-n", a[2]]
    ),
    "diagram -t": st.tuples(CYCLES, RANK).map(lambda a: ["diagram", "-t", a[0], "-n", a[1]]),
    "diagram -m": COMPOSITION.map(lambda m: ["diagram", "-m", m]),
    "poset -m": COMPOSITION.map(lambda m: ["poset", "-m", m]),
    "verify --mu": COMPOSITION.map(lambda m: ["verify", "--mu", m]),
}


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_generated_text_exits_by_the_contract(command, data):
    argv = data.draw(COMMANDS[command]) + data.draw(FORMAT)
    rc, out, err = run(argv)
    assert rc in (0, 1, 2, 3), (argv, rc)
    if rc in (1, 2):
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
