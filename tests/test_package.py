"""Packaging metadata agrees with the package."""

from __future__ import annotations

import re
from pathlib import Path

import invschub


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert invschub.__version__ == match.group(1)
