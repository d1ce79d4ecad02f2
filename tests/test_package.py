"""Packaging metadata agrees with the package, and the package root shadows
none of its submodules."""

from __future__ import annotations

import pkgutil
import re
import sys
from pathlib import Path

import invschub

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(invschub.__path__))


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert invschub.__version__ == match.group(1)


def test_import_as_binds_every_submodule():
    # `import invschub.X as m` binds the package attribute X, so a root name
    # equal to a submodule's would hand back that name instead of the module.
    assert {"schubert", "involutions", "mu_involutions"} <= set(SUBMODULES)
    for name in SUBMODULES:
        namespace: dict = {}
        exec("import invschub.%s as m" % name, namespace)
        assert namespace["m"] is sys.modules["invschub." + name], name
    for name in set(dir(invschub)) & set(SUBMODULES):
        assert getattr(invschub, name) is sys.modules["invschub." + name], name
