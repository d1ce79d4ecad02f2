"""Packaging metadata agrees with the package, the package root shadows
none of its submodules, and the submodules import in the theory's order."""

from __future__ import annotations

import ast
import pkgutil
import re
import sys
from pathlib import Path

import invschub

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(invschub.__path__))

# Each module builds only on the ones before it: the permutations, the
# polynomial kernel, the weak-order engine, then the families (ordinary
# Schubert polynomials and the mu-theory, which contains the involutions).
IMPORT_ORDER = [
    "permutations",
    "polynomials",
    "weak_order",
    "schubert",
    "mu_involutions",
    "involutions",
    "verify",
    "cli",
]


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


def _package_imports(tree: ast.Module) -> set[str]:
    """The package submodules a module's statements import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("invschub."):
            names = [node.module[len("invschub.") :]]
        elif isinstance(node, ast.Import):
            names = [a.name[len("invschub.") :] for a in node.names if a.name.startswith("invschub.")]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found


def test_modules_import_in_the_order_of_the_theory():
    assert set(SUBMODULES) - {"__main__"} == set(IMPORT_ORDER)
    source = Path(invschub.__file__).resolve().parent
    faults = []
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(scope)):
                    faults.append("%s: %s imports at call time" % (path.name, scope.name))
        if path.stem in IMPORT_ORDER:
            later = _package_imports(tree) - set(IMPORT_ORDER[: IMPORT_ORDER.index(path.stem)])
            if later:
                faults.append("%s imports %s" % (path.name, ", ".join(sorted(later))))
    assert faults == []
