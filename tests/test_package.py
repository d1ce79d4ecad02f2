"""Packaging metadata agrees with the package, the package root shadows
none of its submodules, the submodules import in the theory's order, every
public name has a caller outside the tests, the command line starts
without the heavy standard modules, and the record types keep their
fields, reprs and immutability."""

from __future__ import annotations

import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import invschub
from invschub.involutions import involution_diagram, parse_involution, weak_order_graph
from invschub.mu_involutions import degenerate_diagram, parse_composition
from invschub.permutations import Permutation, rothe_diagram
from invschub.verify import verify_brion_general

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


# Public names that no code in src/ or perfbench/ reaches, and why each stays.
UNREACHED_BY_DESIGN = {
    "IdentityReport.to_json_dict": "the JSON record that the tests and CI compare the CLI's output with",
    "clear_cache": "empties the chain cache, for a cold start in a library session or a test",
    "variable": "x_i, the way into polynomial arithmetic for a library user",
    "verify_brion_general": "perfbench reaches it by getattr, from the name of its report operation",
}


def _public_definitions(tree: ast.Module) -> set[str]:
    """A module's public functions, classes and constants, and its classes'
    public methods and properties as "Class.name"."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
            if isinstance(node, ast.ClassDef):
                found.update("%s.%s" % (node.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef))
    return {name for name in found if not name.rpartition(".")[2].startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads, every attribute it names and every name it
    imports; docstrings and strings do not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
    return found


def test_no_public_name_is_reached_only_by_tests():
    # A name only the tests, the doctests or README use belongs in the
    # tests' oracles, not in src/.  The package root only re-exports.
    root = Path(__file__).resolve().parents[1]
    modules = [p for p in sorted((root / "src" / "invschub").glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in modules + sorted((root / "perfbench").glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    unreached = {
        name for path in modules for name in _public_definitions(trees[path]) if name.rpartition(".")[2] not in used
    }
    assert sorted(unreached - set(UNREACHED_BY_DESIGN)) == []
    assert sorted(set(UNREACHED_BY_DESIGN) - unreached) == []  # a name that gains a caller leaves the list


def _modules_after(statement: str) -> set[str]:
    """The names in sys.modules of a fresh interpreter that ran statement."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = 'import sys\n%s\nprint("\\n".join(sys.modules))' % statement
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(done.stdout.split())


def test_cli_start_up_loads_no_dataclasses_or_inspect():
    # Every query is one process, so what `import invschub.cli` loads is paid
    # on each; dataclasses alone pulls in inspect, ast, dis and tokenize.
    # Taking the difference against a bare interpreter discounts what site preloads.
    added = _modules_after("import invschub.cli") - _modules_after("pass")
    assert "invschub.cli" in added
    assert {"dataclasses", "inspect"} & added == set()


# Each record type: an instance, its fields in order, and its repr, which is
# the text the records printed when they were frozen dataclasses.
RECORDS = [
    (
        lambda: rothe_diagram(Permutation([2, 1, 3])),
        ("cells", "code"),
        "RotheDiagram(cells=frozenset({(1, 1)}), code=(1, 0, 0))",
    ),
    (
        lambda: involution_diagram(parse_involution("(1,2)", 2)),
        ("d_all", "d1", "d2", "inv_code", "inv_length"),
        "InvolutionDiagram(d_all=frozenset({(1, 1)}), d1=frozenset({(1, 1)}), d2=frozenset(),"
        " inv_code=(1, 0), inv_length=1)",
    ),
    (
        lambda: degenerate_diagram(parse_composition("1,1")),
        ("d0", "d1", "d2"),
        "DegenerateDiagram(d0=frozenset({(1, 2)}), d1=frozenset(), d2=frozenset())",
    ),
    (
        lambda: weak_order_graph(2),
        ("name", "vertices", "edges"),
        "WeakOrderGraph(name='involutions_2', vertices=(((1, 2), 'id', 0), ((2, 1), '(1,2)', 1)),"
        " edges=((0, 1, 1),))",
    ),
    (
        lambda: verify_brion_general(parse_involution("id", 2)),
        ("subject", "lhs", "rhs", "equal", "expansion", "multiplicity_free"),
        "IdentityReport(subject='involution id in S_2', lhs=IntPolynomial(1), rhs=IntPolynomial(1),"
        " equal=True, expansion=SchubertExpansion(S[1,2]), multiplicity_free=True)",
    ),
]


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_contract(make, fields, text):
    record = make()
    assert type(record)._fields == fields
    assert repr(record) == text
    assert tuple(record) == tuple(getattr(record, name) for name in fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    edited = record._replace(**{fields[-1]: None})
    assert type(edited) is type(record)
    assert edited[:-1] == record[:-1] and getattr(edited, fields[-1]) is None
