"""Tests for the identity verifier: report structure, fixture identities,
serialization determinism, and exhaustive sweeps."""

from __future__ import annotations

import json

import pytest
from characterization import degree

from invschub.involutions import (
    identity_involution,
    involution_length,
    atoms,
    involutions,
    parse_involution,
)
from invschub.mu_involutions import parse_composition
from invschub.permutations import EnumerationBoundError, parse_permutation
from invschub.polynomials import parse_polynomial
from invschub import verify
from invschub.schubert import SchubertExpansion
from invschub.verify import (
    IdentityReport,
    reports_json,
    verify_all,
    verify_brion_general,
    verify_involution_identity,
    verify_mu_identity,
    verify_sweep,
)


def test_involution_identity_fixture():
    tau = parse_involution("(1,5)(2,3)", 5)
    report = verify_involution_identity(tau)
    assert report.equal and report.multiplicity_free
    assert report.subject == "dominant-involution (1,5)(2,3) in S_5"
    assert report.lhs == parse_polynomial(
        "x1^4*x2 + x1^3*x2^2 + x1^3*x2*x3 + x1^3*x2*x4 + x1^2*x2^2*x3"
        " + x1^2*x2^2*x4 + x1^2*x2*x3*x4 + x1*x2^2*x3*x4"
    )
    assert report.lhs == report.rhs
    support = {w.compact() for w in report.expansion.coefficients}
    assert support == {"52134", "42153", "34152", "24351"}
    assert all(c == 1 for _, c in report.expansion.sorted_items())
    # The expansion support is exactly the set of inverted atoms.
    assert support == {w.inverse().compact() for w in atoms(tau)}


def test_involution_identity_requires_dominant():
    with pytest.raises(ValueError, match=r"^involution \(2,3\) in S_3 is not dominant$"):
        verify_involution_identity(parse_involution("(2,3)", 3))
    # A rank the kernel cannot hold is refused before the dominance scan.
    with pytest.raises(EnumerationBoundError):
        verify_involution_identity(identity_involution(300))
    with pytest.raises(EnumerationBoundError):
        verify_involution_identity(parse_involution("(2,3)", 300))


def test_mu_identity_fixtures():
    report = verify_mu_identity(parse_composition("3,1"))
    assert report.equal and report.multiplicity_free
    assert report.subject == "mu 3,1"
    assert report.rhs == parse_polynomial("x1^3*x2*x3 + x1^2*x2^2*x3")
    assert [str(w) for w, _ in report.expansion.sorted_items()] == [
        "[3,4,2,1]",
        "[4,2,3,1]",
    ]
    assert str(verify_mu_identity(parse_composition("2")).lhs) == "x1"
    assert str(verify_mu_identity(parse_composition("1,1,1")).lhs) == "x1^2*x2"


def test_brion_general_fixture():
    report = verify_brion_general(parse_involution("(1,3)", 3))
    assert report.subject == "involution (1,3) in S_3"
    assert report.equal
    assert str(report.rhs) == "x1^2 + x1*x2"


def test_brion_general_bound():
    tau = parse_involution("(1,9)", 9)
    message = "^atom-sum check at rank 9 exceeds the bound 8$"
    with pytest.raises(EnumerationBoundError, match=message):
        verify_brion_general(tau)
    assert verify_brion_general(tau, max_n=9).equal


def test_report_json_shape():
    report = verify_mu_identity(parse_composition("2,1"))
    data = report.to_json_dict()
    assert set(data) == {
        "subject",
        "lhs",
        "rhs",
        "equal",
        "expansion",
        "multiplicity_free",
    }
    for entry in data["expansion"]:
        assert set(entry) == {"perm", "coeff"}
        parse_permutation(entry["perm"])  # round-trips
    assert json.loads(report.to_json()) == data
    assert report.to_json() == verify_mu_identity(parse_composition("2,1")).to_json()


def test_report_text_shape():
    text = verify_brion_general(parse_involution("(1,2)", 2)).to_text()
    lines = text.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "subject",
        "lhs",
        "rhs",
        "equal",
        "expansion",
        "multiplicity_free",
    ]
    assert text.endswith("\n")


def test_verify_all_n4(monkeypatch):
    climbs = []
    monkeypatch.setattr(verify, "involutions", lambda n: climbs.append(n) or involutions(n))
    reports = verify_all(4)
    assert climbs == [4]  # I_4 is climbed once, for both involution sweeps
    assert all(r.equal and r.multiplicity_free for r in reports)
    brion = [r for r in reports if r.subject.startswith("involution ")]
    dominant = [r for r in reports if r.subject.startswith("dominant-involution ")]
    mus = [r for r in reports if r.subject.startswith("mu ")]
    assert len(brion) == 10
    # id, (1,2), (1,3), (1,4), (1,3)(2,4), (1,4)(2,3)
    assert len(dominant) == 6
    assert len(mus) == 8
    assert len(reports) == 24


def test_verify_all_n5():
    reports = verify_all(5)
    assert all(r.equal for r in reports)
    assert all(r.multiplicity_free for r in reports)


def test_verify_all_bound():
    with pytest.raises(EnumerationBoundError):
        verify_all(9)


def test_atom_sum_structure():
    # Degree of the lhs is the involution length, and the expansion support
    # has the same size as the atom set (multiplicity-free sum of distinct
    # Schubert polynomials).
    for tau in involutions(4):
        report = verify_brion_general(tau)
        assert degree(report.lhs) == involution_length(tau)
        assert len(report.expansion.coefficients) == len(atoms(tau))
        assert {w.inverse() for w in atoms(tau)} == set(report.expansion.coefficients)


def test_report_renders_unequal_sides_apart():
    # An identity that holds renders its one polynomial for both sides; one
    # that fails must still show each side as it is.
    report = verify_brion_general(parse_involution("(1,3)", 3))
    assert report.to_json_dict()["rhs"] == report.to_json_dict()["lhs"] == "x1^2 + x1*x2"
    failed = report._replace(rhs=parse_polynomial("x1^2"), equal=False)
    assert (failed.to_json_dict()["lhs"], failed.to_json_dict()["rhs"]) == ("x1^2 + x1*x2", "x1^2")
    assert "lhs: x1^2 + x1*x2\nrhs: x1^2\n" in failed.to_text()


def test_sweep_is_refused_on_the_call_before_any_report(monkeypatch):
    # The CLI writes each report as the sweep yields it, so a bound checked
    # only once the sweep is read could come after output.
    def no_report(*args, **kwargs):
        raise AssertionError("a report was built")

    monkeypatch.setattr(verify, "_involution_report", no_report)
    with pytest.raises(EnumerationBoundError, match="verification sweep at rank 9 exceeds the bound 8"):
        verify_sweep(9)
    with pytest.raises(EnumerationBoundError, match="rank 257 exceeds the limit 256"):
        verify_sweep(257, max_n=257)
    sweep = verify_sweep(3)
    with pytest.raises(AssertionError, match="a report was built"):
        next(sweep)


def test_report_is_frozen():
    report = verify_brion_general(parse_involution("id", 2))
    with pytest.raises(AttributeError):
        report.equal = False  # type: ignore[misc]


def _dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_written_json_equals_json_dumps_on_every_report_of_the_sweeps():
    for n in range(1, 7):
        reports = verify_all(n)
        for report in reports:
            assert report.to_json() == _dumps(report.to_json_dict()), report.subject
        assert "".join(reports_json(reports)) == _dumps([r.to_json_dict() for r in reports]), n
    assert "".join(reports_json([])) == _dumps([])


def test_written_json_equals_json_dumps_on_doctored_reports():
    report = verify_brion_general(parse_involution("(1,3)", 3))
    w, v = (parse_permutation(text) for text in ("[2,1,3]", "[1,3,2]"))
    doctored = [
        report._replace(equal=False, rhs=parse_polynomial("x1^2")),
        report._replace(expansion=SchubertExpansion({w: 2, v: -1}), multiplicity_free=False),
        report._replace(expansion=SchubertExpansion({})),
        report._replace(subject='a "quoted" back\\slash,\na new line and \u00e9'),
    ]
    for edited in doctored:
        assert edited.to_json() == _dumps(edited.to_json_dict())
    assert "".join(reports_json(doctored)) == _dumps([r.to_json_dict() for r in doctored])
