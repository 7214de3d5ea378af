"""The record types: fields, construction, repr, immutability, equality, checks.

Every value object of the package is pinned here: field names and their
order, positional and keyword construction, defaults, repr, that no
attribute can be assigned, equality and hash within one type, and each
validation error with its type and message.  A fresh subprocess checks
that importing the CLI and running each command loads neither
dataclasses nor inspect.
"""
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import truncbin
from truncbin import (
    BinomialPair,
    CaseBReport,
    CaseClassification,
    ConditionReport,
    DomainError,
    ExponentProfile,
    QuadraticScanReport,
    ScanConstraints,
    ScanReport,
    TrinomialTriple,
    UnitValuation,
    Valuation,
    Verdict,
    VerdictKind,
)
from truncbin.claims import FULL, QUICK, ClaimResult, Scale

_INCOMPATIBLE = VerdictKind.INCOMPATIBLE
_PROFILE = ExponentProfile(rho_c=1, rho_beta=0, rho_q=2)
_CASE_B = dict(
    a=1, b=80, c=81, n=3, rho_c=4, c0=1, rho_q=4, q0=1, rho_beta=3, beta0=1,
    expected=_PROFILE, rho_q_matches=False, rho_beta_matches=True,
    u_ab_valuation=5, u_ab_expected=5, u_ab_matches=True,
    u_qc_valuation=float("inf"), u_qc_expected=13, u_qc_matches=False,
)

# (type, the fields of one instance in order, the fields of a different one, its repr)
RECORDS = [
    (BinomialPair, dict(a=1, b=2, n=7), dict(a=2, b=1, n=7), "BinomialPair(a=1, b=2, n=7)"),
    (TrinomialTriple, dict(a=1, b=2, c=11, n=7), dict(a=1, b=2, c=-3, n=7),
     "TrinomialTriple(a=1, b=2, c=11, n=7)"),
    (Valuation, dict(base=3, exponent=2, cofactor=2), dict(base=3, exponent=float("inf"), cofactor=0),
     "Valuation(base=3, exponent=2, cofactor=2)"),
    (UnitValuation, dict(base=7, exponent=2, unit=3), dict(base=7, exponent=2, unit=4),
     "UnitValuation(base=7, exponent=2, unit=3)"),
    (Verdict, dict(kind=_INCOMPATIBLE, reason="residual-nonzero", evidence={"residual": 3}),
     dict(kind=_INCOMPATIBLE, reason="residual-nonzero", evidence={"residual": 4}),
     "Verdict(kind=<VerdictKind.INCOMPATIBLE: 'Incompatible'>, reason='residual-nonzero', "
     "evidence={'residual': 3})"),
    (ConditionReport, dict(coprime_after_normalization=True, parity_class="both-odd",
                           q_div_2n=True, beta=1),
     dict(coprime_after_normalization=True, parity_class="both-odd", q_div_2n=False, beta=None),
     "ConditionReport(coprime_after_normalization=True, parity_class='both-odd', "
     "q_div_2n=True, beta=1)"),
    (ExponentProfile, dict(rho_c=1, rho_beta=0, rho_q=2), dict(rho_c=2, rho_beta=1, rho_q=5),
     "ExponentProfile(rho_c=1, rho_beta=0, rho_q=2)"),
    (CaseClassification, dict(kind="B", variable="c"), dict(kind="A", variable=None),
     "CaseClassification(kind='B', variable='c')"),
    (CaseBReport, _CASE_B, dict(_CASE_B, u_ab_matches=False),
     "CaseBReport(a=1, b=80, c=81, n=3, rho_c=4, c0=1, rho_q=4, q0=1, rho_beta=3, beta0=1, "
     "expected=ExponentProfile(rho_c=1, rho_beta=0, rho_q=2), rho_q_matches=False, "
     "rho_beta_matches=True, u_ab_valuation=5, u_ab_expected=5, u_ab_matches=True, "
     "u_qc_valuation=inf, u_qc_expected=13, u_qc_matches=False)"),
    (ScanConstraints, dict(forbid_a_zero=True, forbid_b_zero=False, forbid_sum_zero_mod_n=True),
     dict(forbid_a_zero=True, forbid_b_zero=True, forbid_sum_zero_mod_n=True),
     "ScanConstraints(forbid_a_zero=True, forbid_b_zero=False, forbid_sum_zero_mod_n=True)"),
    (ScanReport, dict(n=5, power_k=1, modulus=5, constraints=ScanConstraints(),
                      rows=((1, (2, 3)),), cells_scanned=25),
     dict(n=5, power_k=1, modulus=5, constraints=ScanConstraints(), rows=(), cells_scanned=25),
     "ScanReport(n=5, power_k=1, modulus=5, constraints=ScanConstraints(forbid_a_zero=False, "
     "forbid_b_zero=False, forbid_sum_zero_mod_n=False), rows=((1, (2, 3)),), cells_scanned=25)"),
    (QuadraticScanReport, dict(n=7, rows=((1, (2, 4)),), cells_scanned=36),
     dict(n=7, rows=(), cells_scanned=36),
     "QuadraticScanReport(n=7, rows=((1, (2, 4)),), cells_scanned=36)"),
    (Scale, dict(name="quick", pairs=300, triples=100, det_workers=(1, 2)),
     dict(name="quick", pairs=301, triples=100, det_workers=(1, 2)),
     "Scale(name='quick', pairs=300, triples=100, det_workers=(1, 2))"),
    (ClaimResult, dict(code="I.1", title="t", passed=True, duration_ms=1.5, details={"pairs": 3}),
     dict(code="I.1", title="t", passed=False, duration_ms=1.5, details={"pairs": 3}),
     "ClaimResult(code='I.1', title='t', passed=True, duration_ms=1.5, details={'pairs': 3})"),
]
_IDS = [cls.__name__ for cls, *_ in RECORDS]
# A dict field makes the record unhashable, as it did the dataclass.
_UNHASHABLE = {Verdict, ClaimResult}


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=_IDS)
def test_fields_in_order_by_position_or_keyword(cls, fields, other, text):
    assert list(inspect.signature(cls).parameters) == list(fields)
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=_IDS)
def test_repr(cls, fields, other, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=_IDS)
def test_no_attribute_can_be_assigned(cls, fields, other, text):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert [getattr(record, name) for name in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, other, text", RECORDS, ids=_IDS)
def test_equality_and_hash_within_the_type(cls, fields, other, text):
    record, twin, different = cls(**fields), cls(**fields), cls(**other)
    assert record == twin and not record != twin
    assert record != different and not record == different
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin, different}) == 2


def test_defaults():
    first = Verdict(VerdictKind.UNDETERMINED, "r")
    second = Verdict(VerdictKind.UNDETERMINED, "r")
    assert first.evidence == {} and first.evidence is not second.evidence
    first_claim = ClaimResult("I.1", "t", True, 1.0)
    assert first_claim.details == {}
    assert first_claim.details is not ClaimResult("I.1", "t", True, 1.0).details
    assert ConditionReport(True, "one-even", False).beta is None
    assert CaseClassification("A") == CaseClassification("A", None)
    assert ScanConstraints() == ScanConstraints(False, False, False)
    assert ScanConstraints.case_a() == ScanConstraints(True, True, True)


def test_properties_and_methods():
    t = TrinomialTriple(1, 2, 11, 7)
    assert (t.s, t.sum_divisible_by_2n, t.beta) == (14, True, 1)
    assert (t.pair_ab(), t.pair_qc()) == (BinomialPair(1, 2, 7), BinomialPair(3, 11, 7))
    assert Valuation(3, 2, 2).value == 18 and not Valuation(3, 2, 2).is_infinite
    assert Valuation(3, float("inf"), 0).value == 0 and Valuation(3, float("inf"), 0).is_infinite
    constraints = ScanConstraints(True, False, False)
    assert constraints._asdict() == {
        "forbid_a_zero": True, "forbid_b_zero": False, "forbid_sum_zero_mod_n": False}
    assert not constraints.allows(5, 1, 5) and constraints.allows(1, 4, 5)
    report = ScanReport(5, 1, 5, constraints, ((1, (2, 3)), (4, (0,))), 20)
    assert (report.witnesses, report.witness_count) == (((1, 2), (1, 3), (4, 0)), 3)
    assert json.loads(report.to_json()) == report.to_jsonable()
    assert report.to_jsonable()["witnesses"] == [[1, 2], [1, 3], [4, 0]]
    quadratic = QuadraticScanReport(7, ((1, (2, 4)), (3, (5, 6))), 36)
    assert quadratic.zero_pairs == ((1, 2), (1, 4), (3, 5), (3, 6))
    assert json.loads(quadratic.to_json()) == quadratic.to_jsonable()
    assert quadratic.to_jsonable()["zero_count"] == 4
    assert (QUICK.name, FULL.name, QUICK.det_workers) == ("quick", "full", (1, 2))


def test_records_are_tuples():
    # What every record gains as a tuple: it iterates and equals a tuple of
    # the same items; _replace and _make build it through its own check.
    pair = BinomialPair(1, 2, 7)
    assert pair == (1, 2, 7) and list(pair) == [1, 2, 7] and pair._asdict() == dict(a=1, b=2, n=7)
    assert ExponentProfile(1, 0, 2) == Valuation(1, 0, 2)
    assert type(pair._replace(b=5)) is BinomialPair and pair._replace(b=5) == (1, 5, 7)
    assert type(BinomialPair._make((1, 2, 11))) is BinomialPair
    with pytest.raises(DomainError, match="^exponent must be a prime >= 3, got 9$"):
        pair._replace(n=9)
    with pytest.raises(DomainError, match="^a must be an int, got str$"):
        BinomialPair._make(("1", 2, 7))


_CHECKED = [
    (BinomialPair(1, 2, 7), {"n": 9}, DomainError),
    (TrinomialTriple(1, 2, 3, 7), {"c": 3.0}, DomainError),
    (Verdict(_INCOMPATIBLE, "r", {"x": 1}), {"evidence": {}}, ValueError),
    (ConditionReport(True, "one-even", False), {"beta": 2}, ValueError),
    (ScanConstraints(), {"forbid_a_zero": 1}, DomainError),
]


@pytest.mark.parametrize("record, change, error", _CHECKED,
                         ids=[type(record).__name__ for record, _, _ in _CHECKED])
def test_replace_and_make_run_the_check(record, change, error):
    with pytest.raises(error) as caught:
        record._replace(**change)
    assert type(caught.value) is error
    with pytest.raises(error):
        type(record)._make(dict(record._asdict(), **change).values())
    assert type(record)._make(record) == record and type(type(record)._make(record)) is type(record)


def test_make_and_replace_keep_the_defaults_and_field_count():
    # ClaimResult has no check but a default: _make fills in a new details dict.
    result = ClaimResult._make(("I.1", "t", True, 1.0))
    assert result.details == {} and result.details is not ClaimResult("c", "t", True, 1.0).details
    assert ScanConstraints._make(()) == ScanConstraints()
    with pytest.raises(DomainError, match="^forbid_a_zero must be a bool, got int$"):
        ScanConstraints._make((1, 0, 0))
    with pytest.raises(TypeError):
        BinomialPair._make((1, 2, 7, 9))
    # namedtuple raises ValueError here before CPython 3.13 and TypeError from 3.13 on.
    with pytest.raises((ValueError, TypeError), match="unexpected field names"):
        BinomialPair(1, 2, 7)._replace(m=9)


@pytest.mark.parametrize("build, error, message", [
    (lambda: BinomialPair("1", 2, 7), DomainError, "a must be an int, got str"),
    (lambda: BinomialPair(1, True, 7), DomainError, "b must be an int, got bool"),
    (lambda: BinomialPair(1, 2, 9), DomainError, "exponent must be a prime >= 3, got 9"),
    (lambda: BinomialPair(a=1, b=2, n=7.0), DomainError, "exponent must be a prime >= 3, got 7.0"),
    (lambda: TrinomialTriple(1, 2, 3.0, 7), DomainError, "c must be an int, got float"),
    (lambda: TrinomialTriple(1, 2, 3, 2), DomainError, "exponent must be a prime >= 3, got 2"),
    (lambda: Verdict(VerdictKind.INCOMPATIBLE, "r"), ValueError,
     "an Incompatible verdict must carry evidence"),
    (lambda: Verdict(kind=VerdictKind.INCOMPATIBLE, reason="r", evidence={}), ValueError,
     "an Incompatible verdict must carry evidence"),
    (lambda: ConditionReport(True, "one-even", True), ValueError,
     "beta must be present exactly when q_div_2n holds"),
    (lambda: ConditionReport(True, "one-even", q_div_2n=False, beta=2), ValueError,
     "beta must be present exactly when q_div_2n holds"),
], ids=["pair-a", "pair-b", "pair-n", "pair-keywords", "triple-c", "triple-n",
        "verdict", "verdict-keywords", "conditions-beta-missing", "conditions-beta-extra"])
def test_validation_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        build()
    assert type(caught.value) is error


_ARGVS = [
    ["compute", "--a", "1", "--b", "2", "--n", "7", "--all-forms"],
    ["compute", "--a", "1", "--b", "2", "--c", "11", "--n", "7", "--format", "json"],
    ["verdict", "eq2", "--a", "5", "--b", "9", "--n", "7", "--format", "json"],
    ["verdict", "eq3", "--a", "1", "--b", "2", "--c", "11", "--n", "7", "--format", "json"],
    ["verdict", "exponents", "--rho-c", "3", "--n", "7"],
    ["verdict", "case-b-check", "--a", "1", "--b", "80", "--c", "81", "--n", "3", "--format", "json"],
    ["scan", "u2", "--n", "7", "--k", "2", "--case-a", "--format", "json"],
    ["scan", "quadratic", "--n", "7", "--format", "csv"],
    ["verify", "--quick"],
]

# Run in a fresh interpreter: the modules that importing the CLI adds, then
# those that one run of each command adds, as JSON.
_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from truncbin.cli import main
imported = set(sys.modules)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"import": sorted(imported - before), "run": sorted(set(sys.modules) - imported),
                  "codes": codes}))
"""


def test_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(truncbin.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(_ARGVS)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert added["codes"] == [0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert "truncbin.cli" in added["import"]
    for stage in ("import", "run"):
        assert not {"dataclasses", "inspect"} & set(added[stage]), stage
