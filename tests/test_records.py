"""The value records: construction, repr, equality, hashing, immutability, copying and matching."""

import copy
import pickle

import pytest

from stsdecay import (
    CorrelationReport,
    EvolvedState,
    ReservoirConfig,
    StandardForm,
    StsParams,
    SymplecticSpectrum,
)
from stsdecay.verification import OracleReport

_SF = StandardForm(2.0, 1.5, 0.5, 0.25)

# (class, positional values, expected repr); the values are stored as given.
RECORDS = [
    (StsParams, (1.0, 0.5, 2.0, 0.75), "StsParams(n1=1.0, n2=0.5, r=2.0, phi=0.75)"),
    (StandardForm, (2.0, 1.5, 0.5, 0.25), "StandardForm(b1=2.0, b2=1.5, c=0.5, phi=0.25)"),
    (
        SymplecticSpectrum,
        (1.5, 1.0, 2.5, 0.25),
        "SymplecticSpectrum(kappa_plus=1.5, kappa_minus=1.0, kappa_tilde_plus=2.5, kappa_tilde_minus=0.25)",
    ),
    (
        CorrelationReport,
        (0.5, 0.25, 0.125, 1.0, False, 0.75, 0.625, 0.5, 1.5),
        "CorrelationReport(ef=0.5, d1=0.25, d2=0.125, mutual_information=1.0, separable=False, "
        "x_m=0.75, y=0.625, z=0.5, invariant_d=1.5)",
    ),
    (ReservoirConfig, (1.0, 0.25, 2.0, 0.0), "ReservoirConfig(gamma1=1.0, n_r1=0.25, gamma2=2.0, n_r2=0.0)"),
    (EvolvedState, (0.5, _SF), "EvolvedState(t=0.5, sf=StandardForm(b1=2.0, b2=1.5, c=0.5, phi=0.25))"),
    (
        OracleReport,
        ("q", 1.0, 1.5, 0.5, 1e-09, False),
        "OracleReport(quantity='q', closed_form=1.0, oracle=1.5, abs_err=0.5, tol=1e-09, passed=False)",
    ),
]
FIELDS = {
    StsParams: ("n1", "n2", "r", "phi"),
    StandardForm: ("b1", "b2", "c", "phi"),
    SymplecticSpectrum: ("kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus"),
    CorrelationReport: ("ef", "d1", "d2", "mutual_information", "separable", "x_m", "y", "z", "invariant_d"),
    ReservoirConfig: ("gamma1", "n_r1", "gamma2", "n_r2"),
    EvolvedState: ("t", "sf"),
    OracleReport: ("quantity", "closed_form", "oracle", "abs_err", "tol", "passed"),
}
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_repr_and_construction(cls, values, text):
    names = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert repr(by_position) == repr(by_keyword) == text
    assert tuple(getattr(by_position, name) for name in names) == values
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_values(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(values)
    assert a != values and not a == values
    changed = cls(*values[:-1], 0.0 if values[-1] != 0.0 else 1.0)
    assert a != changed and not a == changed


def test_classes_holding_equal_values_differ():
    values = (1.0, 1.0, 0.5, 0.0)
    records = [StsParams(*values), StandardForm(*values), SymplecticSpectrum(*values), ReservoirConfig(*values)]
    assert len({hash(r) for r in records}) == 1
    for i, a in enumerate(records):
        for j, b in enumerate(records):
            assert (a == b) is (i == j)
            assert (a != b) is (i != j)
    assert len(set(records)) == 4


def test_default_phase():
    assert StsParams(1.0, 0.5, 2.0) == StsParams(1.0, 0.5, 2.0, 0.0)
    assert StsParams(1.0, 0.5, 2.0).phi == 0.0
    assert StandardForm(2.0, 1.5, 0.5) == StandardForm(2.0, 1.5, 0.5, phi=0.0)
    assert StandardForm(b1=2.0, b2=1.5, c=0.5).phi == 0.0


def test_construction_normalizes_the_phase():
    assert repr(StsParams(1.0, 0.5, 1.0, 4.0)) == "StsParams(n1=1.0, n2=0.5, r=1.0, phi=-2.2831853071795862)"
    assert repr(StandardForm(2.0, 1.5, -0.5, 3.0)) == "StandardForm(b1=2.0, b2=1.5, c=0.5, phi=-0.14159265358979312)"


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_the_binder_refuses_what_a_signature_refuses(cls, values, text):
    names = FIELDS[cls]
    calls = {
        "missing by position": lambda: cls(*values[:-2]),
        "missing by keyword": lambda: cls(**dict(zip(names[1:], values[1:]))),
        "extra positional": lambda: cls(*values, 0.0),
        "unknown keyword": lambda: cls(*values, not_a_field=0.0),
        "repeated": lambda: cls(*values[:1], **dict(zip(names, values))),
    }
    for call in calls.values():
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) "):
            call()


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_phi_alone_has_a_default(cls, values, text):
    if cls in (StsParams, StandardForm):
        assert cls(*values[:-1]).phi == 0.0
        assert cls(**dict(zip(FIELDS[cls][:-1], values))).phi == 0.0
    else:
        with pytest.raises(TypeError, match="missing required arguments"):
            cls(*values[:-1])


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_post_init_runs_once_per_construction(cls, values, text, monkeypatch):
    calls = []
    post_init = cls.__post_init__

    def counted(self):
        calls.append(dict(self.__dict__))
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    fields = dict(zip(FIELDS[cls], values))
    for construct in (lambda: cls(*values), lambda: cls(**fields)):
        calls.clear()
        record = construct()
        # It sees every field, bound in field order.
        assert calls == [fields] and list(record.__dict__) == list(FIELDS[cls])


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(cls, values, text):
    record = cls(*values)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert repr(record) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, values, text):
    record = cls(*values)
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        *(pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, FIELDS[cls][0], 0.0)


def test_match_with_positional_sub_patterns():
    def describe(record):
        match record:
            case StandardForm(b1, b2, 0.0, _):
                return f"product {b1} {b2}"
            case StandardForm(b1, b2, c):
                return f"correlated {b1} {b2} {c}"
            case EvolvedState(t, StandardForm(b1, _, _, _)):
                return f"evolved {t} {b1}"
            case ReservoirConfig(g1, n1, 0.0, _):
                return f"single {g1} {n1}"
            case StsParams(n1, n2, r, phi):
                return f"sts {n1} {n2} {r} {phi}"
            case SymplecticSpectrum(kp, km, _, ktm):
                return f"spectrum {kp} {km} {ktm}"
            case CorrelationReport(ef, _, _, _, False):
                return f"entangled {ef}"
            case OracleReport(quantity, _, _, _, _, passed):
                return f"oracle {quantity} {passed}"
        return "none"

    assert describe(StandardForm(2.0, 1.5, 0.0)) == "product 2.0 1.5"
    assert describe(_SF) == "correlated 2.0 1.5 0.5"
    assert describe(EvolvedState(0.5, _SF)) == "evolved 0.5 2.0"
    assert describe(ReservoirConfig(1.0, 0.25, 0.0, 0.0)) == "single 1.0 0.25"
    assert describe(ReservoirConfig(1.0, 0.25, 1.0, 0.0)) == "none"
    assert describe(StsParams(1.0, 0.5, 2.0)) == "sts 1.0 0.5 2.0 0.0"
    assert describe(SymplecticSpectrum(1.5, 1.0, 2.5, 0.25)) == "spectrum 1.5 1.0 0.25"
    assert describe(CorrelationReport(0.5, 0.25, 0.125, 1.0, False, 0.75, 0.625, 0.5, 1.5)) == "entangled 0.5"
    assert describe(CorrelationReport(0.0, 0.25, 0.125, 1.0, True, 0.5, 0.625, 0.5, 1.5)) == "none"
    assert describe(OracleReport("q", 1.0, 1.0, 0.0, 1e-9, True)) == "oracle q True"
    with pytest.raises(TypeError):
        match _SF:
            case StandardForm(_, _, _, _, _):
                pass
