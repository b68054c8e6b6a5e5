"""The public records are named tuples: each checked one refuses bad
input however it is built, and all of them keep the repr, immutability,
value equality and pickling that callers rely on."""

import pickle

import numpy as np
import pytest

from fivedecision.datasets import chickweight_summary
from fivedecision.decisions import Decision, Hypothesis, Procedure, decision_regions
from fivedecision.distributions import Kind, NullDistribution, student_t
from fivedecision.power import PowerSpec, SampleSizeInputs, sample_size
from fivedecision.simulation import SimulationConfig, run_simulation
from fivedecision.stattests import GroupSummary, two_sample_t

# Valid fields of each checked record.
VALID = {
    NullDistribution: {"kind": Kind.STUDENT_T, "df": 18.0},
    GroupSummary: {"n": 10, "mean": 205.6, "sd": 70.3},
    PowerSpec: {"alpha": 0.05, "effect": 2.5, "target": Hypothesis.H5},
    SampleSizeInputs: {"alpha": 0.05, "psi": 0.8, "delta": 0.5, "tau": 1.0},
    SimulationConfig: {"n_per_group": 10, "mean_diff_over_sigma": 0.0, "alpha": 0.05, "trials": 100, "seed": 1},
}

# Each bad change to a checked record, and its message.
CHECKED = {
    "NullDistribution": (
        NullDistribution,
        {"df": 0.0},
        "StudentT requires 0 < df <= 2**53, got 0.0",
    ),
    "NullDistribution-no-df": (
        NullDistribution,
        {"df": None},
        "StudentT requires 0 < df <= 2**53, got None",
    ),
    "NullDistribution-df-not-a-number": (
        NullDistribution,
        {"df": [18]},
        "df must be a number, got [18]",
    ),
    "NullDistribution-normal-with-df": (
        NullDistribution,
        {"kind": Kind.STANDARD_NORMAL},
        "df is only meaningful for StudentT",
    ),
    "NullDistribution-kind-string": (
        NullDistribution,
        {"kind": "StudentT"},
        "unknown kind 'StudentT'",
    ),
    "NullDistribution-kind-unknown": (
        NullDistribution,
        {"kind": "x", "df": None},
        "unknown kind 'x'",
    ),
    "GroupSummary": (
        GroupSummary,
        {"n": 1},
        "group size must be at least 2, got 1",
    ),
    "GroupSummary-fractional-n": (
        GroupSummary,
        {"n": 10.5},
        "group size must be an integer, got 10.5",
    ),
    "GroupSummary-mean-not-a-number": (
        GroupSummary,
        {"mean": "abc"},
        "mean must be a number, got 'abc'",
    ),
    "GroupSummary-sd-not-a-number": (
        GroupSummary,
        {"sd": [1]},
        "sd must be a number, got [1]",
    ),
    "PowerSpec": (
        PowerSpec,
        {"target": Hypothesis.NONE},
        "target must be one of H1, H2, H4, H5, got Hypothesis.NONE",
    ),
    "SampleSizeInputs": (
        SampleSizeInputs,
        {"psi": 1.0},
        "psi must lie in (0, 1), got 1.0",
    ),
    "PowerSpec-alpha-not-a-number": (
        PowerSpec,
        {"alpha": None},
        "alpha must be a number, got None",
    ),
    "SampleSizeInputs-psi-not-a-number": (
        SampleSizeInputs,
        {"psi": None},
        "psi must be a number, got None",
    ),
    "SampleSizeInputs-delta-not-a-number": (
        SampleSizeInputs,
        {"delta": "big"},
        "delta must be a number, got 'big'",
    ),
    "SimulationConfig": (
        SimulationConfig,
        {"trials": 0},
        "trials must be at least 1, got 0",
    ),
    "SimulationConfig-fractional-n": (
        SimulationConfig,
        {"n_per_group": 10.5},
        "n_per_group must be an integer, got 10.5",
    ),
    "SimulationConfig-fractional-trials": (
        SimulationConfig,
        {"trials": 100.5},
        "trials must be an integer, got 100.5",
    ),
    "SimulationConfig-fractional-seed": (
        SimulationConfig,
        {"seed": 1.5},
        "seed must be an integer, got 1.5",
    ),
    "SimulationConfig-effect-not-a-number": (
        SimulationConfig,
        {"mean_diff_over_sigma": None},
        "mean_diff_over_sigma must be a number, got None",
    ),
    # The one bound on n: the null's df = 2n - 2 must be at most 2**53.
    "SimulationConfig-df-too-large": (
        SimulationConfig,
        {"n_per_group": 2**52 + 2},
        "StudentT requires 0 < df <= 2**53, got 9007199254740994.0",
    ),
    "SimulationConfig-procedure-string": (
        SimulationConfig,
        {"procedure": "kaiser"},
        "unknown procedure 'kaiser'",
    ),
}

# An int beyond the float range in each float field reads as +-inf, as
# float("1e400") does, and meets that field's own rule: {} is the inf.
BEYOND_FLOAT_RANGE = {
    (NullDistribution, "df"): "StudentT requires 0 < df <= 2**53, got {}",
    (GroupSummary, "mean"): "mean must be finite, got {}",
    (GroupSummary, "sd"): "sd must be positive, got {}",
    (PowerSpec, "alpha"): "alpha must lie in (0, 0.5], got {}",
    (PowerSpec, "effect"): "effect must be finite, got {}",
    (SampleSizeInputs, "alpha"): "alpha must lie in (0, 0.5], got {}",
    (SampleSizeInputs, "psi"): "psi must lie in (0, 1), got {}",
    (SampleSizeInputs, "delta"): "delta must be positive, got {}",
    (SampleSizeInputs, "tau"): "tau must be positive, got {}",
    (SimulationConfig, "mean_diff_over_sigma"): "mean_diff_over_sigma must be finite, got {}",
    (SimulationConfig, "alpha"): "alpha must lie in (0, 0.5], got {}",
}
for (cls, field), message in BEYOND_FLOAT_RANGE.items():
    for value, inf in ((10**400, "inf"), (-10**400, "-inf")):
        CHECKED[f"{cls.__name__}-{field}-{inf}"] = (cls, {field: value}, message.format(inf))
# The null's df = 2n - 2 of a group size beyond the float range.
CHECKED["SimulationConfig-n-beyond-the-float-range"] = (
    SimulationConfig,
    {"n_per_group": 10**400},
    "StudentT requires 0 < df <= 2**53, got inf",
)

# An int below an integer field's bound and beyond the float range
# prints as -inf, as _number reads it, not as its digits: 10**5000 is
# past Python's int-to-str digit limit.
for cls, field, rule in (
    (GroupSummary, "n", "group size must be at least 2"),
    (SimulationConfig, "n_per_group", "n_per_group must be at least 2"),
    (SimulationConfig, "trials", "trials must be at least 1"),
):
    for digits in (400, 5000):
        CHECKED[f"{cls.__name__}-{field}-minus-1e{digits}"] = (
            cls,
            {field: -(10**digits)},
            f"{rule}, got -inf",
        )

WAYS = {
    "positional": lambda cls, good, bad: cls(*bad.values()),
    "keyword": lambda cls, good, bad: cls(**bad),
    "_make": lambda cls, good, bad: cls._make(bad.values()),
    "_replace": lambda cls, good, bad: good._replace(**bad),
}


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("record", CHECKED)
def test_bad_input_is_refused_however_built(record, way):
    cls, change, message = CHECKED[record]
    good = cls(**VALID[cls])
    bad = {**good._asdict(), **change}
    with pytest.raises(ValueError) as exc:
        WAYS[way](cls, good, bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_every_way_builds_the_same_record(cls):
    good = cls(**VALID[cls])
    full = good._asdict()
    built = [WAYS[way](cls, good, full) for way in WAYS]
    assert all(type(b) is cls and b == good for b in built)


def test_defaults():
    assert NullDistribution(Kind.STANDARD_NORMAL).df is None
    cfg = SimulationConfig(10, 0.0, 0.05, 100, 1)
    assert cfg.procedure is Procedure.FIVE_DECISION


@pytest.mark.parametrize("df", [18, "18", np.int64(18), np.float32(18.0)], ids=repr)
def test_df_is_stored_as_float(df):
    assert NullDistribution(Kind.STUDENT_T, df) == student_t(df) == student_t(18.0)
    assert type(NullDistribution(Kind.STUDENT_T, df).df) is float
    assert type(student_t(df).df) is float


def test_repr():
    assert repr(student_t(18)) == "NullDistribution(kind=<Kind.STUDENT_T: 'StudentT'>, df=18.0)"
    assert repr(GroupSummary(10, 205.6, 70.3)) == "GroupSummary(n=10, mean=205.6, sd=70.3)"
    assert repr(Decision.from_index(4)) == (
        "Decision(index=4, rejected=<Hypothesis.H4: 'H4'>, "
        "accepted_implicitly=<Hypothesis.H1: 'H1'>)"
    )
    assert repr(SimulationConfig(10, 0.5, 0.05, 100, 1)) == (
        "SimulationConfig(n_per_group=10, mean_diff_over_sigma=0.5, alpha=0.05, "
        "trials=100, seed=1, procedure=<Procedure.FIVE_DECISION: 'five-decision'>)"
    )
    assert repr(sample_size(SampleSizeInputs(0.05, 0.8, 0.5, 1.0))) == (
        "SampleSizeResult(n_exact=31.395518937396353, n=32)"
    )


def _records():
    summary = chickweight_summary()
    result = two_sample_t(*summary.groups)
    regions = decision_regions(result.null, 0.05)
    cfg = SimulationConfig(10, 0.5, 0.05, 100, 1)
    return [
        summary,
        summary.groups[0],
        result,
        result.null,
        regions,
        regions.intervals()[0],
        Decision.from_index(1),
        PowerSpec(0.05, 2.5, Hypothesis.H5),
        SampleSizeInputs(0.05, 0.8, 0.5, 1.0),
        sample_size(SampleSizeInputs(0.05, 0.8, 0.5, 1.0)),
        cfg,
        run_simulation(cfg),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equality_and_hash_by_value():
    a, b = student_t(18), NullDistribution(Kind.STUDENT_T, 18.0)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != student_t(19)
    # Equal nulls share the region cache's entry.
    assert decision_regions(a, 0.05) is decision_regions(b, 0.05)
    assert GroupSummary(10, 1.0, 2.0) == GroupSummary(n=10, mean=1.0, sd=2.0)
    # Integer fields take numpy integers, and store them as int.
    cfg = SimulationConfig(np.int64(10), 0.0, 0.05, np.int32(100), np.uint64(1))
    assert cfg == SimulationConfig(10, 0.0, 0.05, 100, 1)
    assert {type(cfg.n_per_group), type(cfg.trials), type(cfg.seed)} == {int}
    assert type(GroupSummary(np.int64(10), 1.0, 2.0).n) is int
    assert len({PowerSpec(0.05, 1.0, Hypothesis.H4), PowerSpec(0.05, 1.0, Hypothesis.H4)}) == 1


def test_records_are_tuples():
    n, mean, sd = GroupSummary(10, 1.0, 2.0)
    assert (n, mean, sd) == (10, 1.0, 2.0)
    assert GroupSummary(10, 1.0, 2.0) == (10, 1.0, 2.0)
    assert student_t(18)[1] == 18.0
    assert SimulationConfig._fields == (
        "n_per_group", "mean_diff_over_sigma", "alpha", "trials", "seed", "procedure"
    )


def test_pickle_round_trip():
    cfg = SimulationConfig(10, 0.5, 0.05, 100, 1, Procedure.KAISER)
    report = run_simulation(cfg)
    for record in (cfg, report):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert back == record
    assert pickle.loads(pickle.dumps(report)).to_dict() == report.to_dict()


def test_unpickling_runs_the_check():
    data = pickle.dumps(GroupSummary(10, 1.5, 2.5), protocol=4)
    assert data.count(b"K\n") == 1  # the group size, a one-byte int
    with pytest.raises(ValueError, match="group size must be at least 2, got 1"):
        pickle.loads(data.replace(b"K\n", b"K\x01"))
