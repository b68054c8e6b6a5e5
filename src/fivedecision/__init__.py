"""Five-decision hypothesis testing for two-group comparisons.

A directional two-sided test partitions the t axis into five regions and
reports one of five decisions about theta = theta_a - theta_b: reject
theta >= theta_0 (decision 1), reject theta > theta_0 (decision 2), reject
nothing (decision 3), reject theta < theta_0 (decision 4), or reject
theta <= theta_0 (decision 5).  Each one-sided rejection implies accepting
the opposite strict or non-strict hypothesis, so directional claims carry
a familiar error guarantee instead of the vague "reject H0".

The package bundles the decision rule and its equivalent formulations
(three one-sided tests, nested confidence intervals), the Kaiser and
Jones-Tukey three-decision variants, exact Wald power and sample-size
formulas, a deterministic Monte Carlo error-rate simulator, and a command
line front end.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A submodule is
# imported on first access, so a command loads only the modules it uses.
_SOURCES = {
    "SummaryDataset": "datasets",
    "chickweight_summary": "datasets",
    "Decision": "decisions",
    "DecisionRegions": "decisions",
    "Hypothesis": "decisions",
    "Procedure": "decisions",
    "RegionInterval": "decisions",
    "decision_regions": "decisions",
    "five_decision": "decisions",
    "five_decision_via_ci": "decisions",
    "five_decision_via_three_tests": "decisions",
    "jones_tukey_decision": "decisions",
    "kaiser_decision": "decisions",
    "Kind": "distributions",
    "NullDistribution": "distributions",
    "standard_normal": "distributions",
    "student_t": "distributions",
    "PowerSpec": "power",
    "SampleSizeInputs": "power",
    "SampleSizeResult": "power",
    "as_whole_percent": "power",
    "power_wald": "power",
    "reduction": "power",
    "reduction_table": "power",
    "sample_size": "power",
    "SimulationConfig": "simulation",
    "SimulationReport": "simulation",
    "run_simulation": "simulation",
    "DegenerateDataError": "stattests",
    "GroupSummary": "stattests",
    "TestResult": "stattests",
    "confidence_interval": "stattests",
    "two_sample_t": "stattests",
    "two_sample_t_raw": "stattests",
    "wald": "stattests",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    """PEP 562: import the submodule that defines a public name on first
    access, and keep the value so later lookups skip this hook."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
