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

from .datasets import SummaryDataset, chickweight_summary
from .decisions import (
    Decision,
    DecisionRegions,
    Hypothesis,
    Procedure,
    RegionInterval,
    decision_regions,
    five_decision,
    five_decision_via_ci,
    five_decision_via_three_tests,
    jones_tukey_decision,
    kaiser_decision,
)
from .distributions import Kind, NullDistribution, standard_normal, student_t
from .power import (
    PowerSpec,
    SampleSizeInputs,
    SampleSizeResult,
    as_whole_percent,
    power_wald,
    reduction,
    reduction_table,
    sample_size,
)
from .simulation import (
    SimulationConfig,
    SimulationReport,
    run_simulation,
    wrong_rejection_grid,
)
from .stattests import (
    DegenerateDataError,
    GroupSummary,
    TestResult,
    confidence_interval,
    two_sample_t,
    two_sample_t_raw,
    wald,
)

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "DecisionRegions",
    "DegenerateDataError",
    "GroupSummary",
    "Hypothesis",
    "Kind",
    "NullDistribution",
    "PowerSpec",
    "Procedure",
    "RegionInterval",
    "SampleSizeInputs",
    "SampleSizeResult",
    "SimulationConfig",
    "SimulationReport",
    "SummaryDataset",
    "TestResult",
    "as_whole_percent",
    "chickweight_summary",
    "confidence_interval",
    "decision_regions",
    "five_decision",
    "five_decision_via_ci",
    "five_decision_via_three_tests",
    "jones_tukey_decision",
    "kaiser_decision",
    "power_wald",
    "reduction",
    "reduction_table",
    "run_simulation",
    "sample_size",
    "standard_normal",
    "student_t",
    "two_sample_t",
    "two_sample_t_raw",
    "wald",
    "wrong_rejection_grid",
    "__version__",
]
