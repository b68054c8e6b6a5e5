"""
Power and sample size for directional claims
============================================

Strict and non-strict rejections need different sample sizes.  Ruling
out theta <= theta0 (H5) uses the alpha/2 tail; ruling out only
theta < theta0 (H4) uses the alpha tail and is cheaper.  The gap is
worth a fifth of the budget in common designs.
"""

import math

from fivedecision import (
    Hypothesis,
    PowerSpec,
    SampleSizeInputs,
    as_whole_percent,
    power_wald,
    reduction,
    reduction_table,
    sample_size,
)

# Rejection probabilities at a standardized effect of 2.5 standard
# errors, level 5%.
for target in (Hypothesis.H5, Hypothesis.H4):
    psi = power_wald(PowerSpec(alpha=0.05, effect=2.5, target=target))
    print(f"P(reject {target.value}) at effect 2.5 = {psi:.1%}")

# Planning a two-group comparison: detect a difference of 0.5 sigma
# with 80% power at the 5% level.  With equal groups the estimator
# variance is 2 sigma^2 / n, so tau = sqrt(2) sigma.
plan = SampleSizeInputs(alpha=0.05, psi=0.80, delta=0.5, tau=math.sqrt(2.0))
non_strict = sample_size(plan, strict=False)
strict = sample_size(plan, strict=True)
print(f"\nnon-strict (reject H5): n = {non_strict.n} (exact {non_strict.n_exact:.2f})")
print(f"strict     (reject H4): n = {strict.n} (exact {strict.n_exact:.2f})")
saved = reduction(plan.alpha, plan.psi)
print(f"settling for the strict claim saves {saved:.0%} of the sample")

# The saving depends only on alpha and the target power.  Whole-percent
# reductions over a standard grid:
alphas = (0.05, 0.01, 0.005, 0.001)
psis = (0.50, 0.80, 0.90, 0.95, 0.99)
table = reduction_table(alphas, psis)
header = "alpha \\ psi" + "".join(f"{p:>8.2f}" for p in psis)
print("\n" + header)
for alpha, row in zip(alphas, table):
    cells = "".join(f"{as_whole_percent(cell):>7d}%" for cell in row)
    print(f"{alpha:<11g}{cells}")
