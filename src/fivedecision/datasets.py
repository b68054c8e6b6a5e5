"""Bundled example inputs."""

from __future__ import annotations

from dataclasses import dataclass

from .stattests import GroupSummary

__all__ = ["SummaryDataset", "chickweight_summary"]


@dataclass(frozen=True)
class SummaryDataset:
    """Per-group summaries plus a provenance note, ordered as bundled."""

    note: str
    labels: tuple[str, ...]
    groups: tuple[GroupSummary, ...]

    def group(self, label: str) -> GroupSummary:
        return self.groups[self.labels.index(label)]


def chickweight_summary() -> SummaryDataset:
    """Chick weights on day 20 for protein diets 2 and 3 (summary
    statistics only; see the dataset note for provenance)."""
    return SummaryDataset(
        note=(
            "Summary statistics for chick weights (grams) measured on day 20 "
            "under experimental protein diets 2 and 3. Source: the ChickWeight "
            "data set distributed with base R; raw records are not bundled, "
            "only these per-group summaries."
        ),
        labels=("diet 2", "diet 3"),
        groups=(
            GroupSummary(n=10, mean=205.6, sd=70.3),
            GroupSummary(n=10, mean=258.9, sd=65.2),
        ),
    )
