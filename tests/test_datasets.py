"""The bundled chick-weight summary: the note, labels and six numbers
demo 01 reads."""

from fivedecision import GroupSummary, SummaryDataset, chickweight_summary


def test_chickweight_summary_values():
    data = chickweight_summary()
    assert isinstance(data, SummaryDataset)
    assert data.note == (
        "Summary statistics for chick weights (grams) measured on day 20 under "
        "experimental protein diets 2 and 3. Source: the ChickWeight data set "
        "distributed with base R; raw records are not bundled, only these "
        "per-group summaries."
    )
    assert data.labels == ("diet 2", "diet 3")
    assert data.groups == (
        GroupSummary(n=10, mean=205.6, sd=70.3),
        GroupSummary(n=10, mean=258.9, sd=65.2),
    )
    assert data.group("diet 3") == GroupSummary(n=10, mean=258.9, sd=65.2)
