"""Property test of the covering minimum against the full J-th power."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from recipsums import ResidueSet, check_covering_positivity, make_field  # noqa: E402
from recipsums.convolve import cyclic_power_exact  # noqa: E402
from recipsums.expsums import _half_power_minimum, pair_product_multiplicity  # noqa: E402


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_minimum_matches_full_power(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 13, 101, 257, 1009]))
    members = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=min(p, 60)))
    j = data.draw(st.integers(1, 13))
    t = ResidueSet.from_members(make_field(p), members)
    counts = cyclic_power_exact(pair_product_multiplicity(t), j, p).tolist()
    expected = (min(counts), counts.index(min(counts)))
    report = check_covering_positivity(t, j)
    assert (report.min_count, report.min_residue) == expected
    found = _half_power_minimum(t, j)
    assert found is None or found == expected
