"""Property test of the exact convolution against O(n^2) Python-int references."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from recipsums.convolve import cyclic_convolve_exact, cyclic_power_exact  # noqa: E402
from test_convolve import convolve_py, power_py  # noqa: E402


def entries(bits):
    """Ints of 0 to `bits` bits, with every bit length equally likely."""
    return st.integers(0, bits).flatmap(lambda b: st.integers(0, (1 << b) - 1))


def vector(n):
    """A length-n vector as a uint64 array, a bool array or a list of Python ints."""
    return st.one_of(
        st.lists(entries(64), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.uint64)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        st.lists(entries(300), min_size=n, max_size=n),
    )


def assert_matches(got, expected):
    assert got.tolist() == expected
    assert got.dtype == (np.uint64 if max(expected) < 1 << 64 else object)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_matches_reference_at_every_width(data):
    n = data.draw(st.integers(1, 12))
    a, b = data.draw(vector(n)), data.draw(vector(n))
    assert_matches(cyclic_convolve_exact(a, b, n), convolve_py(a, b))
    assert_matches(cyclic_convolve_exact(a, a, n), convolve_py(a, a))
    j = data.draw(st.integers(1, 5))
    assert_matches(cyclic_power_exact(a, j, n), [int(v) for v in power_py(a, j)])
