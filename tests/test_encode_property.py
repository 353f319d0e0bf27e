"""Property test of the CLI's streaming JSON encoder against json.dumps."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import plain_json  # noqa: E402
from recipsums.cli import _encode  # noqa: E402


_TEXT = st.text(st.sampled_from('\0"\\\né€\U0001f600a/') | st.characters(), max_size=6)
_SCALARS = st.one_of(
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
    st.none(),
    st.fractions(),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(lambda xs: np.array(xs, dtype=np.int64)),
)
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_DOCS)
def test_encode_matches_indented_dumps(doc):
    assert "".join(_encode(doc)) == json.dumps(plain_json(doc), sort_keys=True, indent=2)
