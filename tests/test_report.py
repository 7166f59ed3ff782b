"""The report encoder writes exactly json.dumps(obj, indent=2, sort_keys=True)."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hecke_kit.report import VerificationReport, _encode

# quotes, backslashes, control characters, non-ASCII and astral characters
# are drawn often, beside any other character
TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€ 😀'), st.characters()))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10**60, 10**60),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
        st.dictionaries(st.integers(-10**30, 10**30), inner, max_size=4),
    ),
    max_leaves=24,
)


def encode(obj) -> str:
    out = []
    _encode(obj, "", out)
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_encoder_matches_json_dumps(obj):
    assert encode(obj) == json.dumps(obj, indent=2, sort_keys=True)


@given(st.dictionaries(TEXT, VALUES, max_size=4))
def test_to_json_matches_json_dumps(instance):
    rep = VerificationReport(title="t", instance=instance, seed=7)
    rep.add("a check", True, detail={"x": [1, (2, None)], "y": {}})
    rep.add_residual("a residual", 0)
    assert rep.to_json() == json.dumps(rep.to_json_obj(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [{1: 0, "a": 0}, {(1, 2): 0}, [object()], {"x": {1, 2}}])
def test_encoder_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        encode(obj)
