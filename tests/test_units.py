import contextlib
import importlib
import json
import json.encoder
import math
import re

import pytest
from hypothesis import given, strategies as st

import eaclab.canon as canon_module
from eaclab.canon import canonical_bytes, canonical_json, sha256_hex
from eaclab.errors import UnitError
from eaclab.units import (
    Quantity,
    canonical_value,
    canonicalize_units,
    known_units,
    to_canonical,
    unit_dimension,
    value_in,
)


def test_known_units_closed_table():
    assert "mL/min" in known_units()
    assert "furlong" not in known_units()
    with pytest.raises(UnitError):
        Quantity(1.0, "furlong")


def test_non_finite_rejected():
    with pytest.raises(UnitError):
        Quantity(float("nan"), "s")
    with pytest.raises(UnitError):
        Quantity(float("inf"), "V")


def test_linear_conversions():
    assert canonicalize_units(Quantity(2.0, "min"), "s").value == 120.0
    assert canonicalize_units(Quantity(1.0, "h"), "min").value == 60.0
    assert canonicalize_units(Quantity(1.0, "mL"), "m^3").value == pytest.approx(1e-6)
    # 6 mL/min = 1e-7 m^3/s
    assert canonicalize_units(Quantity(6.0, "mL/min"), "m^3/s").value == pytest.approx(1e-7)


def test_celsius_offset():
    assert to_canonical(Quantity(25.0, "degC")).value == pytest.approx(298.15)
    back = canonicalize_units(Quantity(298.15, "K"), "degC")
    assert back.value == pytest.approx(25.0)


def test_incompatible_dimensions():
    with pytest.raises(UnitError):
        canonicalize_units(Quantity(1.0, "s"), "V")
    assert unit_dimension("mol/kg") == "molality"


def test_a_value_past_every_float_converts_to_an_infinity():
    """A value too large for a float in the target unit is infinite there,
    with its sign; one that is a float there converts, even when it would
    not be in the canonical unit on the way. A Quantity stays finite."""
    assert value_in(Quantity(1e303, "m^3"), "mL") == math.inf
    assert value_in(Quantity(-1e303, "m^3/s"), "mL/min") == -math.inf
    assert canonical_value(Quantity(1e306, "h")) == math.inf
    assert value_in(Quantity(1e306, "h"), "h") == 1e306
    assert value_in(Quantity(1e306, "h"), "min") == pytest.approx(6e307)
    with pytest.raises(UnitError, match="non-finite"):
        canonicalize_units(Quantity(1e303, "m^3"), "mL")
    with pytest.raises(UnitError, match="incompatible"):
        value_in(Quantity(1.0, "s"), "V")


def test_quantity_dict_round_trip():
    q = Quantity(0.25, "V")
    assert Quantity.from_dict(q.to_dict()) == q
    assert Quantity.from_dict({"value": 3}) == Quantity(3, "")


_UNITS = sorted(known_units())


@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    unit=st.sampled_from(_UNITS),
)
def test_canonicalization_round_trip(value, unit):
    q = Quantity(value, unit)
    canonical = to_canonical(q)
    back = canonicalize_units(canonical, unit)
    assert math.isclose(back.value, value, rel_tol=1e-9, abs_tol=1e-6)
    assert back.unit == unit


def test_canonical_json_is_sorted_and_compact():
    obj = {"b": 1, "a": {"d": 2, "c": [1, 2]}}
    assert canonical_json(obj) == '{"a":{"c":[1,2],"d":2},"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


# Strings that escape: non-ASCII, control characters, a lone surrogate.
ESCAPED = st.sampled_from(["é", "\u2028", "\U0001f9ea", "\x00\x1f\x7f", '"\\/', "\ud800"])
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**256)
    | st.integers(max_value=-(2**64))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 1e308, -1e308, 5e-324])
    | st.text()
    | ESCAPED,
    lambda values: st.lists(values, max_size=4)
    | st.dictionaries(st.text(max_size=6) | ESCAPED, values, max_size=4),
    max_leaves=24,
)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _assert_encodes_as_json_dumps(value, bad, without_c=contextlib.nullcontext):
    """``canon`` gives ``json.dumps``' bytes for ``value``, and with the
    non-finite ``bad`` in it refuses it with ``json.dumps``' ValueError (the
    pure-Python encoder appends the value to the same message)."""
    expected = _dumps(value)
    doc = {"x": [value, {"y": bad}]}
    with pytest.raises(ValueError) as refused:
        _dumps(doc)
    with without_c():
        assert canon_module.canonical_json(value) == expected
        assert canon_module.canonical_bytes(value) == expected.encode("utf-8")
        with pytest.raises(ValueError, match="^" + re.escape(str(refused.value))):
            canon_module.canonical_json(doc)


@given(JSON_VALUES, NON_FINITE)
def test_canonical_json_is_json_dumps_with_the_canonical_options(value, bad):
    _assert_encodes_as_json_dumps(value, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_rejects_every_non_finite_float(bad):
    for doc in (bad, [1, bad], {"x": {"y": bad}}):
        with pytest.raises(ValueError):
            canonical_json(doc)


def test_canonical_json_refuses_unsortable_keys_as_json_dumps_does():
    with pytest.raises(TypeError) as expected:
        _dumps({1: 0, "a": 0})
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        canonical_json({1: 0, "a": 0})


def test_the_encoder_without_the_c_accelerator_gives_the_same_bytes(monkeypatch):
    """On an interpreter without ``_json``, ``c_make_encoder`` is None when
    ``canon`` is imported, and ``canon`` encodes through ``JSONEncoder``'s
    pure-Python path, which reads that name on every call; ``json.dumps``,
    the reference, keeps the C encoder."""

    @contextlib.contextmanager
    def without_c():
        with monkeypatch.context() as patch:
            patch.setattr(json.encoder, "c_make_encoder", None)
            yield

    with without_c():
        importlib.reload(canon_module)
    try:
        assert "_ENCODER" in canon_module.canonical_json.__code__.co_names

        @given(JSON_VALUES, NON_FINITE)
        def encodes_as_json_dumps(value, bad):
            _assert_encodes_as_json_dumps(value, bad, without_c)

        encodes_as_json_dumps()
    finally:
        importlib.reload(canon_module)
    assert "_encode" in canon_module.canonical_json.__code__.co_names


def test_sha256_matches_independent_computation():
    import hashlib

    obj = {"k": [1, 2, 3], "s": "x"}
    expected = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert sha256_hex(obj) == expected


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5),
        st.integers(min_value=-100, max_value=100),
        max_size=5,
    )
)
def test_hash_independent_of_insertion_order(mapping):
    reversed_map = dict(reversed(list(mapping.items())))
    assert sha256_hex(mapping) == sha256_hex(reversed_map)
