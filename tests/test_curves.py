import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.curves import FAMILIES, Curve, curve_from_config


def test_constant():
    c = Curve("constant", {"value": 2.5})
    assert c(0.0) == 2.5
    assert np.all(c(np.linspace(-5, 5, 11)) == 2.5)
    assert c.derivative(1.0) == 0.0


def test_polynomial_and_derivative():
    p = Curve("polynomial", {"coeffs": [1.0, 0.0, 2.0]})  # 1 + 2x^2
    assert p(2.0) == pytest.approx(9.0)
    assert p.derivative(2.0) == pytest.approx(8.0)


def test_gaussian_bump():
    g = Curve("gaussian-bump", {"amplitude": 3.0, "center": 1.0, "width": 0.5, "baseline": 0.25})
    assert g(1.0) == pytest.approx(3.25)
    x = 1.7
    expect = 3.0 * np.exp(-((x - 1.0) ** 2) / (2 * 0.25)) + 0.25
    assert g(x) == pytest.approx(expect, rel=1e-12)
    h = 1e-6
    fd = (g(x + h) - g(x - h)) / (2 * h)
    assert g.derivative(x) == pytest.approx(fd, rel=1e-6)


def test_abs_linear():
    a = Curve("abs-linear", {"offset": 0.1, "slope": 1.0})
    assert a(0.0) == pytest.approx(0.1)
    assert a(-2.0) == pytest.approx(2.1)


def test_unknown_family():
    assert sorted(FAMILIES) == ["abs-linear", "constant", "gaussian-bump", "polynomial"]
    for family in ("weird", "rational-bump", "table"):
        with pytest.raises(ValueError, match=f"unknown curve family '{family}'"):
            Curve(family, {"value": 1.0})


def test_config_round_trip():
    """A curve's config mapping builds the curve the constructor builds."""
    g = Curve("gaussian-bump", {"amplitude": 2.0, "width": 1.5})
    g2 = curve_from_config({"family": "gaussian-bump", "params": {"amplitude": 2.0, "width": 1.5}})
    xs = np.linspace(-4, 4, 33)
    assert np.allclose(g(xs), g2(xs))


def test_bare_number_is_constant():
    c = curve_from_config(3.0)
    assert c.family == "constant"
    assert c(10.0) == 3.0


@settings(max_examples=30, deadline=None)
@given(
    amp=st.floats(0.1, 5.0),
    width=st.floats(0.2, 3.0),
    x=st.floats(-10.0, 10.0),
)
def test_gaussian_bump_bounds(amp, width, x):
    g = Curve("gaussian-bump", {"amplitude": amp, "width": width})
    v = g(x)
    assert 0.0 <= v <= amp + 1e-12


def test_polynomial_matches_numpy_bit_for_bit():
    x = np.concatenate([np.random.default_rng(0).normal(scale=4.0, size=2000), [0.0, -0.0, 1e300, np.inf, -np.inf, np.nan]])
    for coeffs in ([2.0], [0.0, 1.0], [0.1, 0.0, 0.5], [1.5, -2.25, 0.3, 1e-3, -7.0]):
        c = Curve("polynomial", {"coeffs": coeffs})
        ref = np.polynomial.Polynomial(coeffs)
        with np.errstate(all="ignore"):
            assert np.array_equal(c(x), ref(x), equal_nan=True)
            assert np.array_equal(c.derivative(x), ref.deriv()(x), equal_nan=True)
        assert c(0.75) == ref(0.75) and isinstance(c(0.75), float)


@pytest.mark.parametrize("params", [
    {"amplitude": 1.2, "width": 1.5},
    {"amplitude": -0.7, "center": -0.4, "width": 0.3, "baseline": 0.25},
    {"amplitude": 2.0, "center": 1e-300, "width": 40.0, "baseline": -1.0},
])
def test_gaussian_bump_matches_literal_formula(params):
    amp, c, w = params["amplitude"], params.get("center", 0.0), params["width"]
    base = params.get("baseline", 0.0)
    x = np.concatenate([
        np.linspace(-60.0, 60.0, 20001),
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan],
    ])
    with np.errstate(over="ignore"):
        want = amp * np.exp(-((x - c) ** 2) / (2.0 * w * w)) + base
        got = Curve("gaussian-bump", params)(x)
    nan = np.isnan(want)  # a NaN's sign bit is not a value
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert Curve("gaussian-bump", params)(-0.0) == float(want[20002])
