import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spillcast.errors import InvariantViolation
from spillcast.thermal import ThermalCurve, eval_thermal, eval_thermal_array


def test_briere_zero_at_lower_limit():
    curve = ThermalCurve("briere", 1.0, 10.0, 35.0)
    assert eval_thermal(curve, 10.0) == 0.0


def test_briere_zero_beyond_upper_limit():
    curve = ThermalCurve("briere", 2e-4, 9.4, 39.6)
    assert eval_thermal(curve, 45.0) == 0.0
    assert eval_thermal(curve, 39.6) == 0.0


def test_briere_formula_inside_limits():
    curve = ThermalCurve("briere", 2e-4, 9.4, 39.6)
    temp = 25.0
    expected = 2e-4 * temp * (temp - 9.4) * math.sqrt(39.6 - temp)
    assert eval_thermal(curve, temp) == pytest.approx(expected, rel=1e-12)


def test_quadratic_midpoint():
    curve = ThermalCurve("quadratic", 1.0, 10.0, 30.0)
    assert eval_thermal(curve, 20.0) == pytest.approx(100.0)


def test_quadratic_clamps_outside_roots():
    curve = ThermalCurve("quadratic", 1.0, 10.0, 30.0)
    assert eval_thermal(curve, 5.0) == 0.0
    assert eval_thermal(curve, 35.0) == 0.0


def test_constant():
    curve = ThermalCurve.constant(0.07)
    assert eval_thermal(curve, -40.0) == 0.07
    assert eval_thermal(curve, 40.0) == 0.07


def test_nonnegative_everywhere():
    curves = [
        ThermalCurve("briere", 3.8e-5, 1.7, 38.5),
        ThermalCurve("quadratic", 2.0e-3, 10.0, 40.0),
        ThermalCurve.constant(0.25),
    ]
    for temp in np.linspace(-30, 60, 301):
        for curve in curves:
            assert eval_thermal(curve, float(temp)) >= 0.0


def test_parse_and_spec_round_trip():
    for text in ("briere,3.8e-5,1.7,38.5", "quadratic,1.0,10,30", "constant,0.07"):
        curve = ThermalCurve.parse(text)
        assert ThermalCurve.parse(curve.spec()) == curve


def test_parse_rejects_garbage():
    with pytest.raises(InvariantViolation):
        ThermalCurve.parse("lorentzian,1,2,3")
    with pytest.raises(InvariantViolation):
        ThermalCurve.parse("briere,1.0")
    with pytest.raises(InvariantViolation):
        ThermalCurve.parse("constant,abc")


def test_non_finite_coefficients_rejected():
    with pytest.raises(InvariantViolation):
        ThermalCurve("briere", float("nan"), 1.0, 2.0)


@given(
    kind=st.sampled_from(("briere", "quadratic", "constant")),
    c=st.floats(-1.0, 1.0),
    t0=st.floats(-10.0, 20.0),
    width=st.floats(0.0, 40.0),
    temps=st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=40),
)
@settings(max_examples=200, deadline=None)
def test_array_evaluation_matches_scalar_bit_for_bit(kind, c, t0, width, temps):
    if kind == "constant":
        c = abs(c)
    curve = ThermalCurve(kind, c, t0, t0 + width)
    # the curve's own limits and roots are the edge cases
    temps = temps + [t0, t0 + width]
    expected = np.array([eval_thermal(curve, t) for t in temps])
    got = eval_thermal_array(curve, np.array(temps))
    assert got.tobytes() == expected.tobytes()   # signed zeros included
