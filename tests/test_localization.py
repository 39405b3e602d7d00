"""Localization profiles: values, antiderivatives, window averages.

Window averages are checked against dense trapezoid quadrature of the
profile itself, so the signed-antiderivative bookkeeping is exercised
independently of its closed form.
"""

import numpy as np
import pytest

from friedrichs import ValidationError, make_localization


def brute_window_average(prof, lo, hi, r, n=20001):
    u = np.linspace(lo, hi, n)
    vals = prof(u / r)
    return np.trapezoid(vals, u) / (hi - lo)


def test_indicator_basics():
    f = make_localization("indicator", J=(-1.0, 1.0))
    assert f(np.array([0.0, 0.5, -0.5]))[0] == 1.0
    assert np.all(f(np.array([1.5, -1.5, 100.0])) == 0.0)
    assert f.integral() == 2.0
    assert f.delta == 1.0
    assert f.support_radius == 1.0


def test_indicator_window_average_matches_quadrature():
    f = make_localization("indicator", J=(-1.0, 1.0))
    gen = np.random.default_rng(3)
    for _ in range(20):
        lo = gen.uniform(-3, 2.5)
        hi = lo + gen.uniform(0.01, 2.0)
        r = gen.uniform(0.5, 8.0)
        got = f.window_average(lo, hi, r)
        ref = brute_window_average(f, lo, hi, r)
        assert abs(got - ref) < 5e-4  # trapezoid ref has kink error


def test_zero_width_antiderivative_is_clip_bit_for_bit():
    # the indicator is the trapezoid with zero ramp; its antiderivative
    # must stay np.clip to the last bit, signed zeros included
    d = 1.3
    f = make_localization("indicator", J=(-d, d))
    u = np.concatenate((np.random.default_rng(5).uniform(-4.0, 4.0, 2000),
                        [0.0, -0.0, d, -d, np.nextafter(d, 9.0), -np.nextafter(d, 9.0),
                         7.0, -7.0, 1e300, -1e300, np.inf, -np.inf]))
    got = f.antiderivative(u)
    assert np.array_equal(got.view(np.int64), np.clip(u, -d, d).view(np.int64))
    assert np.signbit(got[-11]) and not np.signbit(got[-12])


def test_smooth_bump_shape():
    f = make_localization("smooth_bump", delta=1.0, width=1.0)
    assert f(np.array([0.0]))[0] == 1.0
    assert f(np.array([0.99]))[0] == 1.0  # plateau
    assert abs(f(np.array([1.5]))[0] - 0.5) < 1e-14  # mid-ramp
    assert f(np.array([2.0]))[0] == 0.0
    assert f(np.array([-1.5]))[0] == f(np.array([1.5]))[0]
    assert f.integral() == pytest.approx(3.0, abs=1e-14)


def test_smooth_bump_antiderivative_is_odd_and_consistent():
    f = make_localization("smooth_bump", delta=0.7, width=0.6)
    u = np.linspace(-3, 3, 31)
    A = f.antiderivative(u)
    assert np.allclose(A, -f.antiderivative(-u), atol=1e-14)
    # derivative of the antiderivative recovers the profile
    h = 1e-6
    mid = np.linspace(-2.2, 2.2, 41)
    num = (f.antiderivative(mid + h) - f.antiderivative(mid - h)) / (2 * h)
    assert np.max(np.abs(num - f(mid))) < 1e-6


def test_smooth_bump_window_average():
    f = make_localization("smooth_bump", delta=1.0, width=1.0)
    gen = np.random.default_rng(11)
    for _ in range(20):
        lo = gen.uniform(-4, 3.5)
        hi = lo + gen.uniform(0.05, 1.5)
        r = gen.uniform(0.5, 6.0)
        got = f.window_average(lo, hi, r)
        ref = brute_window_average(f, lo, hi, r)
        assert abs(got - ref) < 1e-6


def test_validation_errors():
    with pytest.raises(ValidationError):
        make_localization("indicator", J=(-1.0, 2.0))  # asymmetric
    with pytest.raises(ValidationError):
        make_localization("indicator", J=(0.0, 0.0))  # degenerate
    with pytest.raises(ValidationError):
        make_localization("indicator")  # interval missing
    with pytest.raises(ValidationError):
        make_localization("smooth_bump", delta=1.0, width=0.0)
    for bad in (np.nan, np.inf):
        # a non-finite delta or width is refused by name: NaN rows or a
        # traceback were all it could lead to
        with pytest.raises(ValidationError, match="delta must be positive and finite"):
            make_localization("smooth_bump", delta=bad, width=1.0)
        with pytest.raises(ValidationError, match="width must be nonnegative and finite"):
            make_localization("smooth_bump", delta=1.0, width=bad)
    with pytest.raises(ValidationError, match="delta must be positive and finite"):
        make_localization("indicator", J=(-np.inf, np.inf))
    with pytest.raises(ValidationError, match="unknown localization kind"):
        make_localization("custom", delta=0.5)
    with pytest.raises(ValidationError):
        make_localization("no-such-kind", J=(-1.0, 1.0))

