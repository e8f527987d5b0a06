import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import InvalidInputError, NumericalDomainError
from tomoprop.grids import (
    UniformGrid,
    damped_integral_2d,
    fft_upsample,
    integrate_samples,
    refine_samples,
    trapezoid_weights,
)


def test_uniform_grid_endpoints_and_step():
    g = UniformGrid(-2.0, 2.0, 9)
    assert g.points[0] == -2.0 and g.points[-1] == 2.0
    assert g.step == pytest.approx(0.5)
    assert g.points.size == 9


def test_uniform_grid_rejects_small_counts():
    with pytest.raises(InvalidInputError):
        UniformGrid(0.0, 1.0, 4)


def test_uniform_grid_rejects_empty_interval():
    with pytest.raises(InvalidInputError):
        UniformGrid(1.0, 1.0, 16)


def test_trapezoid_weights_sum_to_length():
    w = trapezoid_weights(11, 0.1)
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == pytest.approx(0.05) and w[-1] == pytest.approx(0.05)


def test_integrate_quadratic_exactly_by_refinement():
    g = UniformGrid(0.0, 1.0, 2001)
    val = integrate_samples(g.points**2, g.step)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_integrate_rejects_single_sample():
    with pytest.raises(InvalidInputError):
        integrate_samples(np.array([1.0]), 0.1)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    n=st.integers(8, 64),
)
def test_integrate_is_linear(a, b, n):
    g = UniformGrid(-1.0, 1.0, n)
    f = np.sin(g.points)
    h = np.cos(g.points)
    lhs = integrate_samples(a * f + b * h, g.step)
    rhs = a * integrate_samples(f, g.step) + b * integrate_samples(h, g.step)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_damped_integral_gaussian_oracle():
    # iint exp(-(z^2+a^2)) dz da with damping eps gives pi/(1+eps)
    g = UniformGrid(-10.0, 10.0, 401)
    eps = 1e-3
    val = damped_integral_2d(lambda z, a: np.exp(-(z**2 + a**2)), g, g, eps)
    assert val == pytest.approx(np.pi / (1.0 + eps), abs=1e-8)


def test_damped_integral_flags_nonfinite():
    g = UniformGrid(-1.0, 1.0, 21)
    with pytest.raises(NumericalDomainError):
        damped_integral_2d(lambda z, a: np.nan * (z + a), g, g, 1e-3)


@pytest.mark.parametrize("n", [31, 32])
@pytest.mark.parametrize("dtype", [float, complex])
def test_fft_upsample_matches_scipy_resample(n, dtype):
    from scipy.signal import resample

    rng = np.random.default_rng(n)
    values = rng.standard_normal((3, n))
    if dtype is complex:
        values = values + 1j * rng.standard_normal((3, n))
    for count in (n, n + 1, 4 * n, 4 * n + 1):
        got = fft_upsample(values, count, axis=1)
        expected = resample(values, count, axis=1)
        assert got.shape == (3, count)
        assert np.iscomplexobj(got) == (dtype is complex)
        assert np.abs(got - expected).max() <= 1e-12
    with pytest.raises(InvalidInputError):
        fft_upsample(values, n - 1, axis=1)


def test_refine_samples_resolves_requested_frequency():
    grid = UniformGrid(-6.0, 6.0, 64)
    values = np.exp(-grid.points**2)
    y, fine, step = refine_samples(grid, values, 40.0)
    assert y.size == fine.size and y[0] == grid.lower
    assert 2.0 * np.pi / step >= 2.5 * 40.0
    assert np.abs(fine - np.exp(-y**2)).max() < 1e-10
    assert refine_samples(grid, values, 1.0)[1] is values
