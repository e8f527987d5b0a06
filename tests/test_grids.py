import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import InvalidInputError, NumericalDomainError
from tomoprop.grids import (
    MAX_FINE,
    UniformGrid,
    cubic_spline_coeffs,
    eval_spline,
    fft_upsample,
    fine_count,
    integrate_samples,
    next_fast_len,
    refine_samples,
    trapezoid_weights,
)

from kernel_oracle import damped_integral_2d


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
    assert 2.0 * np.pi / step >= 40.0 + np.pi / grid.step
    assert np.abs(fine - np.exp(-y**2)).max() < 1e-10
    assert refine_samples(grid, values, 1.0)[1] is values


def _is_11_smooth(n):
    for q in (2, 3, 5, 7, 11):
        while n % q == 0:
            n //= q
    return n == 1


def test_fine_count_is_fft_friendly():
    grid = UniformGrid(-12.0, 12.0, 512)
    band = np.pi / grid.step
    for max_freq in np.geomspace(1.0, 2.0e4, 200):
        count = fine_count(grid, max_freq, band)
        needed = grid.count * grid.step * (max_freq + band) / (2.0 * np.pi)
        if np.ceil(needed) <= grid.count:
            assert count == grid.count
        else:
            assert needed <= count and _is_11_smooth(count)
    with pytest.raises(NumericalDomainError, match=f"more than MAX_FINE = {MAX_FINE}"):
        fine_count(grid, 1.0e6, band)


def test_next_fast_len_matches_scipy():
    import scipy.fft

    for target in range(1, 20001):
        assert next_fast_len(target) == scipy.fft.next_fast_len(target), target
    with pytest.raises(InvalidInputError):
        next_fast_len(0)


def _next_fast_len_by_search(target):
    """The smallest 2*3*5*7*11-smooth integer >= target, trying one integer after another."""
    n = target
    while not _is_11_smooth(n):
        n += 1
    return n


def test_next_fast_len_matches_a_search():
    rng = np.random.default_rng(11)
    targets = np.concatenate([
        np.arange(1, 20001),
        rng.integers(20001, 2 * MAX_FINE + 1, 3000),
        [2 * MAX_FINE - 1, 2 * MAX_FINE, 2 * MAX_FINE + 1],
        rng.integers(2 * MAX_FINE + 1, 64 * MAX_FINE, 50),  # past the table
    ])
    for target in targets.tolist():
        assert next_fast_len(target) == _next_fast_len_by_search(target), target


def _packets(x, centres, widths, wavenumbers):
    """Gaussian packets along axis 0 of x, one column per centre."""
    return np.exp(-((x[:, None] - centres) ** 2) / (2.0 * widths**2) + 1j * wavenumbers * x[:, None])


@pytest.mark.parametrize(
    "grid,columns,dtype",
    [
        (UniformGrid(-14.0, 14.0, 351), 180, float),  # a tomogram's slices
        (UniformGrid(-12.0, 12.0 + 24.0 / 4095, 4096), 16, complex),  # the nu -> 0 limit states
        (UniformGrid(-9.0, 13.0, 200), 3, float),  # off-centre
        (UniformGrid(-1.0, 1.0, 9), 2, complex),  # odd count, few rows
    ],
    ids=["tomogram", "limit_states", "off_centre", "small"],
)
def test_cubic_spline_matches_scipy_not_a_knot(grid, columns, dtype):
    from scipy.interpolate import CubicSpline, PPoly

    rng = np.random.default_rng(grid.count)
    x = grid.points
    values = _packets(
        x,
        rng.uniform(x[0] + 0.3 * grid.span, x[-1] - 0.3 * grid.span, columns),
        rng.uniform(0.05, 0.2, columns) * grid.span,
        rng.uniform(-3.0, 3.0, columns) if dtype is complex else 0.0,
    )
    values = values if dtype is complex else values.real
    coeffs = cubic_spline_coeffs(values, grid.step)
    expected = CubicSpline(x, values, axis=0)
    assert coeffs.shape == expected.c.shape and coeffs.dtype == expected.c.dtype
    q = np.concatenate([rng.uniform(x[0], x[-1], 4000), x, x[:-1] + 0.5 * grid.step])
    got = PPoly(coeffs, x)(q)
    assert np.abs(got - expected(q)).max() < 1e-13
    assert np.abs(got[4000:4000 + x.size] - values).max() < 1e-13  # interpolates the samples


def test_eval_spline_matches_ppoly_and_vanishes_outside():
    from scipy.interpolate import PPoly

    grid = UniformGrid(-9.0, 13.0, 200)
    x = grid.points
    rng = np.random.default_rng(5)
    values = _packets(x, np.array([-2.0, 4.0, 7.0]), np.array([1.0, 2.0, 1.5]), np.array([0.5, -1.0, 2.0]))
    coeffs = cubic_spline_coeffs(values, grid.step)  # (4, 199, 3)
    q = np.concatenate([rng.uniform(-10.0, 14.0, 3000), x])
    inside = (q >= x[0]) & (q <= x[-1])
    expected = np.where(inside[:, None], PPoly(coeffs, x)(q), 0.0)
    # stacked splines, one column each, picked per point
    rows = rng.integers(0, 3, q.size)
    table = np.ascontiguousarray(coeffs.transpose(2, 1, 0))
    got = eval_spline(table, rows, q, x[0], grid.step, x[-1])
    assert np.abs(got - expected[np.arange(q.size), rows]).max() < 1e-15
    assert not got[~inside].any()
    # rows (r, 1) against q (r, c): row i's spline at every q[i], the same
    # values as the flat call
    rows2, q2 = rows[:6, None], q[:3000].reshape(6, 500)
    got2 = eval_spline(table, rows2, q2, x[0], grid.step, x[-1])
    assert got2.shape == q2.shape
    want = expected[:3000].reshape(6, 500, 3)[np.arange(6), :, rows2.ravel()]
    assert np.abs(got2 - want).max() < 1e-15
    assert got2.tobytes() == eval_spline(table, rows2.repeat(500), q2.ravel(), x[0], grid.step, x[-1]).tobytes()


def test_cubic_spline_reproduces_cubics():
    grid = UniformGrid(-2.0, 3.0, 41)
    x = grid.points
    cubic = 0.7 * x**3 - 1.1 * x**2 + 0.3 * x - 2.0
    coeffs = cubic_spline_coeffs(cubic, grid.step)
    assert np.abs(coeffs[0] - 0.7).max() < 1e-9
    with pytest.raises(InvalidInputError):
        cubic_spline_coeffs(cubic[:3], grid.step)
