import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import InvalidInputError
from tomoprop.grids import UniformGrid, integrate_samples, trapezoid_weights
from tomoprop.states import (
    GaussianPacket,
    density_from_wavefunction,
    make_state,
)
from tomoprop.tomography import (
    DEFAULT_THETA_COUNT,
    DEFAULT_X_GRID,
    Tomogram,
    _slice_characteristic,
    angle_grid,
    density_from_tomogram,
    optical_slice,
    tomogram_from_density,
    tomogram_from_wavefunction,
)

X_GRID = UniformGrid(-10.0, 10.0, 201)
THETA = angle_grid(120)


@pytest.fixture(scope="module")
def packet_tomogram():
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    return tomogram_from_wavefunction(psi, X_GRID, THETA)


@pytest.fixture(scope="module")
def ground_tomogram():
    psi = make_state("ho_ground")
    return tomogram_from_wavefunction(psi, X_GRID, THETA)


def _packet_amplitude(y, x0=1.0, p0=0.5, sigma=1.0):
    amp = (np.pi * sigma**2) ** (-0.25)
    return amp * np.exp(-((y - x0) ** 2) / (2.0 * sigma**2) + 1j * p0 * y)


def quadrature_transform(X, mu, nu):
    """Independent high-resolution quadrature of the defining transform."""
    y = np.arange(-20.0, 20.0, 1e-3)
    phase = np.exp(0.5j * mu * y**2 / nu - 1j * X * y / nu)
    integral = np.trapezoid(_packet_amplitude(y) * phase, y)
    return abs(integral) ** 2 / (2.0 * np.pi * abs(nu))


def test_ground_state_matches_closed_form(ground_tomogram):
    tomo = ground_tomogram
    for mu, nu in [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (-0.3, 0.8)]:
        s2 = mu * mu + nu * nu
        for X in (-1.5, 0.0, 0.7):
            expected = np.exp(-X * X / s2) / np.sqrt(np.pi * s2)
            assert tomo.evaluate(X, mu, nu) == pytest.approx(expected, abs=1e-6)


def test_packet_matches_independent_quadrature(packet_tomogram):
    # frames on the stored angle lattice so only the X interpolation enters
    for k in (20, 45, 100):
        theta = THETA.points[k]
        mu, nu = np.cos(theta), np.sin(theta)
        for X in (0.53, -1.2, 1.9):
            oracle = quadrature_transform(X, mu, nu)
            assert packet_tomogram.evaluate(X, mu, nu) == pytest.approx(oracle, abs=2e-6)


def test_limit_slice_is_scaled_position_density():
    psi = make_state(GaussianPacket(0.5, 0.0, 1.2))
    tomo = tomogram_from_wavefunction(psi, X_GRID, THETA)
    mu = 1.0
    for X in (-1.0, 0.3, 1.5):
        u = X / mu
        expected = np.exp(-((u - 0.5) ** 2) / 1.2**2) / np.sqrt(np.pi * 1.2**2) / abs(mu)
        assert tomo.evaluate(X, mu, 0.0) == pytest.approx(expected, abs=1e-6)


def test_momentum_slice_matches_fourier_oracle(packet_tomogram):
    # mu = 0, nu = 1 is the momentum distribution |FT psi|^2 / 2 pi
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    y = psi.grid.points
    for p in (-1.0, 0.5, 1.5):
        ft = np.trapezoid(psi.values * np.exp(-1j * p * y), y)
        expected = abs(ft) ** 2 / (2.0 * np.pi)
        assert packet_tomogram.evaluate(p, 0.0, 1.0) == pytest.approx(expected, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.2, 4.0),
    sign=st.sampled_from([-1.0, 1.0]),
    x=st.floats(-2.0, 2.0),
    theta=st.floats(0.1, 3.0),
)
def test_homogeneity_law(packet_tomogram, a, sign, x, theta):
    mu, nu = np.cos(theta), np.sin(theta)
    scale = sign * a
    lhs = packet_tomogram.evaluate(scale * x, scale * mu, scale * nu)
    rhs = packet_tomogram.evaluate(x, mu, nu) / abs(scale)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-2.0, 2.0), theta=st.floats(0.0, 3.1))
def test_parity_identity(packet_tomogram, x, theta):
    mu, nu = np.cos(theta), np.sin(theta)
    lhs = packet_tomogram.evaluate(x, -mu, -nu)
    rhs = packet_tomogram.evaluate(-x, mu, nu)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_slices_normalized_and_nonnegative(packet_tomogram):
    norms = packet_tomogram.slice_norms()
    assert np.abs(norms - 1.0).max() < 1e-8
    assert packet_tomogram.values.min() >= 0.0


def test_pure_density_route_matches_wavefunction_route():
    psi = make_state("ho:1")
    direct = tomogram_from_wavefunction(psi, X_GRID, THETA)
    via_rho = tomogram_from_density(density_from_wavefunction(psi), X_GRID, THETA)
    assert np.abs(direct.values - via_rho.values).max() < 1e-8


def test_mixed_state_is_convex_combination():
    psi0 = make_state("ho:0")
    psi1 = make_state("ho:1")
    rho_vals = 0.5 * np.outer(psi0.values, psi0.values.conj()) + 0.5 * np.outer(
        psi1.values, psi1.values.conj()
    )
    from tomoprop.states import DensityMatrix

    rho = DensityMatrix(grid=psi0.grid, values=rho_vals)
    mixed = tomogram_from_density(rho, X_GRID, THETA)
    t0 = tomogram_from_wavefunction(psi0, X_GRID, THETA)
    t1 = tomogram_from_wavefunction(psi1, X_GRID, THETA)
    assert np.abs(mixed.values - 0.5 * (t0.values + t1.values)).max() < 1e-7


def test_density_roundtrip_ground_state():
    psi = make_state("ho_ground")
    tomo = tomogram_from_wavefunction(psi, DEFAULT_X_GRID, angle_grid(DEFAULT_THETA_COUNT))
    target = UniformGrid(-6.0, 6.0, 96)
    rho = density_from_tomogram(tomo, target)
    x = target.points
    expected = np.exp(-0.5 * (x[:, None] ** 2 + x[None, :] ** 2)) / np.sqrt(np.pi)
    assert np.abs(rho.values - expected).max() < 1e-4
    assert rho.hermiticity_defect() < 1e-12


def test_optical_slice_parity_and_period(packet_tomogram):
    phi = 0.7
    base = optical_slice(packet_tomogram, phi)
    assert np.abs(optical_slice(packet_tomogram, phi + 2 * np.pi) - base).max() < 1e-12
    flipped = optical_slice(packet_tomogram, phi + np.pi)
    assert np.abs(flipped - base[::-1]).max() < 1e-10


def test_tomogram_shape_validation():
    with pytest.raises(InvalidInputError):
        Tomogram(x_grid=X_GRID, theta_grid=THETA, values=np.zeros((3, 3)))


def test_theta_grid_convention():
    g = angle_grid(90)
    assert g.points[0] == 0.0
    assert g.points[-1] == pytest.approx(np.pi * 89 / 90)


def _packet_tomogram_closed_form(x_grid, theta_grid, x0=1.0, p0=0.5, sigma=1.0):
    """Exact packet tomogram: X = mu x + nu p is Gaussian with known moments."""
    th = theta_grid.points[:, None]
    mu, nu = np.cos(th), np.sin(th)
    mean = mu * x0 + nu * p0
    var = 0.5 * (mu * sigma) ** 2 + 0.5 * (nu / sigma) ** 2
    values = np.exp(-((x_grid.points - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return Tomogram(x_grid=x_grid, theta_grid=theta_grid, values=values)


def dense_slice_characteristic(tomo, mu, nu):
    """Dense trapezoid sums chi_theta(f) = sum_k wu_k w(u_k, theta) exp(i f u_k),
    folded to the stored slices and blended linearly in theta."""
    u = tomo.x_grid.points
    weighted = tomo.values * trapezoid_weights(tomo.x_grid.count, tomo.x_grid.step)
    n = tomo.theta_grid.count
    s = np.hypot(mu, nu)
    theta = np.arctan2(nu, mu)
    tm = np.mod(theta, np.pi)
    freq = np.where(np.round((theta - tm) / np.pi).astype(int) % 2 == 1, -s, s)
    pos = tm / (np.pi / n)
    j0 = np.minimum(pos.astype(int), n - 1)
    frac = pos - j0
    wrap = j0 + 1 == n
    j1 = np.where(wrap, 0, j0 + 1)
    f1 = np.where(wrap, -freq, freq)
    chi0 = np.einsum("qu,qu->q", weighted[j0], np.exp(1j * freq[:, None] * u))
    chi1 = np.einsum("qu,qu->q", weighted[j1], np.exp(1j * f1[:, None] * u))
    return np.where(s == 0, 1.0, (1.0 - frac) * chi0 + frac * chi1)


@pytest.mark.parametrize("packet", [(1.0, 0.5, 1.0), (3.0, -2.0, 0.6)], ids=["near", "far"])
@pytest.mark.parametrize(
    "x_grid",
    [DEFAULT_X_GRID, UniformGrid(-14.0, 14.0, 350), UniformGrid(-9.0, 13.0, 200)],
    ids=["odd", "even", "off_centre"],
)
def test_slice_characteristic_matches_dense_sum(x_grid, packet):
    tomo = _packet_tomogram_closed_form(x_grid, angle_grid(DEFAULT_THETA_COUNT), *packet)
    rng = np.random.default_rng(7)
    # |mu| up to 45 forces the periodic wrap of the FFT table on every grid
    mu = rng.uniform(-45.0, 45.0, 20000)
    nu = rng.uniform(-20.0, 20.0, 20000)
    mu[:50] = 0.0
    nu[:50] = 0.0  # s = 0
    nu[50:100] = 0.0  # the theta = 0 slice and its parity image
    got = _slice_characteristic(tomo, mu, nu)
    assert np.abs(got - dense_slice_characteristic(tomo, mu, nu)).max() < 1e-8
    assert np.all(got[:50] == 1.0)
