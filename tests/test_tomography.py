import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import resample

from tomoprop.errors import InvalidFrameError, InvalidInputError, NumericalDomainError
from tomoprop.grids import (
    UniformGrid,
    eval_spline,
    fine_count,
    integrate_samples,
    refine_count,
    trapezoid_weights,
    upsample,
)
from tomoprop.states import (
    DensityMatrix,
    GaussianPacket,
    density_from_wavefunction,
    make_state,
)
from tomoprop.tomography import (
    DEFAULT_THETA_COUNT,
    DEFAULT_X_GRID,
    MU_EDGE_THRESHOLD,
    Tomogram,
    _BLOCK_BYTES,
    _angle_pairs,
    _block_bytes,
    _chirp_kernels,
    _fold_frames,
    _lagrange_weights,
    _momentum_grid,
    _slice_characteristic,
    _slice_plan,
    _transform_state_batch,
    angle_grid,
    density_from_tomogram,
    optical_slice,
    tomogram_from_density,
    tomogram_from_wavefunction,
    tomogram_moments,
)

X_GRID = UniformGrid(-10.0, 10.0, 201)
THETA_COUNT = 120


@pytest.fixture(scope="module")
def packet_tomogram():
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    return tomogram_from_wavefunction(psi, X_GRID, THETA_COUNT)


@pytest.fixture(scope="module")
def ground_tomogram():
    psi = make_state("ho_ground")
    return tomogram_from_wavefunction(psi, X_GRID, THETA_COUNT)


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
        theta = angle_grid(THETA_COUNT).points[k]
        mu, nu = np.cos(theta), np.sin(theta)
        for X in (0.53, -1.2, 1.9):
            oracle = quadrature_transform(X, mu, nu)
            assert packet_tomogram.evaluate(X, mu, nu) == pytest.approx(oracle, abs=2e-6)


def test_limit_slice_is_scaled_position_density():
    psi = make_state(GaussianPacket(0.5, 0.0, 1.2))
    tomo = tomogram_from_wavefunction(psi, X_GRID, THETA_COUNT)
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
    direct = tomogram_from_wavefunction(psi, X_GRID, THETA_COUNT)
    via_rho = tomogram_from_density(density_from_wavefunction(psi), X_GRID, THETA_COUNT)
    assert np.abs(direct.values - via_rho.values).max() < 1e-8
    # the projector carries psi as its factor, so both run the same transform
    assert direct.values.tobytes() == via_rho.values.tobytes()
    # the same matrix without its factor is diagonalized
    plain = DensityMatrix(grid=psi.grid, values=np.outer(psi.values, psi.values.conj()))
    assert np.abs(direct.values - tomogram_from_density(plain, X_GRID, THETA_COUNT).values).max() < 1e-8


def test_spectral_cut_records_kept_and_dropped_weight():
    psi0, psi1 = make_state("ho:0"), make_state("ho:1")
    values = 0.7 * np.outer(psi0.values, psi0.values.conj()) + 0.3 * np.outer(psi1.values, psi1.values.conj())
    rho = DensityMatrix(grid=psi0.grid, values=values + 1e-4 * np.eye(psi0.grid.count))
    tomo = tomogram_from_density(rho, X_GRID, THETA_COUNT)
    total = np.abs(np.linalg.eigvalsh(rho.values) * rho.grid.step).sum()
    assert tomo.meta["components"] == 16
    assert tomo.meta["weight_dropped"] > 1e-3
    assert tomo.meta["weight_kept"] + tomo.meta["weight_dropped"] == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize(
    "spec, mean, cov",
    [
        ("gaussian:1,0.5,1", (1.0, 0.5), ((0.5, 0.0), (0.0, 0.5))),
        ("gaussian:-2,1.5,0.8", (-2.0, 1.5), ((0.32, 0.0), (0.0, 0.78125))),
        ("ho:3", (0.0, 0.0), ((3.5, 0.0), (0.0, 3.5))),
    ],
)
def test_tomogram_moments_match_closed_forms(spec, mean, cov):
    # a packet of width sigma has var x = sigma^2/2 and var p = 1/(2 sigma^2);
    # |n> has <x^2> = <p^2> = n + 1/2
    got_mean, got_cov = tomogram_moments(tomogram_from_wavefunction(make_state(spec)))
    assert np.abs(got_mean - mean).max() < 1e-9
    assert np.abs(got_cov - cov).max() < 1e-9


def test_tomogram_moments_of_a_squeezed_rotated_packet():
    # the oscillator rotates phase space, which correlates x and p; the
    # pullback's linear blend between stored angles limits this to ~4e-5
    from tomoprop.greens import OSCILLATOR, classical_flow
    from tomoprop.propagator import evolve_pullback

    tomo = tomogram_from_wavefunction(make_state("gaussian:1,0.5,0.7"))
    m, c = classical_flow(OSCILLATOR, 0.6)
    mean, cov = np.array([1.0, 0.5]), np.diag([0.245, 0.5 / 0.49])
    got_mean, got_cov = tomogram_moments(evolve_pullback(tomo, OSCILLATOR, 0.6))
    assert np.abs(got_mean - (m @ mean + c)).max() < 2e-4
    assert np.abs(got_cov - m @ cov @ m.T).max() < 2e-4
    assert abs(got_cov[0, 1]) > 0.1


def test_pure_projector_drops_no_weight():
    rho = density_from_wavefunction(make_state("ho:0"))
    for rho in (rho, DensityMatrix(grid=rho.grid, values=rho.values)):  # with and without its factor
        tomo = tomogram_from_density(rho, X_GRID, THETA_COUNT)
        assert tomo.meta["weight_kept"] == pytest.approx(1.0, abs=1e-12)
        assert tomo.meta["weight_dropped"] < 1e-12


def test_mixed_state_is_convex_combination():
    psi0 = make_state("ho:0")
    psi1 = make_state("ho:1")
    rho_vals = 0.5 * np.outer(psi0.values, psi0.values.conj()) + 0.5 * np.outer(
        psi1.values, psi1.values.conj()
    )
    from tomoprop.states import DensityMatrix

    rho = DensityMatrix(grid=psi0.grid, values=rho_vals)
    mixed = tomogram_from_density(rho, X_GRID, THETA_COUNT)
    t0 = tomogram_from_wavefunction(psi0, X_GRID, THETA_COUNT)
    t1 = tomogram_from_wavefunction(psi1, X_GRID, THETA_COUNT)
    assert np.abs(mixed.values - 0.5 * (t0.values + t1.values)).max() < 1e-7


def test_density_roundtrip_ground_state():
    psi = make_state("ho_ground")
    tomo = tomogram_from_wavefunction(psi, DEFAULT_X_GRID, DEFAULT_THETA_COUNT)
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
        Tomogram(x_grid=X_GRID, theta_count=THETA_COUNT, values=np.zeros((3, 3)))


def test_tomogram_values_are_read_only():
    # the cached spline and characteristic tables are built from `values`,
    # so an in-place edit, which would leave them stale, is refused
    values = np.full((THETA_COUNT, X_GRID.count), 0.05)
    tomo = Tomogram(x_grid=X_GRID, theta_count=THETA_COUNT, values=values)
    with pytest.raises(ValueError):
        tomo.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        tomo.values *= 2.0
    values[0, 0] = 1.0  # the caller's array stays its own
    assert tomo.values[0, 0] == 0.05


def test_theta_grid_convention():
    g = angle_grid(90)
    assert g.points[0] == 0.0
    assert g.points[-1] == pytest.approx(np.pi * 89 / 90)


def _packet_tomogram_closed_form(x_grid, theta_count, x0=1.0, p0=0.5, sigma=1.0):
    """Exact packet tomogram: X = mu x + nu p is Gaussian with known moments."""
    th = angle_grid(theta_count).points[:, None]
    mu, nu = np.cos(th), np.sin(th)
    mean = mu * x0 + nu * p0
    var = 0.5 * (mu * sigma) ** 2 + 0.5 * (nu / sigma) ** 2
    values = np.exp(-((x_grid.points - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return Tomogram(x_grid=x_grid, theta_count=theta_count, values=values)


def dense_slice_characteristic(tomo, mu, nu):
    """Dense trapezoid sums chi_theta(f) = sum_k wu_k w(u_k, theta) exp(i f u_k),
    folded to the stored slices and read in theta by 4-point Lagrange weights
    over the taps j0 - 1 ... j0 + 2 on the parity-extended circle of 2 n angles."""
    u = tomo.x_grid.points
    weighted = tomo.values * trapezoid_weights(tomo.x_grid.count, tomo.x_grid.step)
    n = tomo.theta_count
    s = np.hypot(mu, nu)
    theta = np.arctan2(nu, mu)
    tm = np.mod(theta, np.pi)
    freq = np.where(np.round((theta - tm) / np.pi).astype(int) % 2 == 1, -s, s)
    pos = tm / (np.pi / n)
    j0 = np.minimum(pos.astype(int), n - 1)
    t = pos - j0
    weights = [
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    ]
    total = np.zeros(s.shape, dtype=complex)
    for offset, weight in zip(range(-1, 3), weights):
        j = j0 + offset
        # w(X, theta + pi) = w(-X, theta): a tap past either end reads its slice at -f
        f = np.where((j < 0) | (j >= n), -freq, freq)
        total += weight * np.einsum("qu,qu->q", weighted[j % n], np.exp(1j * f[:, None] * u))
    return np.where(s == 0, 1.0, total)


def _characteristic_frames():
    rng = np.random.default_rng(7)
    # |mu| up to 45 forces the periodic wrap of the FFT table on every grid
    mu = rng.uniform(-45.0, 45.0, 20000)
    nu = rng.uniform(-20.0, 20.0, 20000)
    mu[:50] = 0.0
    nu[:50] = 0.0  # s = 0
    nu[50:100] = 0.0  # theta = 0 and theta = pi, both read from slice 0
    mu[100:150], nu[100:150] = rng.uniform(-0.01, 0.01, (2, 50))  # s within the table's first step
    return mu, nu


NEAR_PACKET = (1.0, 0.5, 1.0)
FAR_PACKET = (3.0, -2.0, 0.6)


def _characteristic_tomogram(x_grid, kind):
    n = DEFAULT_THETA_COUNT
    if kind == "spiky":
        # five random samples per slice: Q_j stays O(1) up to its half period,
        # where the table's extension past pad/2 is read, and varies slowly
        rng = np.random.default_rng(3)
        values = np.zeros((n, x_grid.count))
        start = rng.integers(0, x_grid.count - 5, n)
        for j, k in enumerate(start):
            values[j, k : k + 5] = rng.uniform(0.1, 1.0, 5)
        values /= integrate_samples(values, x_grid.step)[:, None]
        return Tomogram(x_grid=x_grid, theta_count=n, values=values)
    packet = {"near": NEAR_PACKET, "far": FAR_PACKET}[kind]
    return _packet_tomogram_closed_form(x_grid, n, *packet)


CHARACTERISTIC_X_GRIDS = pytest.mark.parametrize(
    "x_grid",
    [DEFAULT_X_GRID, UniformGrid(-14.0, 14.0, 350), UniformGrid(-9.0, 13.0, 200)],
    ids=["odd", "even", "off_centre"],
)


@pytest.mark.parametrize("packet", ["near", "far", "spiky"])
@CHARACTERISTIC_X_GRIDS
def test_slice_characteristic_matches_dense_sum(x_grid, packet):
    tomo = _characteristic_tomogram(x_grid, packet)
    mu, nu = _characteristic_frames()
    got = _slice_characteristic(tomo, mu, nu)
    assert np.abs(got - dense_slice_characteristic(tomo, mu, nu)).max() < 1e-8
    assert np.all(got[:50] == 1.0)


def _edge_interval_frames(n, s_max):
    """Frames whose angle falls in the first or the last stored interval,
    [0, pi/n) or [pi - pi/n, pi), and their mirrors past pi: their theta taps
    cross theta = 0 or theta = pi."""
    rng = np.random.default_rng(11)
    d = np.pi / n
    theta = np.concatenate([rng.uniform(0.0, d, 200), rng.uniform(np.pi - d, np.pi, 200)])
    theta = np.concatenate([theta, theta + np.pi])
    s = rng.uniform(0.1, s_max, theta.size)
    return s * np.cos(theta), s * np.sin(theta)


@pytest.mark.parametrize("packet", ["near", "far", "spiky"])
def test_slice_characteristic_reads_theta_across_zero_and_pi(packet):
    tomo = _characteristic_tomogram(DEFAULT_X_GRID, packet)
    mu, nu = _edge_interval_frames(tomo.theta_count, 30.0)
    got = _slice_characteristic(tomo, mu, nu)
    assert np.abs(got - dense_slice_characteristic(tomo, mu, nu)).max() < 1e-8


def test_slice_characteristic_across_zero_and_pi_matches_the_gaussian_closed_form():
    # independent of the dense oracle's fold: a packet's slice at (mu, nu) has
    # the characteristic exp(i <X> - var X / 2); measured 1.3e-8, and 3.5e-5
    # for a linear blend in theta
    tomo = _characteristic_tomogram(DEFAULT_X_GRID, "near")
    mu, nu = _edge_interval_frames(tomo.theta_count, 5.0)
    x0, p0, sigma = NEAR_PACKET
    var = 0.5 * (mu * sigma) ** 2 + 0.5 * (nu / sigma) ** 2
    exact = np.exp(1j * (mu * x0 + nu * p0) - 0.5 * var)
    assert np.abs(_slice_characteristic(tomo, mu, nu) - exact).max() < 1e-7


def test_slice_characteristic_at_a_lattice_angle_reads_its_slice_alone():
    # the spiky slices differ from their neighbours by O(1), so any weight on
    # a neighbouring tap would show
    assert np.array_equal(_lagrange_weights(np.zeros(2)), [[0.0, 1.0, 0.0, 0.0]] * 2)
    tomo = _characteristic_tomogram(DEFAULT_X_GRID, "spiky")
    n = tomo.theta_count
    j = np.arange(2 * n)  # every lattice angle and its mirror past pi
    s = np.random.default_rng(5).uniform(0.1, 30.0, j.size)
    mu, nu = s * np.cos(np.pi * j / n), s * np.sin(np.pi * j / n)
    u = tomo.x_grid.points
    weighted = tomo.values * trapezoid_weights(tomo.x_grid.count, tomo.x_grid.step)
    f = np.where(j < n, s, -s)  # w(X, theta + pi) = w(-X, theta)
    alone = np.einsum("qu,qu->q", weighted[j % n], np.exp(1j * f[:, None] * u))
    assert np.abs(_slice_characteristic(tomo, mu, nu) - alone).max() < 1e-8


@pytest.mark.parametrize("packet", ["far", "spiky"])
@CHARACTERISTIC_X_GRIDS
def test_slice_characteristic_is_conjugate_symmetric(x_grid, packet):
    # a real tomogram has K(-mu, -nu) = conj K(mu, nu), which the inverse transform relies on
    tomo = _characteristic_tomogram(x_grid, packet)
    mu, nu = _characteristic_frames()
    got = _slice_characteristic(tomo, mu, nu)
    assert np.abs(_slice_characteristic(tomo, -mu, -nu) - got.conj()).max() < 1e-12


def test_slice_characteristic_table_build_stays_small():
    # on 351 x 180 the table (180 slices of 4100 complex points) takes 11.8 MB;
    # padding every slice's coefficients at once would add 11.8 MB more
    import tracemalloc

    tomo = _characteristic_tomogram(DEFAULT_X_GRID, "near")
    mu, nu = np.linspace(-3.0, 3.0, 10), np.linspace(0.1, 2.0, 10)
    tracemalloc.start()
    try:
        _slice_characteristic(tomo, mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_density_from_tomogram_builds_the_characteristic_table_once(monkeypatch):
    tomo = tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)), X_GRID, THETA_COUNT)
    target = UniformGrid(-5.0, 7.0, 40)
    first = density_from_tomogram(tomo, target)
    rffts = []
    rfft = np.fft.rfft

    def counting(*args, **kwargs):
        rffts.append(args[0].shape)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    second = density_from_tomogram(tomo, target)
    assert rffts == []
    fresh = density_from_tomogram(Tomogram(x_grid=X_GRID, theta_count=THETA_COUNT, values=tomo.values), target)
    assert rffts  # a new tomogram builds its own table
    assert second.values.tobytes() == first.values.tobytes() == fresh.values.tobytes()
    assert second.meta == first.meta == fresh.meta


def test_density_from_tomogram_gathers_the_envelope_once_a_block_at_a_time(monkeypatch):
    # the band comes from the tomogram alone, so later inverses on any grid or
    # step reuse it; the envelope is read from each block's rfft rows, never
    # from a (theta_count, pad/2 + 1) whole-table temporary
    tomo = tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)), X_GRID, THETA_COUNT)
    target = UniformGrid(-5.0, 7.0, 40)
    first = density_from_tomogram(tomo, target)
    half = tomo._characteristic_table[1] // 2
    reads = []
    absolute = np.abs

    def counting(x, *args, **kwargs):
        if np.ndim(x) == 2 and np.shape(x)[1] == half + 1:
            reads.append(np.shape(x)[0])
        return absolute(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counting)
    for grid, step in [(target, 0.05), (UniformGrid(-3.0, 3.0, 20), 0.2)]:
        assert density_from_tomogram(tomo, grid, mu_step=step).meta["mu_band"] == first.meta["mu_band"]
    assert reads == []
    fresh = Tomogram(x_grid=X_GRID, theta_count=THETA_COUNT, values=tomo.values)
    assert density_from_tomogram(fresh, target).meta == first.meta
    assert sum(reads) == THETA_COUNT and max(reads) < THETA_COUNT


def test_pullback_tomogram_builds_its_own_characteristic_table(packet_tomogram):
    c, s = np.cos(0.3), np.sin(0.3)
    pulled = packet_tomogram.with_frame_map(np.array([[1.0, 0.2, 0.0], [0.0, c, -s], [0.0, s, c]]))
    mu, nu = _characteristic_frames()
    got = _slice_characteristic(pulled, mu, nu)
    assert not np.shares_memory(pulled._characteristic_table[0], packet_tomogram._characteristic_table[0])
    # the table is that of the materialized lattice values, not the base's
    materialized = Tomogram(x_grid=X_GRID, theta_count=THETA_COUNT, values=pulled.values.copy())
    assert got.tobytes() == _slice_characteristic(materialized, mu, nu).tobytes()
    assert np.abs(got - _slice_characteristic(packet_tomogram, mu, nu)).max() > 0.1


def full_lattice_density(tomo, target_grid, band, mu_step=0.05):
    """The inverse transform on the whole (mu, nu) lattice of the given band:
    every frame within radius pi/h read directly, one (n_nu, n_sigma) mu
    quadrature, then 0.5 (rho + rho^dagger)."""
    n = target_grid.count
    h = target_grid.step
    nu_vals = np.arange(-(n - 1), n) * h
    sigma_vals = 2.0 * target_grid.lower + np.arange(2 * n - 1) * h
    m_half = int(np.ceil(band / mu_step))
    mu_axis = np.arange(-m_half, m_half + 1) * mu_step
    Mu, Nu = np.meshgrid(mu_axis, nu_vals, indexing="ij")
    inside = np.hypot(Mu, Nu) <= np.pi / tomo.x_grid.step
    K = np.where(inside, _slice_characteristic(tomo, Mu, Nu).reshape(Mu.shape), 0.0)
    w_mu = trapezoid_weights(mu_axis.size, mu_step)
    phases = np.exp(-0.5j * np.outer(mu_axis, sigma_vals))
    table = (K.T * w_mu) @ phases / (2.0 * np.pi)
    idx = np.arange(n)
    rho = table[(idx[:, None] - idx[None, :]) + (n - 1), idx[:, None] + idx[None, :]]
    edge = max(np.abs(K[0]).max(), np.abs(K[-1]).max())
    return 0.5 * (rho + rho.conj().T), edge / np.abs(K).max()


NARROW_PACKET = (0.5, 0.3, 0.3)  # its band, 28.6, is the widest here


@pytest.mark.parametrize(
    "packet, target",
    [
        (NEAR_PACKET, UniformGrid(-10.0, 10.0, 384)),
        (NEAR_PACKET, UniformGrid(-6.0, 6.0, 96)),
        (FAR_PACKET, UniformGrid(-9.0, 13.0, 200)),
        (NARROW_PACKET, UniformGrid(-6.0, 6.0, 97)),
    ],
    ids=["work_grid", "even", "off_centre", "wide_band"],
)
def test_density_matches_full_lattice_oracle(packet, target):
    tomo = _packet_tomogram_closed_form(DEFAULT_X_GRID, DEFAULT_THETA_COUNT, *packet)
    rho = density_from_tomogram(tomo, target)
    want, edge_ratio = full_lattice_density(tomo, target, rho.meta["mu_band"])
    assert np.abs(rho.values - want).max() < 1e-12
    assert rho.hermiticity_defect() == 0.0
    assert rho.meta["mu_edge_ratio"] == pytest.approx(edge_ratio, rel=1e-12, abs=0.0)
    assert rho.meta["mu_edge_ratio"] <= MU_EDGE_THRESHOLD
    assert rho.meta["accuracy_warning"] is False


def dense_envelope(tomo, freqs):
    """max_j |chi_j(f)| over every stored slice j, each chi_j(f) = sum_k wu_k
    w(u_k, theta_j) exp(i f u_k) summed directly, with no FFT table."""
    weighted = tomo.values * trapezoid_weights(tomo.x_grid.count, tomo.x_grid.step)
    return np.abs(weighted @ np.exp(1j * np.outer(tomo.x_grid.points, freqs))).max(axis=0)


BAND_STATES = {
    "near": lambda: _packet_tomogram_closed_form(DEFAULT_X_GRID, DEFAULT_THETA_COUNT, *NEAR_PACKET),
    "far": lambda: _packet_tomogram_closed_form(DEFAULT_X_GRID, DEFAULT_THETA_COUNT, *FAR_PACKET),
    "narrow": lambda: _packet_tomogram_closed_form(DEFAULT_X_GRID, DEFAULT_THETA_COUNT, *NARROW_PACKET),
    "ho:3": lambda: tomogram_from_wavefunction(make_state("ho:3")),
    "ho:8": lambda: tomogram_from_wavefunction(make_state("ho:8")),
    "coarse": lambda: tomogram_from_wavefunction(make_state("ho_ground"), UniformGrid(-14.0, 14.0, 101), 48),
}


@pytest.mark.parametrize("state", list(BAND_STATES))
def test_mu_band_is_where_the_dense_slice_characteristics_settle(state):
    # E(f) = max_j |chi_j(f)| stays at or below MU_EDGE_THRESHOLD E(0) from
    # the band out to pi/h, and is above it just inside; every frame at
    # |mu| >= band has radius s >= band and |K| <= E(s)
    tomo = BAND_STATES[state]()
    band = density_from_tomogram(tomo, UniformGrid(-4.0, 4.0, 17)).meta["mu_band"]
    nyquist = np.pi / tomo.x_grid.step
    assert band < nyquist
    peak = dense_envelope(tomo, [0.0])[0]
    assert (dense_envelope(tomo, np.linspace(band, nyquist, 2000)) <= MU_EDGE_THRESHOLD * peak).all()
    assert dense_envelope(tomo, [band - 0.03])[0] > MU_EDGE_THRESHOLD * peak


def test_mu_band_stops_at_pi_over_h_and_warns():
    # the width-0.2 packet's position slice is still at 4e-7 of its peak at
    # pi/h = 39.3 on the default lattice: the band stops there and says so
    tomo = tomogram_from_wavefunction(make_state("gaussian:0,0,0.2"))
    rho = density_from_tomogram(tomo, UniformGrid(-2.0, 2.0, 33))
    assert rho.meta["mu_band"] == pytest.approx(np.pi / DEFAULT_X_GRID.step, rel=1e-12)
    assert rho.meta["accuracy_warning"] is True
    # the edge rows, up to one step past pi/h, still read the characteristic there
    assert rho.meta["mu_edge_ratio"] > MU_EDGE_THRESHOLD
    peak = dense_envelope(tomo, [0.0])[0]
    assert dense_envelope(tomo, [rho.meta["mu_band"]])[0] > MU_EDGE_THRESHOLD * peak


@pytest.mark.parametrize(
    "spec, target, bound",
    [
        ("ho:3", UniformGrid(-6.0, 6.0, 97), 2e-9),
        ("ho:8", UniformGrid(-8.0, 8.0, 129), 1e-8),
        ("gaussian:0,0,0.3", UniformGrid(-3.0, 3.0, 97), 4e-4),
    ],
    ids=["ho3", "ho8", "narrow"],
)
def test_reconstruction_matches_the_exact_projector(spec, target, bound):
    # reconstruct's default mu step on the default lattice; a band doubled
    # from 16 read 1.06e-9, 7.13e-9 and 3.85e-4 here, the envelope's band
    # 1.40e-9, 7.44e-9 and 3.85e-4 (the narrow packet's error is its theta read)
    tomo = tomogram_from_wavefunction(make_state(spec))
    psi = make_state(spec, target).values
    rho = density_from_tomogram(tomo, target)
    assert rho.meta["accuracy_warning"] is False
    assert np.abs(rho.values - np.outer(psi, psi.conj())).max() < bound


def dense_transform_batch(grid, states, weights, x_grid, theta_count, rows=None):
    """The forward sum evaluated densely from the position samples on the
    slices `rows` of angle_grid(theta_count), by default every slice but
    theta = 0, where nu = 0 leaves the position-side sum undefined: sum_k
    step fine_k exp(i mu y_k^2/(2 nu) - i X y_k/nu) on a grid refined to 2.5
    times the position side's phase rate, a margin of its own so that the
    reference does not share the fine-count rule it checks, squared and
    weighted as in `_transform_state_batch`.  Slices that the transform reads from the
    momentum samples are checked against an independent sum."""
    rows = range(1, theta_count) if rows is None else rows
    theta = angle_grid(theta_count).points
    X = x_grid.points
    ymax = max(abs(grid.lower), abs(grid.upper))
    xabs = max(abs(x_grid.lower), abs(x_grid.upper))
    out = np.empty((len(rows), x_grid.count))
    for r, j in enumerate(rows):
        mu, nu = np.cos(theta[j]), np.sin(theta[j])
        max_freq = (abs(mu) * ymax + xabs) / abs(nu)
        y, step, fine = upsample(grid, states, refine_count(grid, 2.5 * max_freq))
        chirped = fine * np.exp(0.5j * mu * y**2 / nu) * step
        amp = np.zeros((states.shape[0], X.size), dtype=np.complex128)
        for lo in range(0, y.size, 1 << 13):
            hi = lo + (1 << 13)
            amp += chirped[:, lo:hi] @ np.exp(-1j * np.outer(y[lo:hi], X) / nu)
        out[r] = weights @ (np.abs(amp) ** 2) / (2.0 * np.pi * abs(nu))
    return out


@pytest.mark.parametrize(
    "x_grid, spec",
    [
        (DEFAULT_X_GRID, "gaussian:1,0.5,1"),
        (UniformGrid(-14.0, 14.0, 350), "gaussian:1,0.5,1"),
        (UniformGrid(-9.0, 13.0, 200), "gaussian:1,0.5,1"),
        (UniformGrid(-9.0, 13.0, 200), "gaussian:3,-2,0.7"),
    ],
    ids=["odd", "even", "off_centre_near", "off_centre_far"],
)
def test_forward_transform_matches_dense_sum(x_grid, spec):
    # eight angles keep the dense sums cheap
    psi = make_state(spec)
    states, weights = psi.values[None, :], np.array([1.0])
    got = _transform_state_batch(psi.grid, states, weights, x_grid, 8)
    want = dense_transform_batch(psi.grid, states, weights, x_grid, 8)
    assert np.abs(got[1:] - want).max() < 1e-10


OFF_CENTRE_X_GRID = UniformGrid(-9.0, 13.0, 200)


# slice j pairs with n - j; the even count adds pi/2, which is its own partner
@pytest.mark.parametrize(
    "x_grid, theta_count",
    [
        (DEFAULT_X_GRID, 9),
        (DEFAULT_X_GRID, 8),
        (OFF_CENTRE_X_GRID, 9),
        (OFF_CENTRE_X_GRID, 8),
    ],
    ids=["paired", "paired_half_pi", "off_centre_paired", "off_centre_paired_half_pi"],
)
def test_forward_transform_matches_dense_sum_for_signed_mixture(x_grid, theta_count):
    specs = ["ho:0", "ho:1", "ho:3", "gaussian:1,0.5,1", "gaussian:-2,1.5,0.8", "gaussian:3,-2,0.7"]
    grid = make_state("ho:0").grid
    states = np.array([make_state(spec, grid).values for spec in specs], dtype=np.complex128)
    before = states.copy()
    weights = np.array([0.4, 0.3, -0.05, 0.25, -0.02, 0.12])
    got = _transform_state_batch(grid, states, weights, x_grid, theta_count)
    want = dense_transform_batch(grid, states, weights, x_grid, theta_count)
    assert np.abs(got[1:] - want).max() < 1e-10
    assert np.array_equal(states, before)  # the caller's states are never written


def test_angle_pairs_cover_every_slice_once():
    # theta = 0 and pi/2 are their own partners
    for n, alone in ((180, [0, 90]), (181, [0]), (4000, [0, 2000])):
        first, pairs = _angle_pairs(n)
        assert first[pairs:].tolist() == alone
        assert sorted(first.tolist() + (n - first[:pairs]).tolist()) == list(range(n))


def unit_sides_and_counts(grid, x_grid, theta_count):
    """Each slice's side and own fine count, one unit at a time by the scalar
    fine_count: the side whose count is smaller, the position side on a tie;
    a side that cannot read the slice, or would need more than MAX_FINE, counts inf."""
    theta = angle_grid(theta_count).points
    h = grid.step
    own = {}
    for j in range(theta_count):
        first = min(j, theta_count - j) if j else 0  # a unit's counts are its first slice's
        mu, nu = abs(np.cos(theta[first])), np.sin(theta[first])
        counts = []
        for side_grid, scale, rate, band in (
            (grid, nu, mu * grid.reach + x_grid.reach, np.pi / h),
            (_momentum_grid(grid), mu, nu * np.pi / h + x_grid.reach, grid.reach),
        ):
            try:
                counts.append(fine_count(side_grid, rate / scale, band) if scale else np.inf)
            except NumericalDomainError:
                counts.append(np.inf)
        side = int(counts[1] < counts[0])
        own[j] = side, counts[side]
    return own


@pytest.mark.parametrize("theta_count", [180, 9])
@pytest.mark.parametrize("spec_grid", [None, UniformGrid(-6.0, 8.0, 39), UniformGrid(-1000.0, 1000.0, 4096)])
def test_slice_plan_reads_every_slice_once_within_the_block_budget(spec_grid, theta_count):
    grid = spec_grid or make_state("ho_ground").grid
    blocks = _slice_plan(grid, DEFAULT_X_GRID, theta_count, 2)
    own = unit_sides_and_counts(grid, DEFAULT_X_GRID, theta_count)
    rows = [j for _, _, block_rows, _ in blocks for j in block_rows]
    assert sorted(rows) == list(range(theta_count))
    side = {j: s for s, _, block_rows, _ in blocks for j in block_rows}
    assert side[0] == 1  # nu = 0: only the momentum samples read theta = 0
    if theta_count % 2 == 0:
        assert side[theta_count // 2] == 0  # mu = 0: only the position samples read pi/2
    for s, count, block_rows, kernels in blocks:
        partners = block_rows[kernels:]
        # partner q pairs with row q: theta and pi - theta
        assert all(j + i == theta_count for j, i in zip(block_rows, partners))
        assert count >= grid.count
        assert kernels == 1 or _block_bytes(len(block_rows), kernels, count, 2, DEFAULT_X_GRID.count) <= _BLOCK_BYTES
        # each slice on its own side, at the block's largest count, and a
        # slice that needs no upsampling never runs in an upsampled block
        assert {own[j][0] for j in block_rows} == {s}
        assert count == max(own[j][1] for j in block_rows)
        at_grid_count = [own[j][1] == grid.count for j in block_rows]
        assert all(at_grid_count) or not any(at_grid_count)


def test_forward_transform_refuses_only_when_both_sides_exceed_max_fine():
    # h = 0.005 over [-600, 600] fits: no slice needs more than 242550 fine samples.
    # At h = 0.002 slice 1 needs 7018164 fine samples from the position samples
    # and 320711 from the momentum samples over [-pi/h, pi/h], both past
    # MAX_FINE = 262144; the refusal names the smaller need
    _slice_plan(UniformGrid(-600.0, 600.0, 240001), DEFAULT_X_GRID, DEFAULT_THETA_COUNT, 1)
    with pytest.raises(NumericalDomainError, match=r"on \[-1.57e\+03, 1.57e\+03\] needs 320711 fine samples"):
        _slice_plan(UniformGrid(-600.0, 600.0, 600001), DEFAULT_X_GRID, DEFAULT_THETA_COUNT, 1)


def test_forward_transform_matches_dense_sum_near_nu_zero():
    # theta_1 = pi/1571 = 0.0019997: the dense position-side sum needs a fine
    # grid of about 1.2e5 points there, where the transform reads the momentum side
    n = 1571
    rows = [1, 2, n - 2, n - 1]
    psi = make_state("gaussian:1,0.5,1")
    states, weights = psi.values[None, :], np.array([1.0])
    got = _transform_state_batch(psi.grid, states, weights, DEFAULT_X_GRID, n)
    want = dense_transform_batch(psi.grid, states, weights, DEFAULT_X_GRID, n, rows)
    assert np.abs(got[rows] - want).max() < 1e-10


def gaussian_tomogram(x0, p0, sigma, X, theta_count):
    """Closed form for GaussianPacket(x0, p0, sigma): the quadrature mu x + nu p
    is normal with mean mu x0 + nu p0 and variance mu^2 sigma^2/2 + nu^2/(2 sigma^2)."""
    theta = angle_grid(theta_count).points
    mu, nu = np.cos(theta)[:, None], np.sin(theta)[:, None]
    var = 0.5 * (mu * sigma) ** 2 + 0.5 * (nu / sigma) ** 2
    return np.exp(-((X - mu * x0 - nu * p0) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


@pytest.mark.parametrize("spec", ["gaussian:1,0.5,1", "gaussian:3,-2,0.7", "gaussian:0,0,0.3"])
@pytest.mark.parametrize("grid_kind", ["cli", "moment"])
def test_forward_transform_matches_closed_form_on_every_slice(spec, grid_kind):
    # theta = 0 included: it reads 8e-15 (cli) and 7e-13 (moment) at most; the
    # nu -> 0 limit spline it replaced read up to 3.0e-9 there
    from tomoprop.propagator import moment_grid

    x0, p0, sigma = (float(v) for v in spec.split(":")[1].split(","))
    grid = None
    if grid_kind == "moment":  # the Green route's grid for the packet's own moments
        grid = moment_grid(np.array([x0, p0]), np.diag([0.5 * sigma**2, 0.5 / sigma**2]))
    psi = make_state(spec, grid)
    got = _transform_state_batch(psi.grid, psi.values[None, :], np.array([1.0]), DEFAULT_X_GRID, DEFAULT_THETA_COUNT)
    want = gaussian_tomogram(x0, p0, sigma, DEFAULT_X_GRID.points, DEFAULT_THETA_COUNT)
    assert np.abs(got - want).max() < 1e-11


def test_forward_transform_keeps_its_ffts_short():
    # the Green route's output grid for the benchmark packet under
    # alpha = 0.5, beta = 0.3 at t = 1.2 has 39 points; read from the position
    # side alone, slice 1 needed FFTs of 9600 points and the transform made 362 FFT calls
    from tomoprop.greens import GreenFunction, Potential
    from tomoprop.propagator import moment_grid

    m, c = GreenFunction.for_potential(Potential(0.5, 0.3)).flow(1.2)
    mean, cov = np.array([1.0, 0.5]), np.diag([0.5, 0.5])
    grid = moment_grid(m @ mean + c, m @ cov @ m.T)
    assert grid.count == 39
    states = np.array([make_state(spec, grid).values for spec in ("gaussian:1,0.5,1", "ho:1")])
    lengths = []

    def counted(transform):
        def call(a, n=None, axis=-1, norm=None, out=None):
            lengths.append(np.shape(a)[axis] if n is None else n)
            return transform(a, n, axis, norm, out)
        return call

    fft, ifft = np.fft.fft, np.fft.ifft
    np.fft.fft, np.fft.ifft = counted(fft), counted(ifft)
    try:
        _transform_state_batch(grid, states, np.array([0.9, 0.1]), DEFAULT_X_GRID, DEFAULT_THETA_COUNT)
    finally:
        np.fft.fft, np.fft.ifft = fft, ifft
    assert max(lengths) <= 1024
    assert len(lengths) < 362


def test_forward_transform_evaluates_each_chirp_once():
    # on the packet's 35-point Green output grid (oscillator, t = 0.7) each
    # kernel is evaluated on its lags 0 ... max |j| alone, and each distinct
    # chirp-and-shift row once: a momentum-side partner reuses its first row's
    from tomoprop.greens import GreenFunction, Potential
    from tomoprop.propagator import moment_grid

    m, c = GreenFunction.for_potential(Potential(0.0, 0.5)).flow(0.7)
    mean, cov = np.array([1.0, 0.5]), np.diag([0.5, 0.5])
    grid = moment_grid(m @ mean + c, m @ cov @ m.T)
    assert grid.count == 35
    states = np.array([make_state(spec, grid).values for spec in ("gaussian:1,0.5,1", "ho:1")])
    n_x = DEFAULT_X_GRID.count
    expected = 0
    for side, count, rows, kernels in _slice_plan(grid, DEFAULT_X_GRID, DEFAULT_THETA_COUNT, 2):
        max_lag = max(n_x - 1 - n_x // 2 + count // 2, n_x // 2 + count - 1 - count // 2)
        distinct = kernels if side == 1 else len(rows)
        expected += kernels * (max_lag + 1) + distinct * count + side * count  # + psi~'s phases
    evaluated = []

    def counted(x, *args, **kwargs):
        if np.iscomplexobj(x):
            evaluated.append(np.size(x))
        return exp(x, *args, **kwargs)

    exp = np.exp
    np.exp = counted
    try:
        _transform_state_batch(grid, states, np.array([0.9, 0.1]), DEFAULT_X_GRID, DEFAULT_THETA_COUNT)
    finally:
        np.exp = exp
    assert sum(evaluated) == expected

    # one component, as the Green route transforms it: one block a side, so
    # the spectrum, each side's fine samples and each block's kernel FFT,
    # FFT and inverse FFT make 9 batched FFT calls; five blocks made 21
    calls = []

    def counted_fft(transform):
        def call(*args, **kwargs):
            calls.append(transform)
            return transform(*args, **kwargs)
        return call

    fft, ifft = np.fft.fft, np.fft.ifft
    np.fft.fft, np.fft.ifft = counted_fft(fft), counted_fft(ifft)
    try:
        _transform_state_batch(grid, states[:1], np.array([1.0]), DEFAULT_X_GRID, DEFAULT_THETA_COUNT)
    finally:
        np.fft.fft, np.fft.ifft = fft, ifft
    assert len(calls) == 9

    a = np.concatenate([-np.geomspace(1e-4, 3.0, 9), np.geomspace(1e-4, 3.0, 9)])
    lag = count - 1 - count // 2 + n_x // 2
    j = np.arange(count + n_x - 1) - lag
    padded = _chirp_kernels(a, lag, j.size, np.ones((a.size, j.size + 5), dtype=np.complex128))
    assert np.array_equal(padded[:, : j.size], np.exp(0.5j * np.multiply.outer(a, j**2)))
    assert not padded[:, j.size :].any()


def lagrange_evaluate(tomo, X, mu, nu):
    """Frame by frame: fold to theta in [0, pi), then read each stored slice,
    resampled to 2 n_x points by scipy.signal.resample, by the 4-point
    Lagrange cubic through the fine points i - 1 ... i + 2 around u
    (wrapping periodically), blended linearly between neighbouring slices."""
    x = tomo.x_grid.points
    n = tomo.theta_count
    dtheta = np.pi / n
    fine = resample(tomo.values, 2 * x.size, axis=1)
    d = tomo.x_grid.step / 2

    def row(j, u):
        if not x[0] <= u <= x[-1]:
            return 0.0
        i = min(int((u - x[0]) // d), fine.shape[1] - 3)  # the last segment ends at x[-1]
        taps = fine[j, (i + np.arange(-1, 3)) % fine.shape[1]]
        return float(taps @ _lagrange_weights(np.array((u - x[0]) / d - i)))

    out = []
    for Xq, muq, nuq in zip(X, mu, nu):
        s = np.hypot(muq, nuq)
        theta = np.arctan2(nuq, muq)
        u = Xq / s
        if theta < 0.0:
            theta, u = theta + np.pi, -u
        elif theta >= np.pi:
            theta, u = theta - np.pi, -u
        j0 = min(int(theta // dtheta), n - 1)
        frac = theta / dtheta - j0
        # past the last stored slice the next one is slice 0 at -u (parity)
        v1 = row(0, -u) if j0 + 1 == n else row(j0 + 1, u)
        out.append(max((1.0 - frac) * row(j0, u) + frac * v1, 0.0) / s)
    return np.array(out)


def test_evaluate_matches_per_row_splines(packet_tomogram):
    tomo = packet_tomogram
    rng = np.random.default_rng(11)
    x, th = tomo.x_grid.points, tomo.theta_grid.points
    theta = np.concatenate([
        rng.uniform(-np.pi, np.pi, 3000),
        th[[0, 7, 60]].repeat(4),  # on stored slices, at knots below
        th[-1] + np.pi / 120 * rng.uniform(0.0, 1.0, 20),  # blend into row 0 (wrap)
        [np.pi, -np.pi / 2],
    ])
    u = rng.uniform(-13.0, 13.0, theta.size)  # beyond the X range [-10, 10] too
    u[3000:3012] = x[[0, 1, 100, 200]].repeat(3)
    scale = np.where(rng.random(theta.size) < 0.5, 1.0, rng.uniform(0.3, 3.0, theta.size))
    scale[3000:3012] = 1.0
    X, mu, nu = scale * u, scale * np.cos(theta), scale * np.sin(theta)
    got = tomo.evaluate(X, mu, nu)
    assert np.abs(got - lagrange_evaluate(tomo, X, mu, nu)).max() < 1e-13


def test_evaluate_blocks_agree_with_single_frames(packet_tomogram):
    rng = np.random.default_rng(5)
    count = 3 * (1 << 13) + 17  # several blocks and a partial one
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    u = rng.uniform(-5.0, 5.0, count)
    got = packet_tomogram.evaluate(u, np.cos(theta), np.sin(theta))
    picks = rng.integers(0, count, 40)
    single = [packet_tomogram.evaluate(u[q], np.cos(theta[q]), np.sin(theta[q])) for q in picks]
    assert np.array_equal(got[picks], single)


@pytest.mark.parametrize("rows,cols", [(120, 201), (3, 9000), (1, 1)], ids=["lattice", "long_rows", "one"])
def test_evaluate_of_row_angles_matches_the_flat_call_bytewise(packet_tomogram, rows, cols):
    # angles of shape (r, 1) fold once per row; the values are those of the
    # flattened per-frame call, in blocks of whole rows or of one row's pieces
    rng = np.random.default_rng(rows)
    theta = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (rows, 1))
    scale = rng.uniform(0.4, 2.5, (rows, 1))
    X = rng.uniform(-13.0, 13.0, (rows, cols))
    mu, nu = scale * np.cos(theta), scale * np.sin(theta)
    got = packet_tomogram.evaluate(X, mu, nu)
    assert got.shape == (rows, cols)
    flat = packet_tomogram.evaluate(X.ravel(), np.repeat(mu, cols), np.repeat(nu, cols))
    assert got.tobytes() == flat.tobytes()


def test_x_table_holds_the_lagrange_cubics_of_the_upsampled_slices(packet_tomogram):
    # segment i of slice j, at offset t half steps, reads the 4-point Lagrange
    # cubic through the 2x-resampled slice's points i - 1 ... i + 2
    tomo = packet_tomogram
    n_x = tomo.x_grid.count
    table = tomo._segment_coeffs
    assert table.shape == (tomo.theta_count, 2 * (n_x - 1), 4)
    fine = resample(tomo.values, 2 * n_x, axis=1)
    taps = fine[:, (np.arange(2 * (n_x - 1))[:, None] + np.arange(-1, 3)) % (2 * n_x)]
    for t in np.linspace(0.0, 1.0, 9):
        q = t * tomo.x_grid.step / 2
        horner = ((table[..., 0] * q + table[..., 1]) * q + table[..., 2]) * q + table[..., 3]
        assert np.abs(horner - taps @ _lagrange_weights(np.array(t))).max() < 1e-15


def test_reads_at_lattice_x_reproduce_the_stored_values(packet_tomogram):
    # an integer-factor upsample keeps the samples: every other fine point
    tomo = packet_tomogram
    assert np.abs(tomo._segment_coeffs[:, ::2, 3] - tomo.values[:, :-1]).max() < 1e-15
    theta = tomo.theta_grid.points[:, None]
    got = tomo.evaluate(tomo.x_grid.points, np.cos(theta), np.sin(theta))
    assert np.abs(got - tomo.values).max() < 2e-15


@pytest.mark.parametrize("n", [180, 181])
def test_fold_frames_keeps_the_bits_of_the_np_mod_fold(n):
    # theta + pi below 0 and the flip test (theta < 0) | (theta == pi) stand
    # in for np.mod(theta, pi) and the rounded flip count; the last four
    # frames have the angles +0, -0, pi and -pi
    rng = np.random.default_rng(n)
    theta = rng.uniform(-np.pi, np.pi, 10**5)
    mu = np.concatenate([np.cos(theta), [1.0, 1.0, -1.0, -1.0]])
    nu = np.concatenate([np.sin(theta), [0.0, -0.0, 0.0, -0.0]])
    angle = np.arctan2(nu, mu)
    assert angle[-4:].tobytes() == np.array([0.0, -0.0, np.pi, -np.pi]).tobytes()
    tm = np.mod(angle, np.pi)
    flip = np.round((angle - tm) / np.pi).astype(int) % 2 == 1
    f = tm / (np.pi / n)
    j0 = np.minimum(f.astype(int), n - 1)
    wrap = j0 + 1 == n
    expected = (flip, j0, np.where(wrap, 0, j0 + 1), f - j0, wrap)
    for got, want in zip(_fold_frames(mu, nu, n), expected, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@functools.cache
def packet_tomogram_at(theta_count):
    return tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)), X_GRID, theta_count)


def two_call_read(tomo, X, mu, nu):
    """The lattice read as two plain eval_spline calls on the table's half
    steps, slice j0 at u and j1 at u, or at -u where j1 wraps across
    theta = pi, blended linearly."""
    s = np.hypot(mu, nu)
    flip, j0, j1, frac, wrap = _fold_frames(mu, nu, tomo.theta_count)
    u = np.where(flip, -X, X) / s
    g = tomo.x_grid
    v0 = eval_spline(tomo._segment_coeffs, j0, u, g.lower, g.step / 2, g.upper)
    v1 = eval_spline(tomo._segment_coeffs, j1, np.where(wrap, -u, u), g.lower, g.step / 2, g.upper)
    return np.maximum((1.0 - frac) * v0 + frac * v1, 0.0) / s


@settings(max_examples=12, deadline=None)
@given(theta_count=st.sampled_from([180, 181]), row_angles=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_evaluate_reads_both_slices_as_two_spline_calls_bytewise(theta_count, row_angles, seed):
    # evaluate reads slices j0 and j1 off one segment lookup and re-reads
    # only the wrapping frames; its bytes are those of two separate reads
    tomo = packet_tomogram_at(theta_count)
    rng = np.random.default_rng(seed)
    d = np.pi / theta_count
    count = 40 if row_angles else 2000
    theta = np.concatenate([
        rng.uniform(np.pi - d, np.pi, count // 4),  # last bracket: j1 wraps to slice 0
        rng.uniform(2.0 * np.pi - d, 2.0 * np.pi, count // 4),  # wraps and flips
        rng.uniform(0.0, 2.0 * np.pi, count - 2 * (count // 4)),
    ])
    scale = rng.uniform(0.4, 2.5, count)
    shape = (count, 1) if row_angles else (count,)
    mu, nu = (scale * np.cos(theta)).reshape(shape), (scale * np.sin(theta)).reshape(shape)
    u = rng.uniform(-13.0, 13.0, (count, 50) if row_angles else count)  # past the lattice's reach of 10 too
    X = np.hypot(mu, nu) * u
    flip, _, _, _, wrap = _fold_frames(mu, nu, theta_count)
    assert wrap.any() and (wrap & flip).any() and (wrap & ~flip).any()
    got = tomo.evaluate(X, mu, nu)
    assert got.shape == X.shape
    assert got.tobytes() == two_call_read(tomo, X, mu, nu).tobytes()


@pytest.mark.parametrize("phi", [0.0, 0.7, np.pi, 4.1, 2.0 * np.pi - 1e-3])
def test_optical_slice_is_the_per_frame_read_of_its_angle(packet_tomogram, phi):
    # optical_slice passes one (mu, nu) for the whole slice; its values stay
    # those of reading every X with its own copy of the angle
    x = packet_tomogram.x_grid.points
    c, s = np.cos(0.6), np.sin(0.6)
    pulled = packet_tomogram.with_frame_map(np.array([[1.0, 0.2, -0.1], [0.0, c, -s], [0.0, s, c]]))
    for tomo in (packet_tomogram, pulled):
        mu, nu = np.full(x.size, np.cos(phi)), np.full(x.size, np.sin(phi))
        assert optical_slice(tomo, phi).tobytes() == tomo.evaluate(x, mu, nu).tobytes()


@pytest.mark.parametrize(
    "frame",
    [(np.nan, 1.0, 0.0), (0.5, np.nan, 0.2), (0.5, 0.3, np.inf), ([0.1, -np.inf], 1.0, 0.5)],
)
def test_evaluate_rejects_non_finite_frames(packet_tomogram, frame):
    with pytest.raises(InvalidFrameError):
        packet_tomogram.evaluate(*frame)
