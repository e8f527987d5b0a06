import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import InvalidInputError
from tomoprop.greens import FREE, OSCILLATOR, GreenFunction, Potential, classical_flow
from tomoprop.grids import UniformGrid
from tomoprop.propagator import (
    DEFAULT_KERNEL_DOMAIN,
    DEFAULT_KERNEL_POINTS,
    TAIL_SDS,
    KernelFourierQuery,
    _pullback_frame_matrix,
    compare_tomograms,
    evolve_pullback,
    evolve_via_green,
    kernel_fourier,
)
from tomoprop.states import DensityMatrix, GaussianPacket, evolve_wavefunction, make_state, propagate_states
from tomoprop import propagator, tomography
from tomoprop.tomography import density_from_tomogram, tomogram_from_density, tomogram_from_wavefunction
from tomoprop.transport import characteristic_flow, reduce_evolution_equation, solve_characteristics

from kernel_oracle import kernel_fourier_2d

X_GRID = UniformGrid(-12.0, 12.0, 241)
THETA_COUNT = 96


def fresh_packet_tomogram():
    return tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)), X_GRID, THETA_COUNT)


@pytest.fixture(scope="module")
def packet_tomogram():
    return fresh_packet_tomogram()


def test_pullback_free_matches_schroedinger_evolution(packet_tomogram):
    t = 0.6
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    psi_t = evolve_wavefunction(psi, GreenFunction.free(), t)
    reference = tomogram_from_wavefunction(psi_t, X_GRID, THETA_COUNT)
    evolved = evolve_pullback(packet_tomogram, FREE, t)
    assert compare_tomograms(evolved, reference).linf < 1e-3


def test_pullback_oscillator_matches_schroedinger_evolution(packet_tomogram):
    t = 0.7
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    psi_t = evolve_wavefunction(psi, GreenFunction.oscillator(), t)
    reference = tomogram_from_wavefunction(psi_t, X_GRID, THETA_COUNT)
    evolved = evolve_pullback(packet_tomogram, OSCILLATOR, t)
    assert compare_tomograms(evolved, reference).linf < 1e-3


def test_pullback_composition_exact(packet_tomogram):
    for potential in (FREE, OSCILLATOR):
        two = evolve_pullback(evolve_pullback(packet_tomogram, potential, 0.5), potential, 0.5)
        assert compare_tomograms(two, evolve_pullback(packet_tomogram, potential, 1.0)).linf < 1e-10


def test_pullback_invertible(packet_tomogram):
    for potential in (FREE, OSCILLATOR):
        back = evolve_pullback(evolve_pullback(packet_tomogram, potential, 0.8), potential, -0.8)
        assert np.abs(back.values - packet_tomogram.values).max() < 1e-10


@pytest.mark.parametrize("t", [-2.5, -0.8, 0.0, 0.3, 0.7, 1.2, np.pi, 6.283185307179586])
def test_pullback_free_and_oscillator_matrices_are_the_literal_maps(t):
    assert np.array_equal(
        _pullback_frame_matrix(FREE, t), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, t, 1.0]])
    )
    c, s = np.cos(t), np.sin(t)
    assert np.array_equal(
        _pullback_frame_matrix(OSCILLATOR, t), np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    )


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(-1, 1, allow_nan=False),
    beta=st.sampled_from([0.0, -0.5, 0.5]) | st.floats(-0.5, 0.5, allow_nan=False),
    t=st.floats(-3, 3, allow_nan=False),
)
def test_pullback_matches_characteristics_for_every_quadratic_potential(packet_tomogram, alpha, beta, t):
    # the pullback's closed-form flow and the characteristics' matrix
    # exponential are independent derivations of the same frame map
    potential = Potential(alpha, beta)
    via_pullback = evolve_pullback(packet_tomogram, potential, t)
    via_pde = solve_characteristics(reduce_evolution_equation(potential), packet_tomogram, t)
    assert np.abs(via_pullback.values - via_pde.values).max() < 1e-10
    rng = np.random.default_rng(0)
    X = rng.uniform(-6, 6, 500)
    mu, nu = rng.uniform(-2, 2, (2, 500))
    assert np.abs(via_pullback.evaluate(X, mu, nu) - via_pde.evaluate(X, mu, nu)).max() < 1e-10


def test_green_zero_time_roundtrip(packet_tomogram):
    out = evolve_via_green(packet_tomogram, GreenFunction.free(), 0.0)
    assert compare_tomograms(out, packet_tomogram).linf < 1e-3


def test_slice_norms_preserved_by_pullback(packet_tomogram):
    evolved = evolve_pullback(packet_tomogram, OSCILLATOR, 1.1)
    assert np.abs(evolved.slice_norms() - 1.0).max() < 1e-6


# --- frame maps and the lattice materialization -------------------------------


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-2, 2, allow_nan=False),
    beta=st.sampled_from([-0.5, -0.2, 0.0, 0.5]) | st.floats(-0.5, 0.5, allow_nan=False),
    t=st.floats(-3, 3, allow_nan=False),
    t2=st.floats(-3, 3, allow_nan=False),
)
def test_frame_maps_never_mix_x_into_the_angles(alpha, beta, t, t2):
    # with_frame_map folds one angle per lattice row, which holds only if
    # (mu', nu') never depend on X: column 0 below row 0 is exactly zero
    potential = Potential(alpha, beta)
    pde = reduce_evolution_equation(potential)
    maps = [
        _pullback_frame_matrix(potential, t),
        _pullback_frame_matrix(potential, t2),
        characteristic_flow(pde, t),
        characteristic_flow(pde, t2),
    ]
    for m in maps + [a @ b for a in maps for b in maps]:
        assert np.all(m[1:, 0] == 0.0)


@pytest.mark.parametrize("row", [1, 2])
def test_with_frame_map_refuses_a_map_that_mixes_x_into_the_angles(packet_tomogram, row):
    matrix = np.eye(3)
    matrix[row, 0] = 1e-300
    with pytest.raises(InvalidInputError, match="must not mix X"):
        packet_tomogram.with_frame_map(matrix)


def pointwise_pullback(tomo, matrix):
    """Lattice values of tomo.with_frame_map(matrix), read frame by frame: the
    base evaluated on the composed map m of every lattice frame, flattened,
    each coordinate summed term by term in the order of _map_frames (column
    0 of m, zero below row 0, is left out of mu' and nu')."""
    base = tomo.base if tomo.base is not None else tomo
    m = tomo.frame_map @ matrix if tomo.frame_map is not None else matrix
    Xg, Th = np.meshgrid(tomo.x_grid.points, tomo.theta_grid.points, indexing="xy")
    X, mu, nu = Xg.ravel(), np.cos(Th).ravel(), np.sin(Th).ravel()
    mapped_X = m[0, 0] * X + m[0, 1] * mu + m[0, 2] * nu
    mapped_mu = m[1, 1] * mu + m[1, 2] * nu
    mapped_nu = m[2, 1] * mu + m[2, 2] * nu
    return base.evaluate(mapped_X, mapped_mu, mapped_nu).reshape(tomo.values.shape)


_FRAME_MAPS = {
    "pullback_free": lambda t: _pullback_frame_matrix(FREE, t),
    "pullback_oscillator": lambda t: _pullback_frame_matrix(OSCILLATOR, t),
    "pullback_0.5_0.3": lambda t: _pullback_frame_matrix(Potential(0.5, 0.3), t),
    "characteristics_0_-0.2": lambda t: characteristic_flow(reduce_evolution_equation(Potential(0.0, -0.2)), t),
}


@pytest.mark.parametrize("theta_count", [180, 181])
@pytest.mark.parametrize("route", sorted(_FRAME_MAPS))
def test_materialized_pullback_matches_pointwise_reads_bytewise(route, theta_count):
    tomo = tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)), X_GRID, theta_count)
    flow = _FRAME_MAPS[route]
    once = tomo.with_frame_map(flow(0.7))
    assert once.values.tobytes() == pointwise_pullback(tomo, flow(0.7)).tobytes()
    twice = once.with_frame_map(flow(1.3))  # a chain of two maps
    assert twice.values.tobytes() == pointwise_pullback(once, flow(1.3)).tobytes()


def test_pullback_chain_builds_the_x_table_once_on_its_base(packet_tomogram, monkeypatch):
    # the X table is made on the first read of the base and kept there; the
    # pullbacks read it through their base and keep no lattice frame stack
    built = []
    upsample = tomography.upsample

    def counting_upsample(grid, values, count, spectrum=None):
        built.append(values.shape)
        return upsample(grid, values, count, spectrum)

    monkeypatch.setattr(tomography, "upsample", counting_upsample)
    # a base with nothing kept yet
    tomo = tomography.Tomogram(packet_tomogram.x_grid, packet_tomogram.theta_count, packet_tomogram.values)
    first = evolve_pullback(tomo, OSCILLATOR, 0.7)
    second = evolve_pullback(tomo, FREE, 1.2)
    chained = evolve_pullback(first, Potential(0.5, 0.3), 0.4)
    chained.evaluate(np.linspace(-3.0, 3.0, 7), 0.3, 0.8)
    assert built == [(THETA_COUNT, X_GRID.count)]
    assert "_segment_coeffs" in tomo.__dict__
    for held in (tomo, first, second, chained):
        assert not any(
            isinstance(kept, np.ndarray) and kept.size == 3 * THETA_COUNT * X_GRID.count
            for kept in held.__dict__.values()
        )
    for pulled in (first, second, chained):
        assert pulled.base is tomo and "_segment_coeffs" not in pulled.__dict__


def test_materialization_folds_one_angle_per_lattice_row(packet_tomogram, monkeypatch):
    # perfbench's tomography.Tomogram.evaluate.frames counts the frames of
    # every evaluate call on a lattice tomogram, so a materialization must
    # stay one such call, of n_theta n_x frames, that folds n_theta angles
    folded, calls = [], []
    fold, evaluate = tomography._fold_frames, tomography.Tomogram.evaluate

    def recording_fold(mu, nu, n):
        folded.append(np.size(mu))
        return fold(mu, nu, n)

    def recording_evaluate(self, X, mu, nu):
        out = evaluate(self, X, mu, nu)
        calls.append((self.base is None, np.size(out)))
        return out

    monkeypatch.setattr(tomography, "_fold_frames", recording_fold)
    monkeypatch.setattr(tomography.Tomogram, "evaluate", recording_evaluate)
    evolved = packet_tomogram
    for potential, t in ((Potential(0.5, 0.3), 0.7), (FREE, 1.2)):  # the second pulls back a pullback
        folded.clear()
        calls.clear()
        evolved = evolve_pullback(evolved, potential, t)
        assert sum(folded) == THETA_COUNT
        assert calls == [(True, THETA_COUNT * X_GRID.count)]


# --- kernel Fourier component ------------------------------------------------


def analytic_free_kernel(k, mu, nu, mu_p, nu_p, t, eps):
    """Closed form of the damped free-particle kernel component.

    Both Green factors are Gaussian chirps, so the double integral is a
    product of two 1D Gaussian Fourier integrals computed analytically.
    """
    c1 = 0.5 * k * nu - k * nu_p
    c2 = -0.5 * k * nu
    gamma_a = k * (nu - nu_p) / t + k * mu
    gamma_z = -k * (nu - nu_p) / t - k * mu_p
    const = (c1**2 - c2**2) / (2.0 * t) - 0.5 * k * k * mu_p * nu_p
    amp = 1.0 / (2.0 * np.pi * t)
    gaussians = (np.pi / eps) * np.exp(-(gamma_a**2 + gamma_z**2) / (4.0 * eps))
    return k**2 / (2.0 * np.pi) * amp * np.exp(1j * const) * gaussians


def test_kernel_matches_analytic_free_oracle():
    q = KernelFourierQuery(1.0, 0.3, 0.4, 0.3, 0.7, 1.0, GreenFunction.free())
    got = kernel_fourier(q, half_width=150.0, points=1501)
    want = analytic_free_kernel(1.0, 0.3, 0.4, 0.3, 0.7, 1.0, 1e-3)
    assert abs(got - want) / abs(want) < 1e-4


def test_kernel_scaling_identity_free():
    green = GreenFunction.free()
    for k in (0.5, 2.0):
        q1 = KernelFourierQuery(k, 0.3, 0.4, 0.25, 0.7, 1.0, green)
        q2 = KernelFourierQuery(1.0, k * 0.3, k * 0.4, k * 0.25, k * 0.7, 1.0, green)
        v1 = kernel_fourier(q1)
        v2 = kernel_fourier(q2)
        assert abs(v1 - k**2 * v2) <= 1e-6 * max(abs(v1), 1.0)


def test_kernel_query_validation():
    green = GreenFunction.free()
    with pytest.raises(InvalidInputError):
        KernelFourierQuery(0.0, 0.3, 0.4, 0.25, 0.7, 1.0, green)
    with pytest.raises(InvalidInputError):
        KernelFourierQuery(1.0, 0.3, 0.4, 0.25, 0.7, 1.0, green, damping=0.0)


def test_kernel_deterministic():
    q = KernelFourierQuery(0.8, 0.1, 0.9, 0.4, 0.2, 0.7, GreenFunction.free())
    assert kernel_fourier(q) == kernel_fourier(q)


# (green, k, (mu, nu, mu_p, nu_p), t); all but the first van Vleck query sit
# near the flowed support, where no cancellation dominates the double sum
FACTORIZED_QUERIES = {
    "free": (GreenFunction.free(), 0.5, (0.34, 0.4, 0.32, 0.6), 0.7),
    "oscillator": (GreenFunction.oscillator(), 2.0, (0.51, 0.4, 0.12, 0.6), 0.7),
    "van-fleck": (GreenFunction.van_fleck(Potential(1.0, 0.3)), 1.0, (0.3, 0.4, 0.5, 0.6), 0.7),
    "van-fleck-support": (GreenFunction.van_fleck(Potential(1.0, 0.3)), 1.0, (0.44, 0.4, 0.2, 0.6), 0.7),
    "van-fleck-inverted": (GreenFunction.van_fleck(Potential(0.0, -0.2)), 2.0, (0.27, 0.4, 0.39, 0.6), 0.7),
    "sliced": (GreenFunction.sliced(Potential(0.5, 0.3), 16), 1.0, (0.44, 0.4, 0.21, 0.6), 0.7),
}


@pytest.mark.parametrize("name", FACTORIZED_QUERIES)
def test_kernel_factorization_matches_the_double_sum(name):
    # worst seen on these queries: 1.1e-10 relative (the van Vleck query
    # of |value| 2.0e-3), the rest below 1e-12
    green, k, frame, t = FACTORIZED_QUERIES[name]
    q = KernelFourierQuery(k, *frame, t, green)
    want = kernel_fourier_2d(q)
    assert abs(want) >= 1e-4
    assert abs(kernel_fourier(q) - want) <= 1e-9 * abs(want)


def test_kernel_sums_match_30_digit_evaluation():
    # a cli_session-like oscillator query whose 1-D sums cancel to about
    # 1e-6 of their terms; the 801^2 double sum is off by 1.7e-5 here
    import mpmath as mp

    q = KernelFourierQuery(
        1.8912391271393405, 0.29022834657057195, 0.6424777420671495, 0.7936899306788903,
        0.629458947039565, 1.423532237327211, GreenFunction.oscillator(),
    )
    amp, a, b, c, d, e = q.green.quadratic_form(q.t)
    with mp.workdps(30):
        k, mu, nu, mu_p, nu_p, a, b, c, d, e, eps = map(mp.mpf, (q.k, q.mu, q.nu, q.mu_p, q.nu_p, a, b, c, d, e, q.damping))
        grid = UniformGrid(-DEFAULT_KERNEL_DOMAIN, DEFAULT_KERNEL_DOMAIN, DEFAULT_KERNEL_POINTS)
        points = [mp.mpf(float(g)) for g in grid.points]
        step = mp.mpf(2 * DEFAULT_KERNEL_DOMAIN) / (DEFAULT_KERNEL_POINTS - 1)
        weights = [step / 2] + [step] * (len(points) - 2) + [step / 2]

        def damped_sum(gamma):
            return mp.fsum(w * mp.exp(-eps * g * g) * mp.expj(gamma * g) for w, g in zip(weights, points))

        gamma_a = k * (2 * a * nu + b * nu_p + mu)
        gamma_z = k * (b * nu + 2 * c * nu_p - mu_p)
        phi0 = k * k * (b * nu * nu_p / 2 + c * nu_p**2 - mu_p * nu_p / 2) + k * (d * nu + e * nu_p)
        want = complex(
            k * k / (2 * mp.pi) * mp.mpf(abs(amp)) ** 2 * mp.expj(phi0) * damped_sum(gamma_a) * damped_sum(gamma_z)
        )
    assert 1e-9 < abs(want) < 1e-8
    assert abs(kernel_fourier(q) - want) <= 1e-12 * abs(want)


def test_compare_requires_matching_grids(packet_tomogram):
    psi = make_state("ho_ground")
    other = tomogram_from_wavefunction(psi, UniformGrid(-8.0, 8.0, 101), 48)
    with pytest.raises(InvalidInputError):
        compare_tomograms(packet_tomogram, other)
    # equal shapes on different lattices are no match either
    shifted = tomogram_from_wavefunction(psi, UniformGrid(-10.0, 14.0, X_GRID.count), THETA_COUNT)
    assert shifted.values.shape == packet_tomogram.values.shape
    with pytest.raises(InvalidInputError, match="must share a grid"):
        compare_tomograms(packet_tomogram, shifted)


def test_evolve_via_green_reaches_the_layers_the_benchmark_traces(monkeypatch):
    # perfbench/spans.py rebinds these names in tomoprop.propagator and on
    # GreenFunction, and reads these parameters and meta keys.  A tomogram
    # keeps its reconstruction, so only a fresh one reaches the inverse.
    calls = {"density": [], "forward": [], "green": 0}

    def density(*args, **kwargs):
        bound = inspect.signature(density_from_tomogram).bind(*args, **kwargs)
        bound.apply_defaults()
        result = density_from_tomogram(*args, **kwargs)
        calls["density"].append((bound.arguments, kwargs, result))
        return result

    def forward(*args, **kwargs):
        result = tomography.tomogram_from_density(*args, **kwargs)
        calls["forward"].append(result)
        return result

    green_call = GreenFunction.__call__

    def call(self, *args, **kwargs):
        calls["green"] += 1
        return green_call(self, *args, **kwargs)

    monkeypatch.setattr(propagator, "density_from_tomogram", density)
    monkeypatch.setattr(propagator, "tomogram_from_density", forward)
    monkeypatch.setattr(GreenFunction, "__call__", call)
    # the tracer wraps the plain functions a layer's module defines; the
    # one-thread decorator must leave evolve_via_green one of them
    assert inspect.isfunction(evolve_via_green)
    assert evolve_via_green.__module__ == propagator.__name__
    assert list(inspect.signature(evolve_via_green).parameters) == ["tomo", "green", "t"]
    evolve_via_green(fresh_packet_tomogram(), GreenFunction.oscillator(), 0.7)
    [(arguments, given, rho)] = calls["density"]
    assert {"target_grid", "mu_step"} <= arguments.keys()
    # the frames counter reads the route's step from the call, and the
    # signature's default for every other caller
    assert given["mu_step"] == np.pi / arguments["target_grid"].span
    assert inspect.signature(density_from_tomogram).parameters["mu_step"].default == 0.05
    assert {"mu_band", "mu_edge_ratio"} <= rho.meta.keys()
    [evolved] = calls["forward"]
    assert "components" in evolved.meta
    assert calls["green"] >= 1


def test_green_route_carries_inverse_diagnostics(packet_tomogram):
    evolved = evolve_via_green(packet_tomogram, GreenFunction.oscillator(), 0.7)
    in_grid = UniformGrid(*evolved.meta["input_grid"])
    rho = density_from_tomogram(packet_tomogram, in_grid, mu_step=np.pi / in_grid.span)
    assert evolved.meta["components"] >= 1
    for key in ("mu_band", "mu_edge_ratio", "accuracy_warning"):
        assert evolved.meta[key] == rho.meta[key]
    assert evolved.meta["accuracy_warning"] is False


def counting_input_half(monkeypatch):
    """Count the calls of the Green route's two input stages, the inverse
    transform and the spectral cut, as tomoprop.propagator makes them."""
    calls = {"density": [], "cut": []}
    density, cut = propagator.density_from_tomogram, propagator.spectral_components

    def counting_density(tomo, *args, **kwargs):
        calls["density"].append(tomo)
        return density(tomo, *args, **kwargs)

    def counting_cut(rho):
        calls["cut"].append(rho)
        return cut(rho)

    monkeypatch.setattr(propagator, "density_from_tomogram", counting_density)
    monkeypatch.setattr(propagator, "spectral_components", counting_cut)
    return calls


def test_green_route_reconstructs_a_tomogram_once(monkeypatch):
    calls = counting_input_half(monkeypatch)
    tomo = fresh_packet_tomogram()
    general = GreenFunction.for_potential(Potential(0.5, 0.3))
    evolve_via_green(tomo, GreenFunction.oscillator(), 0.7)
    later = [evolve_via_green(tomo, general, 1.2), evolve_via_green(tomo, general, 0.0)]
    assert len(calls["density"]) == 1 and len(calls["cut"]) == 1
    # the kept input half gives what a fresh tomogram gives, byte for byte
    for evolved, t in zip(later, (1.2, 0.0)):
        fresh = evolve_via_green(fresh_packet_tomogram(), general, t)
        assert evolved.values.tobytes() == fresh.values.tobytes()
        assert evolved.meta == fresh.meta


def test_kept_input_half_is_read_only():
    tomo = fresh_packet_tomogram()
    evolved = evolve_via_green(tomo, GreenFunction.free(), 0.9)
    mean, cov, _ = vars(tomo)["green_moments"]
    states, weights, meta = vars(tomo)["green_input"]
    for array in (mean, cov, states, weights):
        assert not array.flags.writeable
    # the evolved meta is a copy of the kept one
    evolved.meta["components"] = -1
    assert meta["components"] == 1
    assert evolve_via_green(tomo, GreenFunction.free(), 0.9).meta["components"] == 1


def test_a_pullback_and_its_base_keep_separate_input_halves(monkeypatch):
    calls = counting_input_half(monkeypatch)
    base = fresh_packet_tomogram()
    pulled = evolve_pullback(base, OSCILLATOR, 0.6)
    for t in (0.9, 0.5):
        for tomo in (base, pulled):
            evolve_via_green(tomo, GreenFunction.free(), t)
    assert [tomo is base for tomo in calls["density"]] == [True, False]
    assert calls["density"][1] is pulled
    # the oscillator carries <x> from 1 to cos 0.6 + 0.5 sin 0.6; the
    # pullback's linear theta blend on 96 angles moves it by 1.3e-4
    assert vars(base)["green_moments"][0][0] == pytest.approx(1.0, abs=1e-6)
    expected = math.cos(0.6) + 0.5 * math.sin(0.6)
    assert vars(pulled)["green_moments"][0][0] == pytest.approx(expected, abs=1e-3)
    assert vars(base)["green_input"] is not vars(pulled)["green_input"]


def test_green_route_reads_half_the_frames(monkeypatch):
    # K(-mu, -nu) = conj K(mu, nu): the tomogram's mu band at the route's step
    # pi/span times the nu >= 0 half of the input grid's differences is all it reads
    counted = []
    original = tomography._slice_characteristic

    def counting(tomo, mu, nu):
        counted.append(np.size(mu))
        return original(tomo, mu, nu)

    monkeypatch.setattr(tomography, "_slice_characteristic", counting)
    tomo = tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)))
    evolved = evolve_via_green(tomo, GreenFunction.oscillator(), 0.7)
    lower, upper, count = evolved.meta["input_grid"]
    mu_count = 2 * math.ceil(evolved.meta["mu_band"] / (np.pi / (upper - lower))) + 1
    assert 0 < sum(counted) <= mu_count * count
    # |K| of the packet falls to MU_EDGE_THRESHOLD of its peak by |mu| = 8.6
    assert 8.5 < evolved.meta["mu_band"] < 8.7


@pytest.fixture(scope="module")
def default_packet_tomogram():
    return tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)))


@pytest.mark.parametrize(
    "potential, t",
    [
        (FREE, 0.05),  # short times: G's phase rate reaches 400
        (FREE, 0.1),
        (FREE, 3.0),  # the evolved packet's tails reach |x| = 25
        (OSCILLATOR, 3.0),  # near the caustic at pi
        (OSCILLATOR, 3.1),
        (Potential(0.0, -0.2), 1.6),  # inverted oscillator: exponential spreading
        (Potential(0.0, -0.2), 2.0),
    ],
    ids=["free-0.05", "free-0.1", "free-3.0", "oscillator-3.0", "oscillator-3.1", "inverted-1.6", "inverted-2.0"],
)
def test_green_route_matches_pullback_where_a_fixed_grid_failed(default_packet_tomogram, potential, t):
    # criterion 3's bound; a fixed [-10, 10] grid of 384 points read up to 1.22 here
    evolved = evolve_via_green(default_packet_tomogram, GreenFunction.for_potential(potential), t)
    assert compare_tomograms(evolved, evolve_pullback(default_packet_tomogram, potential, t)).linf < 1e-3
    assert evolved.meta["accuracy_warning"] is False


@pytest.mark.parametrize("beta", [1e-12, -1e-12, 1e-8, -1e-8])
def test_green_route_at_small_beta_reads_what_it_reads_at_zero(default_packet_tomogram, beta):
    # the vertex-shifted closed action lost its digits here: at beta = 1e-8 the
    # route read 0.201 against the pullback where beta = 0 reads 7.7e-5; now
    # the gap moves by 1.1e-11 and the tomogram by 1.6e-8
    def route_and_gap(potential):
        evolved = evolve_via_green(default_packet_tomogram, GreenFunction.for_potential(potential), 0.9)
        return evolved, compare_tomograms(evolved, evolve_pullback(default_packet_tomogram, potential, 0.9)).linf

    (near, near_gap), (zero, zero_gap) = (route_and_gap(Potential(1.0, b)) for b in (beta, 0.0))
    assert abs(near_gap - zero_gap) < 1e-9
    assert np.abs(near.values - zero.values).max() < 1e-6


@pytest.mark.parametrize(
    "potential, t",
    [(FREE, -0.7), (Potential(0.5, 0.3), -0.7), (OSCILLATOR, 4.0), (OSCILLATOR, -4.0), (Potential(0.5, 0.3), 5.5)],
)
def test_green_route_runs_backwards_and_past_caustics(default_packet_tomogram, potential, t):
    # criterion 3's bound; these read 3.2e-5 to 5.6e-5
    evolved = evolve_via_green(default_packet_tomogram, GreenFunction.for_potential(potential), t)
    assert compare_tomograms(evolved, evolve_pullback(default_packet_tomogram, potential, t)).linf < 1e-3


def _flowed_gaussian_tomogram(tomo, x0, p0, sigma, potential, t):
    """Exact evolved tomogram of gaussian:x0,p0,sigma on tomo's lattice: the
    state stays Gaussian, with mean and covariance flowed by classical_flow."""
    m, c = classical_flow(potential, t)
    mean = m @ np.array([x0, p0]) + c
    cov = m @ np.diag([0.5 * sigma**2, 0.5 / sigma**2]) @ m.T
    th = tomo.theta_grid.points[:, None]
    mu, nu = np.cos(th), np.sin(th)
    centre = mu * mean[0] + nu * mean[1]
    var = mu**2 * cov[0, 0] + 2.0 * mu * nu * cov[0, 1] + nu**2 * cov[1, 1]
    return np.exp(-((tomo.x_grid.points - centre) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


@pytest.mark.parametrize("t", [0.4, 1.2])
@pytest.mark.parametrize(
    "potential",
    [FREE, OSCILLATOR, Potential(1.0, 0.0), Potential(0.0, -0.2), Potential(0.5, 0.3)],
    ids=["free", "oscillator", "linear", "inverted", "general"],
)
def test_green_route_matches_the_flowed_gaussian(default_packet_tomogram, potential, t):
    # the benchmark's five potentials at the ends of its time range; the
    # 4-point theta read left 2e-8 to 4.1e-8 here, the linear blend 3.7e-5 to 7.8e-5
    evolved = evolve_via_green(default_packet_tomogram, GreenFunction.for_potential(potential), t)
    exact = _flowed_gaussian_tomogram(default_packet_tomogram, 1.0, 0.5, 1.0, potential, t)
    assert np.abs(evolved.values - exact).max() < 1e-7


def test_green_route_matches_the_flowed_gaussian_far_from_the_origin():
    # measured 3.4e-6 with the 4-point theta read, 5.8e-4 with the linear blend
    tomo = tomogram_from_wavefunction(make_state("gaussian:3,-2,0.7"))
    evolved = evolve_via_green(tomo, GreenFunction.oscillator(), 0.7)
    exact = _flowed_gaussian_tomogram(tomo, 3.0, -2.0, 0.7, OSCILLATOR, 0.7)
    assert np.abs(evolved.values - exact).max() < 1e-5


def test_green_route_refuses_what_the_lattice_cannot_resolve(monkeypatch):
    # the width-0.2 packet's slice characteristics are still at 4e-7 of their
    # peak at pi/h = 39.3 on the default lattice; a band capped there returned
    # 4.2e-2 against the pullback with only a warning in the meta
    calls = counting_input_half(monkeypatch)
    tomo = tomogram_from_wavefunction(make_state("gaussian:0,0,0.2"))
    messages = []
    for t in (0.5, 0.9):  # the kept reconstruction refuses again, in the same words
        with pytest.raises(InvalidInputError, match=r"unresolved.*pi/h = 39\.3") as refusal:
            evolve_via_green(tomo, GreenFunction.oscillator(), t)
        messages.append(str(refusal.value))
    assert messages[0] == messages[1]
    assert len(calls["density"]) == 1 and calls["cut"] == []


def test_reconstructed_packet_keeps_one_component(default_packet_tomogram):
    # past the packet, the reconstruction's spectrum is noise as large as its
    # most negative weight; a linear theta blend kept a second component
    evolved = evolve_via_green(default_packet_tomogram, GreenFunction.oscillator(), 0.7)
    assert evolved.meta["components"] == 1
    assert evolved.meta["weight_kept"] == pytest.approx(1.0, abs=1e-4)


def test_green_route_records_the_slice_mass_it_renormalizes(default_packet_tomogram):
    # under the inverted oscillator at t = 2 the evolved slices hold 1 - 9.12e-5
    # of their mass before renormalization, the pullback's loss there too
    potential = Potential(0.0, -0.2)
    evolved = evolve_via_green(default_packet_tomogram, GreenFunction.for_potential(potential), 2.0)
    pulled = evolve_pullback(default_packet_tomogram, potential, 2.0).slice_norms()
    assert evolved.meta["slice_mass_min"] == pytest.approx(1.0 - 9.12e-5, abs=1e-7)
    assert evolved.meta["slice_mass_min"] == pytest.approx(pulled.min(), abs=1e-7)
    assert evolved.meta["slice_mass_min"] <= evolved.meta["slice_mass_max"] < 1.0
    assert np.abs(evolved.slice_norms() - 1.0).max() < 1e-12


@pytest.fixture(scope="module")
def mixed_tomogram():
    """0.7 |0><0| + 0.3 |1><1| through the forward transform, which diagonalizes it."""
    psi0, psi1 = make_state("ho:0"), make_state("ho:1")
    values = 0.7 * np.outer(psi0.values, psi0.values.conj()) + 0.3 * np.outer(psi1.values, psi1.values.conj())
    return tomogram_from_density(DensityMatrix(grid=psi0.grid, values=values))


@pytest.mark.parametrize(
    "potential",
    [FREE, OSCILLATOR, Potential(1.0, 0.0), Potential(0.0, -0.2), Potential(0.5, 0.3)],
    ids=["free", "oscillator", "linear", "inverted", "general"],
)
def test_green_route_matches_the_chain_it_replaces(mixed_tomogram, potential):
    # the route transforms the propagated eigenvectors with their weights; the
    # chain rebuilds rho_t from them and diagonalizes it again
    green = GreenFunction.for_potential(potential)
    evolved = evolve_via_green(mixed_tomogram, green, 0.9)
    states, weights, _ = vars(mixed_tomogram)["green_input"]
    in_grid, out_grid = (UniformGrid(*evolved.meta[key]) for key in ("input_grid", "output_grid"))
    propagated = propagate_states(states, in_grid, out_grid, green, 0.9)
    rho_t = DensityMatrix(grid=out_grid, values=(propagated.T * weights) @ propagated.conj())
    chain = tomogram_from_density(rho_t, mixed_tomogram.x_grid, mixed_tomogram.theta_count)
    assert evolved.meta["components"] == chain.meta["components"] == 2
    assert np.abs(evolved.values - chain.values).max() <= 1e-12


def test_green_route_peak_memory(default_packet_tomogram):
    # the inverse's table takes 11.8 MB; reading frames in chunks of 1 << 16
    # added 2.8 MB of per-frame temporaries on top of it (17.8 MB in all).
    # A tomogram keeps its table, so a new one is built inside the trace.
    import tracemalloc

    green = GreenFunction.oscillator()
    tomo = tomography.Tomogram(
        x_grid=default_packet_tomogram.x_grid,
        theta_count=default_packet_tomogram.theta_count,
        values=default_packet_tomogram.values,
    )
    tracemalloc.start()
    try:
        evolve_via_green(tomo, green, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_green_route_grids_follow_the_flowed_moments(default_packet_tomogram):
    # free motion for t = 3 carries <x> from 1 to 2.5 and sd_x from 0.71 to 2.2
    evolved = evolve_via_green(default_packet_tomogram, GreenFunction.free(), 3.0)
    lower, upper, count = evolved.meta["input_grid"]
    assert (lower + upper) / 2 == pytest.approx(1.0, abs=1e-6)
    assert upper - lower == pytest.approx(2 * TAIL_SDS * np.sqrt(0.5), rel=1e-6)
    lower, upper, count = evolved.meta["output_grid"]
    assert (lower + upper) / 2 == pytest.approx(2.5, abs=1e-5)
    assert upper - lower == pytest.approx(2 * TAIL_SDS * np.sqrt(5.0), rel=1e-5)
    # the step resolves momenta up to |<p>| + TAIL_SDS sd_p = 0.5 + 7.07
    assert (upper - lower) / (count - 1) <= np.pi / (0.5 + TAIL_SDS * np.sqrt(0.5))
