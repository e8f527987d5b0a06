"""Acceptance gate: one test per advertised guarantee.

Each test prints a single PASS/FAIL line with the measured figure and the
required tolerance, then asserts.  Run with `pytest -v -s
tests/test_acceptance.py` to see the lines as they appear.
"""

import numpy as np
import pytest
import sympy as sp

from tomoprop.greens import (
    FREE,
    OSCILLATOR,
    GreenFunction,
    Potential,
)
from tomoprop.grids import UniformGrid
from tomoprop.propagator import (
    KernelFourierQuery,
    compare_tomograms,
    evolve_pullback,
    evolve_via_green,
    kernel_fourier,
)
from tomoprop.states import GaussianPacket, hermite_functions, make_state
from tomoprop.tomography import (
    DEFAULT_THETA_COUNT,
    DEFAULT_X_GRID,
    density_from_tomogram,
    optical_slice,
    tomogram_from_wavefunction,
)
from tomoprop.transport import (
    reduce_evolution_equation,
    solve_characteristics,
)

from green_oracle import green_free, green_oscillator

# evolved tomograms produced by criteria 3-5 and 9, checked for
# slice-norm conservation by criterion 10
_EVOLVED = []


def report(criterion: str, measured: float, bound: float, extra: str = ""):
    ok = measured <= bound
    tag = "PASS" if ok else "FAIL"
    suffix = f" {extra}" if extra else ""
    print(f"[{tag}] {criterion}: measured {measured:.3g} vs bound {bound:g}{suffix}")
    assert ok, f"{criterion}: {measured:.3g} > {bound:g}"


@pytest.fixture(scope="module")
def ground_tomo():
    return tomogram_from_wavefunction(make_state("ho_ground"), DEFAULT_X_GRID, DEFAULT_THETA_COUNT)


@pytest.fixture(scope="module")
def packet_tomo():
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    return tomogram_from_wavefunction(psi, DEFAULT_X_GRID, DEFAULT_THETA_COUNT)


def _preset_target_values(name, x):
    if name == "ho:0":
        return hermite_functions(0, x)[0].astype(complex)
    if name == "ho:1":
        return hermite_functions(1, x)[1].astype(complex)
    amp = np.pi ** (-0.25)
    return amp * np.exp(-((x - 1.0) ** 2) / 2.0 + 0.5j * x)


def test_criterion_1_roundtrip():
    target = UniformGrid(-6.0, 6.0, 128)
    x = target.points
    worst = 0.0
    for name in ("ho:0", "ho:1", "gaussian:1,0.5,1"):
        psi = make_state(name)
        tomo = tomogram_from_wavefunction(psi, DEFAULT_X_GRID, DEFAULT_THETA_COUNT)
        rho = density_from_tomogram(tomo, target)
        vals = _preset_target_values(name, x)
        expected = np.outer(vals, vals.conj())
        worst = max(worst, float(np.abs(rho.values - expected).max()))
    report("criterion 1 (transform roundtrip, 3 presets, 128^2 grid)", worst, 1e-3)


def test_criterion_2_closed_form_ground_state(ground_tomo):
    # lattice values against the analytic tomogram on the unit circle
    x = DEFAULT_X_GRID.points
    expected = np.exp(-(x**2)) / np.sqrt(np.pi)
    lattice_err = float(np.abs(ground_tomo.values - expected[None, :]).max())
    # independent high-resolution quadrature of the defining transform
    y = np.arange(-20.0, 20.0, 1e-3)
    psi0 = np.pi ** (-0.25) * np.exp(-0.5 * y**2)
    quad_err = 0.0
    for X, mu, nu in [(0.5, 0.6, 0.8), (-1.2, 1.0, 0.2), (0.0, 0.3, -0.95)]:
        phase = np.exp(0.5j * mu * y**2 / nu - 1j * X * y / nu)
        oracle = abs(np.trapezoid(psi0 * phase, y)) ** 2 / (2.0 * np.pi * abs(nu))
        quad_err = max(quad_err, abs(ground_tomo.evaluate(X, mu, nu) - oracle))
    report(
        "criterion 2 (ground-state closed form)",
        max(lattice_err, quad_err),
        1e-6,
    )


def test_criterion_3_route_agreement(packet_tomo):
    worst = 0.0
    for potential, green, t in (
        (FREE, GreenFunction.free(), 0.5),
        (FREE, GreenFunction.free(), 1.0),
        (OSCILLATOR, GreenFunction.oscillator(), 0.7),
    ):
        via_pullback = evolve_pullback(packet_tomo, potential, t)
        via_green = evolve_via_green(packet_tomo, green, t)
        _EVOLVED.extend([via_pullback, via_green])
        worst = max(worst, compare_tomograms(via_pullback, via_green).linf)
    report("criterion 3 (pullback vs green route, free and oscillator)", worst, 1e-3)


def test_criterion_4_stationarity_and_period(ground_tomo):
    # lattice-aligned rotation angles (multiples of the theta step) so the
    # check isolates the evolution map from angular interpolation
    dtheta = np.pi / ground_tomo.theta_count
    pull_err = 0.0
    for t in (17 * dtheta, 90 * dtheta, 250 * dtheta):
        evolved = evolve_pullback(ground_tomo, OSCILLATOR, t)
        _EVOLVED.append(evolved)
        pull_err = max(pull_err, float(np.abs(evolved.values - ground_tomo.values).max()))
    report("criterion 4a (ground-state pullback stationarity)", pull_err, 1e-10)

    via_green = evolve_via_green(ground_tomo, GreenFunction.oscillator(), 0.9)
    _EVOLVED.append(via_green)
    green_err = compare_tomograms(via_green, ground_tomo).linf
    report("criterion 4b (ground-state green-route stationarity)", green_err, 1e-3)

    period = evolve_pullback(ground_tomo, OSCILLATOR, 2.0 * np.pi)
    period_err = float(np.abs(period.values - ground_tomo.values).max())
    report("criterion 4c (oscillator 2 pi period identity)", period_err, 1e-10)


def test_criterion_5_composition(packet_tomo):
    worst_pull = 0.0
    for potential in (FREE, OSCILLATOR):
        two = evolve_pullback(evolve_pullback(packet_tomo, potential, 0.5), potential, 0.5)
        worst_pull = max(worst_pull, compare_tomograms(two, evolve_pullback(packet_tomo, potential, 1.0)).linf)
    report("criterion 5a (pullback composition 0.5+0.5 vs 1.0)", worst_pull, 1e-10)

    two = evolve_via_green(
        evolve_via_green(packet_tomo, GreenFunction.free(), 0.5), GreenFunction.free(), 0.5
    )
    one = evolve_via_green(packet_tomo, GreenFunction.free(), 1.0)
    _EVOLVED.extend([two, one])
    report(
        "criterion 5b (green composition 0.5+0.5 vs 1.0)",
        compare_tomograms(two, one).linf,
        1e-3,
    )


def test_criterion_6_kernel_scaling():
    worst = 0.0
    for green in (GreenFunction.free(), GreenFunction.oscillator()):
        for k in (0.5, 2.0):
            q1 = KernelFourierQuery(k, 0.3, 0.4, 0.25, 0.7, 1.0, green, damping=1e-3)
            q2 = KernelFourierQuery(
                1.0, k * 0.3, k * 0.4, k * 0.25, k * 0.7, 1.0, green, damping=1e-3
            )
            v1 = kernel_fourier(q1)
            v2 = kernel_fourier(q2)
            worst = max(worst, abs(v1 - k**2 * v2) / max(abs(v1), 1e-30))
    report("criterion 6 (kernel k^2 scaling, free and oscillator)", worst, 1e-6)


def test_criterion_7_sliced_convergence():
    free_err = 0.0
    for slices in (1, 3, 16, 64, 256):
        for t in {1: (0.45,), 3: (1.0,)}.get(slices, (1.0, 4.0)):  # slice width below 0.5
            sliced = GreenFunction.sliced(FREE, slices)(0.7, -0.3, t)
            free_err = max(free_err, abs(sliced - green_free(0.7, -0.3, t)))
    report("criterion 7a (sliced free-particle exactness)", free_err, 1e-12)

    counts = (32, 64, 128, 256)
    # t = 1 against the closed form; t = 4, past the caustic at pi, against the flow kernel
    for t, exact in ((1.0, green_oscillator(1.0, 0.0, 1.0)), (4.0, GreenFunction.oscillator()(1.0, 0.0, 4.0))):
        errs = [abs(GreenFunction.sliced(OSCILLATOR, n)(1.0, 0.0, t) - exact) for n in counts]
        slope = -float(np.polyfit(np.log(counts), np.log(errs), 1)[0])
        ok = 0.8 <= slope <= 1.2
        print(f"[{'PASS' if ok else 'FAIL'}] criterion 7b (oscillator slicing order, t = {t:g}): slope {slope:.3f} in [0.8, 1.2]")
        assert ok


def _flow_form(green, x, y, t):
    """The kernel's quadratic phase A x^2 + B x y + C y^2 + D x + E y and its amplitude."""
    amp, a, b, c, d, e = green.quadratic_form(t)
    return a * x**2 + b * x * y + c * y**2 + d * x + e * y, amp


def test_criterion_8_van_fleck():
    xs = np.linspace(-1.5, 1.5, 5)
    free_err = osc_err = 0.0
    for t in (0.4, 0.9, 1.6, 4.0, 5.5, 7.0, -4.0):  # caustics at multiples of pi
        vf = GreenFunction.van_fleck(FREE)(xs[:, None], xs[None, :], t)
        free_err = max(free_err, float(np.abs(vf - green_free(xs[:, None], xs[None, :], t)).max()))
        vo = GreenFunction.van_fleck(OSCILLATOR)(xs[:, None], xs[None, :], t)
        osc_err = max(osc_err, float(np.abs(vo - green_oscillator(xs[:, None], xs[None, :], t)).max()))
    report("criterion 8a (van Vleck free exactness, 5x5x7)", free_err, 1e-10)
    report("criterion 8b (van Vleck oscillator exactness, 5x5x7)", osc_err, 1e-6)

    # the action is the phase of the flow kernel, A x^2 + B x y + C y^2 + D x + E y
    # + S(0, 0, t); the amplitude's Maslov part is constant between caustics,
    # so its phase's time derivative is that of S(0, 0, t).  t = 5.5 is past
    # the first caustic of both oscillators (pi and pi / sqrt(0.6) = 4.06)
    h = 1e-5
    hj = 0.0
    for pot in (FREE, OSCILLATOR, Potential(1.0, 0.0), Potential(1.0, 0.3)):
        green = GreenFunction.van_fleck(pot)
        for x2, x1, t in [(0.8, -0.4, 0.7), (1.5, 0.2, 1.3), (0.8, -0.4, 5.5)]:
            (s_plus, amp_plus), (s_minus, amp_minus) = (_flow_form(green, x2, x1, t + d) for d in (h, -h))
            st_ = (s_plus - s_minus + np.angle(amp_plus / amp_minus)) / (2 * h)
            sx = (_flow_form(green, x2 + h, x1, t)[0] - _flow_form(green, x2 - h, x1, t)[0]) / (2 * h)
            hj = max(hj, abs(float(st_ + 0.5 * sx**2 + pot(x2))))
    report("criterion 8c (Hamilton-Jacobi residual)", hj, 1e-4)


def _symbolic_coefficients(alpha, beta):
    dX, dmu, nu = sp.symbols("dX dmu nu")
    a_minus = -dmu / dX - sp.I * nu / 2 * dX
    a_plus = -dmu / dX + sp.I * nu / 2 * dX
    v = lambda q: alpha * q + beta * q**2
    advection = sp.expand(-sp.I * (v(a_minus) - v(a_plus)))
    return sp.simplify(advection.coeff(dX, 1)), sp.simplify(advection.coeff(dmu, 1))


# the potentials and times of criterion 9b, reused by criterion 10
_PDE_CASES = (
    (FREE, 0.7),
    (OSCILLATOR, 1.2),
    (Potential(1.0, 0.0), 0.9),
    (Potential(0.0, -0.2), 0.9),
    (Potential(0.5, 0.3), 0.9),
)


def test_criterion_9_pde_reduction_and_solve(packet_tomo):
    nu = sp.Symbol("nu")
    for alpha, beta in ((0, 0), (0, sp.Rational(1, 2)), (1, 0), (1, sp.Rational(3, 10))):
        pde = reduce_evolution_equation(Potential(float(alpha), float(beta)))
        c_x, c_mu = _symbolic_coefficients(alpha, beta)
        got_cx = sum(c * nu**p for (pm, p), c in pde.c_x.items() if pm == 0)
        got_cmu = sum(c * nu**p for (pm, p), c in pde.c_mu.items() if pm == 0)
        assert sp.simplify(got_cx - c_x) == 0 and sp.simplify(got_cmu - c_mu) == 0
        assert pde.c_nu == {(1, 0): -1.0}
    print("[PASS] criterion 9a (symbolic reduction oracle, 4 potentials): exact")

    worst = 0.0
    for potential, t in _PDE_CASES:
        pde = reduce_evolution_equation(potential)
        via_pde = solve_characteristics(pde, packet_tomo, t)
        _EVOLVED.append(via_pde)
        via_pullback = evolve_pullback(packet_tomo, potential, t)
        worst = max(worst, float(np.abs(via_pde.values - via_pullback.values).max()))
    report("criterion 9b (characteristics vs pullback, 5 potentials)", worst, 1e-10)

    linear = Potential(alpha=1.0, beta=0.0)
    pde = reduce_evolution_equation(linear)
    via_pde = solve_characteristics(pde, packet_tomo, 0.6)
    via_green = evolve_via_green(packet_tomo, GreenFunction.van_fleck(linear), 0.6)
    _EVOLVED.extend([via_pde, via_green])
    report(
        "criterion 9c (linear potential: characteristics vs green route)",
        compare_tomograms(via_pde, via_green).linf,
        1e-3,
    )


def _off_unit_width_evolutions():
    """Characteristics solves of packets narrower and wider than sigma = 1,
    where the X interpolant's error is largest: criterion 9's packet at
    sigma = 0.8 under its five potentials, and a sigma = 1.24 packet whose
    pde route once read a slice mass of 1 + 1.14e-6."""
    narrow = tomogram_from_wavefunction(
        make_state(GaussianPacket(1.0, 0.5, 0.8)), DEFAULT_X_GRID, DEFAULT_THETA_COUNT
    )
    evolved = [solve_characteristics(reduce_evolution_equation(p), narrow, t) for p, t in _PDE_CASES]
    wide = tomogram_from_wavefunction(
        make_state("gaussian:-0.2618655204092435,-0.12550323441211764,1.24435024558391"),
        DEFAULT_X_GRID,
        DEFAULT_THETA_COUNT,
    )
    pde = reduce_evolution_equation(Potential(0.26551254521429213, 0.16548720938491043))
    return evolved + [solve_characteristics(pde, wide, 0.62297237488719)]


def test_criterion_10_conservation():
    assert _EVOLVED, "criteria 3-5 and 9 must run before the conservation check"
    evolved = _EVOLVED + _off_unit_width_evolutions()
    worst = max(float(np.abs(t.slice_norms() - 1.0).max()) for t in evolved)
    report(
        f"criterion 10 (slice-norm conservation over {len(evolved)} evolved tomograms)",
        worst,
        1e-6,
    )


def test_criterion_11_optical_rotation(packet_tomo):
    phi, t = 0.3, 0.9
    evolved = evolve_pullback(packet_tomo, OSCILLATOR, t)
    err = float(np.abs(optical_slice(evolved, phi) - optical_slice(packet_tomo, phi + t)).max())
    report("criterion 11 (oscillator optical-angle rotation)", err, 1e-6)
