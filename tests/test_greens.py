import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import (
    CausticError,
    DegenerateBVPError,
    InvalidInputError,
    SingularTimeError,
)
from tomoprop.greens import (
    FREE,
    OSCILLATOR,
    GreenFunction,
    Potential,
    action_of_path,
    classical_flow,
    classical_trajectory,
    closed_action,
    green_free,
    green_oscillator,
    green_sliced,
    green_van_fleck,
)
from tomoprop.grids import UniformGrid


def test_free_kernel_normalization_value():
    assert green_free(0.0, 0.0, 1.0) == pytest.approx(
        np.exp(-0.25j * np.pi) / np.sqrt(2.0 * np.pi)
    )


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3, 3),
    y=st.floats(-3, 3),
    t=st.floats(0.1, 5.0),
)
def test_free_kernel_modulus(x, y, t):
    assert abs(green_free(x, y, t)) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi * t))


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3, 3),
    y=st.floats(-3, 3),
    t=st.floats(0.1, 3.0),
)
def test_oscillator_kernel_symmetric(x, y, t):
    assert green_oscillator(x, y, t) == pytest.approx(green_oscillator(y, x, t))


def test_free_semigroup_convolution_oracle():
    # independent check: G(x, y, t1+t2) = int G(x, z, t1) G(z, y, t2) dz,
    # evaluated by damped quadrature on a wide grid.
    x, y, t1, t2 = 0.7, -0.4, 0.6, 0.9
    eps = 1e-5
    z = np.arange(-400.0, 400.0, 3e-3)
    integrand = green_free(x, z, t1) * green_free(z, y, t2) * np.exp(-eps * z**2)
    value = np.trapezoid(integrand, z)
    assert abs(value - green_free(x, y, t1 + t2)) < 1e-3


def test_oscillator_kernel_satisfies_schroedinger_equation():
    # i dG/dt = -1/2 d^2G/dx^2 + x^2/2 G, finite differences in t and x
    h = 1e-4
    for x, y, t in [(0.5, -0.3, 0.7), (1.2, 0.4, 1.9), (-0.8, -0.8, 2.5)]:
        dt = (green_oscillator(x, y, t + h) - green_oscillator(x, y, t - h)) / (2 * h)
        dxx = (
            green_oscillator(x + h, y, t)
            - 2 * green_oscillator(x, y, t)
            + green_oscillator(x - h, y, t)
        ) / h**2
        residual = 1j * dt + 0.5 * dxx - 0.5 * x**2 * green_oscillator(x, y, t)
        assert abs(residual) < 1e-4


def test_oscillator_kernel_projects_ground_state_phase():
    # int G(x, y, t) psi_0(y) dy = exp(-i t / 2) psi_0(x): an independent
    # quadrature check of both normalization and phase convention.
    y = np.arange(-20.0, 20.0, 1e-3)
    psi0 = np.pi ** (-0.25) * np.exp(-0.5 * y**2)
    t = 0.7
    for x in (-1.0, 0.0, 0.6):
        val = np.trapezoid(green_oscillator(x, y, t) * psi0, y)
        expected = np.exp(-0.5j * t) * np.pi ** (-0.25) * np.exp(-0.5 * x**2)
        assert abs(val - expected) < 1e-8


def test_singular_and_caustic_times():
    with pytest.raises(SingularTimeError):
        green_free(0.0, 0.0, 0.0)
    with pytest.raises(CausticError):
        green_oscillator(0.0, 0.0, np.pi)
    with pytest.raises(CausticError):
        GreenFunction.oscillator().check_time(2 * np.pi)


# --- classical flow and boundary-value problem ------------------------------


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (0.0, -0.2), (0.5, 0.3), (-0.7, 1e-9)])
def test_classical_flow_solves_hamilton_equations(alpha, beta):
    # d/dt (x, p) = (p, -alpha - 2 beta x) by central differences, from
    # (x, p)(0) = (1, 0) and (0, 1); flows compose and preserve area
    pot = Potential(alpha, beta)
    t = np.linspace(-3.0, 3.0, 61)
    h = 1e-5
    m, c = classical_flow(pot, t)
    assert m.shape == (2, 2, 61) and c.shape == (2, 61)
    m_plus, c_plus = classical_flow(pot, t + h)
    m_minus, c_minus = classical_flow(pot, t - h)
    for start in ((1.0, 0.0), (0.0, 1.0)):
        x, p = np.einsum("ijt,j->it", m, start) + c
        dx, dp = (np.einsum("ijt,j->it", m_plus - m_minus, start) + c_plus - c_minus) / (2 * h)
        assert np.abs(dx - p).max() < 1e-8
        assert np.abs(dp + pot.gradient(x)).max() < 1e-8
    assert np.abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0).max() < 1e-12
    (m_a, c_a), (m_b, c_b), (m_ab, c_ab) = (classical_flow(pot, s) for s in (0.4, 1.1, 1.5))
    assert np.abs(m_b @ m_a - m_ab).max() < 1e-12
    assert np.abs(m_b @ c_a + c_b - c_ab).max() < 1e-12


def test_trajectory_hits_endpoints_and_obeys_newton():
    pot = Potential(alpha=0.7, beta=0.3)
    path = classical_trajectory(pot, -0.5, 1.2, 1.4, 2000)
    assert path.positions[0] == -0.5 and path.positions[-1] == 1.2
    x = path.positions
    dt = path.step
    accel = (x[2:] - 2 * x[1:-1] + x[:-2]) / dt**2
    residual = accel + pot.gradient(x[1:-1])
    assert np.abs(residual).max() < 1e-4


def test_trajectory_conjugate_point_rejected():
    with pytest.raises(DegenerateBVPError):
        classical_trajectory(OSCILLATOR, 0.0, 1.0, np.pi, 100)


def test_discrete_action_matches_closed_form():
    # oscillator endpoints 0 -> 1 over t = 1: S = cot(1)/2
    path = classical_trajectory(OSCILLATOR, 0.0, 1.0, 1.0, 4096)
    assert action_of_path(path, OSCILLATOR) == pytest.approx(0.5 / np.tan(1.0), abs=1e-4)


def test_discrete_action_converges_to_closed_action_linear_potential():
    pot = Potential(alpha=1.0, beta=0.0)
    exact = float(closed_action(pot, 1.0, -0.3, 0.9))
    path = classical_trajectory(pot, -0.3, 1.0, 0.9, 8192)
    assert action_of_path(path, pot) == pytest.approx(exact, abs=1e-4)


def test_closed_action_hamilton_jacobi_residual():
    # dS/dt + (1/2)(dS/dx2)^2 + U(x2) = 0, finite differences
    h = 1e-5
    for pot in (FREE, OSCILLATOR, Potential(1.0, 0.0), Potential(1.0, 0.3)):
        for x2, x1, t in [(0.8, -0.4, 0.7), (1.5, 0.2, 1.3), (-1.0, 1.0, 0.5)]:
            st_ = (closed_action(pot, x2, x1, t + h) - closed_action(pot, x2, x1, t - h)) / (2 * h)
            sx = (closed_action(pot, x2 + h, x1, t) - closed_action(pot, x2 - h, x1, t)) / (2 * h)
            residual = st_ + 0.5 * sx**2 + pot(x2)
            assert abs(residual) < 1e-4


# --- sliced path integral ----------------------------------------------------


def test_sliced_free_exact_at_any_slice_count():
    for slices in (1, 3, 7, 64):
        t = 0.45 if slices == 1 else 1.0
        got = green_sliced(FREE, 0.7, -0.3, t, slices)
        assert abs(got - green_free(0.7, -0.3, t)) < 1e-12


def test_sliced_oscillator_first_order_convergence():
    errs = [
        abs(green_sliced(OSCILLATOR, 1.0, 0.0, 1.0, n) - green_oscillator(1.0, 0.0, 1.0))
        for n in (32, 64, 128, 256)
    ]
    slope = np.polyfit(np.log([32, 64, 128, 256]), np.log(errs), 1)[0]
    assert 0.8 <= -slope <= 1.2


def test_sliced_rejects_wide_slices():
    with pytest.raises(InvalidInputError):
        green_sliced(FREE, 0.0, 0.0, 1.0, 1)


# --- van Vleck ---------------------------------------------------------------


def test_van_fleck_exact_for_free_and_oscillator():
    xs = np.linspace(-1.5, 1.5, 5)
    for t in (0.4, 0.9, 1.6):
        vf = green_van_fleck(FREE, xs[:, None], xs[None, :], t)
        assert np.abs(vf - green_free(xs[:, None], xs[None, :], t)).max() < 1e-10
        vo = green_van_fleck(OSCILLATOR, xs[:, None], xs[None, :], t)
        assert np.abs(vo - green_oscillator(xs[:, None], xs[None, :], t)).max() < 1e-6


def test_van_fleck_amplitude_exact_on_work_grid():
    # the amplitude is the exact |d^2 S / dx dy|, free of the rounding noise a
    # finite difference of S carries where S is large
    x = UniformGrid(-10.0, 10.0, 384).points
    out, src = x[:, None], x[None, :]
    for t in (0.4, 0.8, 1.2):
        ref = green_oscillator(out, src, t)
        got = green_van_fleck(OSCILLATOR, out, src, t)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12
        for alpha, beta in ((0.0, -0.2), (0.5, -0.3)):
            kappa = np.sqrt(-2.0 * beta)
            u2, u1 = out + alpha / (2.0 * beta), src + alpha / (2.0 * beta)
            ch, sh = np.cosh(kappa * t), np.sinh(kappa * t)
            action = kappa * ((u1**2 + u2**2) * ch - 2.0 * u1 * u2) / (2.0 * sh) + alpha**2 * t / (4.0 * beta)
            ref = np.exp(-0.25j * np.pi) * np.sqrt(kappa / (2.0 * np.pi * sh)) * np.exp(1j * action)
            got = green_van_fleck(Potential(alpha, beta), out, src, t)
            assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12
    with pytest.raises(DegenerateBVPError):
        green_van_fleck(OSCILLATOR, 0.0, 0.0, np.pi)


def test_van_fleck_linear_potential_matches_sliced():
    pot = Potential(alpha=1.0, beta=0.0)
    got = green_van_fleck(pot, 0.8, -0.2, 0.9)
    ref = green_sliced(pot, 0.8, -0.2, 0.9, 4096)
    assert abs(got - ref) < 1e-4


QUADRATIC_KINDS = {
    "free": GreenFunction.free(),
    "oscillator": GreenFunction.oscillator(),
    "van-fleck-linear": GreenFunction.van_fleck(Potential(1.0, 0.0)),
    "van-fleck-inverted": GreenFunction.van_fleck(Potential(0.0, -0.2)),
    "van-fleck-general": GreenFunction.van_fleck(Potential(0.5, 0.3)),
    "sliced": GreenFunction.sliced(Potential(0.5, 0.3), 16),
}


@pytest.mark.parametrize("name", QUADRATIC_KINDS)
def test_quadratic_form_reproduces_the_kernel(name):
    # worst seen over x, y in [-10, 10] and these times: 2.3e-13 relative
    green = QUADRATIC_KINDS[name]
    x = np.linspace(-10.0, 10.0, 41)[:, None]
    y = np.linspace(-9.0, 11.0, 37)[None, :]
    times = (0.3, 1.1, 2.5, 4.0) if name in ("free", "oscillator") else (0.3, 1.1, 2.5)
    for t in times + tuple(-t for t in times if name in ("free", "oscillator")):
        amp, a, b, c, d, e = green.quadratic_form(t)
        form = amp * np.exp(1j * (a * x**2 + b * x * y + c * y**2 + d * x + e * y))
        want = green(x, y, t)
        assert np.abs(form - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", QUADRATIC_KINDS)
@pytest.mark.parametrize("t", [0.0, 1e-300, -1e-7, 1e-6])
def test_near_zero_time_is_singular_for_every_kind(name, t):
    with pytest.raises(SingularTimeError):
        QUADRATIC_KINDS[name].check_time(t)
    with pytest.raises(SingularTimeError):
        QUADRATIC_KINDS[name].quadratic_form(t)


def test_quadratic_form_keeps_the_sliced_checks():
    with pytest.raises(InvalidInputError, match="stability"):
        GreenFunction.sliced(OSCILLATOR, 1).quadratic_form(0.7)
    with pytest.raises(InvalidInputError):
        GreenFunction.van_fleck(OSCILLATOR).quadratic_form(-0.7)


def test_green_function_dispatch():
    assert GreenFunction.for_potential(FREE).kind == "free"
    assert GreenFunction.for_potential(OSCILLATOR).kind == "oscillator"
    assert GreenFunction.for_potential(Potential(1.0, 0.3)).kind == "van-fleck"
    g = GreenFunction.sliced(OSCILLATOR, 128)
    assert g(1.0, 0.0, 1.0) == green_sliced(OSCILLATOR, 1.0, 0.0, 1.0, 128)


@pytest.mark.parametrize("t", [0.3, 0.9, 2.5])
@pytest.mark.parametrize("xmax,ymax", [(12.0, 12.0), (5.0, 9.0)])
def test_phase_rate_bound_free_and_oscillator_closed_forms(t, xmax, ymax):
    assert GreenFunction.free().phase_rate_bound(xmax, ymax, t) == (xmax + ymax) / abs(t)
    sin_t = abs(np.sin(t))
    want = abs(np.cos(t) / sin_t) * ymax + xmax / sin_t
    assert GreenFunction.oscillator().phase_rate_bound(xmax, ymax, t) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("kind", ["van-fleck", "sliced"])
@pytest.mark.parametrize("potential", [Potential(0.3, 0.2), Potential(-0.5, -0.2), Potential(1.0, 0.0), Potential(0.0, 0.7)])
def test_phase_rate_bound_matches_action_derivative(kind, potential):
    # the bound is max |dS/dy| over the domain corners; a central difference
    # of the closed action at step 1e-5 agrees with it to about 2e-10
    green = GreenFunction(kind, potential=potential, slices=8)
    h = 1e-5
    for t in (0.3, 0.9, 1.7):
        for xmax, ymax in ((12.0, 12.0), (5.0, 9.0)):
            fd = max(
                abs(closed_action(potential, x, y + h, t) - closed_action(potential, x, y - h, t)) / (2 * h)
                for x in (-xmax, xmax)
                for y in (-ymax, ymax)
            )
            assert green.phase_rate_bound(xmax, ymax, t) == pytest.approx(fd, rel=1e-8)
