import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import (
    CausticError,
    InvalidInputError,
    SingularTimeError,
)
from tomoprop.greens import (
    FREE,
    OSCILLATOR,
    GreenFunction,
    Potential,
    classical_flow,
)
from tomoprop.grids import UniformGrid

from green_oracle import (
    action_of_path,
    classical_trajectory,
    closed_action,
    gradient,
    green_free,
    green_oscillator,
    green_van_fleck,
)

FREE_KERNEL = GreenFunction.free()
OSCILLATOR_KERNEL = GreenFunction.oscillator()


def test_free_kernel_normalization_value():
    assert FREE_KERNEL(0.0, 0.0, 1.0) == pytest.approx(
        np.exp(-0.25j * np.pi) / np.sqrt(2.0 * np.pi)
    )


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3, 3),
    y=st.floats(-3, 3),
    t=st.floats(0.1, 5.0),
)
def test_free_kernel_modulus(x, y, t):
    assert abs(FREE_KERNEL(x, y, t)) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi * t))


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3, 3),
    y=st.floats(-3, 3),
    t=st.floats(0.1, 3.0),
)
def test_oscillator_kernel_symmetric(x, y, t):
    assert OSCILLATOR_KERNEL(x, y, t) == pytest.approx(OSCILLATOR_KERNEL(y, x, t))


def test_free_semigroup_convolution_oracle():
    # independent check: G(x, y, t1+t2) = int G(x, z, t1) G(z, y, t2) dz,
    # evaluated by damped quadrature on a wide grid.
    x, y, t1, t2 = 0.7, -0.4, 0.6, 0.9
    eps = 1e-5
    z = np.arange(-400.0, 400.0, 3e-3)
    integrand = FREE_KERNEL(x, z, t1) * FREE_KERNEL(z, y, t2) * np.exp(-eps * z**2)
    value = np.trapezoid(integrand, z)
    assert abs(value - FREE_KERNEL(x, y, t1 + t2)) < 1e-3


def test_oscillator_kernel_satisfies_schroedinger_equation():
    # i dG/dt = -1/2 d^2G/dx^2 + x^2/2 G, finite differences in t and x
    h = 1e-4
    g = OSCILLATOR_KERNEL
    for x, y, t in [(0.5, -0.3, 0.7), (1.2, 0.4, 1.9), (-0.8, -0.8, 2.5), (0.5, -0.3, 4.0)]:
        dt = (g(x, y, t + h) - g(x, y, t - h)) / (2 * h)
        dxx = (g(x + h, y, t) - 2 * g(x, y, t) + g(x - h, y, t)) / h**2
        residual = 1j * dt + 0.5 * dxx - 0.5 * x**2 * g(x, y, t)
        assert abs(residual) < 1e-4


def test_oscillator_kernel_projects_ground_state_phase():
    # int G(x, y, t) psi_0(y) dy = exp(-i t / 2) psi_0(x): an independent
    # quadrature check of both normalization and phase convention.
    y = np.arange(-20.0, 20.0, 1e-3)
    psi0 = np.pi ** (-0.25) * np.exp(-0.5 * y**2)
    t = 0.7
    for x in (-1.0, 0.0, 0.6):
        val = np.trapezoid(OSCILLATOR_KERNEL(x, y, t) * psi0, y)
        expected = np.exp(-0.5j * t) * np.pi ** (-0.25) * np.exp(-0.5 * x**2)
        assert abs(val - expected) < 1e-8


def _ground_state_ratio(green, t, omega=1.0, x=0.3):
    """int G(x, y, t) psi_0(y) dy / (exp(-i omega t / 2) psi_0(x)) for the
    ground state psi_0 of the oscillator of frequency omega, by the trapezoid
    rule on 20,001 points over [-12, 12]."""
    y = np.linspace(-12.0, 12.0, 20001)
    psi0 = lambda q: (omega / np.pi) ** 0.25 * np.exp(-0.5 * omega * q**2)
    return np.trapezoid(green(x, y, t) * psi0(y), y) / (np.exp(-0.5j * omega * t) * psi0(x))


@pytest.mark.parametrize("t", [0.7, 2.0, 4.0, 5.5, 7.0, -0.7, -4.0])
@pytest.mark.parametrize("green", [OSCILLATOR_KERNEL, GreenFunction.van_fleck(OSCILLATOR)], ids=["oscillator", "van-fleck"])
def test_ground_state_projection_carries_the_maslov_phase(green, t):
    # each caustic the motion passes turns the kernel by e^{-i pi/2}; the
    # principal branch read -1 (oscillator) or +i (van Vleck) at t = 4 and 5.5
    assert abs(_ground_state_ratio(green, t) - 1.0) < 1e-6


def test_ground_state_projection_past_the_caustic_of_a_stiffer_oscillator():
    # beta = 2: omega = 2, caustic at pi/2; the fixed e^{-i pi/4} read +i at t = 2
    green = GreenFunction.van_fleck(Potential(0.0, 2.0))
    assert abs(_ground_state_ratio(green, 2.0, omega=2.0) - 1.0) < 1e-6


def test_singular_and_caustic_times():
    with pytest.raises(SingularTimeError):
        FREE_KERNEL(0.0, 0.0, 0.0)
    with pytest.raises(CausticError):
        OSCILLATOR_KERNEL(0.0, 0.0, np.pi)
    with pytest.raises(CausticError):
        GreenFunction.oscillator().check_time(2 * np.pi)
    with pytest.raises(CausticError):  # m01 = sin(2t)/2 vanishes at t = pi/2
        GreenFunction.van_fleck(Potential(0.3, 2.0)).check_time(-0.5 * np.pi)


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
        assert np.abs(dp + gradient(pot, x)).max() < 1e-8
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
    residual = accel + gradient(pot, x[1:-1])
    assert np.abs(residual).max() < 1e-4


def test_trajectory_conjugate_point_rejected():
    with pytest.raises(CausticError):
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
        got = GreenFunction.sliced(FREE, slices)(0.7, -0.3, t)
        assert abs(got - green_free(0.7, -0.3, t)) < 1e-12


def test_sliced_oscillator_first_order_convergence():
    errs = [
        abs(GreenFunction.sliced(OSCILLATOR, n)(1.0, 0.0, 1.0) - green_oscillator(1.0, 0.0, 1.0))
        for n in (32, 64, 128, 256)
    ]
    slope = np.polyfit(np.log([32, 64, 128, 256]), np.log(errs), 1)[0]
    assert 0.8 <= -slope <= 1.2


def test_sliced_rejects_wide_slices():
    with pytest.raises(InvalidInputError):
        GreenFunction.sliced(FREE, 1)(0.0, 0.0, 1.0)


# --- van Vleck ---------------------------------------------------------------


def test_van_fleck_exact_for_free_and_oscillator():
    xs = np.linspace(-1.5, 1.5, 5)
    for t in (0.4, 0.9, 1.6, 4.0, 5.5, 7.0, -4.0):
        vf = GreenFunction.van_fleck(FREE)(xs[:, None], xs[None, :], t)
        assert np.abs(vf - green_free(xs[:, None], xs[None, :], t)).max() < 1e-10
        vo = GreenFunction.van_fleck(OSCILLATOR)(xs[:, None], xs[None, :], t)
        assert np.abs(vo - green_oscillator(xs[:, None], xs[None, :], t)).max() < 1e-6


def test_van_fleck_amplitude_exact_on_work_grid():
    # the amplitude is the exact 1/sqrt(2 pi |m01|), free of the rounding noise
    # a finite difference of S carries where S is large
    x = UniformGrid(-10.0, 10.0, 384).points
    out, src = x[:, None], x[None, :]
    for t in (0.4, 0.8, 1.2):
        ref = green_oscillator(out, src, t)
        got = GreenFunction.van_fleck(OSCILLATOR)(out, src, t)
        assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12
        for alpha, beta in ((0.0, -0.2), (0.5, -0.3)):
            kappa = np.sqrt(-2.0 * beta)
            u2, u1 = out + alpha / (2.0 * beta), src + alpha / (2.0 * beta)
            ch, sh = np.cosh(kappa * t), np.sinh(kappa * t)
            action = kappa * ((u1**2 + u2**2) * ch - 2.0 * u1 * u2) / (2.0 * sh) + alpha**2 * t / (4.0 * beta)
            ref = np.exp(-0.25j * np.pi) * np.sqrt(kappa / (2.0 * np.pi * sh)) * np.exp(1j * action)
            got = GreenFunction.van_fleck(Potential(alpha, beta))(out, src, t)
            assert np.abs(got - ref).max() / np.abs(ref).max() < 1e-12
    with pytest.raises(CausticError):
        GreenFunction.van_fleck(OSCILLATOR)(0.0, 0.0, np.pi)


def test_van_fleck_linear_potential_matches_sliced():
    pot = Potential(alpha=1.0, beta=0.0)
    got = GreenFunction.van_fleck(pot)(0.8, -0.2, 0.9)
    ref = GreenFunction.sliced(pot, 4096)(0.8, -0.2, 0.9)
    assert abs(got - ref) < 1e-4


def compose(first, second):
    """Quadratic form of int G_first(x, z) G_second(z, y) dz, by exact Gaussian integration.

    The z terms are i (P z^2 + Q z) with P = C1 + A2 and Q = B1 x + B2 y + f,
    f = E1 + D2; int exp(i (P z^2 + Q z)) dz = sqrt(pi / |P|) e^{i sgn(P) pi/4}
    exp(-i Q^2 / (4 P)).
    """
    amp1, a1, b1, c1, d1, e1 = first
    amp2, a2, b2, c2, d2, e2 = second
    p, f = c1 + a2, e1 + d2
    amp = amp1 * amp2 * np.sqrt(np.pi / abs(p)) * np.exp(1j * np.sign(p) * np.pi / 4.0 - 1j * f**2 / (4.0 * p))
    return (
        amp,
        a1 - b1**2 / (4.0 * p),
        -b1 * b2 / (2.0 * p),
        c2 - b2**2 / (4.0 * p),
        d1 - f * b1 / (2.0 * p),
        e2 - f * b2 / (2.0 * p),
    )


def evaluate_form(form, x, y):
    amp, a, b, c, d, e = form
    return amp * np.exp(1j * (a * x**2 + b * x * y + c * y**2 + d * x + e * y))


@pytest.mark.parametrize("potential", [OSCILLATOR, Potential(0.5, 2.0)], ids=["oscillator", "beta-2"])
def test_composition_across_a_caustic(potential):
    # G(2) after G(2.5) against G(4.5): both halves and the whole pass caustics
    # (at pi for the oscillator, at multiples of pi/2 under beta = 2)
    green = GreenFunction.van_fleck(potential)
    x, y = np.linspace(-3.0, 3.0, 13)[:, None], np.linspace(-2.5, 3.5, 11)[None, :]
    want = green(x, y, 4.5)
    got = evaluate_form(compose(green.quadratic_form(2.0), green.quadratic_form(2.5)), x, y)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def slice_chain(potential, t, slices):
    """The N-slice path integral as a chain of one-slice kernels
    (2 pi i dt)^{-1/2} exp{i[(x - z)^2 / (2 dt) - U(x) dt]}, each composed
    onto the last by Gaussian integration."""
    dt = t / slices
    one = (1.0 / np.sqrt(2j * np.pi * dt), 0.5 / dt - potential.beta * dt, -1.0 / dt, 0.5 / dt, -potential.alpha * dt, 0.0)
    form = one
    for _ in range(slices - 1):
        form = compose(one, form)
    return form


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
    # against the closed forms (negative times: G(x, y, -t) = conj G(y, x, t));
    # the sliced kind against its chain of one-slice kernels.
    # Worst seen over x, y in [-10, 10] and these times: 2.3e-13 relative
    green = QUADRATIC_KINDS[name]
    x = np.linspace(-10.0, 10.0, 41)[:, None]
    y = np.linspace(-9.0, 11.0, 37)[None, :]
    oracle = {
        "free": green_free,
        "oscillator": green_oscillator,
        "sliced": lambda x, y, t: evaluate_form(slice_chain(green.potential, t, green.slices), x, y),
    }.get(name, lambda x, y, t: green_van_fleck(green.potential, x, y, t))
    times = (0.3, 1.1, 2.5, 4.0) if name in ("free", "oscillator") else (0.3, 1.1, 2.5)
    for t in times:
        want = oracle(x, y, t)
        form = evaluate_form(green.quadratic_form(t), x, y)
        assert np.abs(form - want).max() <= 1e-12 * np.abs(want).max()
        if name != "sliced":
            backward = evaluate_form(green.quadratic_form(-t), x, y)
            assert np.abs(backward - np.conj(oracle(y.T, x.T, t)).T).max() <= 1e-12 * np.abs(want).max()


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
        GreenFunction.sliced(OSCILLATOR, 8).quadratic_form(-0.7)


def test_green_function_dispatch():
    # every potential gets the one flow kernel; free and oscillator name it
    for potential, named in ((FREE, FREE_KERNEL), (OSCILLATOR, OSCILLATOR_KERNEL)):
        green = GreenFunction.for_potential(potential)
        assert green.kind == "van-fleck"
        assert green.quadratic_form(4.0) == named.quadratic_form(4.0)
    assert GreenFunction.for_potential(Potential(1.0, 0.3)) == GreenFunction.van_fleck(Potential(1.0, 0.3))


@pytest.mark.parametrize("beta", [1e-12, -1e-12, 1e-8, -1e-8])
def test_kernel_is_continuous_in_beta(beta):
    # S(0, 0, t) from the flow keeps its digits as beta -> 0 with alpha != 0,
    # where the vertex-shifted closed action read 0.917 at beta = 1e-8
    # (0.258 at beta = 0) and 1.9e7 at 1e-12; the kernel moves by 30-67 |beta|
    # of its size here, the action's beta derivative
    x, y = np.linspace(-6.0, 6.0, 25)[:, None], np.linspace(-5.0, 7.0, 23)[None, :]
    for t in (0.7, 0.9, 1.5):
        want = GreenFunction.van_fleck(Potential(1.0, 0.0))(x, y, t)
        got = GreenFunction.van_fleck(Potential(1.0, beta))(x, y, t)
        assert np.abs(got - want).max() <= 1e3 * abs(beta) * np.abs(want).max()


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
