import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import InvalidInputError, UnsupportedPotentialError
from tomoprop.greens import FREE, OSCILLATOR, Potential
from tomoprop.grids import UniformGrid
from tomoprop.propagator import evolve_pullback
from tomoprop.states import GaussianPacket, make_state
from tomoprop.tomography import angle_grid, optical_slice, tomogram_from_wavefunction
from tomoprop.transport import (
    _FROM_BARGMANN,
    _TO_BARGMANN,
    _expm,
    bargmann_coords,
    characteristic_flow,
    evolve_optical,
    frame_coords,
    reduce_evolution_equation,
    solve_characteristics,
)

X_GRID = UniformGrid(-12.0, 12.0, 241)
THETA = angle_grid(96)


def symbolic_advection_coefficients(alpha, beta):
    """Independent symbolic reduction of the evolution equation.

    Expands V(A-) - V(A+) with the commuting symbol arguments
    A_mp = -(dX)^{-1} dmu -+ i (nu/2) dX for V(q) = alpha q + beta q^2,
    multiplies by -i, and reads off the coefficients of dX and dmu.
    """
    dX, dmu, nu = sp.symbols("dX dmu nu")
    a_minus = -dmu / dX - sp.I * nu / 2 * dX
    a_plus = -dmu / dX + sp.I * nu / 2 * dX
    v = lambda q: alpha * q + beta * q**2
    advection = sp.expand(-sp.I * (v(a_minus) - v(a_plus)))
    c_x = sp.simplify(advection.coeff(dX, 1))
    c_mu = sp.simplify(advection.coeff(dmu, 1))
    remainder = sp.simplify(advection - c_x * dX - c_mu * dmu)
    assert remainder == 0
    return c_x, c_mu


@pytest.mark.parametrize("alpha,beta", [(0, 0), (0, sp.Rational(1, 2)), (1, 0), (1, sp.Rational(3, 10))])
def test_reduction_matches_symbolic_oracle(alpha, beta):
    pde = reduce_evolution_equation(Potential(float(alpha), float(beta)))
    nu = sp.Symbol("nu")
    c_x, c_mu = symbolic_advection_coefficients(alpha, beta)
    got_cx = sum(c * nu**p_nu for (p_mu, p_nu), c in pde.c_x.items() if p_mu == 0)
    got_cmu = sum(c * nu**p_nu for (p_mu, p_nu), c in pde.c_mu.items() if p_mu == 0)
    assert sp.simplify(got_cx - c_x) == 0
    assert sp.simplify(got_cmu - c_mu) == 0
    assert pde.c_nu == {(1, 0): -1.0}


def test_reduction_rejects_cubic_potential():
    with pytest.raises(UnsupportedPotentialError):
        reduce_evolution_equation([0.0, 0.0, 0.0, 1.0])


def test_characteristic_flow_free_equals_pullback_matrix():
    pde = reduce_evolution_equation(FREE)
    t = 0.8
    flow = characteristic_flow(pde, t)
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, t, 1.0]])
    assert np.abs(flow - expected).max() < 1e-12


def test_characteristic_flow_oscillator_is_rotation():
    pde = reduce_evolution_equation(OSCILLATOR)
    t = 1.1
    flow = characteristic_flow(pde, t)
    c, s = np.cos(t), np.sin(t)
    expected = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    assert np.abs(flow - expected).max() < 1e-12


def test_bargmann_basis_gives_same_flow():
    for potential in (FREE, OSCILLATOR, Potential(1.0, 0.3)):
        pde = reduce_evolution_equation(potential)
        frame = characteristic_flow(pde, 0.9, basis="frame")
        barg = characteristic_flow(pde, 0.9, basis="bargmann")
        assert np.abs(frame - barg).max() < 1e-12


def test_solve_characteristics_matches_pullback():
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    tomo = tomogram_from_wavefunction(psi, X_GRID, THETA)
    for potential, t in ((FREE, 0.7), (OSCILLATOR, 1.2)):
        pde = reduce_evolution_equation(potential)
        via_pde = solve_characteristics(pde, tomo, t)
        via_pullback = evolve_pullback(tomo, potential, t)
        assert np.abs(via_pde.values - via_pullback.values).max() < 1e-10


def flow_generators(alpha, beta, t):
    """-t A in the frame basis and in the Bargmann basis, as characteristic_flow forms them."""
    a = reduce_evolution_equation(Potential(alpha, beta)).advection_matrix()
    return -t * a, -t * (_TO_BARGMANN @ a @ _FROM_BARGMANN)


def assert_expm_exact(alpha, beta, t, rel):
    # the oracle is 40-digit mpmath: scipy's Pade expm is itself off by up to
    # ~4e-13 on these generators, too coarse to check a 1e-14 claim
    import mpmath

    with mpmath.workdps(40):
        for m in flow_generators(alpha, beta, t):
            want = np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=complex)
            assert np.abs(_expm(m) - want).max() <= rel * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-2, 2, allow_nan=False),
    beta=st.floats(-0.25, 0.5, allow_nan=False),
    t=st.floats(-3, 3, allow_nan=False),
)
def test_expm_matches_exact_exponential_in_both_bases(alpha, beta, t):
    # worst seen on a 31 x 25 x 9 (beta, t, alpha) lattice with corners: 4.9e-15
    assert_expm_exact(alpha, beta, t, 1e-14)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-2, 2, allow_nan=False),
    beta=st.floats(-0.5, 0.5, allow_nan=False),
    t=st.floats(-7, 7, allow_nan=False),
)
def test_expm_matches_exact_exponential_over_long_times(alpha, beta, t):
    # more squarings at |t| up to 7; worst seen on a 21 x 29 x 9 lattice: 1.6e-14
    assert_expm_exact(alpha, beta, t, 2e-14)


@settings(max_examples=50, deadline=None)
@given(mu=st.floats(-5, 5, allow_nan=False), nu=st.floats(-5, 5, allow_nan=False))
def test_bargmann_roundtrip(mu, nu):
    point = bargmann_coords(mu, nu)
    assert point.z == complex(mu, nu)
    back = frame_coords(point)
    assert back[0] == pytest.approx(mu, abs=1e-12)
    assert back[1] == pytest.approx(nu, abs=1e-12)


def test_frame_coords_rejects_nonconjugate():
    from tomoprop.transport import BargmannPoint

    with pytest.raises(InvalidInputError):
        frame_coords(BargmannPoint(z=1 + 2j, zbar=1 + 2j))


def test_evolve_optical_rotation():
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    tomo = tomogram_from_wavefunction(psi, X_GRID, THETA)
    phi, t = 0.3, 0.9
    rows = evolve_optical(tomo, OSCILLATOR, t, np.array([phi]))
    rotated = optical_slice(tomo, phi + t)
    assert rows.shape == (1, X_GRID.count)
    assert np.abs(rows[0] - rotated).max() < 1e-6
