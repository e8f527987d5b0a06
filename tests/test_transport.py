import importlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import tomoprop
from tomoprop.errors import UnsupportedPotentialError
from tomoprop.greens import FREE, OSCILLATOR, GreenFunction, Potential
from tomoprop.grids import UniformGrid
from tomoprop.propagator import evolve_pullback
from tomoprop.states import GaussianPacket, evolve_wavefunction, make_state
from tomoprop.tomography import optical_slice, tomogram_from_wavefunction
from tomoprop.transport import (
    _expm,
    characteristic_flow,
    reduce_evolution_equation,
    solve_characteristics,
)

X_GRID = UniformGrid(-12.0, 12.0, 241)
THETA_COUNT = 96


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


def test_solve_characteristics_matches_pullback():
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    tomo = tomogram_from_wavefunction(psi, X_GRID, THETA_COUNT)
    for potential, t in ((FREE, 0.7), (OSCILLATOR, 1.2)):
        pde = reduce_evolution_equation(potential)
        via_pde = solve_characteristics(pde, tomo, t)
        via_pullback = evolve_pullback(tomo, potential, t)
        assert np.abs(via_pde.values - via_pullback.values).max() < 1e-10


def flow_generator(alpha, beta, t):
    """-t A, as characteristic_flow forms it."""
    return -t * reduce_evolution_equation(Potential(alpha, beta)).advection_matrix()


def assert_expm_exact(alpha, beta, t, rel):
    # the oracle is 40-digit mpmath: scipy's Pade expm is itself off by up to
    # ~4e-13 on these generators, too coarse to check a 1e-14 claim
    import mpmath

    m = flow_generator(alpha, beta, t)
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=float)
    assert np.abs(_expm(m) - want).max() <= rel * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-2, 2, allow_nan=False),
    beta=st.floats(-0.25, 0.5, allow_nan=False),
    t=st.floats(-3, 3, allow_nan=False),
)
def test_expm_matches_exact_exponential(alpha, beta, t):
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


def test_evolve_optical_rotation():
    psi = make_state(GaussianPacket(1.0, 0.5, 1.0))
    tomo = tomogram_from_wavefunction(psi, X_GRID, THETA_COUNT)
    phi, t = 0.3, 0.9
    evolved = solve_characteristics(reduce_evolution_equation(OSCILLATOR), tomo, t)
    row = optical_slice(evolved, phi)
    rotated = optical_slice(tomo, phi + t)
    assert row.shape == (X_GRID.count,)
    assert np.abs(row - rotated).max() < 1e-6


@pytest.mark.parametrize(
    "module,name",
    [
        ("transport", "BargmannPoint"),
        ("transport", "bargmann_coords"),
        ("transport", "frame_coords"),
        ("transport", "evolve_optical"),
        ("transport", "_TO_BARGMANN"),
        ("transport", "_FROM_BARGMANN"),
        ("io", "write_optical"),
        ("propagator", "kernel_with_offset"),
        ("grids", "damped_integral_2d"),
    ],
)
def test_retired_name_is_gone(module, name):
    assert not hasattr(tomoprop, name)
    assert not hasattr(importlib.import_module(f"tomoprop.{module}"), name)


@pytest.mark.parametrize(
    "call",
    [
        lambda: characteristic_flow(reduce_evolution_equation(OSCILLATOR), 0.9, basis="frame"),
        lambda: evolve_wavefunction(
            make_state("ho_ground"), GreenFunction.oscillator(), np.pi, parity_at_caustics=True
        ),
    ],
    ids=["characteristic_flow-basis", "evolve_wavefunction-parity_at_caustics"],
)
def test_retired_keyword_is_refused(call):
    with pytest.raises(TypeError):
        call()
