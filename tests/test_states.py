import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoprop.errors import CausticError, InvalidInputError, UnsupportedStateError
from tomoprop.greens import GreenFunction
from tomoprop.grids import UniformGrid, integrate_samples
from tomoprop.states import (
    DEFAULT_POSITION_GRID,
    GaussianPacket,
    HarmonicEigenstate,
    Superposition,
    WaveFunction,
    density_from_wavefunction,
    evolve_wavefunction,
    hermite_functions,
    make_state,
    parse_state_spec,
    state_spec_to_dict,
)


def test_parse_presets():
    assert parse_state_spec("ho_ground") == HarmonicEigenstate(0)
    assert parse_state_spec("ho:3") == HarmonicEigenstate(3)
    assert parse_state_spec("gaussian:1,0.5,2") == GaussianPacket(1.0, 0.5, 2.0)
    spec = parse_state_spec("super:0.6*ho:0+0.8*ho:2")
    assert isinstance(spec, Superposition)
    assert spec.terms[1] == (0.8, HarmonicEigenstate(2))


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInputError):
        parse_state_spec("squeezed:1")
    with pytest.raises(InvalidInputError):
        parse_state_spec("gaussian:1,2")


def test_spec_roundtrip_to_dict():
    d = state_spec_to_dict(parse_state_spec("super:0.6*ho:0+0.8*gaussian:0,0,1"))
    assert d["kind"] == "superposition" and len(d["terms"]) == 2


def test_hermite_functions_orthonormal():
    g = UniformGrid(-10.0, 10.0, 1001)
    h = hermite_functions(6, g.points)
    gram = h @ h.T * g.step
    assert np.abs(gram - np.eye(7)).max() < 1e-8


def test_hermite_index_cap():
    with pytest.raises(UnsupportedStateError):
        hermite_functions(64, np.linspace(-1, 1, 16))


@settings(max_examples=20, deadline=None)
@given(
    x0=st.floats(-2, 2),
    p0=st.floats(-2, 2),
    sigma=st.floats(0.5, 2),
)
def test_presets_have_unit_norm(x0, p0, sigma):
    psi = make_state(GaussianPacket(x0, p0, sigma))
    assert psi.norm() == pytest.approx(1.0, abs=1e-10)


def test_superposition_normalized():
    psi = make_state("super:1*ho:0+1*ho:1")
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    # orthogonal components contribute quadratically
    h = hermite_functions(1, psi.grid.points)
    c0 = integrate_samples(psi.values * h[0], psi.grid.step)
    assert abs(c0) == pytest.approx(np.sqrt(0.5), abs=1e-8)


def test_density_projector_properties():
    psi = make_state("ho:1")
    rho = density_from_wavefunction(psi)
    rho.validate()
    # purity: tr rho^2 = 1 for a projector
    w = psi.grid.step
    purity = np.sum(np.abs(rho.values) ** 2) * w * w
    assert purity == pytest.approx(1.0, abs=1e-8)


def test_evolve_free_gaussian_against_closed_form():
    # free spreading of a unit Gaussian has |psi_t|^2 with width sqrt(1+t^2)
    psi = make_state(GaussianPacket(0.0, 0.0, 1.0))
    t = 0.8
    out = evolve_wavefunction(psi, GreenFunction.free(), t)
    x = psi.grid.points
    width2 = 1.0 + t * t
    expected = np.exp(-(x**2) / width2) / np.sqrt(np.pi * width2)
    assert np.abs(np.abs(out.values) ** 2 - expected).max() < 1e-8


def test_evolve_oscillator_eigenstate_stationary():
    psi = make_state("ho:2")
    out = evolve_wavefunction(psi, GreenFunction.oscillator(), 0.9)
    # eigenstate picks up a pure phase exp(-i E t), E = n + 1/2
    phase = np.exp(-1j * 2.5 * 0.9)
    assert np.abs(out.values - phase * psi.values).max() < 1e-6


def test_evolve_caustic_raises():
    psi = make_state(GaussianPacket(1.0, 0.0, 1.0))
    with pytest.raises(CausticError):
        evolve_wavefunction(psi, GreenFunction.oscillator(), np.pi)


def test_evolve_zero_time_is_identity():
    psi = make_state("ho_ground")
    out = evolve_wavefunction(psi, GreenFunction.free(), 0.0)
    assert np.array_equal(out.values, psi.values)


def test_normalized_rejects_zero_function():
    with pytest.raises(InvalidInputError):
        WaveFunction.normalized(DEFAULT_POSITION_GRID, np.zeros(512))


def test_parse_superposition_with_exponent_coefficients():
    spec = parse_state_spec("super:1e+2*ho:0+1*ho:1")
    assert spec.terms == ((100.0, HarmonicEigenstate(0)), (1.0, HarmonicEigenstate(1)))
    spec = parse_state_spec("super:2.5E-1*gaussian:1e+0,0,1+1.*ho_ground")
    assert spec.terms == ((0.25, GaussianPacket(1.0, 0.0, 1.0)), (1.0, HarmonicEigenstate(0)))


@pytest.mark.parametrize(
    "text", ["ho:abc", "ho:1.5", "gaussian:1,x,1", "super:a*ho:0+1*ho:1", "super:1*ho:z"]
)
def test_parse_malformed_numbers_raise_invalid_input(text):
    with pytest.raises(InvalidInputError):
        parse_state_spec(text)
