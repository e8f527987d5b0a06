import numpy as np
import pytest

from tomoprop import blas, propagator
from tomoprop.greens import GreenFunction
from tomoprop.grids import UniformGrid
from tomoprop.states import GaussianPacket, make_state
from tomoprop.tomography import tomogram_from_wavefunction

openblas = pytest.mark.skipif(blas._OPENBLAS is None, reason="numpy does not use OpenBLAS here")


def blas_threads() -> int:
    return blas._OPENBLAS[1]()


@openblas
def test_one_blas_thread_pins_and_restores_the_count():
    before = blas_threads()
    with blas.one_blas_thread():
        assert blas_threads() == 1
        with blas.one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == before


@openblas
def test_one_blas_thread_restores_the_count_when_the_body_raises():
    before = blas_threads()
    with pytest.raises(RuntimeError):
        with blas.one_blas_thread():
            raise RuntimeError("body failed")
    assert blas_threads() == before


def test_one_blas_thread_does_nothing_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "_OPENBLAS", None)
    with blas.one_blas_thread():
        assert np.linalg.eigh(np.eye(30))[0].sum() == pytest.approx(30.0)


@openblas
def test_green_route_runs_its_algebra_on_one_blas_thread(monkeypatch):
    # the eigendecomposition on the route's 36-point grid is the call that
    # OpenBLAS would otherwise hand to a worker thread
    seen = []
    spectral = propagator.spectral_components

    def recording(rho):
        seen.append((blas_threads(), rho.grid.count))
        return spectral(rho)

    monkeypatch.setattr(propagator, "spectral_components", recording)
    tomo = tomogram_from_wavefunction(make_state(GaussianPacket(1.0, 0.5, 1.0)), UniformGrid(-12.0, 12.0, 241), 96)
    before = blas_threads()
    propagator.evolve_via_green(tomo, GreenFunction.oscillator(), 0.7)
    assert [threads for threads, _ in seen] == [1]
    assert seen[0][1] >= 26
    assert blas_threads() == before
