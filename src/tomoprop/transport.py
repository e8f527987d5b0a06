"""Evolution-equation route.

For potentials of degree <= 2 the tomographic evolution equation reduces
to a first-order transport PDE in (X, mu, nu) with closed-form
coefficients, and the solve is by characteristics (a linear flow,
integrated through a matrix exponential).  Bargmann variables
z = mu + i nu give the optical slice as the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedPotentialError
from .greens import Potential
from .tomography import Tomogram, optical_slice


# --- reduction ---------------------------------------------------------------


def _potential_coefficients(potential) -> list[float]:
    if isinstance(potential, Potential):
        return [0.0, potential.alpha, potential.beta]
    coeffs = [float(c) for c in potential]
    return coeffs


@dataclass(frozen=True)
class TransportPDE:
    """Advection form d_t w + c_X d_X w + c_mu d_mu w + c_nu d_nu w = 0.

    Coefficients are polynomials in (mu, nu), stored as {(p_mu, p_nu):
    coefficient}; for the in-scope potential class they are linear and
    independent of X and t.
    """

    c_x: dict
    c_mu: dict
    c_nu: dict

    def advection_matrix(self) -> np.ndarray:
        """Matrix A with d/ds (X, mu, nu) = A (X, mu, nu) along characteristics."""
        a = np.zeros((3, 3))
        for target, coeffs in ((0, self.c_x), (1, self.c_mu), (2, self.c_nu)):
            # linear coefficients: key (1, 0) multiplies mu, (0, 1) multiplies nu
            for (_, p_nu), c in coeffs.items():
                a[target, 1 + p_nu] += c
        return a


def reduce_evolution_equation(potential) -> TransportPDE:
    """Reduce the tomographic evolution equation to its transport form.

    Accepts a Potential or a polynomial coefficient sequence [c0, c1, c2]
    for U(x) = sum c_j x^j.  The potential enters as -i [U(A-) - U(A+)]
    with the commuting symbol arguments A-+ = -(d/dX)^{-1} d/dmu -+
    i (nu/2) d/dX.  Since A- - A+ = -i nu d/dX and A- + A+ = -2 (d/dX)^{-1}
    d/dmu, alpha x + beta x^2 leaves the first-order terms c_X = -alpha nu
    and c_mu = 2 beta nu, next to c_nu = -mu from the kinetic term; degree
    > 2 would leave a genuinely pseudo-differential operator and is
    rejected.
    """
    _, alpha, beta, *higher = _potential_coefficients(potential) + [0.0, 0.0, 0.0]
    if any(higher):
        raise UnsupportedPotentialError(
            "evolution-equation reduction supports polynomial potentials of degree <= 2"
        )
    return TransportPDE(
        c_x={(0, 1): -alpha} if alpha else {},
        c_mu={(0, 1): 2.0 * beta} if beta else {},
        c_nu={(1, 0): -1.0},
    )


# --- characteristics ---------------------------------------------------------

_TO_BARGMANN = np.array(
    [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0j], [0.0, 1.0, -1.0j]], dtype=complex
)
_FROM_BARGMANN = np.linalg.inv(_TO_BARGMANN)


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a small real or complex matrix.

    Scaling and squaring: m / 2^s has 1-norm at most 1/2, where the Taylor
    series to degree 18 is exact to rounding (2^-19 / 19! ~ 1e-23), then
    the result is squared s times.
    """
    norm = np.abs(m).sum(axis=0).max()
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0 else 0
    a = m / 2.0**squarings
    term = np.eye(m.shape[0], dtype=a.dtype)
    out = term.copy()
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def characteristic_flow(pde: TransportPDE, t: float, *, basis: str = "frame") -> np.ndarray:
    """Backward characteristic map: initial point = matrix @ (X, mu, nu).

    basis "frame" works directly in (X, mu, nu); basis "bargmann" conjugates
    the same flow through z = mu + i nu and maps back, which is a pure
    change of variables.
    """
    a = pde.advection_matrix()
    if basis == "frame":
        return _expm(-t * a)
    if basis == "bargmann":
        ab = _TO_BARGMANN @ a @ _FROM_BARGMANN
        m = _FROM_BARGMANN @ _expm(-t * ab) @ _TO_BARGMANN
        if np.abs(m.imag).max() > 1e-12:
            raise InvalidInputError("Bargmann flow failed to map back to a real flow")
        return m.real
    raise InvalidInputError(f"unknown characteristics basis {basis!r}")


def solve_characteristics(
    pde: TransportPDE, tomo: Tomogram, t: float, *, basis: str = "frame"
) -> Tomogram:
    """Advect the tomogram along characteristics for a duration t.

    Each output point takes the initial value at the foot of its backward
    characteristic; the foot is evaluated through the homogeneity-aware
    Tomogram.evaluate, and the flow map composes exactly with previous
    pullbacks.
    """
    return tomo.with_frame_map(characteristic_flow(pde, t, basis=basis))


# --- Bargmann variables ------------------------------------------------------


@dataclass(frozen=True)
class BargmannPoint:
    """Conjugate pair z = mu + i nu, zbar = mu - i nu."""

    z: complex
    zbar: complex


def bargmann_coords(mu: float, nu: float) -> BargmannPoint:
    return BargmannPoint(z=complex(mu, nu), zbar=complex(mu, -nu))


def frame_coords(point: BargmannPoint) -> tuple[float, float]:
    """Inverse map mu = (z + zbar)/2, nu = (z - zbar)/(2i); rejects
    non-conjugate pairs."""
    if abs(point.zbar - np.conj(point.z)) > 1e-12:
        raise InvalidInputError("zbar must be the complex conjugate of z")
    mu = 0.5 * (point.z + point.zbar)
    nu = (point.z - point.zbar) / 2j
    return float(mu.real), float(nu.real)


def evolve_optical(
    tomo: Tomogram, potential, t: float, phi_values: np.ndarray
) -> np.ndarray:
    """Optical tomogram w(X, phi, t) after transport evolution.

    Returns an array of shape (len(phi_values), n_X) sampled on the stored
    X grid; each row is the optical slice at local-oscillator phase phi.
    """
    pde = reduce_evolution_equation(potential)
    evolved = solve_characteristics(pde, tomo, t)
    return np.stack([optical_slice(evolved, float(phi)) for phi in np.atleast_1d(phi_values)])
