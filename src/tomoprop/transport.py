"""Evolution-equation route.

For potentials of degree <= 2 the tomographic evolution equation reduces
to a first-order transport PDE in (X, mu, nu) with closed-form
coefficients, and the solve is by characteristics (a linear flow,
integrated through a matrix exponential).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedPotentialError
from .greens import Potential
from .tomography import Tomogram


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


def characteristic_flow(pde: TransportPDE, t: float) -> np.ndarray:
    """Backward characteristic map: initial point = matrix @ (X, mu, nu)."""
    return _expm(-t * pde.advection_matrix())


def solve_characteristics(pde: TransportPDE, tomo: Tomogram, t: float) -> Tomogram:
    """Advect the tomogram along characteristics for a duration t.

    Each output point takes the initial value at the foot of its backward
    characteristic; the foot is evaluated through the homogeneity-aware
    Tomogram.evaluate, and the flow map composes exactly with previous
    pullbacks.
    """
    return tomo.with_frame_map(characteristic_flow(pde, t))
