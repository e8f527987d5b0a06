"""Evolution-equation route.

For potentials of degree <= 2 the tomographic evolution equation reduces
to a first-order transport PDE in (X, mu, nu); the reduction is done by an
explicit symbolic expansion in commuting operator symbols, and the solve
is by characteristics (a linear flow, integrated in closed form through a
matrix exponential).  Bargmann variables z = mu + i nu give the optical
slice as the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedPotentialError
from .greens import Potential
from .tomography import Tomogram, optical_slice


# --- symbolic reduction ------------------------------------------------------
#
# Monomials are keyed (p_dX, p_dmu, p_nu): powers of d/dX (negative allowed,
# standing for the inverse symbol), d/dmu, and the multiplier nu.  All three
# commute inside the potential-operator argument.


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0.0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def _poly_add(p: dict, q: dict, scale=1.0) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + scale * v
    return {k: v for k, v in out.items() if v != 0}


def _poly_pow(p: dict, n: int) -> dict:
    out = {(0, 0, 0): 1.0}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


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
            for (p_mu, p_nu), c in coeffs.items():
                if (p_mu, p_nu) == (1, 0):
                    a[target, 1] += c
                elif (p_mu, p_nu) == (0, 1):
                    a[target, 2] += c
                elif c != 0:
                    raise UnsupportedPotentialError(
                        "characteristic flow is closed-form only for linear coefficients"
                    )
        return a


def reduce_evolution_equation(potential) -> TransportPDE:
    """Reduce the tomographic evolution equation to its transport form.

    Accepts a Potential or a polynomial coefficient sequence [c0, c1, c2]
    for U(x) = sum c_j x^j.  The reduction expands the difference of the
    potential operator at the two commuting symbol arguments
    -(d/dX)^{-1} d/dmu -+ i (nu/2) d/dX and collects first-order terms;
    degree > 2 would leave a genuinely pseudo-differential operator and is
    rejected.
    """
    coeffs = _potential_coefficients(potential)
    if len(coeffs) > 3 and any(c != 0 for c in coeffs[3:]):
        raise UnsupportedPotentialError(
            "evolution-equation reduction supports polynomial potentials of degree <= 2"
        )
    base = {(-1, 1, 0): -1.0}  # -(d/dX)^{-1} d/dmu
    half_nu_dx = {(1, 0, 1): 0.5}  # (nu/2) d/dX
    arg_minus = _poly_add(base, half_nu_dx, scale=-1j)
    arg_plus = _poly_add(base, half_nu_dx, scale=+1j)
    diff: dict = {}
    for degree, c in enumerate(coeffs[:3]):
        if c == 0:
            continue
        diff = _poly_add(
            diff, _poly_add(_poly_pow(arg_minus, degree), _poly_pow(arg_plus, degree), -1.0), c
        )
    # equation: d_t w - mu d_nu w - i * diff(w) = 0; move everything to
    # advection form d_t w + c_X d_X + c_mu d_mu + c_nu d_nu = 0.
    c_x: dict = {}
    c_mu: dict = {}
    for (p_dx, p_dmu, p_nu), v in diff.items():
        coeff = -1j * v
        if abs(coeff.imag) > 1e-14:
            raise UnsupportedPotentialError("reduction produced a non-real advection term")
        coeff = coeff.real
        if (p_dx, p_dmu) == (1, 0):
            c_x[(0, p_nu)] = c_x.get((0, p_nu), 0.0) + coeff
        elif (p_dx, p_dmu) == (0, 1):
            c_mu[(0, p_nu)] = c_mu.get((0, p_nu), 0.0) + coeff
        else:
            raise UnsupportedPotentialError(
                f"reduction left a higher-order operator term {(p_dx, p_dmu, p_nu)}"
            )
    c_nu = {(1, 0): -1.0}
    return TransportPDE(c_x=c_x, c_mu=c_mu, c_nu=c_nu)


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
