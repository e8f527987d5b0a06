"""Quantum propagators for quadratic potentials.

One kernel for the whole quadratic class, built from the classical
phase-space flow (the van Vleck form, exact here), and the sliced path
integral evaluated by exact Gaussian marginalization.  Natural units
hbar = m = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CausticError,
    InvalidInputError,
    NumericalDomainError,
    SingularTimeError,
    UnsupportedPotentialError,
)

CAUSTIC_THRESHOLD = 1e-6


@dataclass(frozen=True)
class Potential:
    """Quadratic potential U(x) = alpha*x + beta*x^2."""

    alpha: float = 0.0
    beta: float = 0.0

    def __call__(self, x):
        return self.alpha * x + self.beta * np.square(x)


FREE = Potential(0.0, 0.0)
OSCILLATOR = Potential(0.0, 0.5)


def classical_flow(potential: Potential, t):
    """Phase-space flow (x, p)(t) = m @ (x, p)(0) + c of H = p^2/2 + U(x).

    With w = sqrt(2 beta) (imaginary for beta < 0, where cos and sin turn
    into cosh and sinh), m = [[cos wt, sin(wt)/w], [-2 beta sin(wt)/w,
    cos wt]] and c = -alpha (2 sin^2(wt/2)/w^2, sin(wt)/w); beta = 0 takes
    the w -> 0 limits.  Broadcasts over t: m has shape (2, 2) + shape(t) and
    c has shape (2,) + shape(t).
    """
    t = np.asarray(t, dtype=float)
    alpha, beta = potential.alpha, potential.beta
    if beta == 0.0:
        cos_wt, sin_w, half_sin_w = np.ones_like(t), t, 0.5 * t
    else:
        w = np.sqrt(abs(2.0 * beta))
        cos, sin = (np.cos, np.sin) if beta > 0 else (np.cosh, np.sinh)
        cos_wt, sin_w, half_sin_w = cos(w * t), sin(w * t) / w, sin(0.5 * w * t) / w
    m = np.array([[cos_wt, sin_w], [-2.0 * beta * sin_w, cos_wt]])
    c = -alpha * np.array([2.0 * half_sin_w**2, sin_w])
    return m, c


def _origin_action(potential: Potential, t: float, m01: float, c0: float) -> float:
    """Classical action S(0, 0, t) = -(c0^2 / m01 - alpha^2 J) / 2 from the flow.

    J = (t - m01) / w^2 with w^2 = 2 beta, which cancels as w t -> 0, so
    where |2 beta t^2| < 1 it is summed as t^3 sum_n (-2 beta t^2)^n / (2n + 3)!
    (ten terms reach rounding).
    """
    beta = potential.beta
    ratio = -2.0 * beta * t * t
    if abs(ratio) >= 1.0:
        j = (t - m01) / (2.0 * beta)
    else:
        term, j = t**3 / 6.0, 0.0
        for n in range(10):
            j += term
            term *= ratio / ((2 * n + 4) * (2 * n + 5))
    return -0.5 * (c0**2 / m01 - potential.alpha**2 * j)


def _sliced_coefficients(potential: Potential, t: float, slices: int):
    """N-slice path-integral kernel amp * exp(i(a x^2 + b x y + c y^2 + d x + e y)).

    Each slice contributes (2 pi i dt)^{-1/2} exp{i[(x_n - x_{n-1})^2/(2 dt)
    - U(x_n) dt]}; the intermediate integrals are Gaussian and are folded
    in sequentially, so the result is exact for the free particle at any N
    and carries an O(dt) discretization error from the potential term
    otherwise.
    """
    if not isinstance(potential, Potential):
        raise UnsupportedPotentialError("sliced propagator supports quadratic potentials only")
    if t <= 0:
        raise InvalidInputError("sliced propagator requires t > 0")
    if slices < 1:
        raise InvalidInputError("need at least one slice")
    dt = t / slices
    if dt >= 0.5:
        raise InvalidInputError(f"slice width {dt} exceeds stability bound 0.5")
    alpha, beta = potential.alpha, potential.beta
    a1 = 0.5 / dt - beta * dt
    b1 = -1.0 / dt
    c1 = 0.5 / dt
    d1 = -alpha * dt
    amp_slice = 1.0 / np.sqrt(2.0 * np.pi * 1j * dt)
    amp, a, b, c, d, e = amp_slice, a1, b1, c1, d1, 0.0
    for _ in range(slices - 1):
        big_a = c1 + a
        if abs(big_a) < 1e-14:
            raise NumericalDomainError("degenerate Gaussian marginalization in sliced kernel")
        amp = (
            amp
            * amp_slice
            * np.sqrt(np.pi / abs(big_a))
            * np.exp(1j * np.sign(big_a) * np.pi / 4.0)
            * np.exp(-1j * d**2 / (4.0 * big_a))
        )
        a_new = a1 - b1**2 / (4.0 * big_a)
        b_new = -b1 * b / (2.0 * big_a)
        c_new = c - b**2 / (4.0 * big_a)
        d_new = d1 - b1 * d / (2.0 * big_a)
        e_new = e - b * d / (2.0 * big_a)
        a, b, c, d, e = a_new, b_new, c_new, d_new, e_new
    return amp, a, b, c, d, e


@dataclass(frozen=True)
class GreenFunction:
    """Evaluatable propagator descriptor G(x, y, t).

    kind is one of "free", "oscillator", "van-fleck", "sliced"; the last
    two carry the Potential (and a slice count for "sliced").  The first
    three are one kernel, built from the classical flow of FREE, OSCILLATOR
    or the carried potential; "sliced" folds the N-slice path integral.
    """

    kind: str
    potential: Potential | None = None
    slices: int | None = None

    @classmethod
    def free(cls) -> "GreenFunction":
        return cls("free")

    @classmethod
    def oscillator(cls) -> "GreenFunction":
        return cls("oscillator")

    @classmethod
    def van_fleck(cls, potential: Potential) -> "GreenFunction":
        return cls("van-fleck", potential=potential)

    @classmethod
    def sliced(cls, potential: Potential, slices: int) -> "GreenFunction":
        return cls("sliced", potential=potential, slices=slices)

    @classmethod
    def for_potential(cls, potential: Potential) -> "GreenFunction":
        """The flow kernel of `potential`, exact for the quadratic class."""
        return cls.van_fleck(potential)

    def check_time(self, t: float) -> None:
        """Reject times where this kernel is singular or undefined.

        Every kind's amplitude grows like |t|^{-1/2} and its phase like 1/t,
        so |t| <= CAUSTIC_THRESHOLD is refused as singular for all of them.
        Where |m01(t)| <= CAUSTIC_THRESHOLD the kernel is a delta limit, a
        caustic.  Negative times are the inverse evolution, except for the
        sliced kind, which needs t > 0.
        """
        if abs(t) <= CAUSTIC_THRESHOLD:
            raise SingularTimeError(f"{self.kind} kernel singular at t={t} (|t| <= {CAUSTIC_THRESHOLD})")
        if self.kind == "sliced" and t < 0:
            raise InvalidInputError("sliced kernel requires t > 0")
        m01 = self.flow(t)[0][0, 1]
        if abs(m01) <= CAUSTIC_THRESHOLD:
            raise CausticError(f"{self.kind} kernel undefined at t={t} (|m01| = {abs(m01):.3g} <= {CAUSTIC_THRESHOLD})")

    def __call__(self, x, y, t: float):
        amp, a, b, c, d, e = self.quadratic_form(t)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return amp * np.exp(1j * (a * x**2 + b * x * y + c * y**2 + d * x + e * y))

    def _flow_potential(self) -> Potential:
        if self.kind not in ("free", "oscillator", "van-fleck", "sliced"):
            raise InvalidInputError(f"unknown Green-function kind {self.kind!r}")
        return {"free": FREE, "oscillator": OSCILLATOR}.get(self.kind, self.potential)

    def flow(self, t):
        """classical_flow(potential, t) of this kernel's potential: (m, c)."""
        return classical_flow(self._flow_potential(), t)

    def quadratic_form(self, t: float):
        """(amp, A, B, C, D, E) with G(x, y, t) = amp exp(i(A x^2 + B x y + C y^2 + D x + E y)).

        The sliced kind folds its slices in _sliced_coefficients.  Every
        other kind is the exact kernel of its potential, read off the flow
        (m, c) = classical_flow(potential, t).  Its phase is the classical
        action S(x, y, t): dS/dy = -p0 and dS/dx = p(t) with p0 = (x - m00 y
        - c0) / m01 give A = m11/(2 m01), B = -1/m01, C = m00/(2 m01),
        E = c0/m01 and D = c1 - m11 E, and the amplitude carries the
        constant part S(0, 0, t) (`_origin_action`).  The amplitude is
        exp(-i sgn(t) (pi/4 + pi n/2)) / sqrt(2 pi |m01|), where the Maslov
        index n counts the zeros of m01 strictly between 0 and t:
        floor(w |t| / pi) with w = sqrt(2 beta) for beta > 0, none otherwise.
        """
        self.check_time(t)
        if self.kind == "sliced":
            return _sliced_coefficients(self.potential, t, self.slices)
        pot = self._flow_potential()
        m, (c0, c1) = classical_flow(pot, t)
        (m00, m01), (_, m11) = m
        maslov = np.floor(np.sqrt(2.0 * pot.beta) * abs(t) / np.pi) if pot.beta > 0 else 0.0
        phase = _origin_action(pot, t, m01, c0) - np.sign(t) * np.pi * (0.25 + 0.5 * maslov)
        amp = np.exp(1j * phase) / np.sqrt(2.0 * np.pi * abs(m01))
        e = c0 / m01
        return complex(amp), m11 / (2.0 * m01), -1.0 / m01, m00 / (2.0 * m01), c1 - m11 * e, e

    def phase_rate_bound(self, xmax: float, ymax: float, t: float) -> float:
        """Upper bound on |d(phase)/dy| over |x| <= xmax, |y| <= ymax.

        The phase is the classical action, and -dS/dy is the initial momentum
        of the path from y to x, p0 = (x - m00 y - c0) / m01 under the flow
        (m, c) = classical_flow(potential, t).  It is linear in (x, y), so its
        largest modulus sits at a corner of the domain.  Used to pick the
        quadrature resolution when the kernel multiplies a sampled wavefunction.
        """
        m, c = self.flow(t)
        corners = max(abs(x - m[0, 0] * y - c[0]) for x in (-xmax, xmax) for y in (-ymax, ymax))
        return float(corners / abs(m[0, 1]))
