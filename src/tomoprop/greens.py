"""Quantum propagators for quadratic potentials.

Closed forms for free motion and the unit oscillator, the sliced path
integral evaluated by exact Gaussian marginalization, the classical
phase-space flow with the boundary-value solver built on it, and the van
Vleck quasiclassical kernel built from the classical action.  Natural
units hbar = m = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CausticError,
    DegenerateBVPError,
    InvalidInputError,
    NumericalDomainError,
    SingularTimeError,
    UnsupportedPotentialError,
)

CAUSTIC_THRESHOLD = 1e-6
_SQRT_I_INV = np.exp(-0.25j * np.pi)  # branch fixed by the t -> 0+ limit


@dataclass(frozen=True)
class Potential:
    """Quadratic potential U(x) = alpha*x + beta*x^2."""

    alpha: float = 0.0
    beta: float = 0.0

    def __call__(self, x):
        return self.alpha * x + self.beta * np.square(x)

    def gradient(self, x):
        return self.alpha + 2.0 * self.beta * x

    @property
    def is_free(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0

    @property
    def is_unit_oscillator(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.5


FREE = Potential(0.0, 0.0)
OSCILLATOR = Potential(0.0, 0.5)


def green_free(x, y, t):
    """Free-particle kernel (2 pi i t)^{-1/2} exp(i (x-y)^2 / 2t)."""
    if np.any(t == 0):
        raise SingularTimeError("free-particle kernel is singular at t = 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref = 1.0 / np.sqrt(2.0 * np.pi * 1j * t)
    return pref * np.exp(0.5j * (x - y) ** 2 / t)


def green_oscillator(x, y, t):
    """Unit-frequency oscillator kernel away from caustics sin t = 0."""
    st = np.sin(t)
    if np.any(np.abs(st) <= CAUSTIC_THRESHOLD):
        raise CausticError(f"oscillator kernel undefined at t={t} (|sin t| <= {CAUSTIC_THRESHOLD})")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ct = np.cos(t) / st
    pref = 1.0 / np.sqrt(2.0 * np.pi * 1j * st)
    return pref * np.exp(0.5j * ct * (x**2 + y**2) - 1j * x * y / st)


@dataclass(frozen=True)
class ClassicalPath:
    """Sampled solution of the classical boundary-value problem."""

    times: np.ndarray
    positions: np.ndarray

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])


def _check_conjugate(potential: Potential, duration: float) -> None:
    if potential.beta > 0:
        omega = np.sqrt(2.0 * potential.beta)
        phase = omega * duration
        if abs(phase - np.pi * round(phase / np.pi)) < 1e-6 * max(1.0, omega):
            raise DegenerateBVPError(
                f"duration {duration} is a conjugate point for beta={potential.beta}"
            )


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


def classical_trajectory(
    potential: Potential, x1: float, x2: float, duration: float, slices: int
) -> ClassicalPath:
    """Solve xddot = -U'(x) with x(0) = x1, x(T) = x2 in closed form.

    The initial momentum p0 is solved from x(T) = m00 x1 + m01 p0 + c0 of
    the classical flow, which then gives the path at every slice time.
    """
    if duration <= 0:
        raise InvalidInputError("trajectory duration must be positive")
    if slices < 1:
        raise InvalidInputError("need at least one time slice")
    _check_conjugate(potential, duration)
    t = np.linspace(0.0, duration, slices + 1)
    m, c = classical_flow(potential, t)
    p0 = (x2 - m[0, 0, -1] * x1 - c[0, -1]) / m[0, 1, -1]
    x = m[0, 0] * x1 + m[0, 1] * p0 + c[0]
    x[0] = x1
    x[-1] = x2
    return ClassicalPath(times=t, positions=x)


def action_of_path(path: ClassicalPath, potential: Potential) -> float:
    """Discrete action sum_n [(x_n - x_{n-1})^2 / (2 dt) - U(x_n) dt]."""
    x = path.positions
    if x.size < 2:
        if x.size == 1:
            return 0.0
        raise InvalidInputError("path needs at least one point")
    dt = path.step
    kinetic = np.sum(np.diff(x) ** 2) / (2.0 * dt)
    pot = np.sum(potential(x[1:])) * dt
    return float(kinetic - pot)


def closed_action(potential: Potential, x2, x1, t):
    """Classical action S(x2, x1, t) for the quadratic potential class.

    Broadcasts over numpy arrays in x1, x2.
    """
    if np.any(np.asarray(t) <= 0):
        raise InvalidInputError("action requires positive duration")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    alpha, beta = potential.alpha, potential.beta
    if beta == 0.0:
        return (
            (x2 - x1) ** 2 / (2.0 * t)
            - 0.5 * alpha * t * (x1 + x2)
            - alpha**2 * t**3 / 24.0
        )
    shift = alpha / (2.0 * beta)
    u1, u2 = x1 + shift, x2 + shift
    if beta > 0:
        omega = np.sqrt(2.0 * beta)
        s = np.sin(omega * t)
        if np.any(np.abs(s) < 1e-12):
            raise DegenerateBVPError(f"conjugate point at t={t}")
        quad = omega * ((u1**2 + u2**2) * np.cos(omega * t) - 2.0 * u1 * u2) / (2.0 * s)
    else:
        kappa = np.sqrt(-2.0 * beta)
        s = np.sinh(kappa * t)
        quad = kappa * ((u1**2 + u2**2) * np.cosh(kappa * t) - 2.0 * u1 * u2) / (2.0 * s)
    return quad + alpha**2 * t / (4.0 * beta)


def green_sliced(potential: Potential, x, y, t: float, slices: int):
    """N-slice path-integral kernel by exact Gaussian marginalization.

    Each slice contributes (2 pi i dt)^{-1/2} exp{i[(x_n - x_{n-1})^2/(2 dt)
    - U(x_n) dt]}; the intermediate integrals are Gaussian and are folded
    in sequentially, so the result is exact for the free particle at any N
    and carries an O(dt) discretization error from the potential term
    otherwise.
    """
    amp, a, b, c, d, e = _sliced_coefficients(potential, t, slices)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return amp * np.exp(1j * (a * x**2 + b * x * y + c * y**2 + d * x + e * y))


def _sliced_coefficients(potential: Potential, t: float, slices: int):
    """Fold the slice kernels into amp * exp(i(a x^2 + b x y + c y^2 + d x + e y))."""
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


def green_van_fleck(potential: Potential, x2, x1, t: float):
    """Quasiclassical kernel from the classical action.

    The amplitude is |d^2 S / dx2 dx1|^(1/2).  For the supported potential
    class the action is a quadratic polynomial in the endpoints, and its
    mixed derivative is the constant 1/|m01|, where m01 = dx(t)/dp(0) is
    read off the classical flow.  The overall constant is fixed so the
    free-particle case reproduces the exact kernel.
    """
    if t <= 0:
        raise InvalidInputError("van Vleck kernel requires t > 0")
    _check_conjugate(potential, t)
    s = closed_action(potential, x2, x1, t)
    m, _ = classical_flow(potential, t)
    s12 = 1.0 / abs(m[0, 1])
    return _SQRT_I_INV / np.sqrt(2.0 * np.pi) * np.sqrt(s12) * np.exp(1j * s)


@dataclass(frozen=True)
class GreenFunction:
    """Evaluatable propagator descriptor G(x, y, t).

    kind is one of "free", "oscillator", "van-fleck", "sliced"; the last
    two carry the Potential (and a slice count for "sliced").
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
        """Closed form when available, van Vleck otherwise (exact for this class)."""
        if potential.is_free:
            return cls.free()
        if potential.is_unit_oscillator:
            return cls.oscillator()
        return cls.van_fleck(potential)

    def check_time(self, t: float) -> None:
        """Reject times where this kernel is singular or undefined.

        Every kind's amplitude grows like |t|^{-1/2} and its phase like 1/t,
        so |t| <= CAUSTIC_THRESHOLD is refused as singular for all of them.
        """
        if abs(t) <= CAUSTIC_THRESHOLD:
            raise SingularTimeError(f"{self.kind} kernel singular at t={t} (|t| <= {CAUSTIC_THRESHOLD})")
        if self.kind == "oscillator" and abs(np.sin(t)) <= CAUSTIC_THRESHOLD:
            raise CausticError(f"oscillator kernel undefined at t={t}")
        if self.kind in ("van-fleck", "sliced"):
            if t < 0:
                raise InvalidInputError(f"{self.kind} kernel requires t > 0")
            _check_conjugate(self.potential, t)

    def __call__(self, x, y, t: float):
        if self.kind == "free":
            return green_free(x, y, t)
        if self.kind == "oscillator":
            return green_oscillator(x, y, t)
        if self.kind == "van-fleck":
            return green_van_fleck(self.potential, x, y, t)
        if self.kind == "sliced":
            return green_sliced(self.potential, x, y, t, self.slices)
        raise InvalidInputError(f"unknown Green-function kind {self.kind!r}")

    def _flow_potential(self) -> Potential:
        return {"free": FREE, "oscillator": OSCILLATOR}.get(self.kind, self.potential)

    def flow(self, t):
        """classical_flow(potential, t) of this kernel's potential: (m, c)."""
        return classical_flow(self._flow_potential(), t)

    def quadratic_form(self, t: float):
        """(amp, A, B, C, D, E) with G(x, y, t) = amp exp(i(A x^2 + B x y + C y^2 + D x + E y)).

        Every kind's phase is quadratic in the endpoints.  For the closed
        kinds it is the classical action, whose coefficients come from the
        flow (m, c) = classical_flow(potential, t): dS/dy = -p0 and
        dS/dx = p(t) with p0 = (x - m00 y - c0) / m01 give A = m11/(2 m01),
        B = -1/m01, C = m00/(2 m01), E = c0/m01 and D = c1 - m11 E.  The
        van Vleck amplitude carries the constant part of the action,
        S(0, 0, t), as a phase; the sliced kind folds its slices in
        _sliced_coefficients.
        """
        self.check_time(t)
        if self.kind == "sliced":
            return _sliced_coefficients(self.potential, t, self.slices)
        if self.kind not in ("free", "oscillator", "van-fleck"):
            raise InvalidInputError(f"unknown Green-function kind {self.kind!r}")
        pot = self._flow_potential()
        m, (c0, c1) = classical_flow(pot, t)
        (m00, m01), (_, m11) = m
        if self.kind == "van-fleck":
            amp = _SQRT_I_INV / np.sqrt(2.0 * np.pi * abs(m01)) * np.exp(1j * closed_action(pot, 0.0, 0.0, t))
        else:
            amp = 1.0 / np.sqrt(2.0 * np.pi * 1j * m01)
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
