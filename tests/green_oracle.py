"""Closed-form propagators and classical paths, kept as test oracles.

`GreenFunction` evaluates one kernel built from the classical flow; these
are the textbook forms it must reproduce: the free and unit-oscillator
kernels, the classical action of the quadratic class in its shifted
closed form, the van Vleck kernel built on it (valid for t before the
first caustic), and the discretized classical path with its action.
"""

from dataclasses import dataclass

import numpy as np

from tomoprop.errors import (
    CausticError,
    InvalidInputError,
    SingularTimeError,
)
from tomoprop.greens import CAUSTIC_THRESHOLD, Potential, classical_flow


def gradient(potential: Potential, x):
    """U'(x) = alpha + 2 beta x."""
    return potential.alpha + 2.0 * potential.beta * x


def green_free(x, y, t):
    """Free-particle kernel (2 pi i t)^{-1/2} exp(i (x-y)^2 / 2t)."""
    if np.any(t == 0):
        raise SingularTimeError("free-particle kernel is singular at t = 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref = 1.0 / np.sqrt(2.0 * np.pi * 1j * t)
    return pref * np.exp(0.5j * (x - y) ** 2 / t)


def green_oscillator(x, y, t):
    """Unit-frequency oscillator kernel (Mehler) away from caustics sin t = 0.

    The prefactor (2 pi i sin t)^{-1/2} turns by e^{-i pi/2} at each
    caustic the motion passes: exp(-i sgn(t) (pi/4 + pi n/2)) /
    sqrt(2 pi |sin t|) with n = floor(|t| / pi).
    """
    st = np.sin(t)
    if np.any(np.abs(st) <= CAUSTIC_THRESHOLD):
        raise CausticError(f"oscillator kernel undefined at t={t} (|sin t| <= {CAUSTIC_THRESHOLD})")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ct = np.cos(t) / st
    n = np.floor(abs(t) / np.pi)
    pref = np.exp(-1j * np.sign(t) * np.pi * (0.25 + 0.5 * n)) / np.sqrt(2.0 * np.pi * abs(st))
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
            raise CausticError(f"duration {duration} is a conjugate point for beta={potential.beta}")


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

    Shifts to the potential's vertex u = x + alpha / (2 beta), which
    cancels catastrophically as beta -> 0 with alpha != 0.  Broadcasts over
    numpy arrays in x1, x2.
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
            raise CausticError(f"conjugate point at t={t}")
        quad = omega * ((u1**2 + u2**2) * np.cos(omega * t) - 2.0 * u1 * u2) / (2.0 * s)
    else:
        kappa = np.sqrt(-2.0 * beta)
        s = np.sinh(kappa * t)
        quad = kappa * ((u1**2 + u2**2) * np.cosh(kappa * t) - 2.0 * u1 * u2) / (2.0 * s)
    return quad + alpha**2 * t / (4.0 * beta)


def green_van_fleck(potential: Potential, x2, x1, t: float):
    """Quasiclassical kernel e^{-i pi/4} |d^2 S / dx2 dx1|^(1/2) e^{iS} / sqrt(2 pi).

    For the quadratic class the mixed derivative is the constant 1/|m01|.
    The fixed phase e^{-i pi/4} holds for 0 < t before the first caustic.
    """
    if t <= 0:
        raise InvalidInputError("van Vleck kernel requires t > 0")
    _check_conjugate(potential, t)
    s = closed_action(potential, x2, x1, t)
    m, _ = classical_flow(potential, t)
    return np.exp(-0.25j * np.pi) / np.sqrt(2.0 * np.pi * abs(m[0, 1])) * np.exp(1j * s)
