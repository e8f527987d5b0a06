"""Reference values and output checks, computed apart from tomoprop.

Nothing here imports the package under test: every reference comes from a
closed form written out below (classical moment flow of a Gaussian packet,
the oscillator ground-state tomogram, the oscillator propagator of
CONVENTIONS.md) or from a law that relates two outputs of the program (the
k^2 scaling of the kernel Fourier component, the homogeneity law, route
agreement).  Each check returns the measured error; `passes` compares it
with the check's bound.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# bounds, one per check
MOMENT_TOL = 1e-3  # acceptance criterion 3
HO_GROUND_TOL = 1e-6  # acceptance criterion 2
SLICE_NORM_TOL = 1e-6  # acceptance criterion 10
K2_LAW_TOL = 1e-6  # acceptance criterion 6
ROUTE_TOL = 1e-10  # acceptance criterion 9b
HOMOGENEITY_TOL = 1e-10
GREEN_CSV_TOL = 1e-9
LATTICE_TOL = 1e-9  # coordinates printed with 17 significant digits

# default lattice of the package: X in [-14, 14] with 351 points, 180 angles
X_LOWER, X_UPPER, X_COUNT = -14.0, 14.0, 351
X_STEP = (X_UPPER - X_LOWER) / (X_COUNT - 1)
THETA_COUNT = 180


def passes(err: float, tol: float) -> bool:
    return bool(np.isfinite(err) and err <= tol)


def x_lattice() -> np.ndarray:
    return np.linspace(X_LOWER, X_UPPER, X_COUNT)


def theta_lattice() -> np.ndarray:
    return np.pi * np.arange(THETA_COUNT) / THETA_COUNT


# --- Gaussian packets under U(x) = alpha x + beta x^2 ------------------------


def packet_moments(x0: float, p0: float, sigma: float):
    """Mean (<x>, <p>) and covariance of psi ~ exp(-(x-x0)^2/(2 sigma^2) + i p0 x)."""
    mean = np.array([x0, p0], dtype=float)
    cov = np.diag([0.5 * sigma**2, 0.5 / sigma**2])
    return mean, cov


def classical_flow(alpha: float, beta: float, t: float):
    """(M, c) with (x, p)(t) = M (x, p)(0) + c for H = p^2/2 + alpha x + beta x^2.

    Hamilton's equations xdot = p, pdot = -alpha - 2 beta x are linear, so
    Gaussian states stay Gaussian and their moments follow this flow.
    """
    if beta == 0.0:
        m = np.array([[1.0, t], [0.0, 1.0]])
        return m, np.array([-0.5 * alpha * t**2, -alpha * t])
    if beta > 0.0:
        w = np.sqrt(2.0 * beta)
        c, s = np.cos(w * t), np.sin(w * t)
        m = np.array([[c, s / w], [-w * s, c]])
    else:
        k = np.sqrt(-2.0 * beta)
        c, s = np.cosh(k * t), np.sinh(k * t)
        m = np.array([[c, s / k], [k * s, c]])
    shift = alpha / (2.0 * beta)  # u = x + shift oscillates about 0
    offset = m @ np.array([shift, 0.0]) - np.array([shift, 0.0])
    return m, offset


def evolved_moments(mean, cov, alpha: float, beta: float, t: float):
    m, c = classical_flow(alpha, beta, t)
    return m @ mean + c, m @ cov @ m.T


def gaussian_tomogram(X, mu, nu, mean, cov):
    """w(X, mu, nu) = N(X; mu <x> + nu <p>, mu^2 Sxx + nu^2 Spp + 2 mu nu Sxp)."""
    X, mu, nu = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (X, mu, nu)))
    centre = mu * mean[0] + nu * mean[1]
    var = mu**2 * cov[0, 0] + nu**2 * cov[1, 1] + 2.0 * mu * nu * cov[0, 1]
    return np.exp(-((X - centre) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def lattice_tomogram(mean, cov) -> np.ndarray:
    """Gaussian tomogram on the default (theta, X) lattice, shape (180, 351)."""
    th = theta_lattice()[:, None]
    return gaussian_tomogram(x_lattice()[None, :], np.cos(th), np.sin(th), mean, cov)


def moment_error(values, mean, cov) -> float:
    return float(np.abs(np.asarray(values) - lattice_tomogram(mean, cov)).max())


# --- closed forms -------------------------------------------------------------


def ho_ground_error(values) -> float:
    """Lattice tomogram against exp(-X^2)/sqrt(pi), the same on every slice."""
    x = x_lattice()
    return float(np.abs(np.asarray(values) - np.exp(-(x**2))[None, :] / np.sqrt(np.pi)).max())


def oscillator_green(x, y, t: float):
    """(2 pi i sin t)^(-1/2) exp(i [(x^2 + y^2) cos t - 2 x y] / (2 sin t)), 0 < t < pi."""
    st = np.sin(t)
    phase = ((x * x + y * y) * np.cos(t) - 2.0 * x * y) / (2.0 * st)
    return np.exp(-0.25j * np.pi) / np.sqrt(2.0 * np.pi * st) * np.exp(1j * phase)


# --- laws between outputs -----------------------------------------------------


def slice_norm_error(values, step: float) -> float:
    """Largest |trapezoid integral over X - 1| over the rows of `values`."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    mass = step * (v[:, 1:-1].sum(axis=1) + 0.5 * (v[:, 0] + v[:, -1]))
    return float(np.abs(mass - 1.0).max())


def k2_law_error(scan_a, scan_b, k1: float) -> float:
    """Pi(k; f) = (k/k')^2 Pi(k'; (k/k') f): row j of scan A (frame f, k_j)
    against row j of scan B (frame k1 f, k_j / k1), relative."""
    a = scan_a[:, 7] + 1j * scan_a[:, 8]
    b = scan_b[:, 7] + 1j * scan_b[:, 8]
    return float((np.abs(a - k1**2 * b) / np.abs(a)).max())


def homogeneity_error(scaled, unit, scale) -> float:
    """w(s X, s mu, s nu) = w(X, mu, nu)/s for s > 0."""
    return float(np.abs(np.asarray(scaled) * scale - np.asarray(unit)).max())


def max_abs_diff(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


# --- files written by the CLI ---------------------------------------------------


def read_tomogram_csv(path: str | Path):
    """(values (180, 351), lattice error) from a tomogram CSV (theta outer, X inner)."""
    with open(path) as handle:
        header = handle.readline().strip()
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if header != "X,theta,w" or data.shape != (THETA_COUNT * X_COUNT, 3):
        return None, np.inf
    lattice = max(
        max_abs_diff(data[:, 0], np.tile(x_lattice(), THETA_COUNT)),
        max_abs_diff(data[:, 1], np.repeat(theta_lattice(), X_COUNT)),
    )
    return data[:, 2].reshape(THETA_COUNT, X_COUNT), lattice


def read_kernel_csv(path: str | Path) -> np.ndarray:
    with open(path) as handle:
        if handle.readline().strip() != "k,mu,nu,mu_p,nu_p,t,eps,re,im":
            return np.full((1, 9), np.nan)
        return np.loadtxt(handle, delimiter=",", ndmin=2)


def green_csv_error(path: str | Path, grid, t: float, rows: np.ndarray) -> float:
    """Sampled rows of a propagator CSV (x outer, y inner) against the closed form."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    n = grid.size
    if lines[0] != "x,y,t,re,im" or len(lines) != n * n + 1:
        return np.inf
    got = np.array([[float(v) for v in lines[1 + r].split(",")] for r in rows])
    x, y = grid[rows // n], grid[rows % n]
    coords = max_abs_diff(got[:, 0], x) + max_abs_diff(got[:, 1], y) + max_abs_diff(got[:, 2], t)
    if coords > LATTICE_TOL:
        return np.inf
    return max_abs_diff(got[:, 3] + 1j * got[:, 4], oscillator_green(x, y, t))
