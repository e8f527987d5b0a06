"""Time evolution of tomograms.

Three routes live here: exact coordinate pullbacks along the classical
flow of any quadratic potential (the delta-kernel propagators read as frame
flows), evolution through a quantum Green function (tomogram -> density
matrix -> evolved density matrix -> tomogram), and the regularized
Fourier-component kernel evaluator connecting the transition-probability
kernel to the Green function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .errors import InvalidInputError, NumericalDomainError
from .greens import GreenFunction, Potential, classical_flow
from .grids import UniformGrid, refine_count, trapezoid_weights
from .states import DensityMatrix, propagate_states
from .tomography import (
    Tomogram,
    density_from_tomogram,
    refuse_unresolved,
    spectral_components,
    tomogram_from_density,
    tomogram_moments,
)

TAIL_SDS = 10.0  # standard deviations a Green-route grid covers on each side, in x and in p
DEFAULT_KERNEL_DOMAIN = 80.0
DEFAULT_KERNEL_POINTS = 801
DEFAULT_DAMPING = 1e-3


def _pullback_frame_matrix(potential: Potential, t: float) -> np.ndarray:
    """Linear map on (X, mu, nu) whose pullback realizes the delta kernel.

    Along the classical flow (x, p)(t) = m (x, p) + c the quadrature
    mu x(t) + nu p(t) is (m00 mu + m10 nu) x + (m01 mu + m11 nu) p
    + c0 mu + c1 nu, so the evolved tomogram at (X, mu, nu) is the initial
    one at (X - c0 mu - c1 nu, m00 mu + m10 nu, m01 mu + m11 nu).
    """
    m, c = classical_flow(potential, t)
    return np.array([[1.0, -c[0], -c[1]], [0.0, m[0, 0], m[1, 0]], [0.0, m[0, 1], m[1, 1]]])


def evolve_pullback(tomo: Tomogram, potential: Potential, t: float) -> Tomogram:
    """Exact evolution by evaluating the initial tomogram at flowed frames.

    Free motion sends (X, mu, nu) to (X, mu, nu + mu t); the unit oscillator
    rotates (mu, nu) by t; every other quadratic potential shears, rotates
    or squeezes (mu, nu) and shifts X.  Frame magnitudes away from the unit
    circle are handled by the homogeneity law inside Tomogram.evaluate.
    Repeated pullbacks compose their frame maps exactly, so composition and
    invertibility hold to rounding error on lattice-aligned queries.
    """
    return tomo.with_frame_map(_pullback_frame_matrix(potential, t))


def moment_grid(mean: np.ndarray, cov: np.ndarray) -> UniformGrid:
    """Position grid for a state of mean (<x>, <p>) and covariance `cov`.

    It spans <x> +- TAIL_SDS sd_x, at a step no larger than
    pi / (|<p>| + TAIL_SDS sd_p), the Nyquist step of the momenta the
    state holds.
    """
    sd_x, sd_p = np.sqrt(np.maximum(np.diag(cov), np.finfo(float).tiny))
    half = TAIL_SDS * sd_x
    step = np.pi / (abs(mean[1]) + TAIL_SDS * sd_p)
    return UniformGrid(mean[0] - half, mean[0] + half, max(int(np.ceil(2.0 * half / step)) + 1, 8))


def _grid_meta(grid: UniformGrid) -> list:
    return [float(grid.lower), float(grid.upper), grid.count]


def _input_moments(tomo: Tomogram):
    """The tomogram's mean and covariance, read-only, and their `moment_grid`."""
    mean, cov = tomogram_moments(tomo)
    mean.setflags(write=False)
    cov.setflags(write=False)
    return mean, cov, moment_grid(mean, cov)


def _input_state(tomo: Tomogram, grid: UniformGrid):
    """The Green route's input state: (states, weights, meta) of the
    tomogram's reconstruction on `grid`, the arrays read-only.

    The meta holds the inverse's mu_band, mu_edge_ratio and
    accuracy_warning, and the cut's components, weight_kept and
    weight_dropped.  A reconstruction with accuracy_warning set is not cut:
    its states and weights are None, and only its meta is returned.
    """
    rho = density_from_tomogram(tomo, grid, mu_step=np.pi / grid.span)
    meta = {key: rho.meta[key] for key in ("mu_band", "mu_edge_ratio", "accuracy_warning")}
    if meta["accuracy_warning"]:
        return None, None, meta
    states, weights, cut = spectral_components(DensityMatrix(grid=grid, values=rho.values / rho.trace()))
    states.setflags(write=False)
    weights.setflags(write=False)
    return states, weights, {**cut, **meta}


@one_blas_thread()
def evolve_via_green(tomo: Tomogram, green: GreenFunction, t: float) -> Tomogram:
    """Evolution through the quantum propagator.

    Chain: tomogram -> density matrix (inverse transform) -> its kept
    eigenvectors psi_k with weights w_k, each sent to int G(x, y, t)
    psi_k(y) dy -> rho_t = sum_k w_k psi_k psi_k^dagger -> tomogram.  rho_t
    carries the propagated psi_k and w_k as its `DensityMatrix.factors`,
    and the forward transform, bilinear in rho, reads them as they are:
    they need not stay orthonormal, and rho_t is never diagonalized again.

    The input grid is `moment_grid` of the tomogram's own moments, the
    output grid that of the same moments flowed by the kernel's classical
    flow (mean -> m mean + c, cov -> m cov m^T).  The inverse transform
    samples mu at pi / span of the input grid, half the alias limit
    2 pi / span: its trapezoid rule folds the state at sigma/2 +- 2 pi/step
    onto rho at sigma/2, and those images then lie 2 span away, outside the
    grid, which holds the state within +- TAIL_SDS sd_x.  Its mu band is the
    tomogram's own (`density_from_tomogram`), read off the envelope of its
    slice characteristics, so it holds for any state, pure or mixed.  The
    reconstructed density matrix is renormalized to unit trace and cut by
    `spectral_components`.
    A kernel phase rate that needs more fine samples than grids.MAX_FINE
    raises NumericalDomainError before the inverse transform runs.  t = 0
    keeps the eigenvectors as they are.  The route runs with BLAS on the
    calling thread (`one_blas_thread`): its matrices are a few dozen points
    wide, where a hand-off to a worker thread costs more than the work.

    The input half depends on the tomogram alone, so it runs once per
    tomogram and is kept with it (`Tomogram._kept`): the moments and the
    input grid on the first call, the reconstruction and its cut on the
    first call that passes the time and MAX_FINE checks.  Later calls go
    straight to the propagation and the forward transform.

    The returned meta holds the input cut's components, weight_kept and
    weight_dropped, the inverse stage's mu_band, mu_edge_ratio and
    accuracy_warning, the forward transform's slice_mass_min and
    slice_mass_max (the slice masses before renormalization), and both
    grids as [lower, upper, count].  When the
    inverse sets accuracy_warning, every call raises InvalidInputError
    naming the cause (`refuse_unresolved`), so a returned tomogram always
    has accuracy_warning False.
    """
    mean, cov, in_grid = tomo._kept("green_moments", lambda: _input_moments(tomo))
    out_grid = in_grid
    if t != 0:
        green.check_time(t)
        m, c = green.flow(t)
        out_grid = moment_grid(m @ mean + c, m @ cov @ m.T)
        # the count propagate_states will take, refused before the inverse runs
        refine_count(in_grid, green.phase_rate_bound(out_grid.reach, in_grid.reach, t))
    states, weights, meta = tomo._kept("green_input", lambda: _input_state(tomo, in_grid))
    refuse_unresolved(tomo, meta)
    if t != 0:
        states = propagate_states(states, in_grid, out_grid, green, t)
    rho_t = DensityMatrix(grid=out_grid, values=(states.T * weights) @ states.conj(), factors=(states, weights))
    evolved = tomogram_from_density(rho_t, tomo.x_grid, tomo.theta_count)
    evolved.meta.update(meta)  # the input cut's figures and the inverse's
    evolved.meta.update(input_grid=_grid_meta(in_grid), output_grid=_grid_meta(out_grid))
    return evolved


@dataclass(frozen=True)
class KernelFourierQuery:
    """Query for the Fourier component of the transition-probability kernel.

    The stored value fixes the initial position offset X' = 0; dependence
    on X' enters only through the exact phase factor exp(i k X').
    """

    k: float
    mu: float
    nu: float
    mu_p: float
    nu_p: float
    t: float
    green: GreenFunction
    damping: float = DEFAULT_DAMPING

    def __post_init__(self):
        if self.k == 0:
            raise InvalidInputError("kernel Fourier variable k must be nonzero")
        if not 0 < self.damping < np.inf:
            raise InvalidInputError(f"kernel damping must be positive and finite, got {self.damping!r}")


def kernel_fourier(
    query: KernelFourierQuery,
    *,
    half_width: float = DEFAULT_KERNEL_DOMAIN,
    points: int = DEFAULT_KERNEL_POINTS,
) -> complex:
    """Damped Fourier component of the "classical" propagator.

    Pi_F(k; mu, nu; mu', nu'; t) = (k^2 / 2 pi) iint G(a + k nu/2,
    z + k nu', t) conj(G(a - k nu/2, z, t)) exp[i k (-k mu' nu'/2
    - mu' z + mu a)] dz da, regularized by the Gaussian damping factor
    and summed by the trapezoid rule on UniformGrid(-half_width,
    half_width, points) in both variables.  With G = amp exp(i(A x^2
    + B x y + C y^2 + D x + E y)) the quadratic terms in a and z cancel,
    so the integrand is |amp|^2 exp(i(phi0 + gamma_a a + gamma_z z)) and
    the double sum is exactly the product of two 1-D damped sums.
    The two sums cancel to 1e-6 of their terms' size on typical queries,
    so they run in extended precision (np.longdouble).  Deterministic for
    fixed grids and damping; the undamped kernel is distribution-valued
    for every potential in scope.
    """
    q = query
    amp, a, b, c, d, e = q.green.quadratic_form(q.t)
    k, mu, nu, mu_p, nu_p = np.array([q.k, q.mu, q.nu, q.mu_p, q.nu_p], dtype=np.longdouble)
    gamma = k * np.array([2.0 * a * nu + b * nu_p + mu, b * nu + 2.0 * c * nu_p - mu_p])
    phi0 = k * k * (0.5 * b * nu * nu_p + c * nu_p**2 - 0.5 * mu_p * nu_p) + k * (d * nu + e * nu_p)
    grid = UniformGrid(-half_width, half_width, points)
    g = grid.points.astype(np.longdouble)
    w = trapezoid_weights(points, grid.step) * np.exp(-q.damping * g**2)
    s_a, s_z = np.exp(1j * np.multiply.outer(gamma, g)) @ w
    value = complex(k * k / (2.0 * np.pi) * abs(amp) ** 2 * np.exp(1j * phi0) * s_a * s_z)
    if not np.isfinite(value):
        raise NumericalDomainError(f"non-finite kernel Fourier component at k={q.k:g}, t={q.t:g}")
    return value


@dataclass(frozen=True)
class ComparisonReport:
    """Grid discrepancy between two tomograms (thresholds are the caller's)."""

    linf: float
    l2: float


def compare_tomograms(a: Tomogram, b: Tomogram) -> ComparisonReport:
    if a.x_grid != b.x_grid or a.theta_count != b.theta_count:
        raise InvalidInputError("tomograms must share a grid to be compared")
    diff = a.values - b.values
    hx = a.x_grid.step
    htheta = np.pi / a.theta_count
    return ComparisonReport(
        linf=float(np.abs(diff).max()),
        l2=float(np.sqrt(np.sum(diff**2) * hx * htheta)),
    )

