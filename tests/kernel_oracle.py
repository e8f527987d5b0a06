"""The kernel Fourier component's 801^2 quadrature, kept as a test oracle.

`kernel_fourier` sums the factorized form of the same discrete double sum;
these helpers evaluate it point by point on the tensor-product grid.
"""

import numpy as np

from tomoprop.errors import InvalidInputError, NumericalDomainError
from tomoprop.grids import UniformGrid, trapezoid_weights
from tomoprop.propagator import DEFAULT_KERNEL_DOMAIN, DEFAULT_KERNEL_POINTS


def damped_integral_2d(f, grid_z: UniformGrid, grid_a: UniformGrid, damping: float):
    """Gaussian-damped double integral of f(z, a) over a tensor-product grid.

    Returns the trapezoidal approximation of

        iint f(z, a) exp(-damping * (z^2 + a^2)) dz da.

    `f` must accept numpy arrays (broadcasting over the meshgrid).
    """
    if damping <= 0:
        raise InvalidInputError(f"damping must be positive, got {damping}")
    Z, A = np.meshgrid(grid_z.points, grid_a.points, indexing="ij")
    vals = np.asarray(f(Z, A), dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericalDomainError(
            f"non-finite integrand at z={grid_z.points[i]:.6g}, a={grid_a.points[j]:.6g}"
        )
    vals = vals * np.exp(-damping * (Z**2 + A**2))
    wz = trapezoid_weights(grid_z.count, grid_z.step)
    wa = trapezoid_weights(grid_a.count, grid_a.step)
    return complex(wz @ vals @ wa)


def kernel_fourier_2d(q, half_width=DEFAULT_KERNEL_DOMAIN, points=DEFAULT_KERNEL_POINTS) -> complex:
    """kernel_fourier's discrete sum, with the Green function evaluated at every grid point."""
    q.green.check_time(q.t)
    grid = UniformGrid(-half_width, half_width, points)

    def integrand(z, a):
        g1 = q.green(a + 0.5 * q.k * q.nu, z + q.k * q.nu_p, q.t)
        g2 = q.green(a - 0.5 * q.k * q.nu, z, q.t)
        phase = q.k * (-0.5 * q.k * q.mu_p * q.nu_p - q.mu_p * z + q.mu * a)
        return g1 * np.conj(g2) * np.exp(1j * phase)

    return q.k**2 / (2.0 * np.pi) * damped_integral_2d(integrand, grid, grid, q.damping)
