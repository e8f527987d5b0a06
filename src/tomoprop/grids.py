"""Uniform grids and quadrature helpers.

All integrals in the library run over truncated real lines; domains are
chosen wide enough that integrands are negligible at the boundary.  The
convention is a closed grid: both endpoints are grid points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import InvalidInputError, NumericalDomainError

_OVERSAMPLE = 2.5
MAX_FINE = 1 << 18


@dataclass(frozen=True)
class UniformGrid:
    """Closed uniform grid: `count` equally spaced points including both endpoints."""

    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if self.count < 8:
            raise InvalidInputError(f"grid needs at least 8 points, got {self.count}")
        if not self.upper > self.lower:
            raise InvalidInputError(
                f"grid upper bound {self.upper} must exceed lower bound {self.lower}"
            )

    @property
    def step(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)

    @property
    def span(self) -> float:
        return self.upper - self.lower


def trapezoid_weights(count: int, step: float) -> np.ndarray:
    """Composite trapezoid weights for a closed grid."""
    w = np.full(count, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def integrate_samples(values, step: float):
    """Trapezoidal integral of uniformly sampled values.

    Works for real or complex samples; raises on fewer than two samples.
    """
    values = np.asarray(values)
    if values.shape[-1] < 2:
        raise InvalidInputError("integrate_samples needs at least 2 samples")
    if step <= 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    inner = values[..., 1:-1].sum(axis=-1)
    return step * (inner + 0.5 * (values[..., 0] + values[..., -1]))


def damped_integral_2d(f, grid_z: UniformGrid, grid_a: UniformGrid, damping: float):
    """Gaussian-damped double integral of f(z, a) over a tensor-product grid.

    Returns the trapezoidal approximation of

        iint f(z, a) exp(-damping * (z^2 + a^2)) dz da.

    The caller owns the interpretation of the damping -> 0 limit; the
    damping is Gaussian so closed-form oracles stay available.  `f` must
    accept numpy arrays (broadcasting over the meshgrid).
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


def fft_upsample(values, count: int, axis: int = -1) -> np.ndarray:
    """Band-limited upsampling of periodic samples to `count` points along `axis`.

    Zero-pads the spectrum; for an even input length the Nyquist bin is
    split evenly between +/- Nyquist, as scipy.signal.resample does.  Real
    input gives real output.
    """
    values = np.moveaxis(np.asarray(values), axis, -1)
    n = values.shape[-1]
    if count < n:
        raise InvalidInputError(f"cannot upsample {n} samples to {count}")
    half = n // 2 + 1  # non-negative frequency bins, Nyquist included
    if np.iscomplexobj(values):
        spec = scipy.fft.fft(values)
        padded = np.zeros(values.shape[:-1] + (count,), dtype=spec.dtype)
        padded[..., :half] = spec[..., :half]
        padded[..., count - (n - half):] = spec[..., half:]
        if n % 2 == 0 and count > n:
            padded[..., n // 2] *= 0.5
            padded[..., count - n // 2] = padded[..., n // 2]
        out = scipy.fft.ifft(padded * (count / n))
    else:
        spec = scipy.fft.rfft(values)
        if n % 2 == 0 and count > n:
            spec[..., n // 2] *= 0.5
        out = scipy.fft.irfft(spec * (count / n), n=count)
    return np.moveaxis(out, -1, axis)


def refine_samples(grid: UniformGrid, values, max_freq: float, axis: int = -1):
    """FFT-upsample samples on `grid` so the step resolves phases up to max_freq rad/unit.

    Returns (fine positions, fine values, fine step).  Valid because the
    sampled functions decay below 1e-10 at the grid boundary, making the
    periodic extension smooth.  The fine count is capped at MAX_FINE.
    """
    n = grid.count
    period = n * grid.step
    needed = int(np.ceil(period * max_freq * _OVERSAMPLE / (2.0 * np.pi)))
    n_fine = min(max(n, needed), MAX_FINE)
    if n_fine == n:
        return grid.points, values, grid.step
    step = period / n_fine
    return grid.lower + step * np.arange(n_fine), fft_upsample(values, n_fine, axis), step
