"""Uniform grids and quadrature helpers.

All integrals in the library run over truncated real lines; domains are
chosen wide enough that integrands are negligible at the boundary.  The
convention is a closed grid: both endpoints are grid points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalDomainError

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
        if not np.isfinite([self.lower, self.upper, self.upper - self.lower]).all():
            raise InvalidInputError(
                f"grid bounds [{self.lower}, {self.upper}] and their span must be finite"
            )
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

    @property
    def reach(self) -> float:
        """Largest |coordinate| on the grid."""
        return max(abs(self.lower), abs(self.upper))


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


def _padded_spectrum(spectrum: np.ndarray, count: int) -> np.ndarray:
    """The length-`count` spectrum of band-limited upsampling, from a full FFT along the last axis.

    Zero-pads between the non-negative and the negative frequency bins; for
    an even input length the Nyquist bin is split evenly between +/- Nyquist,
    as scipy.signal.resample does.  Scaled by count / n, so the inverse FFT
    of the result is the upsampled samples.
    """
    n = spectrum.shape[-1]
    if count < n:
        raise InvalidInputError(f"cannot upsample {n} samples to {count}")
    half = n // 2 + 1  # non-negative frequency bins, Nyquist included
    padded = np.zeros(spectrum.shape[:-1] + (count,), dtype=np.complex128)
    padded[..., :half] = spectrum[..., :half]
    padded[..., count - (n - half):] = spectrum[..., half:]
    if n % 2 == 0 and count > n:
        padded[..., n // 2] *= 0.5
        padded[..., count - n // 2] = padded[..., n // 2]
    padded *= count / n
    return padded


def upsample(grid: UniformGrid, values, count: int, spectrum=None):
    """Band-limited upsampling of samples on `grid`, periodic over its
    period count * step, to `count` points along the last axis.

    Returns (fine points, fine step, fine samples), the samples complex:
    the inverse FFT of `_padded_spectrum`, from `spectrum`, the values'
    FFT along the last axis, when the caller already has it.  `count ==
    grid.count` returns grid.points, grid.step and `values` itself.  Valid
    for samples that decay to negligible values at the grid boundary,
    whose periodic extension is then smooth.
    """
    if count == grid.count:
        return grid.points, grid.step, values
    if spectrum is None:
        spectrum = np.fft.fft(values)
    step = grid.count * grid.step / count
    return grid.lower + step * np.arange(count), step, np.fft.ifft(_padded_spectrum(spectrum, count))


def fine_need(grid: UniformGrid, max_freq, band):
    """The sample count over `grid`'s period that resolves phases up to
    max_freq rad/unit on samples that carry frequencies up to `band`,
    before rounding: period (max_freq + band) / 2 pi.

    By Poisson summation the trapezoid sum of a decaying integrand is
    exact once 2 pi / step exceeds the integrand's whole band, here the
    phase rate plus the samples' own, so no margin is added.  Works
    elementwise on arrays of rates and bands.
    """
    return grid.count * grid.step * (max_freq + band) / (2.0 * np.pi)


def fine_count(grid: UniformGrid, max_freq: float, band: float) -> int:
    """Samples over `grid`'s period whose step resolves phases up to
    max_freq rad/unit on samples of band `band` (`fine_need`), rounded as
    `fine_counts` rounds: `grid.count` when that suffices, else
    `next_fast_len` of the need.

    A need above MAX_FINE (itself 11-smooth) raises NumericalDomainError
    naming the rate, the band, the period and the need: it is refused,
    never capped, so a caller can decide before allocating anything.
    """
    n = grid.count
    needed = int(np.ceil(fine_need(grid, max_freq, band)))
    if needed > MAX_FINE:
        raise NumericalDomainError(
            f"phase rate {max_freq:.6g} plus band {band:.6g} over the period {n * grid.step:.6g} "
            f"on [{grid.lower:.3g}, {grid.upper:.3g}] needs {needed} fine samples, "
            f"more than MAX_FINE = {MAX_FINE}"
        )
    return n if needed <= n else next_fast_len(needed)


def fine_counts(count: int, need):
    """The fine counts of the needs `need` (`fine_need`) over a grid of
    `count` points, elementwise and unchecked.

    `count` where it covers the need, else the need rounded up by
    `next_fast_len`, so every FFT of the fine samples has only the factors
    2, 3, 5, 7 and 11.  Either way it is the smallest count at or above the
    need among `count` and the 11-smooth counts above it, so one need
    exceeds another's count exactly when its own count is the larger.  A
    need above MAX_FINE, infinite ones included, reads as the count of
    MAX_FINE + 1, which lies above MAX_FINE.
    """
    needed = np.ceil(np.minimum(need, MAX_FINE + 1))
    return np.where(needed <= count, count, _FAST_LENS[np.searchsorted(_FAST_LENS, needed)])


def refine_count(grid: UniformGrid, max_freq: float) -> int:
    """The count to `upsample` samples on `grid` to for a step that resolves
    phases up to max_freq rad/unit: the samples carry frequencies up to
    pi / grid.step, and upsampling keeps that band, so it is
    `fine_count(grid, max_freq, pi / grid.step)`, which refuses counts
    above MAX_FINE."""
    return fine_count(grid, max_freq, np.pi / grid.step)


def _smooth_numbers(limit: int) -> list[int]:
    """The 2*3*5*7*11-smooth integers up to `limit`, ascending."""
    numbers = [1]
    for p in (2, 3, 5, 7, 11):
        for n in numbers.copy():  # append n p^e for every e >= 1 within the limit
            n *= p
            while n <= limit:
                numbers.append(n)
                n *= p
    return sorted(numbers)


_FAST_LENS = np.array(_smooth_numbers(2 * MAX_FINE))


def next_fast_len(target: int) -> int:
    """Smallest 2*3*5*7*11-smooth integer >= target: pocketfft's fast complex lengths.

    This is the length scipy.fft.next_fast_len picks for complex transforms,
    so FFT sizes (and output bytes) do not depend on which library chose them.
    Read from the table of those integers up to 2 MAX_FINE; a larger target
    takes the least p next_fast_len(ceil(target / p)) over the primes p, as
    every smooth integer above 1 is p times a smooth integer.
    """
    if target < 1:
        raise InvalidInputError(f"FFT length target must be positive, got {target}")
    n = int(target)
    if n > _FAST_LENS[-1]:
        return min(p * next_fast_len(-(-n // p)) for p in (2, 3, 5, 7, 11))
    return int(_FAST_LENS[np.searchsorted(_FAST_LENS, n)])


def eval_spline(table: np.ndarray, rows, q: np.ndarray, lower: float, step: float, upper: float) -> np.ndarray:
    """Values at q of stacked piecewise cubics on the knots lower + i * step; 0 outside [lower, upper].

    `table` holds m piecewise cubics in segment-major order, shape
    (m, n_seg, 4): on segment i, at offset t = q - (lower + i step), row r
    reads ((c0 t + c1) t + c2) t + c3 with c = table[r, i], scipy's PPoly
    coefficients transposed, so one `np.take` fetches a whole cubic;
    `rows` and `q` broadcast against each other, and each q is read from
    the cubics its row names, at their broadcast shape.  The segment, the
    offset in it and the inside mask are computed once, at q's own shape,
    so k sets of rows stacked on a leading axis, shape (k, ...), read k
    rows at the same q off one lookup, each with the bits of its own
    call.
    """
    n_seg = table.shape[1]
    seg = np.clip(np.floor((q - lower) / step), 0, n_seg - 1).astype(int)
    c = np.take(table.reshape(-1, 4), rows * n_seg + seg, axis=0)
    t = q - (lower + seg * step)
    # Horner, ((c0 t + c1) t + c2) t + c3, in place
    out = c[..., 0] * t
    out += c[..., 1]
    out *= t
    out += c[..., 2]
    out *= t
    out += c[..., 3]
    return np.where((q >= lower) & (q <= upper), out, 0.0)
