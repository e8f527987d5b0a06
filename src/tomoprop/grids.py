"""Uniform grids and quadrature helpers.

All integrals in the library run over truncated real lines; domains are
chosen wide enough that integrands are negligible at the boundary.  The
convention is a closed grid: both endpoints are grid points.
"""

from __future__ import annotations

import bisect
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


def padded_spectrum(spectrum: np.ndarray, count: int) -> np.ndarray:
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


def fft_upsample(values, count: int, axis: int = -1) -> np.ndarray:
    """Band-limited upsampling of periodic samples to `count` points along `axis`.

    The inverse FFT of `padded_spectrum`; real input gives real output.
    """
    values = np.moveaxis(np.asarray(values), axis, -1)
    out = np.fft.ifft(padded_spectrum(np.fft.fft(values), count))
    if not np.iscomplexobj(values):
        out = out.real
    return np.moveaxis(out, -1, axis)


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
    max_freq rad/unit on samples of band `band` (`fine_need`).

    `grid.count` when that suffices, else the need rounded up by
    `next_fast_len`, so every FFT of the fine samples has only the
    factors 2, 3, 5, 7 and 11.  Either way it is the smallest count at or
    above the need among `grid.count` and the 11-smooth counts above it, so
    one need exceeds another's count exactly when its own count is the
    larger.  A need above MAX_FINE (itself 11-smooth) raises
    NumericalDomainError naming the rate, the band, the period and the
    need: it is refused, never capped, so a caller can decide before
    allocating anything.
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


def refine_count(grid: UniformGrid, max_freq: float) -> int:
    """The fine count of `refine_samples`: samples on `grid` carry
    frequencies up to pi / grid.step, and upsampling keeps that band, so
    it is `fine_count(grid, max_freq, pi / grid.step)`, which refuses
    counts above MAX_FINE."""
    return fine_count(grid, max_freq, np.pi / grid.step)


def refine_samples(grid: UniformGrid, values, max_freq: float, axis: int = -1):
    """FFT-upsample samples on `grid` so the step resolves phases up to max_freq rad/unit.

    Returns (fine positions, fine values, fine step), at `refine_count`
    samples.  Valid because the sampled functions decay below 1e-10 at the
    grid boundary, making the periodic extension smooth.
    """
    n_fine = refine_count(grid, max_freq)
    if n_fine == grid.count:
        return grid.points, values, grid.step
    step = grid.count * grid.step / n_fine
    return grid.lower + step * np.arange(n_fine), fft_upsample(values, n_fine, axis), step


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


_FAST_LENS = _smooth_numbers(2 * MAX_FINE)


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
    return _FAST_LENS[bisect.bisect_left(_FAST_LENS, n)]


def _solve_tridiagonal(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Solve a_i x_{i-1} + b_i x_i + c_i x_{i+1} = d_i along axis 0 of d.

    Cyclic reduction: each level eliminates the odd rows from the even
    ones, so the work is a few whole-array operations per level over
    log2(n) levels instead of a sequential sweep over n rows.  Stable for
    diagonally dominant systems.  a[0] and c[-1] are ignored.
    """
    n = b.size
    if n == 1:
        return d / b[0]
    ne, no = (n + 1) // 2, n // 2
    ae, be, ce, de = a[0::2], b[0::2], c[0::2], d[0::2]
    ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[1::2]
    # even row 2k couples to odd rows 2k - 1 (index k - 1) and 2k + 1 (index k)
    alpha = -ae[1:] / bo[: ne - 1]
    gamma = -ce[:no] / bo
    cols = (slice(None),) + (None,) * (d.ndim - 1)
    b2 = be.copy()
    b2[1:] += alpha * co[: ne - 1]
    b2[:no] += gamma * ao
    a2 = np.zeros(ne)
    a2[1:] = alpha * ao[: ne - 1]
    c2 = np.zeros(ne)
    c2[:no] = gamma * co
    d2 = de.copy()
    d2[1:] += alpha[cols] * do[: ne - 1]
    d2[:no] += gamma[cols] * do
    xe = _solve_tridiagonal(a2, b2, c2, d2)
    xo = do - ao[cols] * xe[:no]
    xo[: ne - 1] -= co[: ne - 1][cols] * xe[1:]
    xo /= bo[cols]
    x = np.empty_like(d)
    x[0::2] = xe
    x[1::2] = xo
    return x


def cubic_spline_coeffs(values, step: float) -> np.ndarray:
    """Not-a-knot cubic spline of uniform samples along axis 0.

    Returns coefficients in scipy's PPoly layout, shape (4, n - 1, ...):
    on segment i, at offset t from knot i, the spline is
    ((c[0] t + c[1]) t + c[2]) t + c[3].  Matches
    scipy.interpolate.CubicSpline (default not-a-knot ends) on the same
    samples.  Real or complex samples; needs n >= 4.
    """
    y = np.asarray(values)
    n = y.shape[0]
    if n < 4:
        raise InvalidInputError(f"cubic spline needs at least 4 samples, got {n}")
    slope = np.diff(y, axis=0) / step
    # slopes s_i solve s_{i-1} + 4 s_i + s_{i+1} = 3 (m_{i-1} + m_i) inside;
    # the not-a-knot ends, s_0 + 2 s_1 = (5 m_0 + m_1)/2 and its mirror, are
    # eliminated into rows 1 and n - 2, leaving interior unknowns s_1..s_{n-2}
    rhs = 3.0 * (slope[:-1] + slope[1:])
    rhs[0] = 0.5 * slope[0] + 2.5 * slope[1]
    rhs[-1] = 2.5 * slope[-2] + 0.5 * slope[-1]
    diag = np.full(n - 2, 4.0)
    diag[0] = diag[-1] = 2.0
    off = np.ones(n - 2)
    s = np.empty_like(y, dtype=np.result_type(y, float))
    s[1:-1] = _solve_tridiagonal(off, diag, off, rhs)
    s[0] = 0.5 * (5.0 * slope[0] + slope[1]) - 2.0 * s[1]
    s[-1] = 0.5 * (5.0 * slope[-1] + slope[-2]) - 2.0 * s[-2]
    t = (s[:-1] + s[1:] - 2.0 * slope) / step
    c = np.empty((4,) + slope.shape, dtype=t.dtype)
    c[0] = t / step
    c[1] = (slope - s[:-1]) / step - t
    c[2] = s[:-1]
    c[3] = y[:-1]
    return c


def eval_spline(table: np.ndarray, rows, q: np.ndarray, lower: float, step: float, upper: float) -> np.ndarray:
    """Values at q of stacked cubic splines on the knots lower + i * step; 0 outside [lower, upper].

    `table` holds m splines from cubic_spline_coeffs in segment-major
    order, shape (m, n - 1, 4), so one `np.take` fetches a whole cubic;
    `rows` and `q` broadcast against each other, and each q is read from
    the spline its row names, at their broadcast shape.
    """
    n_seg = table.shape[1]
    seg = np.clip(np.floor((q - lower) / step), 0, n_seg - 1).astype(int)
    c = np.take(table.reshape(-1, 4), rows * n_seg + seg, axis=0)
    t = q - (lower + seg * step)
    out = ((c[..., 0] * t + c[..., 1]) * t + c[..., 2]) * t + c[..., 3]
    return np.where((q >= lower) & (q <= upper), out, 0.0)
