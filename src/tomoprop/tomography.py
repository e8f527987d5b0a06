"""Invertible map between quantum states and marginal distributions.

Sign conventions are frozen (see CONVENTIONS.md): the forward transform
uses exp(i mu y^2 / (2 nu) - i X y / nu) inside the squared integral, the
inverse uses exp(+i (X - mu (x + x') / 2)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidFrameError, InvalidInputError
from .grids import (
    UniformGrid,
    cubic_spline_coeffs,
    eval_spline,
    fine_count,
    fine_need,
    integrate_samples,
    next_fast_len,
    padded_spectrum,
    trapezoid_weights,
)
from .states import DensityMatrix, WaveFunction

MAX_COMPONENTS = 16  # spectral components kept by spectral_components
WEIGHT_FLOOR = 1e-6  # smallest spectral weight kept
NEGATIVE_WEIGHT_BOUND = 0.1  # largest total |negative spectral weight| a density matrix may carry
MU_BAND_MAX = 40.0  # largest mu band of density_from_tomogram
MU_EDGE_THRESHOLD = 1e-8  # envelope / peak ratio of the slice characteristics that sets the mu band
_BLOCK_BYTES = 1 << 20  # temporaries one block of _transform_state_batch may hold (_block_bytes)
NEGATIVE_TOL = 1e-10  # most negative value a Tomogram accepts (and clips to 0)
DEFAULT_X_GRID = UniformGrid(-14.0, 14.0, 351)
DEFAULT_THETA_COUNT = 180
CONVENTION_VERSION = "tomoprop-conventions-1"


def angle_grid(count: int) -> UniformGrid:
    """Uniform angles 0, d, ..., pi - d with d = pi / count (all inside [0, pi))."""
    return UniformGrid(0.0, np.pi * (count - 1) / count, count)


@dataclass(frozen=True)
class Tomogram:
    """Marginal distribution w(X, theta) with mu = cos theta, nu = sin theta.

    The lattice is (x_grid, angle_grid(theta_count)): `values` has shape
    (theta_count, n_x), slice j at theta_j = j pi / theta_count.
    Off-lattice frames are served by `evaluate`, which applies the
    homogeneity law w(aX, a mu, a nu) = w(X, mu, nu)/|a| before any
    interpolation, so the scaling identity is algebraically exact.  A tomogram produced by a coordinate pullback
    keeps a reference to its base together with the linear frame map, so
    repeated pullbacks compose exactly at the coordinate level.

    `values` is read-only, so the three items built from it on first use
    and kept for the tomogram's life cannot go stale: `_segment_coeffs`,
    the X spline that `evaluate` reads, 32 n_theta (n_x - 1) bytes;
    `_characteristic_table`, the slice characteristics that the inverse
    transform reads, 16 n_theta (pad/2 + 4) bytes with pad the smallest
    power of two >= 16 n_x (2.0 MB and 11.8 MB on the default 351 x 180
    lattice), together with the frequency past which they all stay below
    MU_EDGE_THRESHOLD of their peak, which sets the inverse's mu band; and
    the Green route's input half, which `evolve_via_green` keeps with
    `_kept` in two entries: the moments and their moment grid on its first
    call, the reconstruction's kept eigenvectors, weights and meta once its
    refusals have passed, 16 components n_grid bytes (576 B for the
    default packet's one component on 36 points).
    """

    x_grid: UniformGrid
    theta_count: int
    values: np.ndarray
    base: "Tomogram | None" = None
    frame_map: np.ndarray | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        # building theta_grid also refuses a count below 8
        if vals.shape != (self.theta_grid.count, self.x_grid.count):
            raise InvalidInputError(
                f"tomogram values shape {vals.shape} does not match grids"
            )
        if not np.isfinite(vals).all():
            raise InvalidInputError("tomogram has non-finite values")
        if vals.min() < -NEGATIVE_TOL:
            raise InvalidInputError(
                f"tomogram has negative values down to {vals.min():.3g}"
            )
        vals = np.maximum(vals, 0.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def theta_grid(self) -> UniformGrid:
        return angle_grid(self.theta_count)

    def slice_norms(self) -> np.ndarray:
        return integrate_samples(self.values, self.x_grid.step)

    @cached_property
    def _segment_coeffs(self) -> np.ndarray:
        """Spline table for eval_spline, (n_theta, n_x - 1, 4): the cubic of slice j on segment seg."""
        # one not-a-knot cubic spline per theta slice, vectorized over slices
        c = cubic_spline_coeffs(self.values.T, self.x_grid.step)  # (4, n_x - 1, n_theta)
        return np.ascontiguousarray(c.transpose(2, 1, 0))

    @cached_property
    def _characteristic_table(self):
        """The slice characteristics `_slice_characteristic` reads, and how far
        they reach, as (taps, pad, lattice_per_freq, u_centre, envelope_edge).

        The trapezoid sum chi_j(f) = int w(u, theta_j) exp(i f u) du =
        exp(i f u_K) Q_j(f), centred on the slice's mean sample K = K_j at
        u_centre[j], has Q_j(g) = sum_k wu_k w_jk exp(i g (u_k - u_K))
        periodic in g with period 2 pi / h because k - K is an integer, and
        Q_j(-g) = conj Q_j(g).  One zero-padded real FFT per slice tabulates
        Q_j at g = 2 pi l / (pad h), l = -1 ... pad/2 + 2 (lattice_per_freq =
        pad h / (2 pi) points per unit of g); taps[j, l] holds the four points
        l - 1 ... l + 2 of slice j.  The padded coefficients are filled and
        transformed a block of slices at a time, so only the table spans them
        all.

        envelope_edge is the frequency past which the envelope E(g) =
        max_j |Q_j(g)| stays below MU_EDGE_THRESHOLD E(0) out to the half
        period pi/h, plus the two points the 4-point read needs, so a read
        at g >= envelope_edge takes only points below that level.
        E is gathered from each block's rfft output as it is made; a value
        past pi/h means E never settles within the half period.
        """
        n = self.theta_count
        count = self.x_grid.count
        pad = 1 << (16 * count - 1).bit_length()  # smallest power of two >= 16 count
        half = pad // 2
        weighted = self.values * trapezoid_weights(count, self.x_grid.step)
        k = np.arange(count)
        # any integer K_j is exact; the slice's mean sample keeps Q_j slowly varying
        mass = np.maximum(weighted.sum(axis=1), np.finfo(float).tiny)
        centre = np.rint(weighted @ k / mass).astype(int)
        # column c holds lattice point c - 1: the rfft half 0 ... pad/2, and by
        # Q(-g) = conj Q(g) and the period, the points -1, pad/2 + 1 and pad/2 + 2
        table = np.empty((n, half + 4), dtype=np.complex128)
        envelope = np.zeros(half + 1)  # max_j |Q_j| at the points 0 ... pad/2
        block = max(1, (1 << 17) // pad)  # slices a 1 MiB coefficient block holds
        for lo in range(0, n, block):
            w = weighted[lo : lo + block]
            coeffs = np.zeros((len(w), pad))
            # sample k sits at index K_j - k, so the forward FFT (sign -) sums exp(+i g (u_k - u_K))
            coeffs[np.arange(len(w))[:, None], (centre[lo : lo + block, None] - k) % pad] = w
            rows = table[lo : lo + block, 1 : half + 2]
            np.fft.rfft(coeffs, axis=1, out=rows)
            np.maximum(envelope, np.abs(rows).max(axis=0), out=envelope)
        table[:, 0] = table[:, 2].conj()
        table[:, half + 2 :] = table[:, half : half - 2 : -1].conj()
        taps = np.lib.stride_tricks.sliding_window_view(table, 4, axis=1)  # [j, l] = points l - 1 ... l + 2
        lattice_per_freq = pad * self.x_grid.step / (2.0 * np.pi)
        u_centre = self.x_grid.points[centre]
        # point 0 always qualifies; a read at pos >= last + 2 takes only points past the last one
        last = np.flatnonzero(envelope >= MU_EDGE_THRESHOLD * envelope[0])[-1]
        return taps, pad, lattice_per_freq, u_centre, (last + 2) / lattice_per_freq

    def _kept(self, name: str, build):
        """`build()`, made on the first call for `name` and kept with the
        tomogram, where a cached_property keeps its value."""
        kept = self.__dict__
        if name not in kept:
            kept[name] = build()
        return kept[name]

    def _interp_rows(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Cubic-spline values of slice `rows[q]` at positions `u[q]`; 0 outside."""
        g = self.x_grid
        return eval_spline(self._segment_coeffs, rows, u, g.lower, g.step, g.upper)

    def _evaluate_block(self, X: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """`evaluate` of this lattice tomogram on a block of frames with s > 0:
        mu and nu broadcast to X's shape, and their angles fold at their own."""
        s = np.hypot(mu, nu)
        flip, j0, j1, frac, wrap = _fold_frames(mu, nu, self.theta_count)
        u = np.where(flip, -X, X) / s
        u1 = np.where(wrap, -u, u)
        v0 = self._interp_rows(j0, u)
        v1 = self._interp_rows(j1, u1)
        return np.maximum((1.0 - frac) * v0 + frac * v1, 0.0) / s

    def evaluate(self, X, mu, nu):
        """w at arbitrary frames (X, mu, nu) with s = sqrt(mu^2+nu^2) > 0,
        at the broadcast shape of the three.

        Uses the homogeneity law to rescale to the unit circle, the parity
        identity w(X, theta + pi) = w(-X, theta) to fold angles into
        [0, pi), then interpolates (cubic in X, linear in theta).  The
        angles are folded at the broadcast shape of (mu, nu) alone, before
        they meet X: X of shape (r, c) with mu and nu of shape (r, 1) folds
        r angles, not r c, and gives the same values as the flattened call.
        The frames are read in blocks of whole rows (leading axes) of at
        most 8192 frames, or in 8192-frame pieces of one row.
        """
        if self.base is not None:
            q = self.frame_map @ np.stack(np.broadcast_arrays(
                np.asarray(X, dtype=float),
                np.asarray(mu, dtype=float),
                np.asarray(nu, dtype=float),
            )).reshape(3, -1)
            shape = np.broadcast_shapes(np.shape(X), np.shape(mu), np.shape(nu))
            out = self.base.evaluate(q[0], q[1], q[2])
            return out.reshape(shape) if shape else float(out.reshape(()))

        X = np.asarray(X, dtype=float)
        mu, nu = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(nu, dtype=float))
        if not (np.isfinite(X).all() and np.isfinite(mu).all() and np.isfinite(nu).all()):
            raise InvalidFrameError("tomogram frame has a non-finite coordinate")
        if np.any((mu == 0) & (nu == 0)):
            raise InvalidFrameError("tomogram frame mu = nu = 0 is degenerate")
        shape = np.broadcast_shapes(X.shape, mu.shape)
        # (rows, cols): the leading axes and the last one, where the angles
        # keep length 1 on whichever they do not vary along
        dims = shape or (1,)
        rows, cols = math.prod(dims[:-1]), dims[-1]
        X = np.broadcast_to(X, dims).reshape(rows, cols)
        mu, nu = (_as_rows(a, dims) for a in (mu, nu))
        angle_rows, angle_cols = mu.shape[0] > 1, mu.shape[1] > 1
        out = np.empty((rows, cols))
        chunk = 1 << 13  # blocks keep the temporaries small and cache-resident
        row_step, col_step = max(1, chunk // max(cols, 1)), max(1, min(cols, chunk))
        for r0 in range(0, rows, row_step):
            for c0 in range(0, cols, col_step):
                r, c = slice(r0, r0 + row_step), slice(c0, c0 + col_step)
                a = (r if angle_rows else slice(None), c if angle_cols else slice(None))
                out[r, c] = self._evaluate_block(X[r, c], mu[a], nu[a])
        return out.reshape(shape) if shape else float(out.reshape(()))

    def with_frame_map(self, matrix: np.ndarray) -> "Tomogram":
        """Pullback tomogram evaluating the base at `matrix @ (X, mu, nu)`.

        Lattice values are materialized for export and norm checks; the
        evaluation path composes maps exactly.  A frame map never mixes X
        into (mu', nu'): a matrix whose [1:, 0] is not exactly zero raises
        InvalidInputError.  So every lattice row j flows to one (mu', nu'),
        read from the row's first frame, and one `base.evaluate` of X' of
        shape (n_theta, n_x) against mu', nu' of shape (n_theta, 1) folds
        n_theta angles.
        """
        matrix = np.asarray(matrix, dtype=float)
        if np.any(matrix[1:, 0] != 0):
            raise InvalidInputError("a frame map must not mix X into (mu, nu): its [1:, 0] must be 0")
        base = self.base if self.base is not None else self
        composed = (self.frame_map @ matrix) if self.frame_map is not None else matrix
        n_theta, n_x = self.theta_count, self.x_grid.count
        theta = self.theta_grid.points
        q = composed @ np.stack([
            np.tile(self.x_grid.points, n_theta),
            np.repeat(np.cos(theta), n_x),
            np.repeat(np.sin(theta), n_x),
        ])
        X, mu, nu = q.reshape(3, n_theta, n_x)
        vals = base.evaluate(X, mu[:, :1], nu[:, :1])
        return Tomogram(
            x_grid=self.x_grid,
            theta_count=self.theta_count,
            values=vals,
            base=base,
            frame_map=composed,
            meta=dict(self.meta),
        )


def _as_rows(a: np.ndarray, dims: tuple) -> np.ndarray:
    """`a`, which broadcasts to `dims`, as a 2-D array over dims' leading axes
    and its last one, of length 1 along either that `a` does not span."""
    a = a.reshape((1,) * (len(dims) - a.ndim) + a.shape)
    if math.prod(a.shape[:-1]) > 1:
        a = np.broadcast_to(a, dims[:-1] + a.shape[-1:])
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def _fold_frames(mu: np.ndarray, nu: np.ndarray, n: int):
    """Place the angles of frames (mu, nu) on a stored lattice of n slices over [0, pi).

    Returns `flip` (the angle lies in [pi, 2 pi), so the folded slice is read
    at -X by parity), the bracketing slices `j0` and `j1`, the linear weight
    `frac` of `j1`, and `wrap` (`j1` is slice 0 reached across theta = pi,
    so it too is read at -X).
    """
    theta = np.arctan2(nu, mu)
    tm = np.mod(theta, np.pi)
    flip = np.round((theta - tm) / np.pi).astype(int) % 2 == 1
    f = tm / (np.pi / n)
    j0 = np.minimum(f.astype(int), n - 1)
    frac = f - j0
    wrap = j0 + 1 == n
    j1 = np.where(wrap, 0, j0 + 1)
    return flip, j0, j1, frac, wrap


# --- forward transforms ------------------------------------------------------


def _angle_pairs(n: int) -> list[tuple[int, int | None]]:
    """The slices of angle_grid(n) as (j, n - j), theta_j and its partner
    pi - theta_j, for 1 <= j < n/2, then (0, None) and, for even n,
    (n/2, None): theta = 0 and pi/2 are their own partners.  |cos theta|
    and sin theta are the same for j and n - j.
    """
    groups = [(j, n - j) for j in range(1, (n + 1) // 2)]
    groups.append((0, None))
    if n % 2 == 0:
        groups.append((n // 2, None))
    return groups


def _momentum_grid(grid: UniformGrid) -> UniformGrid:
    """The DFT frequencies of `grid`'s samples, p_k = k 2 pi / (n h) for
    k = -n//2 ... n - 1 - n//2: the momentum side's lattice, of period 2 pi / h."""
    n = grid.count
    dp = 2.0 * np.pi / (n * grid.step)
    return UniformGrid(-(n // 2) * dp, (n - 1 - n // 2) * dp, n)


def _slice_plan(grid: UniformGrid, x_grid: UniformGrid, theta_count: int, n_states: int):
    """The blocks of `_transform_state_batch`, as (side, count, rows, kernels).

    A unit of work is a pair of slices (j, n - j), or theta = 0 or pi/2
    alone (`_angle_pairs`), read from the position samples, side 0, or
    from the momentum samples, side 1, at the fine count that side needs
    for its chirp's phase rate plus its samples' band: pi / h on the
    position side, the state grid's x reach on the momentum side, since
    psi~(p) = sum_j psi_j exp(-i p x_j) up to a constant.
    Each unit takes the side whose fine count is smaller, the position
    side on a tie; only the chosen side's count is checked against
    MAX_FINE, so a refusal means both sides need more.  |cos theta| and
    sin theta, and so both counts, are the same for j and n - j.  The
    units, sorted by side and count, fill blocks while `_block_bytes` at
    the block's largest count stays within _BLOCK_BYTES.  A block's `rows`
    list the first slice of each unit, paired units first, then the
    partners in the same order, so partner q shares kernel q; `kernels` is
    the number of units.
    """
    theta = angle_grid(theta_count).points
    groups = _angle_pairs(theta_count)
    first = [j for j, _ in groups]
    mu, nu = np.abs(np.cos(theta[first])), np.sin(theta[first])
    p_grid = _momentum_grid(grid)
    with np.errstate(divide="ignore"):  # nu = 0 (mu = 0) rules out the position (momentum) side
        x_rate = (mu * grid.reach + x_grid.reach) / nu
        p_rate = (nu * np.pi / grid.step + x_grid.reach) / mu
    x_band, p_band = np.pi / grid.step, grid.reach
    x_need, p_need = fine_need(grid, x_rate, x_band), fine_need(p_grid, p_rate, p_band)
    units = []
    for group, xr, pr, xn, pn in zip(groups, x_rate, p_rate, x_need, p_need):
        # a fine count is the smallest allowed count at or above the need,
        # so the position side's count exceeds p_count exactly when its need does
        slices = tuple(k for k in group if k is not None)
        if pn < xn and xn > (p_count := fine_count(p_grid, pr, p_band)):
            units.append((1, p_count, slices))
        else:
            units.append((0, fine_count(grid, xr, x_band), slices))
    units.sort(key=lambda u: u[:2])
    blocks = []
    lo = 0
    while lo < len(units):
        hi, rows = lo + 1, len(units[lo][2])
        while hi < len(units) and units[hi][0] == units[lo][0]:
            rows += len(units[hi][2])
            if _block_bytes(rows, hi + 1 - lo, units[hi][1], n_states, x_grid.count) > _BLOCK_BYTES:
                break
            hi += 1
        block = sorted(units[lo:hi], key=lambda u: -len(u[2]))
        rows = [u[2][0] for u in block] + [u[2][1] for u in block if len(u[2]) == 2]
        blocks.append((*units[hi - 1][:2], rows, len(block)))
        lo = hi
    return blocks


def _transform_state_batch(
    grid: UniformGrid,
    states: np.ndarray,
    weights: np.ndarray,
    x_grid: UniformGrid,
    theta_count: int = DEFAULT_THETA_COUNT,
) -> np.ndarray:
    """Tomogram values for rho = sum_k weights[k] |psi_k><psi_k| on the
    lattice (x_grid, angle_grid(theta_count)).

    Every slice is one sum w(X, mu', nu') = |sum_k dy s(y_k) exp(i mu' y_k^2
    / (2 nu') - i X y_k / nu')|^2 / (2 pi |nu'|) over uniform samples s,
    read from one of two sides (CONVENTIONS.md):

    - position: s = psi FFT-upsampled over its grid's period, frame
      (mu', nu') = (mu, nu), phase rate (|mu| y_reach + X_reach) / |nu|;
    - momentum: s = psi~(p_k) = h / sqrt(2 pi) exp(-i p_k x_lower)
      FFT_N(psi zero-padded to N)[k mod N] on p_k = k 2 pi / (N h),
      k = -N/2 ... N/2 - 1, frame (nu, -mu), since the Fourier transform
      maps the quadrature mu x + nu p to nu x - mu p; phase rate
      (|nu| pi / h + X_reach) / |mu| over the period 2 pi / h.

    Each slice takes the side that needs fewer fine samples (`_slice_plan`),
    so theta = 0 is read from the momentum side and no slice needs a limit
    form.  The sum at the uniform X_m = X_c + m dX is a chirp-z transform:
    with a = dX dy / nu' and k, m centred integer offsets, exp(-i X_m y_k
    / nu') equals exp(-i X_c y_k / nu') exp(-i a k^2/2) exp(+i a (m - k)^2/2)
    times a phase in m alone, so |amp_m| is the modulus of one linear
    convolution with the kernel exp(i a j^2/2), done by FFT (Bluestein's
    algorithm).  The slices theta and pi - theta share a kernel: on the
    position side their frames are (mu, nu) and (-mu, nu), and the partner
    takes the conjugate chirp; on the momentum side they are (mu', nu') and
    (mu', -nu'), and the partner sums conj(psi~) at (mu', nu'), whose
    modulus is the same.

    The units of work are sorted by side and fine count and run in blocks
    whose temporaries stay within _BLOCK_BYTES: a block takes its fine
    samples once, at its largest count, and runs one batched kernel FFT and
    one batched FFT, kernel product and inverse FFT.
    """
    blocks = _slice_plan(grid, x_grid, theta_count, states.shape[0])  # refuses before allocating
    theta = angle_grid(theta_count).points
    cos, sin = np.cos(theta), np.sin(theta)
    spectrum = np.fft.fft(states, axis=1)  # shared by every block
    out = np.empty((theta_count, x_grid.count))
    for side, count, rows, kernels in blocks:
        pairs = len(rows) - kernels
        if side == 0:
            y, step, samples = _position_samples(grid, states, spectrum, count)
            partner_samples = samples
            mu, nu = cos[rows], sin[rows]
            mu[kernels:], nu[kernels:] = -mu[:pairs], nu[:pairs]  # exactly (-mu, nu)
        else:
            y, step, samples = _momentum_samples(grid, states, spectrum, count)
            partner_samples = samples.conj()
            mu, nu = sin[rows], -cos[rows]
            mu[kernels:], nu[kernels:] = mu[:pairs], nu[:pairs]  # (mu', -nu') is conj(psi~) at (mu', nu')
        power = _chirp_z_power(samples, partner_samples, y, step, mu, nu, kernels, x_grid, side == 1)
        out[rows] = weights @ power / (2.0 * np.pi * np.abs(nu))[:, None]
    return out


def _block_bytes(rows: int, kernels: int, count: int, n_states: int, n_x: int) -> int:
    """Bytes of a block's temporaries: fine samples, the partners' samples and
    the spectrum they come from, the padded buffer, the kernels before and
    after their FFT, the phase argument, chirp and shift per row, and the power."""
    size = count + n_x - 1  # within a few per cent of its next_fast_len
    return 16 * (
        3 * n_states * count
        + rows * n_states * size
        + 2 * kernels * size
        + 3 * rows * count
        + rows * n_states * n_x
    )


def _position_samples(grid: UniformGrid, states: np.ndarray, spectrum: np.ndarray, count: int):
    """psi FFT-upsampled to `count` samples over its grid's period: (y, dy, samples)."""
    if count == grid.count:
        return grid.points, grid.step, states
    step = grid.count * grid.step / count
    return grid.lower + step * np.arange(count), step, np.fft.ifft(padded_spectrum(spectrum, count))


def _momentum_samples(grid: UniformGrid, states: np.ndarray, spectrum: np.ndarray, count: int):
    """psi~ on `count` momenta p_k = k 2 pi / (count h), k = -count//2 ...: (p, dp, samples)."""
    h = grid.step
    step = 2.0 * np.pi / (count * h)
    p = step * (np.arange(count) - count // 2)
    dft = spectrum if count == grid.count else np.fft.fft(states, count, axis=1)
    phase = (h / np.sqrt(2.0 * np.pi)) * np.exp(-1j * grid.lower * p)
    return p, step, np.fft.fftshift(dft, axes=1) * phase


def _chirp_z_power(
    samples: np.ndarray,
    partner_samples: np.ndarray,
    y: np.ndarray,
    step: float,
    mu: np.ndarray,
    nu: np.ndarray,
    kernels: int,
    x_grid: UniformGrid,
    shared_phase: bool,
) -> np.ndarray:
    """|sum_k step s[k] exp(i mu_r y_k^2/(2 nu_r) - i X y_k/nu_r)|^2 for every
    row r and state on the X lattice, shape (rows, n_states, n_x).

    Rows r < `kernels` sum `samples` with kernel r; the rows past them are
    partners, which sum `partner_samples` and share the kernel of row
    r - kernels, so their nu must equal its nu.  With `shared_phase` every
    partner's mu equals its first row's too, as on the momentum side, and
    the partners also share that row's chirp and shift, evaluated once.
    """
    n_y = y.size
    n_x = x_grid.count
    size = next_fast_len(n_y + n_x - 1)
    pairs = mu.size - kernels
    distinct = kernels if shared_phase else mu.size
    a = x_grid.step * step / nu[:distinct]
    k = np.arange(n_y) - n_y // 2
    # sample k sits at index k + n_y // 2 and kernel j = m - k at index
    # j + lag, so output m lands at index m + n_x // 2 + n_y - 1
    lag = n_y - 1 - n_y // 2 + n_x // 2
    j_kernel = np.arange(n_y + n_x - 1) - lag
    kernel = np.fft.fft(_chirp_kernels(a[:kernels], j_kernel), size, axis=1)
    x_centre = x_grid.points[n_x // 2]
    arg = np.multiply.outer(0.5 * mu[:distinct] / nu[:distinct], y**2)
    arg -= np.multiply.outer(x_centre / nu[:distinct], y)
    arg -= np.multiply.outer(0.5 * a, k**2)
    phase = step * np.exp(1j * arg)  # chirp times shift
    del arg
    # writing into the padded buffer leaves the caller's states untouched
    buf = np.zeros((mu.size, samples.shape[0], size), dtype=np.complex128)
    np.multiply(samples, phase[:kernels, None, :], out=buf[:kernels, :, :n_y])
    partner_phase = phase[:pairs] if shared_phase else phase[kernels:]
    np.multiply(partner_samples, partner_phase[:, None, :], out=buf[kernels:, :, :n_y])
    del phase, partner_phase
    np.fft.fft(buf, axis=2, out=buf)
    buf[:kernels] *= kernel[:, None, :]
    buf[kernels:] *= kernel[:pairs, None, :]
    np.fft.ifft(buf, axis=2, out=buf)
    return np.abs(buf[:, :, n_y - 1 : n_y - 1 + n_x]) ** 2


def _chirp_kernels(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """exp(i a_r j^2 / 2) for each a_r and integer lag j, shape (a.size, j.size).

    j^2 is the same for j and -j, so each row is evaluated once on the lags
    0 ... max |j| and gathered by |j|: the same floating-point operations
    on the same operands, hence bit for bit the direct evaluation.
    """
    lags = np.arange(np.abs(j).max() + 1)
    return np.exp(0.5j * np.multiply.outer(a, lags**2))[:, np.abs(j)]


def _normalize_slices(values: np.ndarray, x_step: float) -> np.ndarray:
    norms = integrate_samples(values, x_step)
    if np.any(norms <= 0.5):
        warnings.warn("tomogram slice mass far from 1; skipping renormalization", stacklevel=3)
        return values
    return values / norms[:, None]


def tomogram_from_wavefunction(
    psi: WaveFunction,
    x_grid: UniformGrid | None = None,
    theta_count: int = DEFAULT_THETA_COUNT,
) -> Tomogram:
    """Forward transform of a pure state.

    w(X, cos t, sin t) = |int psi(y) exp(i mu y^2/(2 nu) - i X y/nu) dy|^2
    / (2 pi |nu|), each slice read from the position or the momentum
    samples, whichever needs fewer (`_transform_state_batch`).
    """
    x_grid = x_grid or DEFAULT_X_GRID
    vals = _transform_state_batch(psi.grid, psi.values[None, :], np.array([1.0]), x_grid, theta_count)
    vals = _normalize_slices(vals, x_grid.step)
    return Tomogram(x_grid=x_grid, theta_count=theta_count, values=vals)


def spectral_components(rho: DensityMatrix):
    """The cut of rho's spectrum that the forward transform and the Green route share.

    Returns (states, weights, meta): the kept eigenvectors as L2-normalized
    rows, their weights (eigenvalue times grid step, largest first) and the
    meta keys `components`, `weight_kept` and `weight_dropped` (sums of
    |weight|).  Rounding and reconstruction noise spread a Hermitian
    matrix's eigenvalues on both sides of zero, so a positive weight no
    larger than the most negative one's magnitude cannot be told apart from
    that noise: kept are the positive weights above that magnitude and above
    WEIGHT_FLOOR, at most MAX_COMPONENTS of them.  Negative weights summing
    beyond NEGATIVE_WEIGHT_BOUND in magnitude raise InvalidInputError.
    """
    h = rho.grid.step
    evals, evecs = np.linalg.eigh(rho.values)
    weights = evals * h  # integral-operator eigenvalues, ascending
    negative = -weights[weights < 0].sum()
    if negative > NEGATIVE_WEIGHT_BOUND:
        raise InvalidInputError(
            f"density matrix is too indefinite for a tomogram (negative weight {negative:.3g})"
        )
    keep = np.flatnonzero(weights > max(-weights[0], WEIGHT_FLOOR))[::-1][:MAX_COMPONENTS]
    if not keep.size:
        raise InvalidInputError("density matrix has no significant spectral weight")
    states = (evecs[:, keep].T / np.sqrt(h)).astype(np.complex128)
    meta = {
        "components": int(keep.size),
        "weight_kept": float(weights[keep].sum()),
        "weight_dropped": float(np.abs(np.delete(weights, keep)).sum()),
    }
    return states, weights[keep], meta


def tomogram_from_density(
    rho: DensityMatrix,
    x_grid: UniformGrid | None = None,
    theta_count: int = DEFAULT_THETA_COUNT,
) -> Tomogram:
    """Forward transform of a (possibly mixed) density matrix.

    The bilinear transform is evaluated through the spectral decomposition
    of rho: each eigenvector kept by `spectral_components` goes through the
    pure-state transform and the tomogram is the weighted sum.  For a
    pure-state projector this reduces exactly to the wavefunction route.
    The meta records the cut's `components`, `weight_kept` and
    `weight_dropped`.
    """
    x_grid = x_grid or DEFAULT_X_GRID
    states, weights, meta = spectral_components(rho)
    vals = _transform_state_batch(rho.grid, states, weights, x_grid, theta_count)
    vals = _normalize_slices(vals, x_grid.step)
    return Tomogram(x_grid=x_grid, theta_count=theta_count, values=vals, meta=meta)


def tomogram_moments(tomo: Tomogram):
    """Mean (<x>, <p>) and covariance matrix of the state behind a tomogram.

    The slice at theta, with (mu, nu) = (cos theta, sin theta), has mean
    <X> = mu <x> + nu <p> and second moment <X^2> = mu^2 <x^2>
    + 2 mu nu <xp>_sym + nu^2 <p^2>; both are solved by least squares over
    the stored slices, whose moments are trapezoid sums over X.
    """
    th = tomo.theta_grid.points
    mu, nu = np.cos(th), np.sin(th)
    X = tomo.x_grid.points
    weighted = tomo.values * trapezoid_weights(X.size, tomo.x_grid.step)
    mass = weighted.sum(axis=1)
    first = weighted @ X / mass
    second = weighted @ X**2 / mass
    mean = np.linalg.lstsq(np.stack([mu, nu], axis=1), first, rcond=None)[0]
    xx, xp, pp = np.linalg.lstsq(np.stack([mu**2, 2.0 * mu * nu, nu**2], axis=1), second, rcond=None)[0]
    return mean, np.array([[xx, xp], [xp, pp]]) - np.outer(mean, mean)


# --- inverse transform -------------------------------------------------------


def _lagrange_weights(t: np.ndarray) -> np.ndarray:
    """4-point cubic Lagrange weights, shape t.shape + (4,), of the nodes
    -1, 0, 1, 2 at offsets t in [0, 1]; t = 0 gives exactly (0, 1, 0, 0)."""
    return np.stack([
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -(t + 1.0) * t * (t - 2.0) / 2.0,
        (t + 1.0) * t * (t - 1.0) / 6.0,
    ], axis=-1)


def _slice_characteristic(
    tomo: Tomogram, mu: np.ndarray, nu: np.ndarray
) -> np.ndarray:
    """K(mu, nu) = int w(X, mu, nu) exp(i X) dX for arrays of frames.

    Reduced by homogeneity to the characteristic function of the stored
    theta slices: K = chi_theta(+-s) with chi_theta(f) = int w(u, theta)
    exp(i f u) du, interpolated in theta by 4-point cubic Lagrange weights
    over the slices j0 - 1 ... j0 + 2 around the frame's folded angle.
    Those taps lie on the parity-extended circle of 2 n angles: a tap
    below 0 or at n or above reads slice j mod n at -X, since w(X, theta
    + pi) = w(-X, theta).  The slices are real, so chi_theta(-s) = conj
    chi_theta(s): each frame reads its four slices at f = s >= 0 and
    conjugates where the fold or the tap's wrap says so.  At a lattice
    angle the weights are exactly (0, 1, 0, 0), so the frame reads its
    slice alone.

    chi_j(f) = exp(i f u_K) Q_j(f) is read from the tomogram's
    `_characteristic_table`, built on the first call and kept with the
    tomogram (11.8 MB on the default lattice): each frame folds s into the
    half period of Q_j and reads it by the same 4-point Lagrange
    interpolation (about 1e-9 against the dense sum), one gather of the
    four slices' taps.
    """
    n = tomo.theta_count
    taps, pad, lattice_per_freq, u_centre, _ = tomo._characteristic_table
    half = pad // 2
    offsets = np.arange(-1, 3)

    mu = mu.ravel()
    nu = nu.ravel()
    out = np.empty(mu.size, dtype=np.complex128)
    chunk = 1 << 13  # as in Tomogram.evaluate: the per-frame temporaries stay small
    for lo in range(0, mu.size, chunk):
        hi = min(lo + chunk, mu.size)
        s = np.hypot(mu[lo:hi], nu[lo:hi])
        flip, j0, _, frac, _ = _fold_frames(mu[lo:hi], nu[lo:hi], n)
        ext = j0[:, None] + offsets  # taps on the circle of 2 n angles, -1 ... n + 1
        rows = ext % n
        conj = flip[:, None] ^ (ext != rows)  # a tap across theta = 0 or pi reads -X
        pos = np.mod(s * lattice_per_freq, pad)
        upper = pos > half  # Q(pos) = conj Q(pad - pos)
        pos = np.where(upper, pad - pos, pos)
        l0 = np.floor(pos).astype(int)
        q = (taps[rows, l0[:, None]] @ _lagrange_weights(pos - l0)[:, :, None])[..., 0]
        np.negative(q.imag, out=q.imag, where=upper[:, None])
        q *= np.exp(1j * s[:, None] * u_centre[rows])  # chi_j(s)
        np.negative(q.imag, out=q.imag, where=conj)  # chi_j(-s)
        out[lo:hi] = np.einsum("qr,qr->q", q, _lagrange_weights(frac))
        out[lo:hi][s == 0] = 1.0  # chi_theta(0) = 1 for every theta by normalization
    return out


def density_from_tomogram(
    tomo: Tomogram,
    target_grid: UniformGrid,
    *,
    mu_step: float = 0.05,
) -> DensityMatrix:
    """Inverse transform rho(x, x') = (1/2 pi) iint w(X, mu, x - x')
    exp(i (X - mu (x + x')/2)) dmu dX.

    Computation exploits that the integrand depends on (x, x') only through
    nu = x - x' and sigma = x + x', both of which live on small
    difference/sum lattices of the target grid.  The tomogram is real, so
    K(-mu, -nu) = conj K(mu, nu): only the nu >= 0 half of the lattice is
    evaluated, it gives the lower triangle x >= x', and the upper one is
    its conjugate transpose.

    The mu integral is truncated at |mu| <= band, chosen once per tomogram
    from the envelope E(f) = max_j |Q_j(f)| of its `_characteristic_table`:
    the band is the frequency past which E stays below MU_EDGE_THRESHOLD
    E(0) out to the table's half period pi/h (with the two table points
    the 4-point read needs), capped at min(pi/h, MU_BAND_MAX).  Every frame
    at |mu| >= band has radius s >= band and |K(mu, nu)| = |chi_theta(s)|
    <= E(s), so the band bounds the truncated edge for any state, pure or
    mixed, without a Gaussian assumption; it reads only the fundamental
    period, so it never stops on a periodic image.

    Frames past radius pi/h read 0: a slice sampled at X step h has a
    characteristic known only out to pi/h, and the table holds its
    periodic images beyond.  Only a band capped at pi/h reads past it, on
    its edge rows up to one mu step out, which mirror the characteristic
    within that step of pi/h.  The meta reports `mu_band`, `mu_edge_ratio`
    (the largest |K| on the band's edge rows over the peak) and
    `accuracy_warning`, set when E is still above the threshold at the
    capped band; `refuse_unresolved` turns it into an error.

    The mu quadrature is a trapezoid sum of step `mu_step`, which folds the
    state at sigma/2 +- 2 pi/mu_step onto rho at sigma/2.  The default 0.05
    puts those images 2 pi/0.05 = 126 away, so a target grid need not cover
    the state (`reconstruct` reads any grid it is given).  A caller whose
    target grid of span L holds the state may pass pi / L, which puts them
    2 L away, outside the grid (`evolve_via_green` does).
    """
    n = target_grid.count
    h = target_grid.step
    nu_vals = np.arange(n) * h
    sigma_vals = 2.0 * target_grid.lower + np.arange(2 * n - 1) * h

    envelope_edge = tomo._characteristic_table[4]
    nyquist = np.pi / tomo.x_grid.step
    band = min(envelope_edge, nyquist, MU_BAND_MAX)
    m_half = int(np.ceil(band / mu_step))
    mu_axis = np.arange(-m_half, m_half + 1) * mu_step
    Mu, Nu = np.meshgrid(mu_axis, nu_vals, indexing="ij")
    # past radius pi/h the table holds periodic images, not the slices' characteristics;
    # a band capped at pi/h keeps its edge rows, which mirror the last step inside
    reach = max(nyquist, mu_axis[-1])
    inside = Mu**2 + Nu**2 <= reach**2
    K = np.zeros(Mu.shape, dtype=np.complex128)
    K[inside] = _slice_characteristic(tomo, Mu[inside], Nu[inside])
    # |K| is mirror-symmetric, so each edge row's missing half is the other's present one
    edge = max(np.abs(K[0]).max(), np.abs(K[-1]).max())
    peak = np.abs(K).max()
    edge_ratio = edge / peak if peak > 0 else 0.0
    accuracy_warning = band < envelope_edge

    weighted = K.T * (trapezoid_weights(mu_axis.size, mu_step) / (2.0 * np.pi))  # (n_nu, n_mu)
    # rho[i, j] (i >= j) reads nu index d = i - j and sigma index i + j, which
    # share parity, so each parity is one mu quadrature on half the rows and columns
    i, j = np.tril_indices(n)
    d, sigma = i - j, i + j
    rho = np.zeros((n, n), dtype=np.complex128)
    for parity in (0, 1):
        table = weighted[parity::2] @ np.exp(-0.5j * np.outer(mu_axis, sigma_vals[parity::2]))
        sel = d % 2 == parity
        rho[i[sel], j[sel]] = table[d[sel] // 2, sigma[sel] // 2]
    rho += np.tril(rho, -1).conj().T
    np.fill_diagonal(rho, rho.diagonal().real)
    return DensityMatrix(
        grid=target_grid,
        values=rho,
        meta={
            "accuracy_warning": bool(accuracy_warning),
            "mu_edge_ratio": float(edge_ratio),
            "mu_band": float(band),
        },
    )


def refuse_unresolved(tomo: Tomogram, meta: dict) -> None:
    """Raise InvalidInputError when an inverse transform of `tomo` with
    this meta set accuracy_warning, naming the cause: the slice
    characteristics stay above MU_EDGE_THRESHOLD of their peak out to the
    mu band's cap min(pi/h, MU_BAND_MAX), and a slice sampled at X step h
    has a characteristic of period 2 pi/h in frequency, known only out to
    pi/h."""
    if meta["accuracy_warning"]:
        h = tomo.x_grid.step
        raise InvalidInputError(
            f"inverse transform unresolved: the slice characteristics stay above "
            f"{MU_EDGE_THRESHOLD:g} of their peak out to the mu band's cap {meta['mu_band']:.3g} "
            f"(pi/h = {np.pi / h:.3g} for the X step h = {h:.3g}, past which each slice characteristic "
            f"repeats with period 2 pi/h = {2.0 * np.pi / h:.3g}; MU_BAND_MAX = {MU_BAND_MAX:g}); "
            f"a finer X grid avoids this"
        )


def optical_slice(tomo: Tomogram, phi: float) -> np.ndarray:
    """Optical tomogram w(X, phi) = w(X, cos phi, sin phi) on the stored X grid.

    Angles are reduced mod 2 pi; the parity identity serves [pi, 2 pi).
    """
    phi = float(np.mod(phi, 2.0 * np.pi))
    return tomo.evaluate(tomo.x_grid.points, np.cos(phi), np.sin(phi))
