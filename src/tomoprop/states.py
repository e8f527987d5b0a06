"""Wavefunctions, density matrices, and Schroedinger-side evolution."""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnsupportedStateError
from .greens import GreenFunction
from .grids import UniformGrid, integrate_samples, refine_count, trapezoid_weights, upsample

DEFAULT_POSITION_GRID = UniformGrid(-12.0, 12.0, 512)
MAX_HERMITE_INDEX = 32
NORM_DRIFT_TOLERANCE = 1e-4


# --- state presets -----------------------------------------------------------


@dataclass(frozen=True)
class HarmonicEigenstate:
    """Oscillator eigenstate |n> with omega = 1."""

    n: int


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian wave packet with center x0, momentum p0, width sigma."""

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0


@dataclass(frozen=True)
class Superposition:
    """Normalized superposition of presets with complex coefficients."""

    terms: tuple  # of (coefficient, preset) pairs


StateSpec = HarmonicEigenstate | GaussianPacket | Superposition


# a "+" separates superposition terms unless it is an exponent sign, as in 1e+2
_TERM_SPLIT = re.compile(r"(?<![0-9.][eE])\+")


def _number(text: str, kind, spec: str):
    try:
        value = kind(text)
    except ValueError:
        raise InvalidInputError(f"malformed number {text!r} in state spec {spec!r}") from None
    if kind is float and not np.isfinite(value):
        raise InvalidInputError(f"non-finite number {text!r} in state spec {spec!r}")
    return value


def parse_state_spec(text: str) -> StateSpec:
    """Parse CLI-style state descriptors.

    Accepts "ho_ground", "ho:<n>", "gaussian:<x0>,<p0>,<sigma>", and
    "super:<c0>*<spec>+<c1>*<spec>" with real coefficients.  Malformed
    or non-finite numbers raise InvalidInputError.
    """
    text = text.strip()
    if text == "ho_ground":
        return HarmonicEigenstate(0)
    if text.startswith("ho:"):
        return HarmonicEigenstate(_number(text[3:], int, text))
    if text.startswith("gaussian:"):
        parts = [_number(p, float, text) for p in text[len("gaussian:"):].split(",")]
        if len(parts) != 3:
            raise InvalidInputError(f"gaussian spec needs x0,p0,sigma: {text!r}")
        return GaussianPacket(*parts)
    if text.startswith("super:"):
        terms = []
        for chunk in _TERM_SPLIT.split(text[len("super:"):]):
            coeff_text, _, inner = chunk.partition("*")
            terms.append((_number(coeff_text, float, text), parse_state_spec(inner)))
        return Superposition(tuple(terms))
    raise InvalidInputError(f"unknown state spec {text!r}")


def state_spec_to_dict(spec: StateSpec) -> dict:
    if isinstance(spec, HarmonicEigenstate):
        return {"kind": "ho", "n": spec.n}
    if isinstance(spec, GaussianPacket):
        return {"kind": "gaussian", "x0": spec.x0, "p0": spec.p0, "sigma": spec.sigma}
    if isinstance(spec, Superposition):
        return {
            "kind": "superposition",
            "terms": [[complex(c).real, state_spec_to_dict(s)] for c, s in spec.terms],
        }
    raise InvalidInputError(f"unknown state spec {spec!r}")


# --- wavefunction ------------------------------------------------------------


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes sampled on a uniform position grid."""

    grid: UniformGrid
    values: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(integrate_samples(np.abs(self.values) ** 2, self.grid.step).real))

    @classmethod
    def normalized(cls, grid: UniformGrid, values) -> "WaveFunction":
        values = np.asarray(values, dtype=np.complex128)
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = np.sqrt(integrate_samples(np.abs(values) ** 2, grid.step).real)
        if norm == 0:
            raise InvalidInputError("cannot normalize the zero function")
        if not np.isfinite(norm):
            raise InvalidInputError("cannot normalize a function with non-finite norm")
        return cls(grid=grid, values=values / norm)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_0 .. psi_{n_max} via stable recurrence."""
    if n_max > MAX_HERMITE_INDEX:
        raise UnsupportedStateError(
            f"Hermite index {n_max} exceeds supported maximum {MAX_HERMITE_INDEX}"
        )
    out = np.empty((n_max + 1, x.size))
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = np.sqrt(2.0 / n) * x * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def _preset_values(spec: StateSpec, x: np.ndarray) -> np.ndarray:
    if isinstance(spec, HarmonicEigenstate):
        if spec.n < 0:
            raise InvalidInputError("eigenstate index must be nonnegative")
        return hermite_functions(spec.n, x)[spec.n].astype(np.complex128)
    if isinstance(spec, GaussianPacket):
        if spec.sigma <= 0:
            raise InvalidInputError(f"packet width must be positive, got {spec.sigma}")
        try:
            amp = (np.pi * spec.sigma**2) ** (-0.25)
        except (ZeroDivisionError, OverflowError):
            raise InvalidInputError(
                f"packet width {spec.sigma} is out of range: its amplitude cannot be formed"
            ) from None
        return amp * np.exp(-((x - spec.x0) ** 2) / (2.0 * spec.sigma**2) + 1j * spec.p0 * x)
    if isinstance(spec, Superposition):
        total = np.zeros(x.size, dtype=np.complex128)
        for coeff, inner in spec.terms:
            total += coeff * _preset_values(inner, x)
        return total
    raise InvalidInputError(f"unknown state spec {spec!r}")


def make_state(spec: StateSpec | str, grid: UniformGrid | None = None) -> WaveFunction:
    """Build a unit-norm wavefunction for a preset descriptor."""
    if isinstance(spec, str):
        spec = parse_state_spec(spec)
    grid = grid or DEFAULT_POSITION_GRID
    return WaveFunction.normalized(grid, _preset_values(spec, grid.points))


# --- density matrix ----------------------------------------------------------


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian grid matrix rho(x_i, x_j); Hermitian by construction.

    `factors`, when set, is the (states, weights) the matrix was built
    from: rho = sum_k weights[k] |states[k]><states[k]|, the rows sampled on
    `grid` and not necessarily orthonormal.  `density_from_wavefunction`
    and the Green route's evolved matrix set it, and
    `tomography.spectral_components` returns it in place of an
    eigendecomposition.  A matrix read from a file or made by the inverse
    transform carries none.
    """

    grid: UniformGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)
    factors: tuple | None = field(default=None, compare=False, repr=False)

    def trace(self) -> float:
        return float(integrate_samples(np.diag(self.values).real, self.grid.step))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.conj().T)))

    def validate(self) -> None:
        if self.hermiticity_defect() > 1e-12:
            raise InvalidInputError("density matrix is not Hermitian")
        if abs(self.trace() - 1.0) > 1e-6:
            raise InvalidInputError(f"density matrix trace {self.trace()} != 1")
        diag = np.diag(self.values)
        if np.max(np.abs(diag.imag)) > 1e-10 or diag.real.min() < -1e-10:
            raise InvalidInputError("density-matrix diagonal must be real nonnegative")


def density_from_wavefunction(psi: WaveFunction) -> DensityMatrix:
    """Pure-state projector rho(x, x') = Psi(x) conj(Psi(x')), carrying Psi
    with weight 1 as its factors."""
    v = psi.values
    return DensityMatrix(grid=psi.grid, values=np.outer(v, v.conj()), factors=(v[None, :], np.ones(1)))


# --- evolution ---------------------------------------------------------------


def propagate_states(
    states: np.ndarray, grid: UniformGrid, out_grid: UniformGrid, green: GreenFunction, t: float
) -> np.ndarray:
    """Rows psi_k sampled on `grid` to int G(x, y, t) psi_k(y) dy on `out_grid`.

    The samples are FFT-upsampled (`grids.upsample`) to `refine_count`
    points, whose step resolves the kernel's phase rate over both grids
    plus the samples' own band pi / h, where the trapezoid rule is exact
    up to the samples' tails; a count above grids.MAX_FINE raises
    NumericalDomainError before anything is allocated.  All rows share
    each y-chunk of the kernel, which bounds its memory.
    """
    rate = green.phase_rate_bound(out_grid.reach, grid.reach, t)
    y, step, vals = upsample(grid, states, refine_count(grid, rate))
    x = out_grid.points
    out = np.zeros((states.shape[0], x.size), dtype=np.complex128)
    w = trapezoid_weights(y.size, step)
    chunk = 1 << 13
    for lo in range(0, y.size, chunk):
        hi = min(lo + chunk, y.size)
        out += (vals[:, lo:hi] * w[lo:hi]) @ green(x[None, :], y[lo:hi, None], t)  # G(x_j, y_i) at [i, j]
    return out


def evolve_wavefunction(psi: WaveFunction, green: GreenFunction, t: float) -> WaveFunction:
    """Quadrature evolution Psi_t(x) = int G(x, y, t) Psi(y) dy on psi's own grid.

    The one-state case of `propagate_states`.  t = 0 returns the input
    unchanged.  At oscillator caustics t = n*pi the kernel is a delta limit
    and the caustic error propagates.  Norm drift beyond 1e-4 is reported
    via a warning, never corrected.
    """
    if t == 0:
        return WaveFunction(grid=psi.grid, values=psi.values.copy())
    green.check_time(t)
    out = propagate_states(psi.values[None, :], psi.grid, psi.grid, green, t)
    result = WaveFunction(grid=psi.grid, values=out[0])
    drift = abs(result.norm() - 1.0)
    if drift > NORM_DRIFT_TOLERANCE:
        warnings.warn(f"evolved wavefunction norm drifted by {drift:.3g}", stacklevel=2)
    return result
