"""File formats: CSV payloads with JSON metadata sidecars.

All writers go through a temp-file-plus-rename so a crashed run never
leaves a half-written file, and all floats are printed with 17
significant digits so identical configurations give byte-identical
output.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .grids import UniformGrid
from .states import DensityMatrix
from .tomography import CONVENTION_VERSION, Tomogram, angle_grid

_FMT = "%.17g"
_BLOCK_ROWS = 8192  # rows formatted per string; bounds the temporaries
_LATTICE_RTOL = 1e-12
FILE_NEGATIVE_TOL = 1e-9  # file values in [-FILE_NEGATIVE_TOL, 0) read as 0


def _fmt(value: float) -> str:
    return _FMT % float(value)


@contextmanager
def _atomic_open(path: str | Path):
    """Text handle on a sibling temp file, renamed onto path only on success."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a sibling temp file and an atomic rename."""
    with _atomic_open(path) as handle:
        handle.write(text)


def _write_table(path: str | Path, first_line: str, table: np.ndarray) -> None:
    """`first_line`, then one comma-separated line of 17-digit floats per row of `table`.

    Rows are formatted in blocks with one %-format per block, which writes
    the same bytes as formatting each value with _fmt.
    """
    table = np.asarray(table, dtype=float)
    line = ",".join([_FMT] * table.shape[1]) + "\n"
    with _atomic_open(path) as handle:
        handle.write(first_line)
        for lo in range(0, table.shape[0], _BLOCK_ROWS):
            block = table[lo:lo + _BLOCK_ROWS]
            handle.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _write_lattice(path: str | Path, first_line: str, outer, before: list[str], after: list[str], values) -> None:
    """`first_line`, then one line per lattice point, outer coordinate slowest.

    The line of inner point i under outer value o is before[i] + _fmt(o) +
    after[i]; the %.17g slots the texts hold are filled, line after line,
    from row o of `values`.  The coordinates are formatted once per axis by
    the caller, and each outer row becomes one string: the outer text joins
    the pieces before[0], after[0] + before[1], ..., after[-1].
    """
    pieces = [before[0]] + [a + b for a, b in zip(after[:-1], before[1:])] + [after[-1]]
    with _atomic_open(path) as handle:
        handle.write(first_line)
        for o, row in zip(outer, values):
            handle.write(_fmt(o).join(pieces) % tuple(row.tolist()))


def _load_rows(handle, path: Path) -> np.ndarray:
    """The remaining lines of an open CSV as a float matrix (one row per line)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is rejected below
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse the rows of {path}: {exc}") from None
    if data.size == 0:
        raise InvalidInputError(f"no data rows in {path}")
    return data


def meta_path_for(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def write_metadata(path: str | Path, meta: dict) -> None:
    payload = dict(meta)
    payload.setdefault("convention_version", CONVENTION_VERSION)
    atomic_write_text(meta_path_for(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- tomograms ---------------------------------------------------------------


def write_tomogram(path: str | Path, tomo: Tomogram, meta: dict | None = None) -> None:
    """Tomogram CSV: header X,theta,w; theta outer, X inner, row major.

    X and theta are formatted once per axis and only w per value; the bytes
    are those of formatting every field with _fmt.
    """
    before = [_fmt(x) + "," for x in tomo.x_grid.points]
    _write_lattice(path, "X,theta,w\n", tomo.theta_grid.points, before, [f",{_FMT}\n"] * len(before), tomo.values)
    payload = dict(meta or {})
    payload.update(
        {
            "x_grid": {"lower": tomo.x_grid.lower, "upper": tomo.x_grid.upper, "count": tomo.x_grid.count},
            "theta_count": tomo.theta_count,
        }
    )
    write_metadata(path, payload)


def read_tomogram(path: str | Path) -> Tomogram:
    """Read a tomogram CSV written by write_tomogram.

    The rows must form the full lattice in write order: theta equal to
    angle_grid(n_theta) and X uniform, the same in every slice, both to
    1e-12 relative to their span.  Values in [-FILE_NEGATIVE_TOL, 0) read
    as 0; the Tomogram rejects anything more negative.  A sidecar naming
    another convention_version is rejected.
    """
    path = Path(path)
    header, data = read_grid_csv(path)
    if header != ["X", "theta", "w"]:
        raise InvalidInputError(f"not a tomogram file (header {header}): {path}")
    if data.shape[1] != 3:
        raise InvalidInputError(f"tomogram rows need 3 columns: {path}")
    changes = np.flatnonzero(data[:, 1] != data[0, 1])
    n_x = int(changes[0]) if changes.size else data.shape[0]
    if n_x < 2 or data.shape[0] % n_x:
        raise InvalidInputError(f"tomogram file is not a complete lattice: {path}")
    n_theta = data.shape[0] // n_x
    lattice = data.reshape(n_theta, n_x, 3)
    x_grid = UniformGrid(float(lattice[0, 0, 0]), float(lattice[0, -1, 0]), n_x)
    x_off = np.abs(lattice[:, :, 0] - x_grid.points).max()
    theta_off = np.abs(lattice[:, :, 1] - angle_grid(n_theta).points[:, None]).max()
    if x_off > _LATTICE_RTOL * x_grid.span or theta_off > _LATTICE_RTOL * np.pi:
        raise InvalidInputError(
            f"tomogram file is not on a uniform X grid and the angle_grid({n_theta}) lattice: {path}"
        )
    meta = {}
    mp = meta_path_for(path)
    if mp.exists():
        meta = json.loads(mp.read_text())
        version = meta.get("convention_version", CONVENTION_VERSION)
        if version != CONVENTION_VERSION:
            raise InvalidInputError(
                f"tomogram file has convention version {version!r}, expected {CONVENTION_VERSION!r}: {path}"
            )
    values = lattice[:, :, 2]
    values[(values < 0.0) & (values >= -FILE_NEGATIVE_TOL)] = 0.0
    return Tomogram(x_grid=x_grid, theta_count=n_theta, values=values, meta=meta)


# --- kernel scans ------------------------------------------------------------


def write_kernel_scan(path: str | Path, rows, meta: dict | None = None) -> None:
    """Kernel scan CSV: one row (k, mu, nu, mu_p, nu_p, t, eps, value) per query."""
    table = [(k, mu, nu, mu_p, nu_p, t, eps, value.real, value.imag) for k, mu, nu, mu_p, nu_p, t, eps, value in rows]
    _write_table(path, "k,mu,nu,mu_p,nu_p,t,eps,re,im\n", np.array(table, dtype=float).reshape(-1, 9))
    write_metadata(path, meta or {})


# --- Green-function grids ----------------------------------------------------


def write_green_grid(path: str | Path, x: np.ndarray, y: np.ndarray, t: float, values: np.ndarray, meta: dict | None = None) -> None:
    """Propagator grid CSV: header x,y,t,re,im; x outer, y inner.

    Every x block repeats the same y and t fields, so only re and im are
    formatted per value; the bytes are those of formatting every field with
    _fmt.
    """
    pairs = np.ascontiguousarray(values, dtype=complex).view(float)  # re, im interleaved per row
    t_text = _fmt(t)
    after = [f",{_fmt(v)},{t_text},{_FMT},{_FMT}\n" for v in y]
    _write_lattice(path, "x,y,t,re,im\n", x, [""] * len(after), after, pairs)
    write_metadata(path, meta or {})


def read_grid_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Generic reader returning (header, float matrix) for any CSV payload."""
    path = Path(path)
    with open(path, newline="") as handle:
        header = handle.readline().rstrip("\r\n").split(",")
        return header, _load_rows(handle, path)


# --- density matrices --------------------------------------------------------


def write_density(path_base: str | Path, rho: DensityMatrix, meta: dict | None = None) -> tuple[Path, Path]:
    """Write a density matrix as a real/imag CSV pair plus a report sidecar.

    path_base "rho.csv" becomes rho.real.csv and rho.imag.csv; each file is
    a bare matrix with a one-line `# x: lower upper count` comment header.
    """
    base = Path(path_base)
    stem = base.name[:-4] if base.name.endswith(".csv") else base.name
    grid_line = f"# x: {_fmt(rho.grid.lower)} {_fmt(rho.grid.upper)} {rho.grid.count}\n"
    paths = []
    for tag, part in (("real", rho.values.real), ("imag", rho.values.imag)):
        target = base.with_name(f"{stem}.{tag}.csv")
        _write_table(target, grid_line, part)
        paths.append(target)
    payload = dict(meta or {})
    payload.update(
        {
            "trace": rho.trace(),
            "hermiticity_defect": rho.hermiticity_defect(),
            "grid": {"lower": rho.grid.lower, "upper": rho.grid.upper, "count": rho.grid.count},
        }
    )
    write_metadata(paths[0], payload)
    return paths[0], paths[1]


def read_density(path_real: str | Path) -> DensityMatrix:
    path_real = Path(path_real)
    path_imag = path_real.with_name(path_real.name.replace(".real.", ".imag."))

    def load(path):
        with open(path) as handle:
            first = handle.readline()
            fields = first[4:].split() if first.startswith("# x:") else []
            if len(fields) != 3:
                raise InvalidInputError(f"missing grid header in {path}")
            try:
                grid = UniformGrid(float(fields[0]), float(fields[1]), int(fields[2]))
            except ValueError:
                raise InvalidInputError(f"malformed grid header in {path}") from None
            matrix = _load_rows(handle, path)
        if matrix.shape != (grid.count, grid.count):
            raise InvalidInputError(f"matrix shape {matrix.shape} does not match the grid in {path}")
        return grid, matrix

    grid, real = load(path_real)
    _, imag = load(path_imag)
    return DensityMatrix(grid=grid, values=real + 1j * imag)
