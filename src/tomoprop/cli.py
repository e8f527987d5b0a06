"""Command-line surface.

Subcommands: tomogram, evolve, green, kernel, reconstruct, compare.
Configuration comes from flags or a JSON file (--config), flags winning;
every run resolves to a RunConfig that is validated before any numerics
start.  Failures exit with machine-parseable one-line JSON on stderr:
exit 2 for invalid input, 3 for a compare above tolerance, 4 for
numerical-domain errors (caustics, singular times).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import io as tio
from .errors import InvalidInputError, NumericalDomainError, TomopropError
from .greens import FREE, OSCILLATOR, GreenFunction, Potential
from .grids import MAX_FINE, UniformGrid
from .propagator import (
    DEFAULT_DAMPING,
    KernelFourierQuery,
    compare_tomograms,
    evolve_pullback,
    evolve_via_green,
    kernel_fourier,
)
from .states import make_state, parse_state_spec, state_spec_to_dict
from .tomography import (
    CONVENTION_VERSION,
    DEFAULT_THETA_COUNT,
    DEFAULT_X_GRID,
    Tomogram,
    density_from_tomogram,
    refuse_unresolved,
    tomogram_from_wavefunction,
)
from .transport import reduce_evolution_equation, solve_characteristics

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_TOLERANCE = 3
EXIT_DOMAIN = 4

_ROUTES = ("pullback", "green", "pde")

# Grid sizes are bounded by a memory budget for one run.  Peak bytes per
# X-theta lattice point and per pos_count^2 matrix entry were measured with
# tracemalloc on 63k-252k point lattices and 512-2048 point position grids:
# `evolve --route green` takes about 243 B a point at 351 x 180 and 212 at 701 x 360
# (the inverse transform's table, which the tomogram keeps through the forward
# transform, dominates, and its 4-point theta read on 8192-frame chunks adds
# nothing measurable; tests/test_cli.py holds it under BYTES_PER_LATTICE_POINT),
# `--route pullback` and `--route pde` about 140 B at 351 x 180 and 137 at 701 x 360
# (the X table that `Tomogram.evaluate` reads, 64 B a point, and its build),
# and `green` 40 B an entry.  `reconstruct` of a default-lattice tomogram
# peaks at 40.4 MB at pos_count 512, 106 MB at 1024 and 359 MB at 2048, or
# 154, 101 and 86 B an entry: the peak includes the tomogram's 11.8 MB
# characteristic table and other fixed costs, about 19 MB in all, which
# weigh most per entry at small counts, and grows by about 81 B an entry.
# So BYTES_PER_MATRIX_ENTRY = 128 still bounds MAX_POS_COUNT = 4096, where
# those figures give about 1.4 GB; the table itself grows with the lattice
# and counts against the lattice bound.
# The bounds round those up and are applied before any numerics: the lattice
# bound by `RunConfig.validate`, the matrix bound by `RunConfig.validate_matrices`
# for the two subcommands that build pos_count^2 matrices, `green` and
# `reconstruct`.  Every other subcommand holds pos_count samples in vectors
# alone, so `validate` bounds pos_count only by grids.MAX_FINE, the longest
# fine grid the forward transform builds.
MEMORY_BUDGET = 1 << 31  # 2 GiB
BYTES_PER_LATTICE_POINT = 512
BYTES_PER_MATRIX_ENTRY = 128
MAX_LATTICE_POINTS = MEMORY_BUDGET // BYTES_PER_LATTICE_POINT  # 4194304, e.g. 2048 x 2048
MAX_POS_COUNT = math.isqrt(MEMORY_BUDGET // BYTES_PER_MATRIX_ENTRY)  # 4096


def parse_potential(text: str) -> Potential:
    """Parse "free", "harmonic", or "alpha=<a>,beta=<b>"."""
    text = text.strip()
    if text == "free":
        return FREE
    if text == "harmonic":
        return OSCILLATOR
    fields = {}
    for chunk in text.split(","):
        key, _, value = chunk.partition("=")
        if key.strip() not in ("alpha", "beta") or not value:
            raise InvalidInputError(f"cannot parse potential {text!r}")
        (fields[key.strip()],) = _parse_numbers(value, f"potential {text!r}")
    return Potential(alpha=fields.get("alpha", 0.0), beta=fields.get("beta", 0.0))


def _parse_numbers(text: str, what: str) -> list[float]:
    """Comma-separated finite numbers; `what` names the input in error messages."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InvalidInputError(f"cannot parse {what}") from None
    if not all(math.isfinite(v) for v in values):
        raise InvalidInputError(f"{what} has a non-finite value")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; validated before computation."""

    state: str = "ho_ground"
    potential: str = "free"
    t: float = 0.0
    route: str = "pullback"
    x_lower: float = DEFAULT_X_GRID.lower
    x_upper: float = DEFAULT_X_GRID.upper
    x_count: int = DEFAULT_X_GRID.count
    theta_count: int = DEFAULT_THETA_COUNT
    pos_lower: float = -12.0
    pos_upper: float = 12.0
    pos_count: int = 512
    eps: float = DEFAULT_DAMPING
    slices: int = 64
    output: str = "out.csv"

    def x_grid(self) -> UniformGrid:
        return UniformGrid(self.x_lower, self.x_upper, self.x_count)

    def position_grid(self) -> UniformGrid:
        return UniformGrid(self.pos_lower, self.pos_upper, self.pos_count)

    def resolved_potential(self) -> Potential:
        return parse_potential(self.potential)

    def validate(self) -> None:
        """Checks that hold whichever subcommand runs: counts of at least 8,
        the lattice within the memory bound above and pos_count within
        MAX_FINE, then the time, route, potential and state."""
        for name, count in (
            ("x_count", self.x_count),
            ("theta_count", self.theta_count),
            ("pos_count", self.pos_count),
        ):
            if count < 8:
                raise InvalidInputError(f"{name} must be at least 8, got {count}")
        lattice = self.x_count * self.theta_count
        if lattice > MAX_LATTICE_POINTS:
            raise InvalidInputError(
                f"x_count * theta_count = {lattice} lattice points exceed {MAX_LATTICE_POINTS}, "
                f"the {MEMORY_BUDGET >> 30} GiB memory budget at {BYTES_PER_LATTICE_POINT} B a point"
            )
        if self.pos_count > MAX_FINE:
            raise InvalidInputError(
                f"pos_count {self.pos_count} exceeds MAX_FINE = {MAX_FINE}, the longest fine grid "
                f"the forward transform builds"
            )
        if not isinstance(self.t, (int, float)) or not math.isfinite(self.t):
            raise InvalidInputError(f"t must be a finite number, got {self.t!r}")
        if self.route not in _ROUTES:
            raise InvalidInputError(f"route must be one of {_ROUTES}, got {self.route!r}")
        self.resolved_potential()
        parse_state_spec(self.state)

    def validate_matrices(self) -> None:
        """The memory bound on pos_count^2 matrices, for the subcommands that build them."""
        if self.pos_count > MAX_POS_COUNT:
            raise InvalidInputError(
                f"pos_count {self.pos_count} exceeds {MAX_POS_COUNT}: its {self.pos_count}^2 matrices "
                f"need more than the {MEMORY_BUDGET >> 30} GiB memory budget at "
                f"{BYTES_PER_MATRIX_ENTRY} B an entry"
            )


# JSON value types a config file may give each annotated RunConfig field type
_CONFIG_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _config_file_values(file_conf) -> dict:
    """A config file's values after rejecting a non-object, unknown keys and
    ill-typed values; float fields are stored as floats, so a file's -10
    and the flag --x-lower -10 resolve to the same configuration."""
    if not isinstance(file_conf, dict):
        raise InvalidInputError("config file must hold a JSON object")
    fields = RunConfig.__dataclass_fields__
    unknown = set(file_conf) - set(fields)
    if unknown:
        raise InvalidInputError(f"unknown config keys {sorted(unknown)}")
    values = {}
    for key, value in file_conf.items():
        kind = fields[key].type
        # bool is an int subclass, but true/false is never a count or a number here
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[kind]):
            raise InvalidInputError(f"config key {key!r} must be {kind}, got {value!r}")
        try:
            values[key] = float(value) if kind == "float" else value
        except OverflowError:
            raise InvalidInputError(f"config key {key!r} is out of range, got {value!r}") from None
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            merged.update(_config_file_values(json.load(handle)))
    for name in RunConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    config = RunConfig(**merged)
    config.validate()
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--state", help="state spec, e.g. ho_ground, ho:2, gaussian:1,0.5,1")
    parser.add_argument("--potential", help="free | harmonic | alpha=<a>,beta=<b>")
    parser.add_argument("--t", type=float, help="evolution time")
    parser.add_argument("--route", choices=_ROUTES, help="evolution route")
    parser.add_argument("--x-lower", dest="x_lower", type=float)
    parser.add_argument("--x-upper", dest="x_upper", type=float)
    parser.add_argument("--x-count", dest="x_count", type=int)
    parser.add_argument("--theta-count", dest="theta_count", type=int)
    parser.add_argument("--pos-lower", dest="pos_lower", type=float)
    parser.add_argument("--pos-upper", dest="pos_upper", type=float)
    parser.add_argument("--pos-count", dest="pos_count", type=int)
    parser.add_argument("--eps", type=float, help="kernel damping parameter")
    parser.add_argument("--slices", type=int, help="time slices for the sliced propagator")
    parser.add_argument("--output", "-o", help="output file path")


def _base_meta(config: RunConfig) -> dict:
    return {"config": asdict(config), "convention_version": CONVENTION_VERSION}


def _initial_tomogram(config: RunConfig) -> Tomogram:
    psi = make_state(config.state, config.position_grid())
    return tomogram_from_wavefunction(psi, config.x_grid(), config.theta_count)


def _cmd_tomogram(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    tomo = _initial_tomogram(config)
    meta = _base_meta(config)
    meta["state_spec"] = state_spec_to_dict(parse_state_spec(config.state))
    tio.write_tomogram(config.output, tomo, meta)
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    tomo = _initial_tomogram(config)
    potential = config.resolved_potential()
    if config.route == "pullback":
        evolved = evolve_pullback(tomo, potential, config.t)
    elif config.route == "green":
        green = GreenFunction.for_potential(potential)
        evolved = evolve_via_green(tomo, green, config.t)
    else:
        pde = reduce_evolution_equation(potential)
        evolved = solve_characteristics(pde, tomo, config.t)
    meta = _base_meta(config)
    meta["route"] = config.route
    meta["state_spec"] = state_spec_to_dict(parse_state_spec(config.state))
    if config.route == "green":
        meta.update(evolved.meta)  # the spectral cut's and the inverse transform's diagnostics
    tio.write_tomogram(config.output, evolved, meta)
    return EXIT_OK


def _cmd_green(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.validate_matrices()
    if args.kind == "free":
        green = GreenFunction.free()
    elif args.kind == "oscillator":
        green = GreenFunction.oscillator()
    elif args.kind == "sliced":
        green = GreenFunction.sliced(config.resolved_potential(), config.slices)
    else:  # argparse choices leave only "van-fleck"
        green = GreenFunction.van_fleck(config.resolved_potential())
    green.check_time(config.t)
    grid = config.position_grid()
    x = grid.points
    values = green(x[:, None], x[None, :], config.t)
    meta = _base_meta(config)
    meta["kind"] = args.kind
    tio.write_green_grid(config.output, x, x, config.t, values, meta)
    return EXIT_OK


def _cmd_kernel(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    green = GreenFunction.for_potential(config.resolved_potential())
    k_values = _parse_numbers(args.k, f"--k {args.k!r}")
    frames = _parse_numbers(args.frame, f"--frame {args.frame!r}")
    if len(frames) != 4:
        raise InvalidInputError("--frame needs mu,nu,mu_p,nu_p")
    mu, nu, mu_p, nu_p = frames
    rows = []
    for k in k_values:
        query = KernelFourierQuery(
            k=k, mu=mu, nu=nu, mu_p=mu_p, nu_p=nu_p, t=config.t, green=green, damping=config.eps
        )
        value = kernel_fourier(query)
        rows.append((k, mu, nu, mu_p, nu_p, config.t, config.eps, value))
    tio.write_kernel_scan(config.output, rows, _base_meta(config))
    return EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    config.validate_matrices()
    tomo = tio.read_tomogram(args.input)
    rho = density_from_tomogram(tomo, config.position_grid())
    refuse_unresolved(tomo, rho.meta)
    meta = _base_meta(config)
    meta["source"] = str(args.input)
    meta.update(rho.meta)
    real_path, _ = tio.write_density(config.output, rho, meta)
    report = {
        "trace": rho.trace(),
        "hermiticity_defect": rho.hermiticity_defect(),
        "output": str(real_path),
    }
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    if not 0 <= args.tol < math.inf:
        raise InvalidInputError(f"--tol must be non-negative and finite, got {args.tol!r}")
    a = tio.read_tomogram(args.inputs[0])
    b = tio.read_tomogram(args.inputs[1])
    report = compare_tomograms(a, b)
    payload = {"linf": report.linf, "l2": report.l2, "tol": args.tol}
    if args.output:
        tio.atomic_write_text(args.output, json.dumps(payload, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    if report.linf > args.tol:
        raise ToleranceFailure(f"L-inf discrepancy {report.linf:.6g} exceeds tolerance {args.tol:g}")
    return EXIT_OK


class ToleranceFailure(TomopropError):
    """Compare result above the requested tolerance."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoprop",
        description="Tomographic-representation toolkit: transforms, propagation, kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tomogram", help="compute a state tomogram")
    _add_common(p)
    p.set_defaults(func=_cmd_tomogram)

    p = sub.add_parser("evolve", help="evolve a tomogram by a chosen route")
    _add_common(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("green", help="evaluate a propagator on a position grid")
    _add_common(p)
    p.add_argument("--kind", default="free", choices=("free", "oscillator", "sliced", "van-fleck"))
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("kernel", help="scan the regularized transition-kernel Fourier component")
    _add_common(p)
    p.add_argument("--k", default="1.0", help="comma-separated k values")
    p.add_argument("--frame", default="1,0,1,0", help="mu,nu,mu_p,nu_p")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("reconstruct", help="invert a tomogram file to a density matrix")
    _add_common(p)
    p.add_argument("input", help="tomogram CSV file")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("compare", help="L-inf / L2 comparison of two tomogram files")
    p.add_argument("inputs", nargs=2, help="two tomogram CSV files")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--output", "-o", help="optional JSON report path")
    p.set_defaults(func=_cmd_compare)
    return parser


def _emit_error(code: int, message: str, context: dict) -> None:
    print(json.dumps({"code": code, "message": message, "context": context}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            _emit_error(EXIT_INVALID, "invalid arguments", {})
            return EXIT_INVALID
        return 0
    try:
        return args.func(args)
    except ToleranceFailure as exc:
        _emit_error(EXIT_TOLERANCE, str(exc), {"command": args.command})
        return EXIT_TOLERANCE
    except NumericalDomainError as exc:
        _emit_error(EXIT_DOMAIN, str(exc), {"command": args.command})
        return EXIT_DOMAIN
    except (InvalidInputError, FileNotFoundError, json.JSONDecodeError) as exc:
        _emit_error(EXIT_INVALID, str(exc), {"command": args.command})
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
