"""One benchmark workload in one fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Run from the root of a checkout; `perfbench/run.py` starts it.  The process
imports tomoprop from `src/` and builds the inputs the ops read (timed as
set-up), then runs ops one at a time in a closed loop with one client
until the next op would end past `--seconds` (at least one op).  An op's
inputs are drawn from the seed before its timer starts, and its output is
checked against `oracles.py` after the timer stops; an op that raises or
fails a check counts as failed.  The last line of standard output is one
JSON object; per-op figures go to `.perfbench_out/`.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before numpy and tomoprop load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

# (name, alpha, beta) for U(x) = alpha x + beta x^2; free motion and the
# unit oscillator are the potentials the pullback route serves exactly
POTENTIALS = (
    ("free", 0.0, 0.0),
    ("oscillator", 0.0, 0.5),
    ("linear", 1.0, 0.0),
    ("inverted", 0.0, -0.2),
    ("general", 0.5, 0.3),
)
PACKET = (1.0, 0.5, 1.0)  # x0, p0, sigma of the initial Gaussian packet
FRAME_BATCH = 8192
GREEN_GRID = np.linspace(-12.0, 12.0, 512)  # the CLI's default position grid


def _rng(seed: int, *key: int):
    return np.random.default_rng([seed, *key])


def _failed(results: dict) -> list[str]:
    """Names of the checks whose (error, bound) pair fails."""
    return [name for name, (err, tol) in results.items() if not oracles.passes(err, tol)]


class Workload:
    """Set-up, the inputs of op i, the op itself and its checks.

    `errors` keeps the largest error each per-layer accuracy figure saw.
    """

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.errors: dict[str, float] = {}

    def note_error(self, name: str, err: float) -> None:
        self.errors[name] = max(self.errors.get(name, 0.0), err)

    def check_setup(self) -> None:
        """Checks on the set-up's own outputs, after set-up is timed."""

    def finish(self) -> dict:
        """Removes what set-up wrote; returns extra figures for the run's file."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PacketWorkload(Workload):
    """Workloads that evolve the Gaussian packet's tomogram, one potential per op.

    Op i of seed n runs under POTENTIALS[(n + i) % 5], so any five
    consecutive seeds start on every potential.
    """

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        self.moments0 = oracles.packet_moments(*PACKET)

    def potential(self, i: int) -> tuple[str, float, float]:
        return POTENTIALS[(self.seed + i) % len(POTENTIALS)]

    def setup(self) -> None:
        import tomoprop

        self.tp = tomoprop
        self.tomo = tomoprop.tomogram_from_wavefunction(tomoprop.make_state(tomoprop.GaussianPacket(*PACKET)))

    def check_setup(self) -> None:
        self.note_error(
            "tomography.tomogram_from_wavefunction.closed_form_linf",
            oracles.moment_error(self.tomo.values, *self.moments0),
        )


class GreenRoute(PacketWorkload):
    """One evolve_via_green of the packet per op."""

    def params(self, i: int):
        _, alpha, beta = self.potential(i)
        return alpha, beta, float(_rng(self.seed, i).uniform(0.4, 1.2))

    def op(self, p):
        alpha, beta, t = p
        green = self.tp.GreenFunction.for_potential(self.tp.Potential(alpha, beta))
        return self.tp.evolve_via_green(self.tomo, green, t)

    def check(self, p, out) -> list[str]:
        alpha, beta, t = p
        moment = oracles.moment_error(out.values, *oracles.evolved_moments(*self.moments0, alpha, beta, t))
        self.note_error("propagator.evolve_via_green.oracle_linf", moment)
        return _failed({
            "gaussian_moments": (moment, oracles.MOMENT_TOL),
            "slice_norms": (oracles.slice_norm_error(out.values, oracles.X_STEP), oracles.SLICE_NORM_TOL),
        })


class FrameQueries(PacketWorkload):
    """A lattice pullback or characteristic solve, chained once, read at
    off-lattice frames and on one optical slice."""

    def params(self, i: int) -> dict:
        name, alpha, beta = self.potential(i)
        rng = _rng(self.seed, i)
        t1, t2 = rng.uniform(0.2, 0.8, 2)
        theta = rng.uniform(0.0, 2.0 * np.pi, FRAME_BATCH)
        scale = np.where(
            rng.random(FRAME_BATCH) < 0.5,
            rng.uniform(0.4, 0.8, FRAME_BATCH),
            rng.uniform(1.25, 2.5, FRAME_BATCH),
        )
        u = rng.uniform(-5.0, 5.0, FRAME_BATCH)
        return {
            "exact": name in ("free", "oscillator"),
            "alpha": alpha,
            "beta": beta,
            "t1": float(t1),
            "t2": float(t2),
            "unit": (u, np.cos(theta), np.sin(theta)),  # frames on the unit circle
            "scale": scale,
            "frames": (scale * u, scale * np.cos(theta), scale * np.sin(theta)),
            "phi": float(rng.uniform(0.0, 2.0 * np.pi)),
        }

    def _evolve(self, pullback: bool, p: dict):
        tp = self.tp
        potential = tp.Potential(p["alpha"], p["beta"])
        if pullback:
            first = tp.evolve_pullback(self.tomo, potential, p["t1"])
            return tp.evolve_pullback(first, potential, p["t2"])
        pde = tp.reduce_evolution_equation(potential)
        return tp.solve_characteristics(pde, tp.solve_characteristics(pde, self.tomo, p["t1"]), p["t2"])

    def op(self, p: dict):
        evolved = self._evolve(p["exact"], p)
        return evolved, evolved.evaluate(*p["frames"]), self.tp.optical_slice(evolved, p["phi"])

    def check(self, p: dict, out) -> list[str]:
        evolved, values, optical = out
        unit = evolved.evaluate(*p["unit"])
        mean, cov = oracles.evolved_moments(*self.moments0, p["alpha"], p["beta"], p["t1"] + p["t2"])
        phi = p["phi"]
        moment = max(
            oracles.moment_error(evolved.values, mean, cov),
            oracles.max_abs_diff(unit, oracles.gaussian_tomogram(*p["unit"], mean, cov)),
            oracles.max_abs_diff(optical, oracles.gaussian_tomogram(oracles.x_lattice(), np.cos(phi), np.sin(phi), mean, cov)),
        )
        route = "propagator.evolve_pullback" if p["exact"] else "transport.solve_characteristics"
        self.note_error(f"{route}.oracle_linf", moment)
        results = {
            "gaussian_moments": (moment, oracles.MOMENT_TOL),
            "homogeneity": (oracles.homogeneity_error(values, unit, p["scale"]), oracles.HOMOGENEITY_TOL),
            "slice_norms": (
                max(oracles.slice_norm_error(optical, oracles.X_STEP), oracles.slice_norm_error(evolved.values, oracles.X_STEP)),
                oracles.SLICE_NORM_TOL,
            ),
        }
        if p["exact"]:
            other = self._evolve(False, p)
            results["pullback_vs_characteristics"] = (
                max(oracles.max_abs_diff(other.values, evolved.values),
                    oracles.max_abs_diff(other.evaluate(*p["frames"]), values)),
                oracles.ROUTE_TOL,
            )
        return _failed(results)


class CliSession(Workload):
    """One user session: `tomoprop` subcommands chained through files."""

    def __init__(self, seed: int, tracer=None):
        super().__init__(seed, tracer)
        self.dir = OUT / "cli_session"
        self.config = self.dir / "session.json"
        self.subcommand_s: dict[str, list[float]] = {}

    def setup(self) -> None:
        import tomoprop.cli

        self.cli = tomoprop.cli
        self.dir.mkdir(parents=True, exist_ok=True)
        # flags given per session override these file values
        self.config.write_text(json.dumps({"route": "pde", "state": "ho_ground", "potential": "free", "t": 1.0}))

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def params(self, i: int) -> dict:
        rng = _rng(self.seed, i)
        k1 = float(rng.uniform(0.5, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 2.0))
        p = {
            "packet": (float(rng.uniform(-1, 1)), float(rng.uniform(-0.5, 0.5)), 1.0),
            "alpha": float(rng.uniform(-1.0, 1.0)),
            "beta": float(rng.choice([rng.uniform(-0.2, -0.05), rng.uniform(0.05, 0.4)])),
            "t_pde": float(rng.uniform(0.5, 1.5)),
            "t_green": float(rng.uniform(0.3, 2.8)),
            "kernel_potential": str(rng.choice(["free", "harmonic"])),
            "t_kernel": float(rng.uniform(0.5, 1.5)),
            "k1": k1,
            "k2": float(rng.uniform(0.5, 2.0)),
            "frame": [float(v) for v in rng.uniform(0.2, 0.8, 4)],
            "green_rows": np.concatenate([[0, GREEN_GRID.size**2 - 1], rng.integers(0, GREEN_GRID.size**2, 256)]),
        }
        frame = ",".join(repr(v) for v in p["frame"])
        frame_scaled = ",".join(repr(k1 * v) for v in p["frame"])
        kernel = ["kernel", "--potential", p["kernel_potential"], "--t", repr(p["t_kernel"])]
        p["commands"] = [
            ["tomogram", "--state", "ho_ground", "-o", self.path("ground.csv")],
            ["evolve", "--state", "ho_ground", "--potential", "harmonic", "--route", "pullback",
             "--t", repr(2.0 * math.pi), "-o", self.path("period.csv")],
            ["evolve", "--config", str(self.config), "--state", "gaussian:" + ",".join(repr(v) for v in p["packet"]),
             "--potential", f"alpha={p['alpha']!r},beta={p['beta']!r}", "--t", repr(p["t_pde"]),
             "-o", self.path("pde.csv")],
            ["compare", self.path("ground.csv"), self.path("period.csv"), "--tol", "1e-6", "-o", self.path("compare.json")],
            ["green", "--kind", "oscillator", "--t", repr(p["t_green"]), "-o", self.path("green.csv")],
            kernel + [f"--k={k1!r},{p['k2']!r}", f"--frame={frame}", "-o", self.path("scan_a.csv")],
            kernel + [f"--k=1.0,{p['k2'] / k1!r}", f"--frame={frame_scaled}", "-o", self.path("scan_b.csv")],
        ]
        return p

    def op(self, p: dict) -> list[int]:
        codes = []
        for argv in p["commands"]:
            start = time.perf_counter()
            if self.tracer is None:
                proc = subprocess.run([sys.executable, "-m", "tomoprop.cli", *argv], stdout=subprocess.DEVNULL, timeout=120)
                codes.append(proc.returncode)
            else:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(self.tracer.span(f"cli.{argv[0]}", self.cli.main, argv))
            self.subcommand_s.setdefault(argv[0], []).append(time.perf_counter() - start)
        return codes

    def check(self, p: dict, codes: list[int]) -> list[str]:
        if any(codes):
            return [f"exit codes {codes}"]
        ground, lat_g = oracles.read_tomogram_csv(self.path("ground.csv"))
        period, lat_p = oracles.read_tomogram_csv(self.path("period.csv"))
        pde, lat_d = oracles.read_tomogram_csv(self.path("pde.csv"))
        if max(lat_g, lat_p, lat_d) > oracles.LATTICE_TOL:
            return ["tomogram lattice"]
        # period.csv also carries the pullback's spline and rotation error
        ho = oracles.ho_ground_error(ground)
        self.note_error("tomography.tomogram_from_wavefunction.closed_form_linf", ho)
        mean, cov = oracles.evolved_moments(*oracles.packet_moments(*p["packet"]), p["alpha"], p["beta"], p["t_pde"])
        moment = oracles.moment_error(pde, mean, cov)
        self.note_error("transport.solve_characteristics.oracle_linf", moment)
        report = json.loads(Path(self.path("compare.json")).read_text())
        green = oracles.green_csv_error(self.path("green.csv"), GREEN_GRID, p["t_green"], p["green_rows"])
        k2 = oracles.k2_law_error(
            oracles.read_kernel_csv(self.path("scan_a.csv")), oracles.read_kernel_csv(self.path("scan_b.csv")), p["k1"]
        )
        self.note_error("propagator.kernel_fourier.scaling_rel", k2)
        return _failed({
            "ho_ground": (max(ho, oracles.ho_ground_error(period)), oracles.HO_GROUND_TOL),
            "gaussian_moments": (moment, oracles.MOMENT_TOL),
            "slice_norms": (
                max(oracles.slice_norm_error(v, oracles.X_STEP) for v in (ground, period, pde)), oracles.SLICE_NORM_TOL
            ),
            "compare": (report["linf"], report["tol"]),
            "green_csv": (green, oracles.GREEN_CSV_TOL),
            "k2_law": (k2, oracles.K2_LAW_TOL),
        })

    def finish(self) -> dict:
        self.config.unlink()
        self.dir.rmdir()
        return {"subcommand_s": self.subcommand_s}

    def clean(self) -> None:
        """Remove the session's outputs (the propagator CSV alone is 26 MB)."""
        for path in self.dir.glob("*"):
            if path != self.config:
                path.unlink()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def bare_import_s(self, repeats: int = 3) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import tomoprop.cli"], check=True, timeout=60)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


WORKLOADS = {"green_route": GreenRoute, "cli_session": CliSession, "frame_queries": FrameQueries}

# In a traced run each layer's figures come from the ops of the workload on
# which that layer should move, so every per-layer metric is measured.
LAYER_SOURCE = {
    "tomography.density_from_tomogram": "green_route",
    "tomography.tomogram_from_density": "green_route",
    "propagator.evolve_via_green": "green_route",
    "greens": "green_route",
    "tomography.tomogram_from_wavefunction": "cli_session",
    "cli": "cli_session",
    "io": "cli_session",
    "propagator.kernel_fourier": "cli_session",
    "tomography.Tomogram.evaluate": "frame_queries",
    "tomography.optical_slice": "frame_queries",
    "propagator.evolve_pullback": "frame_queries",
    "transport": "frame_queries",
}


def layer_source(metric: str) -> str:
    prefix = max((k for k in LAYER_SOURCE if metric.startswith(k + ".")), key=len)
    return LAYER_SOURCE[prefix]


def layer_values(workload: Workload, tracer, n_ops: int, names: list[str], import_s: float) -> dict:
    """Value of each named per-layer metric from the workload's spans and checks.

    A metric is `<span name>.<field>`: `s`, `self_s` and `cpu_s` are means
    per call, `calls` is calls per op, `frames` is frames per op and other
    counts are means per call.  Accuracy figures come from the checks.  A
    metric whose span never ran, or whose count no call recorded, is left
    out, so the run fails rather than report 0.
    """
    aggregates = tracer.layer_metrics(n_ops)
    known = dict(workload.errors)
    known["cli.import.s"] = import_s
    density = aggregates.get("tomography.density_from_tomogram")
    if density:
        known["tomography.density_from_tomogram.mu_edge_ratio"] = density["max"]["mu_edge_ratio"]
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        agg = aggregates.get(span)
        if name in known:
            values[name] = known[name]
        elif agg is None:
            continue
        elif field in ("s", "self_s", "cpu_s"):
            values[name] = agg[field]
        elif field == "calls":
            values[name] = agg["calls_per_op"]
        else:
            counts = agg["per_op"] if field == "frames" else agg["per_call"]
            if field in counts:
                values[name] = counts[field]
    return values


def run_ops(workload: Workload, seconds: float, tracer=None) -> tuple[list[float], list[dict], int]:
    """Closed loop until the next op would end past `seconds`: (durations of
    the ops that passed, failures, ops attempted)."""
    durations, iterations, failures = [], [], []
    loop_start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        p = workload.params(i)
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        try:
            start = time.perf_counter()
            out = workload.op(p)
            dt = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            failed_checks = workload.check(p, out)
        except Exception:
            traceback.print_exc()
            failed_checks = ["exception"]
        if failed_checks:
            failures.append({"op": i, "failed": failed_checks})
            print(f"op {i} failed: {failed_checks}", file=sys.stderr)
        else:
            durations.append(dt)
        if isinstance(workload, CliSession):
            workload.clean()
        i += 1
        iterations.append(time.perf_counter() - t0)
        if time.perf_counter() - loop_start + statistics.median(iterations) > seconds:
            return durations, failures, i


def write_details(workload: Workload, name: str, args, durations: list[float], failures: list[dict], extra: dict) -> None:
    details = {"workload": name, "seed": args.seed, "trace": args.trace, "op_s": durations,
               "failures": failures, "errors": workload.errors, **extra}
    if len(durations) >= 100:
        details["op_p90_s"] = statistics.quantiles(durations, n=10)[-1]
    (OUT / f"{name}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))


def measure(args) -> dict:
    """Untraced run of one workload: set-up time and end-to-end metrics."""
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        return {"setup_s": setup_s}
    workload.check_setup()
    durations, failures, attempted = run_ops(workload, args.seconds)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "setup_s": setup_s}
    if durations:
        result["metrics"] = {
            "op_median_s": statistics.median(durations),
            "ops_per_s": len(durations) / sum(durations),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
    write_details(workload, args.workload, args, durations, failures, {**workload.finish(), **result})
    return result


def trace(args) -> dict:
    """Traced run: every workload in turn, each for `--seconds`, in this one
    process; each per-layer metric is read from its LAYER_SOURCE workload."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    result = {"correct": True, "attempted": 0, "failed": 0, "layers": {}}
    for name, cls in WORKLOADS.items():
        tracer.reset()
        workload = cls(args.seed, tracer)
        workload.setup()
        workload.check_setup()
        import_s = workload.bare_import_s() if isinstance(workload, CliSession) else 0.0
        durations, failures, attempted = run_ops(workload, args.seconds, tracer)
        tracer.write(OUT / f"spans-{name}-{args.seed}.json")
        names = [m for m in args.layer_names if layer_source(m) == name]
        result["layers"].update(layer_values(workload, tracer, attempted, names, import_s))
        result["correct"] = result["correct"] and not failures
        result["attempted"] += attempted
        result["failed"] += len(failures)
        write_details(workload, name, args, durations, failures, workload.finish())
    return result


def run(args) -> dict:
    import tomoprop

    if not Path(tomoprop.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"tomoprop imported from {tomoprop.__file__}, not from this checkout's src/")
    return trace(args) if args.trace else measure(args)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--layer-names", default="", help="comma-separated per-layer metrics to report")
    args = parser.parse_args()
    args.layer_names = [n for n in args.layer_names.split(",") if n]
    OUT.mkdir(exist_ok=True)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
