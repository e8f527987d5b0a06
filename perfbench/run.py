"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/tomoprop` and
`BENCHMARK.json`.  It warms the file cache with one import, then starts the
workload in fresh processes, one at a time (`workloads.py`).  With
`--trace 0` the workload sets up SETUP_REPEATS times, the last time before
its ops, and `setup_s` is the median; the other end-to-end metrics come
from the ops.  With `--trace 1` one traced process reports the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # every run ends within 180 s
HERE = Path(__file__).resolve().parent


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one Python child to its end; its last stdout line is a JSON object."""
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(result: dict, values: dict, wanted: list[dict]) -> dict:
    """The result line; ValueError if a wanted metric has no value."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise ValueError(f"no value for {missing}; {result['failed']} of {result['attempted']} ops failed")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "tomoprop" / "__init__.py").is_file():
        return fail(f"no src/tomoprop under {root}; run from the root of a tomoprop checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    worker = [
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        # fills the file cache and the bytecode cache before anything is timed
        subprocess.run([sys.executable, "-c", "import tomoprop.cli"], env=env, check=True, timeout=60)
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(child([*worker, "--setup-only"], env, deadline)["setup_s"])
        else:
            worker += ["--layer-names", ",".join(m["name"] for m in wanted)]
        result = child(worker, env, deadline)
    except (subprocess.SubprocessError, RuntimeError, ValueError, IndexError) as exc:
        return fail(f"workload {args.workload} did not complete: {exc}")

    if args.trace:
        values = result.get("layers", {})
    else:
        values = dict(result.get("metrics", {}), setup_s=statistics.median([*setups, result["setup_s"]]))
    try:
        line = report(result, values, wanted)
    except ValueError as exc:
        return fail(str(exc))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
