"""Steadiness of the end-to-end metrics on one commit.

    python3 perfbench/steady.py

Runs the benchmark command ten times on every workload of BENCHMARK.json,
with seeds 1 to 10 (workloads interleaved seed by seed), and prints for
every end-to-end metric its median, first and third quartiles
(`statistics.quantiles`, n=4) and the quartile spread as a share of the
median, next to the metric's bound in BENCHMARK.json.  A spread above a third of its bound is flagged
(`setup_s` is not held to its bound).  Raw values go to
`.perfbench_out/steady-<UTC start time>.json`.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 10


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    raw: dict[str, list[dict]] = {name: [] for name in names}
    out = Path(".perfbench_out") / time.strftime("steady-%Y%m%dT%H%M%SZ.json", time.gmtime())
    for seed in range(1, RUNS + 1):
        for name in names:
            start = time.monotonic()
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=200,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.monotonic() - start
            raw[name].append(result)
            print(f"{name} seed {seed}: {result['wall_s']:.1f} s, "
                  f"{result['attempted']} ops, {result['failed']} failed, correct={result['correct']}", flush=True)

    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\n{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, results in raw.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if metric["name"] == "setup_s" or spread < metric["bound"] / 3 else "  WIDE"
            print(f"{name:<14} {metric['name']:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {metric['bound']:>6}{flag}")
        print(f"{name:<14} failed share {sorted(shares)}; wall {sum(r['wall_s'] for r in results):.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
