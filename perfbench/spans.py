"""Spans around the public functions of tomoprop, recorded from outside.

`Tracer.install()` wraps every public function of the layer modules, plus
`Tomogram.evaluate` and `GreenFunction.__call__` on their classes, and
rebinds each wrapper wherever a caller looks the function up: in every
loaded `tomoprop.*` module that imported it by name.  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

LAYERS = ("tomography", "greens", "propagator", "transport", "io", "cli")


# A counter gets the call's arguments by parameter name, defaults applied
# (read from the wrapped function's own signature), and the call's result.


def _density_counts(arguments, result):
    half = math.ceil(result.meta["mu_band"] / arguments["mu_step"])
    return {
        "frames": (2 * half + 1) * (2 * arguments["target_grid"].count - 1),
        "mu_edge_ratio": result.meta["mu_edge_ratio"],
    }


def _components(arguments, result):
    return {"components": result.meta["components"]}


def _evaluate_frames(arguments, result):
    # only calls that interpolate: a pullback tomogram forwards to its base
    if arguments["self"].base is not None:
        return {}
    return {"frames": int(getattr(result, "size", 1))}


def _file_bytes(arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


COUNTERS = {
    "tomography.density_from_tomogram": _density_counts,
    "tomography.tomogram_from_density": _components,
    "tomography.Tomogram.evaluate": _evaluate_frames,
    "io.write_tomogram": _file_bytes,
    "io.read_tomogram": _file_bytes,
    "io.write_green_grid": _file_bytes,
    "io.write_kernel_scan": _file_bytes,
}


class Tracer:
    """In-memory spans: [name, start, end, cpu, parent, op, counts]."""

    def __init__(self):
        self.signatures: dict[str, inspect.Signature] = {}  # of the counted functions
        self.reset()

    def reset(self) -> None:
        """Drop all spans; the next ones belong to a set-up."""
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.enabled = True

    def span(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, 0.0, 0.0, 0.0, parent, self.op, {}]
        self.spans.append(record)
        self.stack.append(index)
        cpu = time.process_time()
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            record[3] = time.process_time() - cpu
            self.stack.pop()
        if name in self.signatures:
            bound = self.signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
            record[6] = COUNTERS[name](bound.arguments, result)
        return result

    def _wrap(self, name: str, fn):
        if name in COUNTERS:
            self.signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions where their callers find them."""
        modules = {layer: importlib.import_module(f"tomoprop.{layer}") for layer in LAYERS}
        swaps = {}
        # cli.main is left bare: the session times it per subcommand as cli.<command>
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and attr != "main"
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    swaps[value] = self._wrap(f"{layer}.{attr}", value)
        for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "tomoprop"]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in swaps:
                    setattr(module, attr, swaps[value])
        tomo_cls = modules["tomography"].Tomogram
        tomo_cls.evaluate = self._wrap("tomography.Tomogram.evaluate", tomo_cls.evaluate)
        green_cls = modules["greens"].GreenFunction
        green_cls.__call__ = self._wrap("greens.GreenFunction.call", green_cls.__call__)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "cpu", "parent", "op", "counts")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))

    def layer_metrics(self, n_ops: int) -> dict:
        """Aggregates per span name over the whole run.

        `s`, `self_s` and `cpu_s` are means per call; self time is a span's
        wall time minus that of its direct children (calls are sequential,
        so children never overlap).  `per_call`, `per_op` and `max` hold
        the counts as a mean per call, a sum over the ops' spans divided by
        the number of ops (set-up spans excluded), and a maximum.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, _, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, cpu, _, op, counts) in enumerate(self.spans):
            agg = out.setdefault(
                name, {"calls": 0, "op_calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "counts": []}
            )
            agg["calls"] += 1
            agg["op_calls"] += op != "setup"
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["cpu_s"] += cpu
            agg["counts"].append((op, counts))
        ops = max(n_ops, 1)
        for agg in out.values():
            for key in ("s", "self_s", "cpu_s"):
                agg[key] /= agg["calls"]
            agg["calls_per_op"] = agg["op_calls"] / ops
            per_call, per_op, peak = {}, {}, {}
            for op, counts in agg.pop("counts"):
                for key, value in counts.items():
                    per_call.setdefault(key, []).append(value)
                    if op != "setup":
                        per_op[key] = per_op.get(key, 0) + value
                    peak[key] = max(peak.get(key, value), value)
            agg["per_call"] = {k: sum(v) / len(v) for k, v in per_call.items()}
            agg["per_op"] = {k: v / ops for k, v in per_op.items()}
            agg["max"] = peak
        return out
