"""Span recorder for the traced run, and the per-layer metrics built from it.

`install()` wraps the public functions listed in `TARGETS` at every place
they are bound inside the `mjlstab` package (`spectral_radius`, for
instance, is bound in `model`, `stability` and `robust`), so the program
itself is unchanged. Each span records its name, thread, parent span,
start, end and a few computed attributes. Work submitted through
`parallel_map` runs in pool threads; the wrapper gives each item a span
whose parent is the map's span, so nested spans in pool threads still
attribute to the call that caused them. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

# module -> public functions wrapped in the traced run: those the per-layer
# metrics name, plus the ones whose time must not count as cli self time
TARGETS = {
    "model": ["neighborhood", "build_global_matrix", "nominal_stability",
              "load_model", "dump_model", "build_pendulum_model"],
    "switched": ["enumerate_links", "build_mode_family", "mode_count",
                 "mode_count_formula"],
    "stability": ["dedup_agents", "mss_matrix", "mss_test_reduced",
                  "mss_test_family"],
    "linalg": ["spectral_radius"],
    "robust": ["compute_bounds", "solve_bound_lp"],
    "lp": ["lp_solve"],
    "sim": ["estimate_ms", "simulate_trajectory", "trajectory_csv",
            "mean_square_csv"],
    "_parallel": ["parallel_map"],
    "cli": ["main", "cmd_analyze", "cmd_inspect", "cmd_robust", "cmd_simulate"],
}


def _layer(module: str) -> str:
    # metric names must start with a letter, so `_parallel` reports as `parallel`
    return module.lstrip("_")


# span attributes computed from (args, result) for some functions
_ATTRS = {
    "model.build_global_matrix": lambda args, res: {"bytes": res.nbytes},
    "stability.mss_matrix": lambda args, res: {"bytes": res.matrix.nbytes},
    "switched.build_mode_family": lambda args, res: {"modes": res.mode_count},
    "linalg.spectral_radius": lambda args, res: {"dim": len(args[0])},
    "robust.compute_bounds": lambda args, res: {"feasible": bool(res.feasible)},
    "sim.simulate_trajectory": lambda args, res: {"steps": len(res.sqnorm) - 1},
}


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        rec = {"id": sid, "name": name, "parent": parent,
               "thread": threading.get_ident(), **attrs}
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec.update(attrs(args, result))
                return result

        return traced

    def wrap_parallel_map(self, fn):
        @functools.wraps(fn)
        def traced(work, items, *args, **kwargs):
            items = list(items)
            with self.span("parallel.parallel_map", items=len(items)) as rec:
                parent = rec["id"]

                def item(x):
                    with self.span("parallel.item", parent=parent):
                        return work(x)

                return fn(item, items, *args, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder) -> None:
    """Wrap every function in TARGETS wherever the mjlstab package binds it.

    Call after `import mjlstab.cli`, which imports every module.
    """
    package = {name: mod for name, mod in sys.modules.items()
               if name == "mjlstab" or name.startswith("mjlstab.")}
    replace = {}
    for module, names in TARGETS.items():
        for fname in names:
            fn = getattr(package[f"mjlstab.{module}"], fname)
            if fname == "parallel_map":
                replace[id(fn)] = recorder.wrap_parallel_map(fn)
            else:
                replace[id(fn)] = recorder.wrap(f"{_layer(module)}.{fname}", fn)
    for mod in package.values():
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in replace:
                setattr(mod, attr, replace[id(value)])


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; every name is reported by `layer_metrics`, zero when unused
LAYER_METRICS = {
    "model.nominal_stability.s": "s",
    "model.build_global_matrix.bytes": "bytes",
    "model.neighborhood.calls": "count",
    "model.neighborhood.s": "s",
    "model.dump_model.s": "s",
    "switched.enumerate_links.calls": "count",
    "switched.enumerate_links.s": "s",
    "switched.build_mode_family.s": "s",
    "switched.build_mode_family.modes": "count",
    "stability.dedup_agents.s": "s",
    "stability.mss_matrix.s": "s",
    "stability.mss_matrix.bytes": "bytes",
    "stability.scopes_tested": "count",
    "linalg.spectral_radius.calls": "count",
    "linalg.spectral_radius.max_dim": "count",
    "linalg.spectral_radius.scope_s": "s",
    "linalg.spectral_radius.nominal_s": "s",
    "robust.compute_bounds.s": "s",
    "robust.compute_bounds.feasible_frac": "ratio",
    "lp.lp_solve.calls": "count",
    "lp.lp_solve.s": "s",
    "sim.estimate_ms.s": "s",
    "sim.simulate_trajectory.calls": "count",
    "sim.simulate_trajectory.busy_s": "s",
    "sim.trial_steps": "count",
    "sim.trajectory_csv.s": "s",
    "sim.mean_square_csv.s": "s",
    "parallel.parallel_map.s": "s",
    "parallel.parallel_map.items": "count",
    "parallel.parallel_map.concurrency": "ratio",
    "cli.main.self_s": "s",
}


def _dur(span) -> float:
    return span["end"] - span["start"]


def _covered(span, children) -> float:
    """Length of the part of `span` covered by the union of `children`."""
    cover, reach = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], reach), min(c["end"], span["end"])
        if hi > lo:
            cover += hi - lo
            reach = hi
    return cover


def layer_metrics(calls: list[list[dict]]) -> dict:
    """Per-layer metrics of one pass, given the span list of each call.

    Times are summed over calls (pool threads can make a sum exceed wall
    time); counts repeat exactly from pass to pass. A span whose function
    raised carries no computed attributes and adds none.
    """
    total = {name: 0.0 for name in LAYER_METRICS}
    feasible = bounds = item_busy = 0.0
    for spans in calls:
        by_id = {s["id"]: s for s in spans}
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)

        def under(span, name) -> bool:
            parent = by_id.get(span["parent"])
            while parent is not None:
                if parent["name"] == name:
                    return True
                parent = by_id.get(parent["parent"])
            return False

        for s in spans:
            name, dur = s["name"], _dur(s)
            if f"{name}.s" in total:
                total[f"{name}.s"] += dur
            if f"{name}.calls" in total:
                total[f"{name}.calls"] += 1
            if f"{name}.bytes" in total:
                total[f"{name}.bytes"] = max(total[f"{name}.bytes"], s.get("bytes", 0))
            if name == "switched.build_mode_family":
                total["switched.build_mode_family.modes"] += s.get("modes", 0)
            elif name == "stability.mss_matrix":
                total["stability.scopes_tested"] += 1
            elif name == "linalg.spectral_radius":
                total["linalg.spectral_radius.max_dim"] = max(
                    total["linalg.spectral_radius.max_dim"], s.get("dim", 0))
                which = "nominal" if under(s, "model.nominal_stability") else "scope"
                total[f"linalg.spectral_radius.{which}_s"] += dur
            elif name == "robust.compute_bounds":
                bounds += 1
                feasible += s.get("feasible", False)
            elif name == "sim.simulate_trajectory":
                total["sim.simulate_trajectory.busy_s"] += dur
                total["sim.trial_steps"] += s.get("steps", 0)
            elif name == "parallel.parallel_map":
                total["parallel.parallel_map.items"] += s["items"]
            elif name == "parallel.item":
                item_busy += dur
            elif name == "cli.main":
                # the cli layer's own time: cli.cmd_* spans count as cli too
                below, frontier = [], list(children.get(s["id"], []))
                while frontier:
                    c = frontier.pop()
                    if c["name"].startswith("cli."):
                        frontier += children.get(c["id"], [])
                    else:
                        below.append(c)
                total["cli.main.self_s"] += dur - _covered(s, below)
    total["robust.compute_bounds.feasible_frac"] = feasible / bounds if bounds else 0.0
    map_wall = total["parallel.parallel_map.s"]
    total["parallel.parallel_map.concurrency"] = item_busy / map_wall if map_wall else 0.0
    return total
