"""Spans recorded around rec-persist's public functions, and per-layer metrics.

The tracer wraps functions from the benchmark's side: each public name is
replaced in every ``rec_persist`` module namespace that binds it (names
imported with ``from .x import y`` are bound in several), and
``Placement.node_index`` is replaced on the class. A span is
(name, start, end, parent, command id), kept in compact in-memory arrays
and written out when the run ends. A layer's self time is its spans'
durations minus the time their child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import cached_property

import numpy as np

# layer -> wrapped functions, as "module:qualified name"
LAYERS = {
    "specfun.kernel": ("specfun:log_reg_inc_beta_complement",),
    "analytic.sum": ("analytic:expect_random_sum", "analytic:survival_curve_random",
                     "analytic:survival_random"),
    "analytic.quad": ("analytic:expect_random_integral",
                      "analytic:expect_symmetric_integral"),
    "analytic.closed": ("analytic:expect_random_p1_beta", "analytic:expect_symmetric_p1_beta",
                        "analytic:expect_random_asymptotic",
                        "analytic:expect_symmetric_asymptotic"),
    "analytic.dispatch": ("analytic:expect_random", "analytic:expect_symmetric"),
    "simulator.place_random": ("simulator:place_random",),
    "simulator.place_symmetric": ("simulator:place_symmetric",),
    "model.node_index": ("model:Placement.node_index",),
    "simulator.persistency": ("simulator:persistency",),
    "simulator.simulate": ("simulator:simulate",),
    "sweep.run_sweep": ("sweep:run_sweep",),
    "sweep.write": ("sweep:rows_to_csv", "sweep:rows_to_svg"),
    "svg.render_chart": ("svg:render_chart",),
    "cli": ("cli:main",),
}
ROOT = "bench.command"

# per_layer metrics of BENCHMARK.json, with their units
METRICS = {
    "specfun.kernel.calls": "count",
    "specfun.kernel.self_s": "s",
    "specfun.kernel.us_per_call": "us",
    "analytic.sum.calls": "count",
    "analytic.sum.terms": "count",
    "analytic.sum.self_s": "s",
    "analytic.quad.calls": "count",
    "analytic.quad.evals": "count",
    "analytic.quad.self_s": "s",
    "analytic.quad.failed": "count",
    "analytic.quad.converged_frac": "frac",
    "analytic.closed.self_s": "s",
    "simulator.place_random.self_s": "s",
    "simulator.place_symmetric.self_s": "s",
    "simulator.table_bytes": "bytes",
    "model.node_index.calls": "count",
    "model.node_index.self_s": "s",
    "simulator.persistency.calls": "count",
    "simulator.persistency.self_s": "s",
    "simulator.persistency.us_per_call": "us",
    "simulator.order_used_frac": "frac",
    "simulator.simulate.calls": "count",
    "simulator.simulate.self_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.write.self_s": "s",
    "svg.render_chart.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.self_sum_frac": "frac",
    "trace.other_self_s": "s",
    "trace.absent_layers": "count",
}


def _placement_bytes(args, result) -> float:
    return float(result.table.nbytes)


def _order_used(args, result) -> float:
    return result / args[0].nodes


def _trials(args, result) -> float:
    return float(args[0].trials)


# extra value recorded with a span: f(args, result)
ANNOTATE = {
    "simulator:place_random": _placement_bytes,
    "simulator:place_symmetric": _placement_bytes,
    "simulator:persistency": _order_used,
    "simulator:simulate": _trials,
}


class Tracer:
    """Records spans in entry order into typed arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.command = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[int, str] = {}
        self.notes: dict[int, float] = {}
        self.stack = [-1]
        self.command_id = -1
        self.absent: list[str] = []
        self.root_id = self._id(ROOT)

    def _id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.command.append(self.command_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        nid = self._id(name)
        # local bindings: this wrapper runs about two million times per
        # analytic-range deck, so each attribute lookup shows in the overhead
        starts, ends, stack, raised, notes = (self.start, self.end, self.stack,
                                              self.raised, self.notes)
        add_name, add_parent = self.name_id.append, self.parent.append
        add_command, add_start, add_end = (self.command.append, self.start.append,
                                           self.end.append)
        push, pop, clock, tracer = stack.append, stack.pop, time.perf_counter, self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_command(tracer.command_id)
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                pop()
            if annotate is not None:
                notes[idx] = annotate(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every function of LAYERS; a missing one is an absent layer."""
        for targets in LAYERS.values():
            for target in targets:
                module_name, qualname = target.split(":")
                module = sys.modules.get(f"rec_persist.{module_name}")
                annotate = ANNOTATE.get(target)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name, None)
                    prop = getattr(cls, "__dict__", {}).get(attr)
                    if not isinstance(prop, cached_property):
                        self.absent.append(target)
                        continue
                    new = cached_property(self.wrap(target, prop.func, annotate))
                    new.__set_name__(cls, attr)
                    setattr(cls, attr, new)
                    continue
                original = getattr(module, qualname, None)
                if not callable(original):
                    self.absent.append(target)
                    continue
                wrapped = self.wrap(target, original, annotate)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "rec_persist" or mod_name.startswith("rec_persist."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "command": np.frombuffer(self.command, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised_idx": np.array(sorted(self.raised), dtype=np.int64),
            "note_idx": np.array(sorted(self.notes), dtype=np.int64),
            "note_val": np.array([self.notes[i] for i in sorted(self.notes)],
                                 dtype=np.float64),
            "absent": np.array(self.absent, dtype=str),
        }


def _has_ancestor(parent, name_id, ancestor_ids) -> np.ndarray:
    """Which spans have an ancestor whose name id is in ancestor_ids."""
    found = np.zeros(len(parent), dtype=bool)
    cur = parent.copy()
    while (live := cur >= 0).any():
        found[live] |= np.isin(name_id[cur[live]], ancestor_ids)
        cur[live] = parent[cur[live]]
    return found


def layer_metrics(data: dict, traced_wall: float, overhead_frac: float) -> tuple[dict, dict]:
    """(per-layer metrics, self seconds of every wrapped name).

    ``traced_wall`` is the traced pass's wall time outside calibrations;
    ``overhead_frac`` is its scaled time over the plain pass's, minus 1.
    """
    names = [str(n) for n in data["names"]]
    name_id, parent = data["name_id"].astype(np.int64), data["parent"]
    dur = data["end"] - data["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    per_name_self = np.bincount(name_id, weights=self_time, minlength=len(names))
    notes = dict(zip(data["note_idx"].tolist(), data["note_val"].tolist()))
    raised = set(data["raised_idx"].tolist())

    def ids(layer):
        return [names.index(t) for t in LAYERS[layer] if t in names]

    def mask(layer):
        return np.isin(name_id, ids(layer))

    def self_s(layer):
        return float(self_time[mask(layer)].sum())

    def entries(layer):
        # spans of the layer whose parent lies outside it
        m = mask(layer)
        outer = np.ones(len(m), dtype=bool)
        outer[has_parent] = ~m[parent[has_parent]]
        return np.flatnonzero(m & outer)

    def calls(layer):
        return int(len(entries(layer)))

    def noted(layer):
        return [notes[i] for i in np.flatnonzero(mask(layer)).tolist() if i in notes]

    kernel = np.flatnonzero(mask("specfun.kernel"))
    quad_entries = entries("analytic.quad")
    quad_failed = sum(1 for i in quad_entries.tolist() if i in raised)
    kernel_calls = len(kernel)
    persist_calls = calls("simulator.persistency")
    trials = sum(noted("simulator.simulate"))
    placed = noted("simulator.place_random") + noted("simulator.place_symmetric")
    used = noted("simulator.persistency")
    total_self = float(self_time.sum())
    m = {
        "specfun.kernel.calls": kernel_calls,
        "specfun.kernel.self_s": self_s("specfun.kernel"),
        "specfun.kernel.us_per_call": 1e6 * self_s("specfun.kernel") / max(kernel_calls, 1),
        "analytic.sum.calls": calls("analytic.sum"),
        "analytic.sum.terms":
            int(_has_ancestor(parent, name_id, ids("analytic.sum"))[kernel].sum()),
        "analytic.sum.self_s": self_s("analytic.sum"),
        "analytic.quad.calls": len(quad_entries),
        "analytic.quad.evals":
            int(_has_ancestor(parent, name_id, ids("analytic.quad"))[kernel].sum()),
        "analytic.quad.self_s": self_s("analytic.quad"),
        "analytic.quad.failed": quad_failed,
        "analytic.quad.converged_frac":
            1.0 - quad_failed / len(quad_entries) if len(quad_entries) else 1.0,
        "analytic.closed.self_s": self_s("analytic.closed"),
        "simulator.place_random.self_s": self_s("simulator.place_random"),
        "simulator.place_symmetric.self_s": self_s("simulator.place_symmetric"),
        "simulator.table_bytes": sum(placed) / trials if trials else 0.0,
        "model.node_index.calls": calls("model.node_index"),
        "model.node_index.self_s": self_s("model.node_index"),
        "simulator.persistency.calls": persist_calls,
        "simulator.persistency.self_s": self_s("simulator.persistency"),
        "simulator.persistency.us_per_call":
            1e6 * self_s("simulator.persistency") / max(persist_calls, 1),
        "simulator.order_used_frac": sum(used) / len(used) if used else 0.0,
        "simulator.simulate.calls": calls("simulator.simulate"),
        "simulator.simulate.self_s": self_s("simulator.simulate"),
        "sweep.run_sweep.self_s": self_s("sweep.run_sweep"),
        "sweep.write.self_s": self_s("sweep.write"),
        "svg.render_chart.self_s": self_s("svg.render_chart"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_frac": overhead_frac,
        "trace.self_sum_frac": total_self / traced_wall,
        # the benchmark's own root spans plus method dispatch
        "trace.other_self_s":
            float(self_time[name_id == names.index(ROOT)].sum()) + self_s("analytic.dispatch"),
        "trace.absent_layers": len(data["absent"]),
    }
    by_name = {names[i]: float(per_name_self[i]) for i in range(len(names))}
    return m, by_name

