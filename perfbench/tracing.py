"""Span tracing of the qbdesign layers, installed from outside the package.

`install` wraps, in place and reversibly:

- every public function of the layer modules;
- every public method and `__init__` of their plain classes (dataclasses,
  enums and exceptions are value types and are left alone);
- `numpy.linalg.eigvalsh`, the kernel under projection scoring and As.

Every module-level reference to a wrapped function inside the package is
rebound too, so calls through `from .x import f` names are traced.  A
wrapper records a span only while the benchmark has a span open, so code
outside a timed CLI call runs unwrapped.

Spans live in flat arrays until the run ends: name, start, end, parent
span, pass and call index.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import math
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "optimizer", "wordcounts", "criteria", "projection", "design", "theory", "fixtures")
LARGE_M = 16  # word_counts calls on m >= LARGE_M factors count as large_m


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.pass_id = array("i")
        self.call = array("i")
        self.stack: list[int] = []
        self.pass_no = -1
        self.call_no = -1
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)  # pass -> counter

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.pass_id.append(self.pass_no)
        self.call.append(self.call_no)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[self.pass_no][key] += value

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.start, np.int64), end=np.frombuffer(self.end, np.int64),
            parent=np.frombuffer(self.parent, np.int32),
            pass_id=np.frombuffer(self.pass_id, np.int32), call=np.frombuffer(self.call, np.int32),
        )


def _sweeps_hook(tracer, idx, args, kwargs, result):
    tracer.add("optimizer.sweeps", result[2])


def _word_counts_hook(tracer, idx, args, kwargs, result):
    x = (args[0] if args else kwargs["d"]).entries
    n, m = x.shape
    k_max = args[1] if len(args) > 1 else kwargs.get("k_max")
    k_max = min(4, m) if k_max is None else k_max
    combos = [math.comb(m, k) for k in range(1, k_max + 1)]
    tracer.add("wordcounts.subsets", sum(combos))
    tracer.add("wordcounts.bytes_computed", sum(n * c * k * 8 for k, c in enumerate(combos, 1)))
    size = "large_m" if m >= LARGE_M else "small_m"
    tracer.add(f"wordcounts.ns.{size}", tracer.end[idx] - tracer.start[idx])
    tracer.add(f"wordcounts.calls.{size}", 1)


HOOKS = {
    "optimizer.coordinate_exchange": _sweeps_hook,
    "wordcounts.word_counts": _word_counts_hook,
}


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, idx, args, kwargs, result)
        return result

    return traced


def _plain_class(cls) -> bool:
    return not (dataclasses.is_dataclass(cls) or issubclass(cls, (enum.Enum, BaseException)))


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the layers; returns the (owner, attribute, original) list for `uninstall`."""
    restore: list[tuple[object, str, object]] = []
    wrapped: dict[int, object] = {}  # id(original function) -> wrapper
    for layer in LAYERS:
        mod = importlib.import_module(f"qbdesign.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = _wrap(tracer, obj, f"{layer}.{attr}")
            elif inspect.isclass(obj) and _plain_class(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if inspect.isfunction(meth) and (
                        not meth_name.startswith("_") or meth_name == "__init__"
                    ):
                        restore.append((obj, meth_name, meth))
                        setattr(obj, meth_name, _wrap(tracer, meth, f"{layer}.{attr}.{meth_name}"))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "qbdesign" and not mod_name.startswith("qbdesign."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
    restore.append((np.linalg, "eigvalsh", np.linalg.eigvalsh))
    np.linalg.eigvalsh = _wrap(tracer, np.linalg.eigvalsh, "numpy.eigvalsh")
    return restore


def uninstall(restore: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not lie above the median, so the
    slowest sample is reported, as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(
    tracer: Tracer, passes: list[int], call_groups: dict[str, list[int]]
) -> tuple[dict[str, float], list[dict]]:
    """Layer metrics per traced pass, and their summary: counts from the first
    traced pass (they repeat exactly), times as medians over the passes."""
    ids = {n: i for i, n in enumerate(tracer.names)}
    layer_ids = {lay: i for i, lay in enumerate(sorted({n.split(".", 1)[0] for n in tracer.names}))}
    layer_of = np.array([layer_ids[n.split(".", 1)[0]] for n in tracer.names] or [0])
    name = np.frombuffer(tracer.name, np.int32)
    dur = np.frombuffer(tracer.end, np.int64) - np.frombuffer(tracer.start, np.int64)
    parent = np.frombuffer(tracer.parent, np.int32)
    pass_id = np.frombuffer(tracer.pass_id, np.int32)
    call = np.frombuffer(tracer.call, np.int32)
    layer = layer_of[name]
    has_parent = parent >= 0
    up = np.where(has_parent, parent, 0)
    parent_name = np.where(has_parent, name[up], -1)
    parent_layer = np.where(has_parent, layer[up], -1)
    child = np.zeros(len(dur), dtype=np.int64)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    outer = layer != parent_layer  # outermost span of its layer on the stack

    def named(*names):
        return np.isin(name, [ids[n] for n in names if n in ids])

    def in_layer(lay):
        return layer == layer_ids.get(lay, -1)

    qb_names = [n for n in ids if n.startswith("criteria.qb_") and n != "criteria.qb_coefficients"]
    qb_eval = named(*qb_names) & outer
    delta = named("optimizer.QbEngine.delta")
    flips = named("optimizer.QbEngine.flip")
    as_eff = named("criteria.as_efficiency") & outer
    tiebreak = as_eff & (parent_name == ids.get("optimizer.multi_restart", -2))
    eig_proj = named("numpy.eigvalsh") & (parent_layer == layer_ids.get("projection", -2))
    proj = in_layer("projection") & outer
    restart = named("optimizer.coordinate_exchange")

    per_pass: list[dict] = []
    for p in passes:
        sel = pass_id == p
        c = tracer.counts[p]

        def total_ms(mask):
            return float(dur[sel & mask].sum()) / 1e6

        def count(mask):
            return int((sel & mask).sum())

        def mean_us(mask):
            k = count(mask)
            return float(dur[sel & mask].sum()) / 1e3 / k if k else 0.0

        row = {
            "optimizer.delta_calls": count(delta),
            "optimizer.delta_us": mean_us(delta),
            "optimizer.flips": count(flips),
            "optimizer.accept_ratio": count(flips) / count(delta) if count(delta) else 0.0,
            "optimizer.sweeps": int(c["optimizer.sweeps"]),
            "optimizer.engine_build_ms": total_ms(named("optimizer.QbEngine.__init__")),
            "optimizer.tiebreak_ms": total_ms(tiebreak),
            "wordcounts.calls": count(named("wordcounts.word_counts")),
            "wordcounts.subsets": int(c["wordcounts.subsets"]),
            "wordcounts.bytes_computed": int(c["wordcounts.bytes_computed"]),
            "criteria.qb_evals": count(qb_eval),
            "criteria.qb_us": mean_us(qb_eval),
            "criteria.as_calls": count(as_eff),
            "criteria.as_us": mean_us(as_eff),
            "criteria.es2_ue_s2_ms": total_ms(named("criteria.es2", "criteria.ue_s2") & outer),
            "projection.eigvalsh_calls": count(eig_proj),
            "projection.eigvalsh_share": (
                total_ms(eig_proj) / total_ms(proj) if total_ms(proj) else 0.0
            ),
            "projection.ms.had16": total_ms(proj & np.isin(call, call_groups.get("had16", []))),
            "projection.ms.case4": total_ms(proj & np.isin(call, call_groups.get("case4", []))),
            "design.load_ms": total_ms(named("design.load_design", "design.parse_design") & outer),
            "design.model_matrix_ms": total_ms(named("design.model_matrix")),
            "fixtures.check_ms": total_ms(named("fixtures.check_fixture")),
            "theory.ms": total_ms(in_layer("theory") & outer),
            "restart_ms": (dur[sel & restart] / 1e6).tolist(),
        }
        for size in ("small_m", "large_m"):
            k = c[f"wordcounts.calls.{size}"]
            row[f"wordcounts.ms.{size}"] = c[f"wordcounts.ns.{size}"] / 1e6 / k if k else 0.0
        for lay in LAYERS:
            row[f"{lay}.self_ms"] = float(self_ns[sel & in_layer(lay)].sum()) / 1e6
        per_pass.append(row)

    out: dict[str, float] = {}
    for key, first in per_pass[0].items():
        if isinstance(first, int):
            out[key] = first
        elif isinstance(first, float):
            out[key] = statistics.median(row[key] for row in per_pass)
    restarts = [v for row in per_pass for v in row["restart_ms"]]
    out["optimizer.restart_ms.p50"] = statistics.median(restarts) if restarts else 0.0
    out["optimizer.restart_ms.tail"] = tail(restarts)[0] if restarts else 0.0
    return out, per_pass
