"""Span tracing installed at run time around weaklp's public functions.

`Tracer.install()` replaces every public function of the package modules,
`ScalarField.evaluate`/`gradient` in every field class, and a few methods
with a wrapper that records one span per call: name, start, end, parent
span, check id, and work counts read from the arguments and the result.
Names bound elsewhere through `from ... import` are rebound too, so a call is
traced whichever module looks it up.  `uninstall()` restores every binding
and `leftovers()` lists any that still point at a wrapper.

Wrappers return the wrapped call's result untouched, and counts are read
after the span has closed, so tracing changes timings but not results.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

MODULES = (
    "fields",
    "quadrature",
    "levelset",
    "seminorms",
    "covering",
    "maximal",
    "corollaries",
    "experiments",
    "reporting",
)


def _points(args):
    pts = np.asarray(args[1])
    return int(pts.size // pts.shape[-1]) if pts.ndim else 1


def _count_evaluate(args, kwargs, out, pre):
    return {"points": _points(args), "zero": int(np.count_nonzero(np.asarray(out) == 0.0))}


def _count_quad(args, kwargs, out, pre):
    return {"nodes_used": int(out.nodes_used), "converged": int(bool(out.converged))}


def _count_mc(args, kwargs, out, pre):
    return {"samples": int(out.nodes_used), "workers": int(kwargs.get("workers", 1))}


# span name -> counter(args, kwargs, result, pre-call state)
COUNTERS = {
    "fields.evaluate": _count_evaluate,
    "fields.gradient": lambda a, k, out, pre: {"points": _points(a)},
    "levelset.pair_measure_polar": _count_quad,
    "levelset.pair_measure_mc": _count_mc,
    "levelset.distribution_profile": lambda a, k, out, pre: {"thresholds": int(out.lambdas.size)},
    "quadrature.monte_carlo": _count_mc,
    "quadrature.RandomStream.uniform_matrix": lambda a, k, out, pre: {"draws": int(out.size)},
    "quadrature.sphere_rule": lambda a, k, out, pre: {"misses": pre},
    "seminorms.gagliardo": _count_quad,
    "covering.admissible_intervals": lambda a, k, out, pre: {"family_size": len(out)},
    "covering.vitali_select": lambda a, k, out, pre: {"selected": len(out),
                                                      "family_size": len(out.family)},
    "covering.verify_5j_cover": lambda a, k, out, pre: {"pairs": int(out["pairs"])},
    "covering.rotation_measure_mc": lambda a, k, out, pre: {"samples": int(out.nodes_used)},
    "maximal.hl_maximal": lambda a, k, out, pre: {"cells": int(out.values.size)},
    "reporting.write_csv": lambda a, k, out, pre: {"bytes": a[0].stat().st_size},
    "reporting.Report.write": lambda a, k, out, pre: {"bytes": a[1].stat().st_size},
}

# public functions outside the modules' __all__ that the metrics need
EXTRA = {
    "covering": ("rotation_measure_mc",),
    "experiments": ("run_experiment",),
    "reporting": ("write_csv",),
}


class Tracer:
    """Collects spans in memory while installed; one instance per traced pass."""

    def __init__(self):
        # (id, parent id, name, t0, t1, check, nested, attrs); nested marks a
        # call made from inside a span of the same name (a sum field's terms)
        self.spans = []
        self.check = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []       # (owner, attribute, original)

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        misses = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # a pool thread: its work belongs to the main-thread span
                # that waits on the pool
                parent = tracer._main_stack[-1]
            else:
                parent = (0, None)
            sid = next(tracer._ids)
            pre = misses().misses if misses else None
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            if misses:
                pre = misses().misses - pre
            attrs = counter(args, kwargs, out, pre) if counter else None
            tracer.spans.append((sid, parent[0], name, t0, t1, tracer.check, parent[1] == name, attrs))
            return out

        wrapper.__traced__ = True
        return wrapper

    def _targets(self):
        """(owner, attribute, span name) for every traced callable."""
        pkg = sys.modules["weaklp"]
        out = []
        for mod_name in MODULES:
            mod = importlib.import_module(f"weaklp.{mod_name}")
            for attr in [*getattr(mod, "__all__", ()), *EXTRA.get(mod_name, ())]:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    out.append((mod, attr, f"{mod_name}.{attr}"))
        classes = list(pkg.fields.ScalarField.__subclasses__())
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            for meth in ("evaluate", "gradient"):
                if meth in vars(cls):
                    out.append((cls, meth, f"fields.{meth}"))
        q = pkg.quadrature
        out.append((q.RandomStream, "uniform_matrix", "quadrature.RandomStream.uniform_matrix"))
        out.append((q.TensorGrid, "points_weights", "quadrature.TensorGrid.points_weights"))
        out.append((pkg.reporting.Report, "write", "reporting.Report.write"))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, name in self._targets():
            fn = vars(owner)[attr]
            wrapper = self._wrap(name, fn)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, fn))
            if not isinstance(owner, type):
                wrapped[id(fn)] = (fn, wrapper)
        # rebind names imported with `from ... import` anywhere in the package
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches = []


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "weaklp" or n.startswith("weaklp.")]


def leftovers():
    """Names in the package that still point at a tracing wrapper."""
    bad = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if getattr(val, "__traced__", False):
                bad.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__.startswith("weaklp"):
                bad.extend(
                    f"{mod.__name__}.{attr}.{m}"
                    for m, v in vars(val).items()
                    if getattr(v, "__traced__", False)
                )
    return sorted(set(bad))


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_stats(spans):
    """Per span name: self time, calls, and summed counts.

    Self time is a span's duration minus the part of it that its child spans
    cover (children in pool threads overlap, hence the union).  Calls and
    counts skip nested spans so that a sum field's terms are not counted
    twice; self time includes them.
    """
    children = defaultdict(list)
    names = {}
    for s in spans:
        children[s[1]].append(s)
        names[s[0]] = s[2]
    stats = defaultdict(lambda: defaultdict(float))
    for sid, parent, name, t0, t1, _check, nested, attrs in spans:
        kids = children.get(sid, ())
        st = stats[name]
        st["self_s"] += (t1 - t0) - _covered([(max(k[3], t0), min(k[4], t1)) for k in kids])
        if name == "quadrature.monte_carlo":
            st["busy_s"] += sum(k[4] - k[3] for k in kids)
            st["capacity_s"] += attrs["workers"] * (t1 - t0)
        if name.startswith("levelset.pair_measure") and names.get(parent) == "levelset.weak_quasinorm":
            stats["levelset.weak_quasinorm"]["estimator_calls"] += 1
        if nested:
            continue
        st["calls"] += 1
        st["span_s"] += t1 - t0
        for k, v in (attrs or {}).items():
            if k != "workers":
                st[k] += v
    return stats


def _ratio(a, b):
    return a / b if b else 0.0


# (metric, unit, function of the stats); units: s, ns, count, ratio, bytes
LAYER_METRICS = [
    ("fields.evaluate.calls", "count", lambda S: S["fields.evaluate"]["calls"]),
    ("fields.evaluate.points", "count", lambda S: S["fields.evaluate"]["points"]),
    ("fields.evaluate.self_s", "s", lambda S: S["fields.evaluate"]["self_s"]),
    ("fields.evaluate.ns_per_point", "ns", lambda S: 1e9 * _ratio(
        S["fields.evaluate"]["self_s"], S["fields.evaluate"]["points"])),
    ("fields.evaluate.zero_frac", "ratio", lambda S: _ratio(
        S["fields.evaluate"]["zero"], S["fields.evaluate"]["points"])),
    ("fields.gradient.points", "count", lambda S: S["fields.gradient"]["points"]),
    ("fields.gradient.self_s", "s", lambda S: S["fields.gradient"]["self_s"]),
    ("fields.gradient_lp_norm.self_s", "s", lambda S: S["fields.gradient_lp_norm"]["self_s"]),
    ("levelset.pair_measure_polar.calls", "count", lambda S: S["levelset.pair_measure_polar"]["calls"]),
    ("levelset.pair_measure_polar.self_s", "s", lambda S: S["levelset.pair_measure_polar"]["self_s"]),
    ("levelset.pair_measure_polar.nodes_used", "count",
     lambda S: S["levelset.pair_measure_polar"]["nodes_used"]),
    ("levelset.pair_measure_polar.converged_frac", "ratio", lambda S: _ratio(
        S["levelset.pair_measure_polar"]["converged"], S["levelset.pair_measure_polar"]["calls"])),
    ("levelset.distribution_profile.calls", "count", lambda S: S["levelset.distribution_profile"]["calls"]),
    ("levelset.distribution_profile.thresholds", "count",
     lambda S: S["levelset.distribution_profile"]["thresholds"]),
    ("levelset.distribution_profile.self_s", "s", lambda S: S["levelset.distribution_profile"]["self_s"]),
    ("levelset.weak_quasinorm.self_s", "s", lambda S: S["levelset.weak_quasinorm"]["self_s"]),
    ("levelset.weak_quasinorm.estimator_calls", "count",
     lambda S: S["levelset.weak_quasinorm"]["estimator_calls"]),
    ("levelset.pair_measure_mc.calls", "count", lambda S: S["levelset.pair_measure_mc"]["calls"]),
    ("levelset.pair_measure_mc.self_s", "s", lambda S: S["levelset.pair_measure_mc"]["self_s"]),
    ("levelset.pair_measure_mc.samples", "count", lambda S: S["levelset.pair_measure_mc"]["samples"]),
    ("quadrature.monte_carlo.calls", "count", lambda S: S["quadrature.monte_carlo"]["calls"]),
    ("quadrature.monte_carlo.self_s", "s", lambda S: S["quadrature.monte_carlo"]["self_s"]),
    ("quadrature.monte_carlo.samples", "count", lambda S: S["quadrature.monte_carlo"]["samples"]),
    ("quadrature.monte_carlo.busy_frac", "ratio", lambda S: _ratio(
        S["quadrature.monte_carlo"]["busy_s"], S["quadrature.monte_carlo"]["capacity_s"])),
    ("quadrature.RandomStream.uniform_matrix.self_s", "s",
     lambda S: S["quadrature.RandomStream.uniform_matrix"]["self_s"]),
    ("quadrature.RandomStream.uniform_matrix.draws", "count",
     lambda S: S["quadrature.RandomStream.uniform_matrix"]["draws"]),
    ("quadrature.TensorGrid.points_weights.self_s", "s",
     lambda S: S["quadrature.TensorGrid.points_weights"]["self_s"]),
    ("quadrature.sphere_rule.calls", "count", lambda S: S["quadrature.sphere_rule"]["calls"]),
    ("quadrature.sphere_rule.misses", "count", lambda S: S["quadrature.sphere_rule"]["misses"]),
    ("seminorms.gagliardo.calls", "count", lambda S: S["seminorms.gagliardo"]["calls"]),
    ("seminorms.gagliardo.self_s", "s", lambda S: S["seminorms.gagliardo"]["self_s"]),
    ("seminorms.gagliardo.nodes_used", "count", lambda S: S["seminorms.gagliardo"]["nodes_used"]),
    ("corollaries.check_strong_embedding.self_s", "s",
     lambda S: S["corollaries.check_strong_embedding"]["self_s"]),
    ("covering.admissible_intervals.self_s", "s", lambda S: S["covering.admissible_intervals"]["self_s"]),
    ("covering.admissible_intervals.family_size", "count",
     lambda S: S["covering.admissible_intervals"]["family_size"]),
    ("covering.vitali_select.self_s", "s", lambda S: S["covering.vitali_select"]["self_s"]),
    ("covering.vitali_select.selected_frac", "ratio", lambda S: _ratio(
        S["covering.vitali_select"]["selected"], S["covering.vitali_select"]["family_size"])),
    ("covering.verify_5j_cover.self_s", "s", lambda S: S["covering.verify_5j_cover"]["self_s"]),
    ("covering.verify_5j_cover.pairs", "count", lambda S: S["covering.verify_5j_cover"]["pairs"]),
    ("covering.weighted_energy.self_s", "s", lambda S: S["covering.weighted_energy"]["self_s"]),
    ("covering.rotation_measure.self_s", "s", lambda S: S["covering.rotation_measure"]["self_s"]),
    ("covering.rotation_measure_mc.self_s", "s", lambda S: S["covering.rotation_measure_mc"]["self_s"]),
    ("covering.rotation_measure_mc.samples", "count",
     lambda S: S["covering.rotation_measure_mc"]["samples"]),
    ("maximal.hl_maximal.self_s", "s", lambda S: S["maximal.hl_maximal"]["self_s"]),
    ("maximal.hl_maximal.cells", "count", lambda S: S["maximal.hl_maximal"]["cells"]),
    ("maximal.gridded_gradient_norm.self_s", "s", lambda S: S["maximal.gridded_gradient_norm"]["self_s"]),
    ("maximal.lusin_lipschitz_check.self_s", "s", lambda S: S["maximal.lusin_lipschitz_check"]["self_s"]),
    ("experiments.run_experiment.self_s", "s", lambda S: S["experiments.run_experiment"]["self_s"]),
    ("reporting.bytes_written", "bytes", lambda S: S["reporting.write_csv"]["bytes"]
     + S["reporting.Report.write"]["bytes"]),
    ("reporting.write_s", "s", lambda S: S["reporting.write_csv"]["span_s"]
     + S["reporting.Report.write"]["span_s"]),
]

def layer_metrics(spans):
    """Every LAYER_METRICS value for one traced pass, plus the span count."""
    stats = span_stats(spans)
    out = {name: float(fn(stats)) for name, _, fn in LAYER_METRICS}
    out["trace.spans"] = float(len(spans))
    return out


def fingerprint(metrics):
    """The deterministic part of a pass's layer metrics: all but the times and
    the time-derived busy fraction."""
    timed = {name for name, unit, _ in LAYER_METRICS if unit in ("s", "ns")}
    timed.add("quadrature.monte_carlo.busy_frac")
    return {k: v for k, v in sorted(metrics.items()) if k not in timed}
