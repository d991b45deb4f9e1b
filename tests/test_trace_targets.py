"""The benchmark tracer must still find every function its counters and
layer metrics name.

`perfbench/tracing.py` installs one span per public function it finds by
name.  A function that is renamed, deleted or dropped from its module's
`__all__` loses its span without an error, and the layer metric built from
that span silently reads 0.  The tracer module is loaded here read-only,
under a private name, and never installed.
"""
import importlib.util
from pathlib import Path

import numpy as np

import weaklp  # noqa: F401  (the tracer looks the package up in sys.modules)
from weaklp import covering as C
from weaklp import maximal as M
from weaklp import quadrature as Q

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_weaklp_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_counter_names_a_traced_target():
    T = _load_tracing()
    names = {name for _, _, name in T.Tracer()._targets()}
    assert set(T.COUNTERS) <= names, sorted(set(T.COUNTERS) - names)


def test_covering_and_maximal_counters_read_real_outputs():
    # the counters read attributes of each function's result, so a changed
    # return type must fail here, not only under `perfbench --trace`
    T = _load_tracing()
    f = Q.GriddedFunction([[-1.0, 1.5]], np.array([0.0, 2.0, 3.0, 0.5, 2.5, 0.0, 1.0, 2.0]))
    family = C.admissible_intervals(f, 1.0)
    cover = C.vitali_select(family)
    chain = [
        ("covering.admissible_intervals", (f, 1.0), family),
        ("covering.vitali_select", (family,), cover),
        ("covering.verify_5j_cover", (cover,), C.verify_5j_cover(cover)),
        ("maximal.hl_maximal", (f,), M.hl_maximal(f)),
    ]
    got = {name: T.COUNTERS[name](args, {}, out, None) for name, args, out in chain}
    assert got == {
        "covering.admissible_intervals": {"family_size": len(family)},
        "covering.vitali_select": {"selected": len(cover), "family_size": len(family)},
        "covering.verify_5j_cover": {"pairs": len(family)},
        "maximal.hl_maximal": {"cells": 8},
    }
    assert len(family) > len(cover) > 0


def _metric_spans(T):
    """The span names the layer metrics read: the dotted string constants of
    each metric function, and the two spans `span_stats` reads by name."""
    spans = {"quadrature.monte_carlo", "levelset.weak_quasinorm"}
    for _, _, fn in T.LAYER_METRICS:
        spans |= {c for c in fn.__code__.co_consts if isinstance(c, str) and "." in c}
    return spans


def test_every_layer_metric_reads_a_traced_span():
    T = _load_tracing()
    names = {name for _, _, name in T.Tracer()._targets()}
    spans = _metric_spans(T)
    assert "quadrature.TensorGrid.points_weights" in spans
    assert spans <= names, sorted(spans - names)
