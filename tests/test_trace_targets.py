"""The benchmark tracer must still find every function its counters name.

`perfbench/tracing.py` installs one span per public function it finds by
name.  A function that is renamed, deleted or dropped from its module's
`__all__` loses its span without an error, and the layer metric built from
that span silently reads 0.  The tracer module is loaded here read-only,
under a private name, and never installed.
"""
import importlib.util
from pathlib import Path

import weaklp  # noqa: F401  (the tracer looks the package up in sys.modules)

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

