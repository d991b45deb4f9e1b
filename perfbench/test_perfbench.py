"""Tests of the benchmark itself; run with `python -m pytest perfbench -q`.

They check the BENCHMARK.json schema (never timings), that results and work
counts repeat exactly, that `workers` changes neither on mc-3d, that tracing
leaves results and module bindings untouched, and that failures are counted.
"""
import json
import re
import shutil
import subprocess
import sys

import pytest

import workloads as W

W.pin_threads()
W.use_checkout_source()

import run as R  # noqa: E402
import tracing as T  # noqa: E402

BENCH = W.ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_benchmark_json_schema():
    doc = json.loads(BENCH.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH.stat().st_size <= 64 * 1024
    assert 1 <= len(doc["command"]) <= 32 and all(len(a) <= 200 for a in doc["command"])
    assert 1 <= len(doc["paths"]) <= 16
    for p in doc["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (W.ROOT / p).is_dir()
    for arg in doc["command"][1:]:
        if "/" in arg:
            assert any(arg.startswith(p + "/") for p in doc["paths"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = []
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # the declared metrics are exactly the ones the runner prints
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == R.END_TO_END_UNITS
    assert {m["name"] for m in doc["workloads"]} == set(W.WORKLOADS)
    layer_units = {n: u for n, u, _ in T.LAYER_METRICS}
    layer_units.update(R.EXTRA_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer_units


def _subset(checks, ids):
    return [(cid, fn) for cid, fn in checks if cid in ids]


@pytest.fixture
def ctx(tmp_path):
    return R.Context(seed=5, workers=W.MC_WORKERS, out=tmp_path)


def _traced(checks, ctx):
    p, left = R.run_traced_pass(checks, ctx)
    assert not left and not p.errors
    return p


def _values(p):
    return {cid: o.values for cid, o in p.outcomes.items()}


@pytest.mark.parametrize("workload, ids", [
    ("polar-2d", {"bump2:p=2"}),
    ("machinery", {"covering", "crosscheck:p=1", "maximal:bump2"}),
])
def test_results_and_work_counts_repeat(workload, ids, ctx):
    W.setup(workload)
    checks = _subset(W.WORKLOADS[workload][0](), ids)
    assert len(checks) == len(ids)
    plain = R.run_pass(checks, ctx)
    a, b = _traced(checks, ctx), _traced(checks, ctx)
    assert all(o.passed for o in plain.outcomes.values())
    assert _values(plain) == _values(a) == _values(b)
    assert T.fingerprint(a.layers) == T.fingerprint(b.layers)
    assert T.fingerprint(a.layers)["fields.evaluate.points"] > 0


def test_mc_workers_change_neither_results_nor_work(tmp_path):
    W.setup("mc-3d")
    checks = _subset(W.mc_3d_checks(), {"bump3:p=2"})
    one = _traced(checks, R.Context(5, 1, tmp_path))
    two = _traced(checks, R.Context(5, 2, tmp_path))
    assert _values(one) == _values(two)
    assert T.fingerprint(one.layers) == T.fingerprint(two.layers)
    assert T.fingerprint(one.layers)["levelset.pair_measure_mc.samples"] == 12 * 3 * W.MC_SAMPLES


def test_seed_reaches_the_random_inputs(tmp_path):
    W.setup("machinery")
    checks = _subset(W.machinery_checks(), {"covering", "maximal:bump2"})
    runs = [R.run_pass(checks, R.Context(s, 1, tmp_path / str(s))) for s in (1, 2)]
    for p in runs:
        assert not p.errors and all(o.passed for o in p.outcomes.values())
    for cid in ("covering", "maximal:bump2"):
        assert runs[0].outcomes[cid].values != runs[1].outcomes[cid].values


def test_tracer_restores_every_binding(ctx):
    import weaklp  # noqa: F401

    W.setup("polar-2d")
    before = {m.__name__: dict(vars(m)) for m in T._package_modules()}
    tracer = T.Tracer()
    tracer.install()
    try:
        assert T.leftovers()
    finally:
        tracer.uninstall()
    assert T.leftovers() == []
    after = {m.__name__: dict(vars(m)) for m in T._package_modules()}
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items()), name


def test_failed_raised_and_inconclusive_checks_count(ctx):
    def ok(c):
        return W.Outcome({"v": 1}, {"a": True})

    def bad(c):
        return W.Outcome({"v": 1}, {"a": False})

    def unsure(c):
        return W.Outcome({"v": 1}, {"a": "inconclusive"})

    def boom(c):
        raise RuntimeError("check raised")

    checks = [("ok", ok), ("bad", bad), ("unsure", unsure), ("boom", boom)]
    passes = [R.run_pass(checks, ctx), R.run_pass(checks, ctx)]
    assert "check raised" in passes[0].errors["boom"]
    attempted, failed, problems = R.verify(passes, checks)
    assert (attempted, failed, problems) == (8, 6, [])

    flip = iter([1, 2])
    checks = [("drift", lambda c: W.Outcome({"v": next(flip)}, {"a": True}))]
    passes = [R.run_pass(checks, ctx), R.run_pass(checks, ctx)]
    assert R.verify(passes, checks)[2]


def test_tail_percentile():
    assert R.tail_percentile(list(range(10))) is None
    q, v = R.tail_percentile(list(range(20)))
    assert q == 50.0 and v == 9 and sum(x > v for x in range(20)) == 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH, tmp_path / "BENCHMARK.json")
    shutil.copytree(W.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
