"""weaklp benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root, one workload at a time or all three:

    python3 perfbench/run.py --workload polar-2d --seed 1 --seconds 36 --trace 0
    for w in polar-2d mc-3d machinery; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 36 --trace 0; done

Workloads are defined in `workloads.py`.  A run sets up (import, catalogue
certification, cache filling), then repeats the workload's fixed batch of
checks in a closed loop, one pass after the other, and starts another pass
only while it fits in `--seconds`.

`--trace 0` prints the end-to-end metrics, all measured with tracing off:

    batch_s      median wall time of one pass over the batch
    setup_s      median of three set-ups, one in this process, two in fresh
                 interpreters
    peak_rss_mb  peak resident memory of this process
    pass_frac    checks that passed / checks attempted, that is 1 - fail_frac
                 (a check that fails, is inconclusive or raises does not pass)
    oracle_err   worst relative error against the repo's own oracles: the
                 deviation for deterministic estimates, the reported standard
                 error for Monte Carlo ones (whose deviation is seed noise and
                 is gated by the checks' verdicts)

The table also prints fail_frac, the number of passes behind batch_s and,
once there are enough passes, the highest percentile of the pass times with
at least ten samples above it.

`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see `tracing.py`), with the tracing overhead; the
spans themselves go to `.perfbench-trace/<workload>-seed<seed>.json`.

Every pass must reproduce the first pass's values exactly, traced passes must
repeat their work counts exactly, and the wrappers must be gone after each
traced pass; otherwise the run reports `"correct": false`.  The last line of
standard output is the result object; the lines before it are a table of the
metrics and a JSON detail record (provenance, per-check times and verdicts,
the work fingerprint).

The benchmark's own tests: `python -m pytest perfbench -q`.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads as W

SETUP_SAMPLES = 3
END_TO_END_UNITS = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio",
                    "oracle_err": "ratio"}
TRACE_DIR = W.ROOT / ".perfbench-trace"      # spans of traced runs, written at exit
# per-layer metrics beside tracing.LAYER_METRICS
EXTRA_LAYER_UNITS = {"trace.spans": "count", "fields.catalogue.s": "s", "trace.overhead_s": "s"}


@dataclass
class Context:
    seed: int
    workers: int
    out: Path


@dataclass
class Pass:
    traced: bool
    wall: float
    times: dict          # check id -> seconds
    outcomes: dict       # check id -> Outcome
    errors: dict         # check id -> traceback text
    layers: dict = None  # traced passes: layer metrics
    spans: list = None   # traced passes: the recorded spans


def run_pass(checks, ctx, tracer=None):
    times, outcomes, errors = {}, {}, {}
    t_pass = time.perf_counter()
    for cid, fn in checks:
        if tracer is not None:
            tracer.check = cid
        t0 = time.perf_counter()
        try:
            outcomes[cid] = fn(ctx)
        except Exception:     # a check that raises counts as failed
            errors[cid] = traceback.format_exc()
        times[cid] = time.perf_counter() - t0
    return Pass(tracer is not None, time.perf_counter() - t_pass, times, outcomes, errors)


def run_traced_pass(checks, ctx):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = run_pass(checks, ctx, tracer)
    finally:
        tracer.uninstall()
    p.layers = tracing.layer_metrics(tracer.spans)
    p.spans = tracer.spans
    return p, tracing.leftovers()


def measure(checks, ctx, seconds, trace):
    """Passes until the next one would overrun `seconds`; traced runs
    alternate plain and traced passes and make at least one of each."""
    passes, problems = [], []
    start = time.perf_counter()
    for traced in itertools.cycle((False, True) if trace else (False,)):
        if traced:
            p, left = run_traced_pass(checks, ctx)
            if left:
                problems.append(f"tracing wrappers left installed: {left}")
        else:
            p = run_pass(checks, ctx)
        passes.append(p)
        elapsed = time.perf_counter() - start
        both = not trace or len({q.traced for q in passes}) == 2
        if both and elapsed + max(q.wall for q in passes) > seconds:
            return passes, problems


def _same(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def verify(passes, checks):
    """Count failed checks and list reproducibility problems."""
    attempted = failed = 0
    problems = []
    ref = passes[0]
    for i, p in enumerate(passes):
        for cid, _ in checks:
            attempted += 1
            out = p.outcomes.get(cid)
            if out is None or not out.passed:
                failed += 1
            ref_out = ref.outcomes.get(cid)
            if out is not None and ref_out is not None and not _same(out.values, ref_out.values):
                problems.append(f"pass {i} ({'traced' if p.traced else 'plain'}): values of "
                                f"{cid} differ from pass 0")
    traced = [p for p in passes if p.traced]
    if traced:
        import tracing

        fp0 = tracing.fingerprint(traced[0].layers)
        for p in traced[1:]:
            if tracing.fingerprint(p.layers) != fp0:
                problems.append("work counts differ between traced passes")
    return attempted, failed, problems


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def provenance(threads):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(W.ROOT),
        "thread_pins": {v: os.environ.get(v) for v in W.THREAD_VARS},
        "os_threads_after_setup": threads,
    }


def git_commit(root):
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_sample(workload):
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=W.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    W.pin_threads()
    t0 = time.perf_counter()
    try:
        t_catalogue = W.setup(args.workload)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - t0
    # one thread here shows that the BLAS pool was never started
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [setup_sample(args.workload) for _ in range(SETUP_SAMPLES - 1)]

    checks_fn, _ = W.WORKLOADS[args.workload]
    checks = checks_fn()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=W.ROOT) as tmp:
        ctx = Context(args.seed, W.MC_WORKERS, Path(tmp))
        passes, problems = measure(checks, ctx, args.seconds, bool(args.trace))
    attempted, failed, more = verify(passes, checks)
    problems += more
    plain = [p.wall for p in passes if not p.traced]
    first = passes[0]

    if args.trace:
        import tracing

        traced = [p for p in passes if p.traced]
        values = {name: statistics.median(p.layers[name] for p in traced)
                  for name in traced[0].layers}
        values["fields.catalogue.s"] = t_catalogue
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(plain))
        units = {n: u for n, u, _ in tracing.LAYER_METRICS} | EXTRA_LAYER_UNITS
        metrics = {name: (values[name], unit) for name, unit in units.items()}
        fingerprint = tracing.fingerprint(traced[0].layers)
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "check", "nested", "counts"],
             "passes": [p.spans for p in traced]}))
    else:
        metrics = {
            "batch_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
            "oracle_err": max((o.oracle_err for o in first.outcomes.values()), default=0.0),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        fingerprint = None

    tail = tail_percentile(plain)
    check_times = [t for p in passes if not p.traced for t in p.times.values()]
    check_tail = tail_percentile(check_times)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(threads),
        "pass_s": {"plain": plain, "traced": [p.wall for p in passes if p.traced]},
        "batch_s": {
            "median": statistics.median(plain),
            "samples": len(plain),
            "tail_percentile": None if tail is None else {"q": tail[0], "value": tail[1]},
        },
        "check_s": {
            "samples": len(check_times),
            "median": statistics.median(check_times),
            "tail_percentile": None if check_tail is None else {"q": check_tail[0],
                                                                "value": check_tail[1]},
        },
        "setup_s_samples": setups,
        "fail_frac": failed / attempted,
        "checks": {
            cid: {
                "median_s": statistics.median(p.times[cid] for p in passes if not p.traced),
                **({"verdicts": out.verdicts, "oracle_err": out.oracle_err, "detail": out.detail}
                   if (out := first.outcomes.get(cid)) else {"error": first.errors.get(cid)}),
            }
            for cid, _ in checks
        },
        "fingerprint": fingerprint,
        "problems": problems,
    }
    table = dict(metrics)
    if not args.trace:
        table["fail_frac"] = (failed / attempted, "ratio")
        table["batch_s.samples"] = (len(plain), "count")
        if tail is not None:
            table[f"batch_s.p{tail[0]:g}"] = (tail[1], "s")
    for name, (value, unit) in table.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
