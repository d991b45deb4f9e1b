"""Reproducible experiment runner.

Exit codes: 0 all verdicts pass, 1 config or execution error, 2 verdict
failure, 3 inconclusive: an unconverged estimate, or an error interval that
straddles a tolerance (see `Report.add_verdict`).  For a fixed config and
seed the CSV and JSON outputs are byte-identical whatever --workers is;
wall-clock timings go to a sidecar timings.json outside that contract.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

from .errors import ConsistencyError, InvalidParameterError, PreconditionError
from .experiments import ConfigError, config_seed, read_experiment, run_experiment
from .quadrature import ordered_parallel_map
from .reporting import Report, verdict_state, write_csv

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {cfg!r}")
    return cfg


def _resolve_workers(args):
    """--workers, else WEAKLP_WORKERS, else 1; a count below 1 is a config error."""
    if args.workers is not None:
        name, workers = "--workers", args.workers
    else:
        env = os.environ.get("WEAKLP_WORKERS")
        if not env:
            return 1
        try:
            name, workers = "WEAKLP_WORKERS", int(env)
        except ValueError:
            raise ConfigError(f"WEAKLP_WORKERS must be an integer, got {env!r}")
    if workers < 1:
        raise ConfigError(f"{name} must be >= 1, got {workers}")
    return workers


def _finish(report: Report, out: Path, timings, verbose):
    report.write(out / "report.json")
    (out / "timings.json").write_text(json.dumps(timings, sort_keys=True, indent=2) + "\n")
    code = report.worst_exit_code()
    if verbose:
        for key, v in sorted(report.verdicts.items()):
            print(f"{key}: {verdict_state(v)} (tolerance {v['tolerance']})")
        print(f"report: {out / 'report.json'}")
    return code


def _run(args, cfg, seed):
    """Run `cfg` into `args.out`; its wall time goes to timings.json."""
    workers = _resolve_workers(args)
    t0 = time.perf_counter()
    report = run_experiment(cfg, args.out, workers, seed)
    timings = {"total_s": time.perf_counter() - t0}
    return _finish(report, Path(args.out), timings, args.verbose)


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("config field 'sweep' must be a non-empty object of parameter lists")
    base_seed = config_seed(args.seed if args.seed is not None else cfg.get("seed"))
    keys = sorted(sweep)
    grids = [sweep[k] for k in keys]
    if any(not isinstance(g, list) or not g for g in grids):
        raise ConfigError("config field 'sweep.*' entries must be non-empty lists")
    jobs = list(itertools.product(*grids))
    runs = []           # every job is checked before the first one runs
    for idx, combo in enumerate(jobs):
        job_cfg = json.loads(json.dumps({k: v for k, v in cfg.items() if k != "sweep"}))
        for key, val in zip(keys, combo):
            node = job_cfg
            parts = key.split(".")
            for i, part in enumerate(parts[:-1]):
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"config field '{'.'.join(parts[:i + 1])}' must be an object "
                                      f"to sweep 'sweep.{key}', got {node!r}")
            node[parts[-1]] = val
        runs.append(read_experiment(job_cfg, base_seed ^ idx))
    workers = _resolve_workers(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def run_job(item):
        idx, run = item
        job_out = out / f"job_{idx:03d}"
        t_job = time.perf_counter()
        report = run(job_out, 1)
        _finish(report, job_out, {"total_s": time.perf_counter() - t_job}, False)
        return report

    t0 = time.perf_counter()
    reports = ordered_parallel_map(run_job, list(enumerate(runs)), workers)

    rows = []
    for idx, (combo, rep) in enumerate(zip(jobs, reports)):
        for key, v in sorted(rep.verdicts.items()):
            rows.append((idx, ";".join(f"{k}={c}" for k, c in zip(keys, combo)),
                         key, verdict_state(v), v["observed"], v["tolerance"]))
    write_csv(out / "sweep.csv",
              ["job", "parameters", "verdict", "state", "observed", "tolerance"], rows)
    codes = [r.worst_exit_code() for r in reports]
    worst = max(codes)
    agg = Report("sweep", cfg, base_seed)
    agg.results["jobs"] = len(jobs)
    agg.results["exit_codes"] = codes
    # passes when every job passes, fails when one fails, else inconclusive
    agg.add_verdict("sweep:all", worst, EXIT_PASS, "<=", error=math.inf if worst == EXIT_INCONCLUSIVE else 0.0,
                    detail="worst exit code across jobs")
    return _finish(agg, out, {"total_s": time.perf_counter() - t0}, args.verbose)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="weaklp",
        description="Numerical verification experiments for weak-Lp difference-quotient norms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (fallback: WEAKLP_WORKERS env, then 1)")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--verbose", action="store_true")

    common(sub.add_parser("run", help="run one experiment config"))
    common(sub.add_parser("sweep", help="cartesian sweep over config parameter lists"))
    common(sub.add_parser("constants", help="dump the sphere-constant table"), config_required=False)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run(args, _load_config(args.config), args.seed)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _run(args, {"experiment": "constants", "seed": 0, "params": {}}, 0)
    except (ConfigError, InvalidParameterError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
