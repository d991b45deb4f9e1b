import json
import math
import re
from pathlib import Path

import pytest

from weaklp.cli import main
from weaklp.errors import InvalidParameterError
from weaklp.experiments import _STATEMENTS, EXPERIMENTS, _median_spread, REQUIRED, read_experiment, run_experiment
from weaklp.quadrature import BUDGETS
from weaklp.reporting import SCHEMA_VERSION, Report


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


BASE_LIMIT = {
    "experiment": "limit",
    "field": {"kind": "bump", "center": [0.0], "radius": 1.0, "amplitude": 1.0},
    "params": {"p": 1.0, "window": 6, "tolerance": 0.05, "lambda_points": 24},
    "seed": 11,
}


def test_run_limit_passes(tmp_path):
    cfg = write_cfg(tmp_path, BASE_LIMIT)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == 2
    assert report["verdicts"]["thm1.2:limit"]["pass"] is True
    assert report["verdicts"]["thm1.2:limit"]["tolerance"] == 0.05
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "lambda,mu_hat,error_estimate,lambda_pow_p_mu,estimator"


def test_run_constants_csv(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "constants", "seed": 0,
                               "params": {"N_values": [1, 2, 3], "p_values": [1.0, 2.0]}})
    out = tmp_path / "outc"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "constants.csv").read_text().splitlines()
    assert lines[0] == "N,p,k_closed,k_quad,sigma"
    assert len(lines) == 1 + 3 * 2


def test_malformed_config_names_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "limit",
                               "field": {"kind": "bump", "center": [0.0], "radius": 1.0},
                               "params": {"p": -2.0}, "seed": 1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "params.p" in capsys.readouterr().err


def test_missing_seed_is_an_error(tmp_path, capsys):
    cfg = dict(BASE_LIMIT)
    cfg.pop("seed")
    path = write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("seed", ["x", 1.7, True, -1])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    # "x" died with a ValueError traceback, 1.7 ran as seed 1 while
    # report.json echoed 1.7, and -1 died in covering's default_rng
    cfg = dict(BASE_LIMIT, seed=seed, **({"sweep": {"params.p": [1.0]}} if command == "sweep" else {}))
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"config field 'seed' must be a non-negative integer, got {seed!r}" in capsys.readouterr().err


def test_integral_seed_runs_as_an_int(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "constants", "seed": 5.0,
                               "params": {"N_values": [1], "p_values": [1.0]}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["seed"] == 5


def test_json_parse_error_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "limit",\n  "oops"\n}')
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("top", [[1, 2], "x", 3])
def test_config_must_be_an_object(tmp_path, capsys, command, top):
    # a list used to die in `cfg.get` with an AttributeError traceback
    cfg = write_cfg(tmp_path, top)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_unknown_experiment_kind(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "mystery", "seed": 1})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "experiment" in capsys.readouterr().err


def test_sweep_grid_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "quasinorm",
        "field": {"kind": "bump", "center": [0.0], "radius": 1.0},
        "params": {"p": 1.0, "lambda_points": 8, "refine": 0},
        "sweep": {"params.p": [1.0, 1.5], "field.radius": [1.0, 0.8]},
        "seed": 7,
    })
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--workers", "3"]) == 0
    rows = (out1 / "sweep.csv").read_text().splitlines()
    assert len({r.split(",")[0] for r in rows[1:]}) == 4      # 2 x 2 jobs
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    for j in range(4):
        a = (out1 / f"job_{j:03d}" / "report.json").read_bytes()
        b = (out2 / f"job_{j:03d}" / "report.json").read_bytes()
        assert a == b


def test_rotation_outputs_identical_across_workers(tmp_path):
    # workers run the fields in parallel threads; each field's foliation and
    # Monte Carlo estimate must not depend on the schedule
    cfg = {"experiment": "rotation", "seed": 4,
           "params": {"fields": ["bump2", "plateau2"], "mc_samples": 20000, "line_cells": 48}}
    outs = []
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        run_experiment(cfg, out, w, None).write(out / "report.json")
        outs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(outs[0]) == ["report.json", "rotation.csv"]
    assert outs[0] == outs[1]


def test_rotation_rows_are_labelled_by_name_or_field_label(tmp_path):
    # a field spec object was written as its dict repr, commas and all
    pair = {"kind": "sum", "terms": [{"kind": "bump", "center": [0.0, 0.0], "radius": 0.7},
                                     {"kind": "bump", "center": [0.5, 0.0], "radius": 0.6}]}
    cfg = {"experiment": "rotation", "seed": 4,
           "params": {"fields": [{"kind": "catalogue", "name": "bump2"}, pair],
                      "mc_samples": 2000, "line_cells": 16}}
    run_experiment(cfg, tmp_path, 1, None)
    header, *rows = [line.split(",") for line in (tmp_path / "rotation.csv").read_text().splitlines()]
    assert [len(r) for r in rows] == [len(header)] * 2
    assert [r[0] for r in rows] == ["bump2", "sum(bump(N=2;R=0.7;a=1.0);bump(N=2;R=0.6;a=1.0))"]


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_rotation_unresolved_foliation_is_inconclusive(tmp_path, cells):
    # lines too coarse to hold a member pair: the foliation reads 0 +- inf, so
    # the verdicts that read it stay open, and the run exits 3 rather than 0
    cfg = write_cfg(tmp_path, {"experiment": "rotation", "seed": 1,
                               "params": {"fields": ["bump2"], "mc_samples": 20000,
                                          "line_cells": cells}})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    (row,) = report["results"]["rows"]
    assert row[2] == "inf" and row[7] == "inf"
    assert {k: v["pass"] for k, v in report["verdicts"].items()} == {
        "prop2.2:agreement": "inconclusive", "prop2.2:mass_bound": "inconclusive",
        "prop2.2:cemp_stable": "inconclusive"}


def test_corollary_outputs_identical_across_workers(tmp_path):
    # workers run the eps ladder's four fields in parallel threads
    cfg = write_cfg(tmp_path, {"experiment": "corollary", "seed": 3,
                               "params": {"statement": "weak-1d", "p": 1.5},
                               "budgets": {"lambda_points": 8, "refine": 2}})
    outs = []
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--workers", str(w)]) == 0
        outs.append({path.name: path.read_bytes() for path in out.iterdir()
                     if path.name != "timings.json"})
    assert sorted(outs[0]) == ["corollary.csv", "report.json"]
    assert outs[0] == outs[1]


def test_corollary_rows_have_the_header_cells(tmp_path):
    # a mollified indicator's label has commas, which once spilled into extra cells
    cfg = {"experiment": "corollary", "seed": 3, "params": {"statement": "weak-1d"},
           "budgets": {"lambda_points": 8, "refine": 2}}
    run_experiment(cfg, tmp_path, 1, None)
    header, *rows = [line.split(",") for line in (tmp_path / "corollary.csv").read_text().splitlines()]
    assert len(header) == 6
    assert [len(r) for r in rows] == [6] * 4
    assert rows[0][0].startswith("mollified_indicator(N=1;eps=0.2")


# per statement, a budget key of an estimator its check does not run
FOREIGN_BUDGET = {"weak-1d": "mc_samples", "weak-sup": "mc_samples", "weak-seminorm": "mc_samples",
                  "strong-interp": "scan", "embedding": "lambda_points"}


@pytest.mark.parametrize("statement", sorted(_STATEMENTS))
def test_corollary_statement_rejects_budgets_it_does_not_run(tmp_path, capsys, statement):
    # the strong checks once took the weak and polar keys here and failed
    # after making the output directory
    key = FOREIGN_BUDGET[statement]
    cfg = write_cfg(tmp_path, {"experiment": "corollary", "seed": 1,
                               "params": {"statement": statement, "fields": ["plateau2"]},
                               "budgets": {key: 64, "x_nodes": 16}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"unknown budget '{key}'" in err and "'x_nodes'" not in err
    assert not out.exists()


def test_weak_corollary_unknown_budget_is_a_config_error(tmp_path, capsys):
    # a misspelled polar budget used to be ignored silently
    cfg = write_cfg(tmp_path, {"experiment": "corollary", "seed": 1,
                               "params": {"statement": "weak-1d", "p": 1.5},
                               "budgets": {"lambda_points": 8, "refine": 2, "scna": 64}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'scna'" in err and "'refine'" not in err and "'lambda_points'" not in err


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_every_kind_rejects_an_unknown_budget_key(tmp_path, capsys, kind):
    # checked before any work: no kind may ignore its budgets
    cfg = write_cfg(tmp_path, {"experiment": kind, "seed": 1, "budgets": {"scna": 1}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown budget 'scna'" in capsys.readouterr().err


def test_budgets_must_be_an_object(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(BASE_LIMIT, budgets=[64]))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "'budgets' must be an object" in capsys.readouterr().err


def test_gagliardo_kind_uses_its_budgets(tmp_path):
    cfg = {"experiment": "gagliardo", "seed": 1,
           "field": {"kind": "catalogue", "name": "bump1"}, "params": {"s": 0.5, "p": 2.0}}
    nodes = []
    for budgets in ({"x_nodes": 32}, {"x_nodes": 64}):
        out = tmp_path / str(budgets["x_nodes"])
        nodes.append(run_experiment(dict(cfg, budgets=budgets), out, 1, None).results["nodes_used"])
    assert nodes[1] > nodes[0]


@pytest.mark.parametrize("cfg", [
    {"experiment": "rotation", "params": {"fields": ["bump2", "bump9"]}},
    {"experiment": "corollary", "params": {"statement": "embedding", "fields": ["bump9"]}},
])
def test_unknown_catalogue_field_is_a_config_error(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, dict(cfg, seed=1))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'params.fields'" in err and "'bump9'" in err and "bump2_off" in err


@pytest.mark.parametrize("params, field", [
    ({"sandwich": True}, "params.sandwich"),
    ({"holder": [1.0]}, "params.holder"),
    ({"refine": "two"}, "params.refine"),
    ({"refine": -1}, "params.refine"),
    ({"sandwich": {"samples": "many"}}, "params.sandwich.samples"),
])
def test_badly_shaped_quasinorm_params_are_config_errors(tmp_path, capsys, params, field):
    cfg = write_cfg(tmp_path, {"experiment": "quasinorm", "seed": 1,
                               "field": {"kind": "catalogue", "name": "bump1"},
                               "params": dict(params, p=1.0, lambda_points=4)})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"'{field}'" in capsys.readouterr().err


def test_sweep_through_a_non_object_names_the_path(tmp_path, capsys):
    # this died with a TypeError in the job builder
    cfg = write_cfg(tmp_path, {"experiment": "constants", "seed": 1, "params": 5,
                               "sweep": {"params.tolerance": [1e-6]}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config field 'params' must be an object" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_grid_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "limit", "sweep": {"params.p": []}, "seed": 1})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_workers_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKLP_WORKERS", "2")
    cfg = write_cfg(tmp_path, BASE_LIMIT)
    out = tmp_path / "oenv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["run", "sweep", "constants"])
def test_worker_count_below_one_is_a_config_error(tmp_path, monkeypatch, capsys, command):
    cfg = write_cfg(tmp_path, {**BASE_LIMIT, "sweep": {"params.p": [1.0]}})
    args = [command, "--out", str(tmp_path / "o")] + (["--config", str(cfg)]
                                                       if command != "constants" else [])
    assert main(args + ["--workers", "-3"]) == 1
    assert "--workers must be >= 1, got -3" in capsys.readouterr().err
    monkeypatch.setenv("WEAKLP_WORKERS", "0")
    assert main(args) == 1
    assert "WEAKLP_WORKERS must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, BASE_LIMIT)
    out = tmp_path / "oseed"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99


def test_constants_subcommand(tmp_path):
    out = tmp_path / "k"
    assert main(["constants", "--out", str(out)]) == 0
    assert (out / "constants.csv").exists()


def test_timings_sidecar_outside_determinism(tmp_path):
    cfg = write_cfg(tmp_path, BASE_LIMIT)
    out = tmp_path / "ot"
    main(["run", "--config", str(cfg), "--out", str(out)])
    main(["constants", "--out", str(tmp_path / "oc")])
    for run in (out, tmp_path / "oc"):
        # `constants` once wrote a total_s of 0.0
        assert json.loads((run / "timings.json").read_text())["total_s"] > 0
        assert "total_s" not in (run / "report.json").read_text()


def test_inconclusive_exit_code(tmp_path):
    # an unreachable flatness tolerance leaves the plateau unconverged
    cfg = dict(BASE_LIMIT)
    cfg["params"] = dict(cfg["params"], flatness_tol=1e-12, lambda_points=16)
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "oinc"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["thm1.2:limit"]["pass"] == "inconclusive"


@pytest.mark.parametrize("cfg, read", [
    # the unconverged plateau's error is inf
    (dict(BASE_LIMIT, params=dict(BASE_LIMIT["params"], flatness_tol=1e-12, lambda_points=16)),
     lambda report: report["verdicts"]["thm1.2:limit"]["error"]),
], ids=["limit"])
def test_report_is_strict_json(tmp_path, cfg, read):
    # the report once held Infinity, which strict JSON parsers reject
    def strict(name):
        raise ValueError(f"report.json holds the non-JSON constant {name}")

    out = tmp_path / "o"
    main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)])
    assert read(json.loads((out / "report.json").read_text(), parse_constant=strict)) == "inf"


@pytest.mark.parametrize("cfg, key, param, values, words", [
    (BASE_LIMIT, "thm1.2:limit", "flatness_tol", [0.03, 1e-12], ["pass", "inconclusive"]),
    ({"experiment": "constants", "seed": 1}, "constants:closed_vs_quad", "tolerance", [1e-6, 1e-12],
     ["pass", "fail"]),
])
def test_sweep_csv_and_verbose_name_the_states_alike(tmp_path, capsys, cfg, key, param, values, words):
    # --verbose printed FAIL where sweep.csv wrote fail
    out = tmp_path / "s"
    main(["sweep", "--config", str(write_cfg(tmp_path, dict(cfg, sweep={f"params.{param}": values}))),
          "--out", str(out)])
    assert [line.split(",")[3] for line in (out / "sweep.csv").read_text().splitlines()[1:]] == words
    for value, word in zip(values, words):
        path = write_cfg(tmp_path, dict(cfg, params=dict(cfg.get("params", {}), **{param: value})))
        main(["run", "--config", str(path), "--out", str(tmp_path / "o"), "--verbose"])
        assert f"{key}: {word} (tolerance " in capsys.readouterr().out


@pytest.mark.parametrize("cfg", [
    {"experiment": "gagliardo",
     "field": {"kind": "bump", "center": [0.0], "radius": 1.0},
     "params": {"s": 0.5, "p": 2.0}, "seed": 3},
    {"experiment": "covering", "params": {"trials": 5}, "seed": 3},
    {"experiment": "rotation",
     "params": {"fields": ["bump2"], "mc_samples": 30000, "line_cells": 96},
     "seed": 3},
    {"experiment": "maximal",
     "field": {"kind": "bump", "center": [0.0], "radius": 1.0},
     "params": {"p": 2.0, "cells": 96, "lambda_points": 6},
     "budgets": {"x_nodes": 96, "scan": 256}, "seed": 3},
    {"experiment": "corollary",
     "params": {"statement": "weak-1d", "p": 1.5, "eps_ladder": [0.2, 0.1]},
     "budgets": {"lambda_points": 8}, "seed": 3},
    {"experiment": "failure",
     "params": {"p": 2.0, "eps_ladder": [0.2, 0.1, 0.05], "weak_p": 1.5},
     "budgets": {"lambda_points": 8}, "seed": 3},
    {"experiment": "crosscheck",
     "field": {"kind": "bump", "center": [0.0], "radius": 1.0},
     "params": {"p": 1.0, "s_ladder": [0.5, 0.75, 0.875, 0.9375, 0.96875],
                "delta_ladder": [1e-2, 1e-3, 1e-4]},
     "seed": 3},
])
def test_remaining_experiment_kinds_pass(tmp_path, cfg):
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]
    for v in report["verdicts"].values():
        assert v["tolerance"] is not None
        assert v["observed"] is not None and "error" in v


@pytest.mark.parametrize("cfg, key", [
    (BASE_LIMIT, "x_nodes"),
    ({"experiment": "corollary", "params": {"statement": "weak-1d", "p": 1.5}}, "refine"),
    (BASE_LIMIT, "scan"),
])
@pytest.mark.parametrize("value", ["many", True, 2.5, -3])
def test_budget_values_are_checked(tmp_path, capsys, cfg, key, value):
    # a string once reached the grid builders and died there with a TypeError;
    # a negative x_nodes ran silently at 16 nodes, a negative scan died in numpy
    path = write_cfg(tmp_path, dict(cfg, seed=1, budgets={key: value}))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert f"budgets.{key} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["x_nodes", "scan"])
def test_zero_budget_counts_are_config_errors_except_refine(tmp_path, capsys, key):
    # x_nodes 0 ran silently at 16 nodes and scan 0 died dividing by zero;
    # refine 0 is the one zero count, which skips the refinement
    assert read_experiment({"experiment": "corollary", "seed": 1,
                            "params": {"statement": "weak-1d"}, "budgets": {"refine": 0}})
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, dict(BASE_LIMIT, budgets={key: 0}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    least = {"x_nodes": 1, "scan": 2}[key]
    assert f"budgets.{key} must be an integer >= {least}, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_a_one_point_scan_is_a_config_error(tmp_path, capsys):
    # one scan point brackets no crossing, so every polar estimate read a
    # quiet 0 +- 0
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, dict(BASE_LIMIT, budgets={"scan": 1}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "budgets.scan must be an integer >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


BUMP1 = {"kind": "catalogue", "name": "bump1"}


@pytest.mark.parametrize("cfg, path", [
    ({"experiment": "constants", "params": {"N_values": 2}}, "params.N_values"),
    ({"experiment": "constants", "params": {"p_values": 1.5}}, "params.p_values"),
    ({"experiment": "quasinorm", "field": BUMP1,
      "params": {"p": 1.0, "sandwich": {"lambda_factors": 10.0}}}, "params.sandwich.lambda_factors"),
    ({"experiment": "quasinorm", "field": BUMP1,
      "params": {"p": 1.0, "sandwich": {"deltas": 0.5}}}, "params.sandwich.deltas"),
    ({"experiment": "covering", "params": {"gammas": 1.0}}, "params.gammas"),
    ({"experiment": "covering", "params": {"gammas": []}}, "params.gammas"),
    ({"experiment": "rotation", "params": {"fields": "bump2"}}, "params.fields"),
    ({"experiment": "corollary", "params": {"statement": "weak-1d", "fields": "bump1"}},
     "params.fields"),
    ({"experiment": "corollary", "params": {"statement": "weak-1d", "eps_ladder": 0.1}},
     "params.eps_ladder"),
    ({"experiment": "failure", "params": {"eps_ladder": 0.1}}, "params.eps_ladder"),
    ({"experiment": "crosscheck", "field": BUMP1, "params": {"p": 1.0, "s_ladder": 0.5}},
     "params.s_ladder"),
    ({"experiment": "crosscheck", "field": BUMP1, "params": {"p": 1.0, "delta_ladder": 1e-3}},
     "params.delta_ladder"),
])
def test_list_params_must_be_lists(tmp_path, capsys, cfg, path):
    # a string was iterated by character, a number died with a TypeError
    cfg_path = write_cfg(tmp_path, dict(cfg, seed=1))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"'{path}' must be a non-empty list" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, path", [
    ({"experiment": "failure", "params": {"p": 2.0, "eps_ladder": [0.2, 0.1], "weak_p": 1.5}},
     "params.eps_ladder"),
    ({"experiment": "crosscheck", "field": BUMP1, "params": {"p": 1.0, "delta_ladder": [1e-2, 1e-3]}},
     "params.delta_ladder"),
])
def test_two_rung_ladders_are_config_errors(tmp_path, capsys, cfg, path):
    # a two-rung failure ladder ran every seminorm and weak check and then
    # exited 2 with eq4.3:divergence failed at an infinite drift; a two-rung
    # delta ladder died in the probe after the limit-factor ladder had run
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_cfg(tmp_path, dict(cfg, seed=1))), "--out", str(out)]) == 1
    assert f"config field '{path}' must hold at least three rungs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg, path, entry", [
    ({"experiment": "constants", "params": {"N_values": [1, 2.5]}}, "params.N_values", "2.5"),
    ({"experiment": "constants", "params": {"N_values": ["2"]}}, "params.N_values", "'2'"),
    ({"experiment": "constants", "params": {"p_values": [1.0, True]}}, "params.p_values", "True"),
    ({"experiment": "quasinorm", "field": BUMP1,
      "params": {"p": 1.0, "sandwich": {"lambda_factors": ["x"]}}},
     "params.sandwich.lambda_factors", "'x'"),
    ({"experiment": "quasinorm", "field": BUMP1,
      "params": {"p": 1.0, "sandwich": {"deltas": [None]}}}, "params.sandwich.deltas", "None"),
    ({"experiment": "covering", "params": {"gammas": ["x"]}}, "params.gammas", "'x'"),
    ({"experiment": "rotation", "params": {"fields": ["bump2", 3]}}, "params.fields", "3"),
    ({"experiment": "corollary", "params": {"statement": "weak-1d", "fields": [["bump1"]]}},
     "params.fields", "['bump1']"),
    ({"experiment": "corollary", "params": {"statement": "weak-1d", "eps_ladder": ["a", 0.1]}},
     "params.eps_ladder", "'a'"),
    ({"experiment": "failure", "params": {"eps_ladder": ["a", 0.1]}}, "params.eps_ladder", "'a'"),
    ({"experiment": "crosscheck", "field": BUMP1, "params": {"p": 1.0, "s_ladder": [0.5, "x"]}},
     "params.s_ladder", "'x'"),
    ({"experiment": "crosscheck", "field": BUMP1, "params": {"p": 1.0, "delta_ladder": [{}]}},
     "params.delta_ladder", "{}"),
])
def test_list_param_entries_are_checked(tmp_path, capsys, cfg, path, entry):
    # a bad entry died inside the run with a ValueError or TypeError traceback
    cfg_path = write_cfg(tmp_path, dict(cfg, seed=1))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"'{path}' entries must each be" in err and f"got {entry}" in err


def test_integral_n_values_read_as_integers(tmp_path):
    cfg = write_cfg(tmp_path, {"experiment": "constants", "seed": 0,
                               "params": {"N_values": [1, 2.0], "p_values": [1.0]}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["results"]["lower_bound_c"]) == ["1", "2"]


@pytest.mark.parametrize("cfg, path", [
    ({"experiment": "constants", "params": 5}, "params"),
    ({"experiment": "covering", "params": [1]}, "params"),
    ({"experiment": "limit", "field": BUMP1, "params": "p=1"}, "params"),
    ({"experiment": "corollary", "params": None}, "params"),
])
def test_params_must_be_an_object(tmp_path, capsys, cfg, path):
    # a non-object params used to be read as empty: constants ran on its defaults
    cfg_path = write_cfg(tmp_path, dict(cfg, seed=1))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"config field '{path}' must be an object" in capsys.readouterr().err


def test_odd_2d_sphere_order_is_a_config_error(tmp_path, capsys):
    # a 2-D rule of odd order has no antipodal pairs for the polar estimator
    # to fold, and no rule has order below 4; both once failed only after the
    # output directory was made
    for order, need in ((13, "an even integer >= 4"), (1, "an integer >= 4")):
        cfg = write_cfg(tmp_path, {"experiment": "limit", "seed": 1,
                                   "field": {"kind": "catalogue", "name": "bump2"},
                                   "params": {"p": 1.0, "lambda_points": 8},
                                   "budgets": {"sphere_order": order}})
        out = tmp_path / f"o{order}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"budgets.sphere_order must be {need}, got {order}" in capsys.readouterr().err
        assert not out.exists()


def test_odd_2d_gagliardo_sphere_order_is_a_config_error(tmp_path, capsys):
    # the seminorm's mid part folds antipodal directions too, so a 2-D
    # gagliardo run with an odd order fails before any output
    cfg = write_cfg(tmp_path, {"experiment": "gagliardo", "seed": 1,
                               "field": {"kind": "catalogue", "name": "bump2"},
                               "params": {"s": 0.5, "p": 2.0},
                               "budgets": {"sphere_order": 13}})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert "budgets.sphere_order must be an even integer >= 4, got 13" in capsys.readouterr().err
    assert not out.exists()


def _cat(name):
    return {"kind": "catalogue", "name": name}


@pytest.mark.parametrize("cfg, odd_ok", [
    ({"experiment": "limit", "field": _cat("bump3"), "params": {"p": 1.0}}, True),
    ({"experiment": "gagliardo", "field": _cat("bump2"), "params": {"s": 0.5, "p": 2.0}}, False),
    ({"experiment": "corollary", "params": {"statement": "weak-sup", "fields": ["bump1", "bump2"]}},
     False),
    ({"experiment": "corollary", "params": {"statement": "weak-sup", "dim": 2}}, False),
    ({"experiment": "failure", "params": {"p": 2.0}}, True),
])
def test_sphere_order_is_checked_at_each_dimension_the_run_uses(cfg, odd_ok):
    # only the 2-D polar and gagliardo estimators need an even order, and
    # every estimator at least 4: a corollary's fields and its ladder are
    # checked at their own dimensions, `failure`'s 1-D ladder at 1
    for order, ok in ((16, True), (13, odd_ok), (3, False)):
        conf = dict(cfg, seed=1, budgets={"sphere_order": order})
        if ok:
            assert read_experiment(conf)
        else:
            with pytest.raises(InvalidParameterError, match="budgets.sphere_order must be an"):
                read_experiment(conf)


# -- the params table -------------------------------------------------------

# a value of the wrong kind for each value kind
WRONG = {"positive number": "x", "number": "x", "optional number": "x", "positive integer": 1.5,
         "non-negative integer": "two", "integer >= 2": 1, "number list": ["x"],
         "number list of 3+": [0.2, 0.1], "integer list": [1.5],
         "field list": [3], "section": True, "field": "bump1", "statement": "weak-2d"}
DROP = object()


def _path(key):
    return key if key == "field" else f"params.{key}"


def _with(cfg, path, value=DROP):
    """A copy of `cfg` with the dotted `path` set to `value`, or removed."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    if value is DROP:
        node.pop(last, None)
    else:
        node[last] = value
    return cfg


def _table_cases():
    """(kind, statement, param, value kind) for every param of the table."""
    for kind, (_, _, spec) in EXPERIMENTS.items():
        for key, (what, _) in spec.items():
            yield pytest.param(kind, "weak-1d", key, what, id=f"{kind}-{key}")
        if "statement" in spec:
            for statement, (_, _, own, _) in _STATEMENTS.items():
                for key, (what, _) in own.items():
                    yield pytest.param(kind, statement, key, what, id=f"{kind}-{statement}-{key}")


@pytest.mark.parametrize("kind, statement, key, what", _table_cases())
def test_params_table_walk(tmp_path, capsys, kind, statement, key, what):
    # a value of the wrong kind, and then the key misspelled, each exit 1
    # naming the field before any output
    cfg = {"experiment": kind, "seed": 1, "params": {}}
    for k, (_, default) in EXPERIMENTS[kind][2].items():
        if default is REQUIRED:
            cfg = _with(cfg, _path(k), BUMP1 if k == "field" else statement if k == "statement" else 1.0)
    path = _path(key)
    for bad, named in ((_with(cfg, path, WRONG[what]), path),
                       (_with(_with(cfg, path), path + "x", 1.0), path + "x")):
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_cfg(tmp_path, bad)), "--out", str(out)]) == 1
        assert f"'{named}'" in capsys.readouterr().err
        assert not out.exists()


GAGLIARDO = {"experiment": "gagliardo", "seed": 1, "field": BUMP1, "params": {"s": 0.5, "p": 2.0}}


@pytest.mark.parametrize("cfg, field", [
    # each of these died with a traceback or ran on the defaults and exited 0
    ({"experiment": "corollary", "params": {"statement": "weak-1d", "p": "x"}}, "params.p"),
    (_with(_with(GAGLIARDO, "params.s", 1.0), "params.delta_in", "x"), "params.delta_in"),
    ({"experiment": "maximal", "field": BUMP1, "params": {"lambda_points": "x"}},
     "params.lambda_points"),
    (_with(GAGLIARDO, "params.delta_inn", 0.1), "params.delta_inn"),
    (_with(GAGLIARDO, "budget", {"x_nodes": 32}), "budget"),
    (_with(GAGLIARDO, "parms", {"s": 0.5}), "parms"),
    ({"experiment": "covering", "params": {"trials": 1.5}}, "params.trials"),
    # a key no runner reads
    ({"experiment": "corollary",
      "params": {"statement": "weak-1d", "p": 1.5, "eps_ladder": [0.2, 0.1], "lambda_points": 8},
      "budgets": {"lambda_points": 8}}, "params.lambda_points"),
    # a param of another statement
    ({"experiment": "corollary", "params": {"statement": "weak-1d", "theta": 0.5}}, "params.theta"),
])
def test_config_errors_name_the_field(tmp_path, capsys, cfg, field):
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_cfg(tmp_path, dict({"seed": 1}, **cfg))),
                 "--out", str(out)]) == 1
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, field", [
    ({"lambda_points": 1}, "params.lambda_points"),
    ({"lambda_lo_factor": 5.0, "lambda_hi_factor": 2.0}, "params.lambda_hi_factor"),
])
def test_malformed_lambda_grid_names_one_field(tmp_path, capsys, params, field):
    # checked with the params, before the output directory is made
    cfg = write_cfg(tmp_path, {"experiment": "maximal", "seed": 1, "field": BUMP1, "params": params})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"config field '{field}' must" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_integral_lambda_points_read_as_an_int(tmp_path):
    outs = []
    for n in (24, 24.0):
        cfg = write_cfg(tmp_path, _with(BASE_LIMIT, "params.lambda_points", n))
        outs.append(tmp_path / str(n))
        assert main(["run", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    assert (outs[0] / "profile.csv").read_bytes() == (outs[1] / "profile.csv").read_bytes()


def test_sweep_checks_every_job_before_running_any(tmp_path, capsys):
    # job 0 used to run and write its outputs before job 1 failed
    cfg = write_cfg(tmp_path, {"experiment": "constants", "seed": 1, "params": {},
                               "sweep": {"params.tolerance": [1e-6, "x"]}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'params.tolerance'" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/job_*"))


def _default(d):
    if d is REQUIRED:
        return "required"
    if isinstance(d, tuple):
        return f"{d[0]} in 1-D, {d[1]} above"
    return "unset" if d is None else json.dumps(d)


def params_markdown():
    """The README's list of every kind's params, rendered from the table."""
    lines = []
    for kind, (_, _, spec) in EXPERIMENTS.items():
        lines.append(f"* `{kind}`: " + "; ".join(
            f"`{_path(key)}` ({what}, {_default(d)})" for key, (what, d) in spec.items()))
        if "statement" in spec:
            lines += [f"  * with `params.statement` `{st}`: " + "; ".join(
                f"`{_path(key)}` ({what}, {_default(d)})" for key, (what, d) in own.items())
                for st, (_, _, own, _) in _STATEMENTS.items()]
    return "\n".join(lines)


def budgets_markdown():
    """The README's list of every budget key and default, rendered from BUDGETS."""
    return "\n".join(f"* `{e}`: " + "; ".join(f"`{k}` ({_default(d)})" for k, d in keys.items())
                     for e, keys in BUDGETS.items())


def _readme_block(name):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"<!-- {name} -->\n")[1].split(f"\n<!-- end {name} -->")[0]


def test_readme_lists_the_params_table():
    # regenerate the block with
    # PYTHONPATH=src:tests python -c "import test_cli; print(test_cli.params_markdown())"
    assert _readme_block("params table") == params_markdown()


def test_readme_lists_the_budget_table():
    # regenerate the block with
    # PYTHONPATH=src:tests python -c "import test_cli; print(test_cli.budgets_markdown())"
    assert _readme_block("budget table") == budgets_markdown()


def test_readme_names_the_report_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r'"schema": (\d+)', readme) == [str(SCHEMA_VERSION)]


@pytest.mark.parametrize("ratios, ok", [
    ([0.0, 0.0, math.inf], False),     # the median is 0, but one ratio is not finite
    ([0.0, 0.0, 5.0], False),          # a zero median passes only all-zero ratios
    ([0.0, 0.0, 0.0], True),
    ([1.0, 2.0, math.inf], False),
    ([1.0, 2.0, 6.0], True),
    ([0.5, 2.0, 6.5], False),
])
def test_median_bounded_verdict(ratios, ok):
    med, spread = _median_spread(ratios)
    rep = Report("corollary", {}, 1)
    rep.add_verdict("cor1.4:bounded", spread, 3.0, "<=", target=med)
    assert med == float(sorted(ratios)[1]) and rep.verdicts["cor1.4:bounded"]["pass"] is ok


FIELD_KINDS = sorted(kind for kind, (_, _, params) in EXPERIMENTS.items() if "field" in params)
TINY_BUDGETS = {"polar": {"x_nodes": 8, "sphere_order": 4, "scan": 16},
                "gagliardo": {"x_nodes": 8, "sphere_order": 4}}
TINY_PARAMS = {"limit": {"lambda_points": 8, "window": 4}, "quasinorm": {"lambda_points": 8, "refine": 2},
               "maximal": {"lambda_points": 4, "cells": 16}, "gagliardo": {"s": 0.5},
               "crosscheck": {"s_ladder": [0.5, 0.75], "delta_ladder": [1e-2, 1e-3, 1e-4]}}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_every_field_kind_runs_on_the_zero_field(tmp_path, kind, dim):
    # crosscheck divided its plateau error by a zero plateau and died with a
    # ZeroDivisionError before writing its report
    budgets = {}
    for est in EXPERIMENTS[kind][1]:
        budgets |= TINY_BUDGETS[est]
    cfg = {"experiment": kind, "seed": 1, "budgets": budgets,
           "field": {"kind": "bump", "center": [0.0] * dim, "radius": 1.0, "amplitude": 0.0},
           "params": {"p": 2.0} | TINY_PARAMS[kind]}
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"] and all(v["pass"] is True for v in report["verdicts"].values())
