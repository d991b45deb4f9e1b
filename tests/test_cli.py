import json

import pytest

from weaklp.cli import main
from weaklp.experiments import EXPERIMENTS, run_experiment


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
    assert report["schema"] == 1
    assert report["verdicts"]["thm1.2:limit"]["pass"] is True
    assert report["verdicts"]["thm1.2:limit"]["tolerance"] == 0.05
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header == "lambda,mu_hat,stderr,lambda_pow_p_mu,estimator"


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


def test_json_parse_error_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "limit",\n  "oops"\n}')
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "line" in capsys.readouterr().err


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


@pytest.mark.parametrize("statement", ["embedding", "strong-interp"])
def test_strong_corollary_unknown_budget_is_a_config_error(tmp_path, capsys, statement):
    # a polar budget key has no meaning for the strong seminorm checks
    cfg = write_cfg(tmp_path, {"experiment": "corollary", "seed": 1,
                               "params": {"statement": statement, "fields": ["plateau2"]},
                               "budgets": {"scan": 64, "x_nodes": 16}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "'scan'" in err and "'x_nodes'" not in err


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


def test_sweep_empty_grid_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"experiment": "limit", "sweep": {"params.p": []}, "seed": 1})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_workers_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("WEAKLP_WORKERS", "2")
    cfg = write_cfg(tmp_path, BASE_LIMIT)
    out = tmp_path / "oenv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


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
    timings = json.loads((out / "timings.json").read_text())
    assert "total_s" in timings
    report = (out / "report.json").read_text()
    assert "total_s" not in report


def test_inconclusive_exit_code(tmp_path):
    # an unreachable flatness tolerance leaves the plateau unconverged
    cfg = dict(BASE_LIMIT)
    cfg["params"] = dict(cfg["params"], flatness_tol=1e-12, lambda_points=16)
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "oinc"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["thm1.2:limit"]["pass"] == "inconclusive"


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
     "params": {"statement": "weak-1d", "p": 1.5, "eps_ladder": [0.2, 0.1],
                "lambda_points": 8},
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
