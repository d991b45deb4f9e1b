"""Experiment implementations behind the CLI: each takes its params as read
from its kind's row of the params table, runs the relevant module operations,
writes CSV artifacts, and fills a Report whose verdicts all cite tolerances.

Worker counts only control scheduling of independent jobs; results are
reduced in fixed index order and must be byte-identical for any count.
"""
from __future__ import annotations

import math
import numbers
from pathlib import Path

import numpy as np

from . import corollaries, covering, fields, levelset, maximal, quadrature, seminorms
from .errors import ConsistencyError, InvalidParameterError
from .quadrature import RandomStream, ordered_parallel_map
from .reporting import (
    CONSTANTS_HEADER,
    COROLLARY_HEADER,
    COVER_HEADER,
    LADDER_HEADER,
    PROFILE_HEADER,
    Report,
    write_csv,
)

DEFAULT_P_VALUES = [1.0, 1.25, 1.5, 2.0, 3.0, 4.0]


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


# the value kinds of the params table (see KINDS); REQUIRED marks a param
# with no default
POS, NUM, OPT_NUM, INT, INT0, INT2 = (
    "positive number", "number", "optional number", "positive integer", "non-negative integer",
    "integer >= 2")
NUMS, INTS, FIELDS, SECTION, FIELD, STATEMENT = (
    "number list", "integer list", "field list", "section", "field", "statement")
REQUIRED = object()


def _real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _whole(x):
    return _real(x) and x % 1 == 0


def config_seed(seed):
    """`seed` as an int; a ConfigError naming the field when it is missing or
    not a non-negative integer (a bool, a string, a fraction, a negative)."""
    if seed is None:
        raise ConfigError("config field 'seed' is required")
    return KINDS[INT0]("seed", seed)


def _lambda_grid(f, prm):
    return levelset.default_lambda_grid(
        f, prm["lambda_points"], prm["lambda_lo_factor"], prm["lambda_hi_factor"])


# ---------------------------------------------------------------------------
# experiment kinds: runner(rep, prm, out, workers) fills the Report `rep`;
# `prm` holds every param of the kind's table, filled, and the `budgets`
# ---------------------------------------------------------------------------

def run_constants(rep, prm, out, workers):
    n_values, tol = prm["N_values"], prm["tolerance"]
    rows = []
    worst = 0.0
    ok = True
    for n in n_values:
        for p in prm["p_values"]:
            try:
                sc = quadrature.sphere_abs_moment(p, n, rtol=tol)
            except ConsistencyError:
                ok = False
                sc = quadrature.sphere_abs_moment(p, n, rtol=math.inf)
            rel = abs(sc.moment_quad - sc.moment) / sc.moment
            worst = max(worst, rel)
            rows.append((n, p, sc.moment, sc.moment_quad, sc.sigma))
    write_csv(out / "constants.csv", CONSTANTS_HEADER, rows)
    rep.results["worst_relative_error"] = worst
    rep.constants["lower_bound_c"] = {
        str(n): quadrature.lower_bound_constant(n) for n in n_values
    }
    rep.add_verdict(
        "constants:closed_vs_quad", ok and worst <= tol, tol, observed=worst,
        detail="closed form vs sphere quadrature, relative",
    )


def run_limit(rep, prm, out, workers):
    f, p, tol = prm["field"], prm["p"], prm["tolerance"]
    alpha = f.dim / p + 1.0
    grid = _lambda_grid(f, prm)
    prof = levelset.distribution_profile(f, p, alpha, grid, budgets=prm["budgets"], workers=workers)
    lim = levelset.tail_limit(prof, prm["window"], tol=prm["flatness_tol"])
    moment = quadrature.sphere_abs_moment(p, f.dim).moment
    grad = fields.gradient_lp_norm(f, p).value
    target = moment / f.dim * grad
    write_csv(out / "profile.csv", PROFILE_HEADER, prof.rows())
    rep.results["plateau"] = lim.plateau
    rep.results["flatness"] = lim.flatness
    rep.results["target"] = target
    rep.results["monotonicity_flags"] = prof.monotonicity_flags
    rel = abs(lim.plateau - target) / target if target > 0 else 0.0
    passed = rel <= tol if lim.converged else "inconclusive"
    rep.add_verdict(
        "thm1.2:limit", passed, tol, observed=lim.plateau, target=target,
        detail=f"relative deviation {rel:.4g}, plateau flatness {lim.flatness:.4g}",
    )


def run_quasinorm(rep, prm, out, workers):
    f, p, refine = prm["field"], prm["p"], prm["refine"]
    (budgets,) = quadrature.split_budgets(f.dim, prm["budgets"], "polar")
    alpha = f.dim / p + 1.0
    grid = _lambda_grid(f, prm)
    prof = levelset.distribution_profile(f, p, alpha, grid, budgets=budgets, workers=workers)
    sup_val, flagged = levelset.weak_quasinorm(prof, refine=refine, with_flag=True)
    grad = fields.gradient_lp_norm(f, p).value
    moment = quadrature.sphere_abs_moment(p, f.dim).moment
    write_csv(out / "profile.csv", PROFILE_HEADER, prof.rows())

    lower_tol = prm["lower_tolerance"]
    lower_target = (1.0 - lower_tol) * moment / f.dim * grad
    c_emp = sup_val / grad if grad > 0 else 0.0
    rep.results["sup_lambda_p_mu"] = sup_val
    rep.results["sup_flagged"] = flagged
    rep.results["gradient_lp"] = grad
    rep.results["c_emp"] = c_emp
    rep.constants["c_emp"] = {"N": f.dim, "p": p, "value": c_emp}
    rep.add_verdict(
        "thm1.1:lower",
        "inconclusive" if flagged else sup_val >= lower_target, lower_tol,
        observed=sup_val, target=moment / f.dim * grad,
        detail="sup lambda^p mu >= (1-tol) * moment/N * grad_lp",
    )

    stability_tol = prm["stability_tolerance"]
    ref_budgets = budgets | {"x_nodes": 2 * budgets["x_nodes"], "scan": 2 * budgets["scan"]}
    prof2 = levelset.distribution_profile(f, p, alpha, grid, budgets=ref_budgets, workers=workers)
    sup2 = levelset.weak_quasinorm(prof2, refine=refine)
    c2 = sup2 / grad if grad > 0 else 0.0
    drift = abs(c2 / c_emp - 1.0) if c_emp > 0 else 0.0
    rep.results["c_emp_refined"] = c2
    rep.add_verdict(
        "thm1.1:upper_stable", drift <= stability_tol, stability_tol, observed=drift,
        detail="empirical upper ratio drift under one full refinement",
    )

    if prm["sandwich"]:
        stream = RandomStream(rep.seed, 1)
        recs = [
            levelset.verify_sandwich(f, p, lam_f * f.lip_bound, prm["sandwich.samples"], delta, stream)
            for lam_f in prm["sandwich.lambda_factors"]
            for delta in prm["sandwich.deltas"]
        ]
        total_bad = sum(r["violations_upper"] + r["violations_lower"] for r in recs)
        rep.results["sandwich"] = recs
        rep.add_verdict("sec3:sandwich", total_bad == 0, 0, observed=total_bad,
                        detail="ray containment violations")
    if prm["holder"]:
        stream = RandomStream(rep.seed, 2)
        rec = covering.holder_containment_check(
            f, p, prm["holder.lambda_factor"] * f.lip_bound, prm["holder.samples"], stream,
        )
        rep.results["holder"] = rec
        rep.add_verdict("sec2:holder", rec["violations"] == 0, covering.HOLDER_TOL,
                        observed=rec["violations"],
                        detail=f"members {rec['members']}, segment-mass tolerance relative")


def run_gagliardo(rep, prm, out, workers):
    q = seminorms.SeminormQuery(prm["field"], prm["s"], prm["p"], prm["delta_in"])
    res = seminorms.gagliardo(q, **prm["budgets"])
    rep.results["value"] = res.value
    rep.results["error_estimate"] = res.error_estimate
    rep.results["nodes_used"] = res.nodes_used
    rep.add_verdict(
        "gagliardo:stable", bool(res.converged), 1e-3,
        observed=res.error_estimate / max(abs(res.value), 1e-300),
        detail="refinement delta relative to value",
    )


def run_covering(rep, prm, out, workers):
    trials = prm["trials"]
    rng = np.random.default_rng(rep.seed)
    disjoint_ok = True
    cover_bad = 0
    energy_ok = True
    rows = []
    last_dump = None
    for t in range(trials):
        m = int(rng.integers(16, 129))
        vals = rng.uniform(0.0, 3.0, m) * (rng.random(m) < 0.7)
        f = quadrature.GriddedFunction([[-1.0, 1.5]], vals)
        for gamma in prm["gammas"]:
            fam = covering.admissible_intervals(f, gamma)
            cov = covering.vitali_select(fam)
            order = np.argsort(cov.starts)
            s_, e_ = cov.starts[order], cov.ends[order]
            if np.any(s_[1:] <= e_[:-1]):
                disjoint_ok = False
            ver = covering.verify_5j_cover(f, gamma, cov)
            cover_bad += ver["violations"]
            en = covering.weighted_energy(f, gamma, cov)
            if not (en["holds_selected"] and en["holds_mass"]):
                energy_ok = False
            rows.append((t, gamma, len(fam), len(cov), ver["pairs"], ver["violations"],
                         en["energy"], en["bound_mass"]))
            last_dump = (f, fam, cov)
    write_csv(out / "covering_trials.csv",
              ["trial", "gamma", "family_size", "selected", "pairs", "violations",
               "energy", "bound_mass"], rows)
    if last_dump is not None:
        f, fam, cov = last_dump
        lo, h = f.box[0, 0], f.h
        sel = {(a, b) for a, b in zip(cov.starts, cov.ends)}
        dump = [(lo + a * h, lo + b * h, int((a, b) in sel))
                for a, b in zip(fam.starts, fam.ends)]
        write_csv(out / "cover.csv", COVER_HEADER, dump)
    rep.results["trials"] = trials
    rep.add_verdict("prop2.1:disjoint", disjoint_ok, 0, observed=int(not disjoint_ok),
                    detail="exact pairwise disjointness of the greedy selection")
    rep.add_verdict("prop2.1:cover5J", cover_bad == 0, 0, observed=cover_bad,
                    detail="member pairs outside every selected 5J x 5J")
    rep.add_verdict("prop2.1:energy", energy_ok, 1e-9, observed=int(not energy_ok),
                    detail="energy <= factor * sum |J|^(gamma+1) <= factor * mass")


def run_rotation(rep, prm, out, workers):
    n_mc, cells, drift_tol = prm["mc_samples"], prm["line_cells"], prm["stability_tolerance"]
    names, flds = zip(*prm["fields"])
    rows = []
    agree_ok = True
    bound_ok = True
    drift_ok = True

    def one(item):
        idx, f = item
        rec = covering.rotation_measure(f, line_cells=cells, offset_cells=cells // 2)
        return rec, covering.rotation_measure_mc(f, n_mc, RandomStream(rep.seed, 100 + idx))

    for name, (rec, mc) in zip(names, ordered_parallel_map(one, list(enumerate(flds)), workers)):
        sig = math.hypot(rec["measure"].error_estimate, mc.error_estimate)
        z = abs(rec["measure"].value - mc.value) / max(sig, 1e-300)
        agree_ok &= z <= 3.0
        bound_ok &= rec["holds"]
        drift_ok &= rec["c_emp_drift"] <= drift_tol
        rows.append((name, rec["measure"].value, rec["measure"].error_estimate,
                     mc.value, mc.error_estimate, z, rec["c_emp"], rec["c_emp_drift"]))
    write_csv(out / "rotation.csv",
              ["field", "foliation", "foliation_err", "mc", "mc_err", "z", "c_emp",
               "c_emp_drift"], rows)
    rep.results["rows"] = [list(r) for r in rows]
    rep.add_verdict("prop2.2:agreement", agree_ok, 3.0,
                    observed=max(r[5] for r in rows), detail="combined standard errors")
    rep.add_verdict("prop2.2:mass_bound", bound_ok, 1e-9,
                    detail="measure <= certified multiple of ||F||_1")
    rep.add_verdict("prop2.2:cemp_stable", drift_ok, drift_tol,
                    observed=max(r[7] for r in rows), detail="c_emp refinement drift")


def run_maximal(rep, prm, out, workers):
    f, p, cells = prm["field"], prm["p"], prm["cells"]
    rec = maximal.maximal_route_bound(f, p, _lambda_grid(f, prm), RandomStream(rep.seed, 5),
                                      cells=cells, profile_budgets=prm["budgets"])
    ref = maximal.lusin_lipschitz_check(f, 20_000, RandomStream(rep.seed, 6), cells=2 * cells)
    scaled = maximal.lusin_lipschitz_check(
        fields.scale_field(f, 3.0), 20_000, RandomStream(rep.seed, 6), cells=2 * cells
    )
    rep.results["bound"] = rec["bound"]
    rep.results["direct_max"] = rec["direct_max"]
    rep.results["c_emp"] = rec["c_emp"]
    rep.results["c_emp_refined"] = ref["c_emp"]
    rep.constants["lusin_c_emp"] = {"N": f.dim, "value": rec["c_emp"]}
    write_csv(out / "route_profile.csv", PROFILE_HEADER, rec["profile"].rows())
    header = ["x", "value"] if f.dim == 1 else ["x", "y", "value"]
    write_csv(out / "maximal_grid.csv", header, maximal.grid_rows(rec["maximal"]))
    rep.add_verdict("rmk2.3:domination", rec["dominates"], 1e-9,
                    observed=rec["direct_max"], target=rec["bound"],
                    detail="constant maximal-route bound vs direct lambda^p mu")
    ratio = ref["c_emp"] / rec["c_emp"] if rec["c_emp"] > 0 else 1.0
    rep.add_verdict("rmk2.3:cemp_stable", 0.5 <= ratio <= 2.0, 2.0, observed=ratio,
                    detail="c_emp across one grid refinement")
    scale_dev = abs(scaled["c_emp"] / ref["c_emp"] - 1.0) if ref["c_emp"] > 0 else 0.0
    rep.add_verdict("rmk2.3:cemp_scaling", scale_dev <= 1e-2, 1e-2, observed=scale_dev,
                    detail="amplitude invariance of c_emp")


# statement -> (verdict tag, the quadrature.BUDGETS entries its check runs, the
# statement's own params, check(field, prm, budgets)); weak-seminorm's
# seminorm runs at the gagliardo defaults
_WEAK, _STRONG = ("weak", "polar"), ("gagliardo",)
_STATEMENTS = {
    "weak-1d": ("cor1.4", _WEAK, {"p": (NUM, 1.5)},
                lambda f, prm, b: corollaries.check_weak_gradient_1d(f, prm["p"], budgets=b)),
    "weak-sup": ("cor1.5", _WEAK, {"p": (NUM, 1.5)},
                 lambda f, prm, b: corollaries.check_weak_sup_interpolation(f, prm["p"], budgets=b)),
    "weak-seminorm": ("cor1.6", _WEAK, {"theta": (NUM, 0.5), "p1": (NUM, 2.0), "s1": (NUM, 0.5)},
                      lambda f, prm, b: corollaries.check_weak_seminorm_interpolation(
                          f, corollaries.GNParams(prm["theta"], prm["p1"], prm["s1"]), budgets=b)),
    "strong-interp": ("gn", _STRONG, {"theta": (NUM, 0.5), "p1": (NUM, 2.0)},
                      lambda f, prm, b: corollaries.check_strong_interpolation(
                          f, prm["theta"], prm["p1"], budgets=b)),
    "embedding": ("sobolev", _STRONG, {"s": (NUM, 0.5)},
                  lambda f, prm, b: corollaries.check_strong_embedding(f, prm["s"], budgets=b)),
}


def run_corollary(rep, prm, out, workers):
    tag, _, _, check = _STATEMENTS[prm["statement"]]
    budgets = prm["budgets"]
    if prm["fields"] is None:
        box = [[0.0, 1.0]] * prm["dim"]
        flds = [fields.make_mollified_indicator(box, e) for e in prm["eps_ladder"]]
    else:
        flds = [f for _, f in prm["fields"]]

    def one(f):
        return check(f, prm, budgets)

    reports = ordered_parallel_map(one, flds, workers)
    ratios = [r.ratio for r in reports]
    med = float(np.median(ratios))
    spread_tol = prm["spread_factor"]
    bounded = all(math.isfinite(r) for r in ratios) and (
        med == 0.0 or all(med / spread_tol <= r <= med * spread_tol for r in ratios)
    )

    homo_tol = 1e-2
    r1 = reports[0]
    r3 = check(fields.scale_field(flds[0], 3.0), prm, budgets)
    homo_dev = max(
        abs(r3.lhs / (3.0 * r1.lhs) - 1.0) if r1.lhs > 0 else 0.0,
        abs(r3.rhs / (3.0 * r1.rhs) - 1.0) if r1.rhs > 0 else 0.0,
    )

    rows = [
        (r.field_label.replace(",", ";"), str(r.params).replace(",", ";"), r.lhs, r.rhs, r.ratio,
         "bounded" if bounded else "spread")
        for r in reports
    ]
    write_csv(out / "corollary.csv", COROLLARY_HEADER, rows)
    rep.results["ratios"] = ratios
    rep.results["median_ratio"] = med
    rep.add_verdict(f"{tag}:bounded", bounded, spread_tol, observed=max(ratios),
                    target=med, detail="ratios within a fixed factor of their median")
    rep.add_verdict(f"{tag}:homogeneity", homo_dev <= homo_tol, homo_tol,
                    observed=homo_dev, detail="both sides 1-homogeneous at c in {1, 3}")


def run_failure(rep, prm, out, workers):
    probe = corollaries.strong_norm_divergence_probe(
        prm["p"], prm["eps_ladder"], delta_in=prm["delta_in"], weak_p=prm["weak_p"],
        budgets=prm["budgets"],
    )
    write_csv(out / "failure_ladder.csv", LADDER_HEADER,
              list(zip(probe["eps"], probe["values"])))
    rep.results.update(probe)
    drift_tol = prm["increment_tolerance"]
    rep.add_verdict(
        "eq4.3:divergence",
        probe["increments_positive"] and probe["increment_drift"] <= drift_tol,
        drift_tol, observed=probe["increment_drift"],
        detail="positive increments, near-constant across the last rungs",
    )
    weak = probe["weak_ratios"]
    med = float(np.median(weak))
    ok = med == 0.0 or all(med / 3.0 <= w <= med * 3.0 for w in weak)
    rep.add_verdict("cor1.4:bounded", ok, 3.0, observed=max(weak), target=med,
                    detail="weak counterpart ratios on the same ladder")


def run_crosscheck(rep, prm, out, workers):
    f, p, tol, budgets = prm["field"], prm["p"], prm["tolerance"], prm["budgets"]
    fac = seminorms.seminorm_limit_factor(f, p, prm["s_ladder"], tol=tol, **budgets)
    probe = seminorms.diagonal_divergence_probe(f, p, prm["delta_ladder"], tol=tol, **budgets)
    write_csv(out / "limit_factor_ladder.csv", LADDER_HEADER,
              list(zip(fac["s_values"], fac["factors"])))
    write_csv(out / "divergence_ladder.csv", LADDER_HEADER,
              list(zip(probe["deltas"], probe["values"])))
    rep.results["limit_factor"] = fac
    rep.results["divergence"] = probe
    rep.add_verdict("limit_factor:multiple", fac["passed"], tol,
                    observed=fac["plateau"], target=fac["conjectured"],
                    detail="(1-s) seminorm plateau vs conjectured multiple")
    rep.add_verdict("s1:divergence_slope", probe["passed"], tol,
                    observed=probe["slope"], target=probe["target"],
                    detail="truncated-integral slope vs moment * gradient mass")
    consistency = probe["slope"] / (p * fac["plateau"]) if fac["plateau"] > 0 else math.inf
    rep.add_verdict("limit_factor:probe_consistency", abs(consistency - 1.0) <= tol, tol,
                    observed=consistency,
                    detail="slope vs p * plateau, mutually independent estimates")


_FIELD = {"field": (FIELD, REQUIRED)}
_LADDER = {"eps_ladder": (NUMS, [0.2, 0.1, 0.05, 0.025])}


def _lambdas(n, lo, hi):
    return {"lambda_points": (INT2, n), "lambda_lo_factor": (POS, lo), "lambda_hi_factor": (POS, hi)}


# kind -> (runner, the quadrature.BUDGETS entries its `budgets` feed, params),
# which a corollary's statement narrows to its own row's entries; params maps
# each param's path under `params` (`field` is the top-level field spec) to
# its value kind and default, a (1-D, higher) pair of defaults being picked
# by the field's dimension, as in BUDGETS
EXPERIMENTS = {
    "constants": (run_constants, (), {"N_values": (INTS, [1, 2, 3, 4]),
                                      "p_values": (NUMS, DEFAULT_P_VALUES), "tolerance": (POS, 1e-6)}),
    "limit": (run_limit, ("polar",), _FIELD | {
        "p": (POS, REQUIRED), "tolerance": (POS, 0.05), "window": (INT, 8), "flatness_tol": (POS, 0.03),
    } | _lambdas(48, 0.1, 1e3)),
    "quasinorm": (run_quasinorm, ("polar",), _FIELD | {
        "p": (POS, REQUIRED), "refine": (INT0, 12), "lower_tolerance": (POS, 0.05),
        "stability_tolerance": (POS, 0.10), "sandwich": (SECTION, None),
        "sandwich.lambda_factors": (NUMS, [10.0, 100.0]), "sandwich.deltas": (NUMS, [0.25, 0.5]),
        "sandwich.samples": (INT, 500), "holder": (SECTION, None),
        "holder.lambda_factor": (POS, 1.0), "holder.samples": (INT, 10000),
    } | _lambdas(48, 0.1, 1e3)),
    "gagliardo": (run_gagliardo, ("gagliardo",), _FIELD | {
        "s": (POS, REQUIRED), "p": (POS, REQUIRED), "delta_in": (NUM, 0.0)}),
    "covering": (run_covering, (), {"trials": (INT, 100), "gammas": (NUMS, [0.5, 1.0, 2.0])}),
    "rotation": (run_rotation, (), {
        "fields": (FIELDS, ["bump2", "bump2_off", "plateau2", "bumps2_pair", "product2"]),
        "mc_samples": (INT, 150_000), "line_cells": (INT, 256), "stability_tolerance": (POS, 0.10)}),
    "maximal": (run_maximal, ("polar",),
                _FIELD | {"p": (POS, 2.0), "cells": (INT, (96, 64))} | _lambdas(12, 0.5, 100.0)),
    "corollary": (run_corollary, _WEAK + _STRONG, {
        "statement": (STATEMENT, REQUIRED), "fields": (FIELDS, None), "dim": (INT, 1),
        "spread_factor": (POS, 3.0)} | _LADDER),
    "failure": (run_failure, ("gagliardo", "weak", "polar"), {
        "p": (POS, 2.0), "delta_in": (OPT_NUM, None), "weak_p": (OPT_NUM, None),
        "increment_tolerance": (POS, 0.25)} | _LADDER),
    "crosscheck": (run_crosscheck, ("gagliardo",), _FIELD | {
        "p": (POS, REQUIRED), "tolerance": (POS, 0.10),
        "s_ladder": (NUMS, [0.5, 0.75, 0.875, 0.9375, 0.96875]),
        "delta_ladder": (NUMS, [1e-2, 1e-3, 1e-4, 1e-5])}),
}


def _one(test, what, convert=None):
    """Reader of a value that passes `test`; `what` names it in errors."""
    def read(path, v):
        if not test(v):
            raise ConfigError(f"config field '{path}' must be {what}, got {v!r}")
        return v if convert is None else convert(path, v)
    return read


def _many(test, what, convert=None):
    """Reader of a non-empty list whose entries each pass `test`."""
    def read(path, v):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"config field '{path}' must be a non-empty list, got {v!r}")
        for x in v:
            if not test(x):
                raise ConfigError(f"config field '{path}' entries must each be {what}, got {x!r}")
        return v if convert is None else [convert(path, x) for x in v]
    return read


def _field(path, spec):
    """The field of a spec object or a catalogue name."""
    try:
        return fields.field_from_spec({"kind": "catalogue", "name": spec} if isinstance(spec, str) else spec)
    except InvalidParameterError as exc:
        raise ConfigError(f"config field '{path}': {exc}") from exc


def _labelled_field(path, spec):
    """(row label, field) of a catalogue name or a field spec object: rotation
    rows are labelled by the catalogue name, else by the field's label with
    its commas as semicolons, so that the label fills one CSV cell."""
    f = _field(path, spec)
    if isinstance(spec, str):
        return spec, f
    return (spec["name"] if spec["kind"] == "catalogue" else f.label.replace(",", ";")), f


# value kind -> reader(path, value) that checks a value and returns it filled
KINDS = {
    POS: _one(lambda x: _real(x) and x > 0, "a positive number"),
    NUM: _one(_real, "a number"),
    OPT_NUM: _one(lambda x: x is None or _real(x), "a number or null"),
    INT: _one(lambda x: _whole(x) and x >= 1, "a positive integer", lambda path, x: int(x)),
    INT0: _one(lambda x: _whole(x) and x >= 0, "a non-negative integer", lambda path, x: int(x)),
    INT2: _one(lambda x: _whole(x) and x >= 2, "an integer at least 2", lambda path, x: int(x)),
    NUMS: _many(_real, "a number"),
    INTS: _many(_whole, "an integer", lambda path, x: int(x)),
    FIELDS: _many(lambda x: isinstance(x, (str, dict)), "a catalogue name or a field spec object",
                  _labelled_field),
    SECTION: _one(lambda x: isinstance(x, dict), "an object", lambda path, x: x or None),
    FIELD: _one(lambda x: isinstance(x, dict), "a field spec object", _field),
    STATEMENT: _one(lambda x: isinstance(x, str) and x in _STATEMENTS, f"one of {sorted(_STATEMENTS)}"),
}
_MISSING = object()


def _flatten(cfg, inner):
    """{path: value} for the top-level keys of `cfg` and, below them, the keys
    of each object at a path in `inner` (`params` and its sections)."""
    flat, nodes = {}, [("", cfg)]
    while nodes:
        prefix, node = nodes.pop()
        for key, v in node.items():
            flat[path := prefix + key] = v
            if path in inner:
                nodes.append((path + ".", KINDS[SECTION](path, v) or {}))
    return flat


def _value(flat, path, what, default, dim=1):
    """The value at `path` read as kind `what`, else its default at `dim`."""
    v = flat.get(path, _MISSING)
    if v is _MISSING:
        if default is REQUIRED:
            raise ConfigError(f"config field '{path}' is required")
        v = default[dim > 1] if isinstance(default, tuple) else default
        if v is None:
            return None
    return KINDS[what](path, v)


def read_experiment(cfg, seed=None):
    """Check `cfg` against its kind's row of EXPERIMENTS before any output or
    work: its budgets (against a corollary statement's own row, at each
    dimension it runs), its keys (none unknown) and the kind of every value.
    Returns run(out, workers) -> Report; `seed` overrides the config's."""
    kind = cfg.get("experiment")
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError(f"config field 'experiment' must be one of {sorted(EXPERIMENTS)}, got {kind!r}")
    runner, estimators, spec = EXPERIMENTS[kind]
    budgets = KINDS[SECTION]("budgets", cfg.get("budgets", {})) or {}
    flat = _flatten(cfg, {"params"} | {f"params.{k}" for k, (what, _) in spec.items() if what == SECTION})
    if "statement" in spec and "params.statement" in flat:
        _, estimators, own, _ = _STATEMENTS[_value(flat, "params.statement", *spec["statement"])]
        spec = spec | own
    quadrature.split_budgets(1, budgets, *estimators)
    paths = {key if key == "field" else f"params.{key}": key for key in spec}
    known = {"experiment", "seed", "budgets", "params", *paths}
    for path in flat:
        if path not in known:
            takes = sorted(k for k in known if k.rpartition(".")[0] == path.rpartition(".")[0])
            raise ConfigError(f"config field '{path}' is not one that {kind} takes; "
                              f"it takes {', '.join(takes)}")
    prm = {"budgets": budgets}
    for path, key in paths.items():
        prm[key] = _value(flat, path, *spec[key], prm["field"].dim if "field" in prm else 1)
    # the budgets again at each other dimension the run uses: the field's, a
    # corollary's fields' or its ladder's (`failure`'s ladder is 1-D)
    dims = {prm["field"].dim} if "field" in prm else \
        {f.dim for _, f in prm["fields"]} if prm.get("fields") else {prm.get("dim", 1)}
    for dim in sorted(dims - {1}):
        quadrature.split_budgets(dim, budgets, *estimators)
    if prm.get("lambda_hi_factor", math.inf) <= prm.get("lambda_lo_factor", 0.0):
        raise ConfigError(f"config field 'params.lambda_hi_factor' must exceed "
                          f"'params.lambda_lo_factor' ({prm['lambda_lo_factor']!r}), "
                          f"got {prm['lambda_hi_factor']!r}")
    seed = config_seed(cfg.get("seed") if seed is None else seed)

    def run(out, workers):
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        rep = Report(kind, cfg, seed)
        runner(rep, prm, out, workers)
        return rep

    return run


def run_experiment(cfg, out, workers, seed):
    """Run `cfg` into the directory `out`, once `read_experiment` passes it."""
    return read_experiment(cfg, seed)(out, workers)
