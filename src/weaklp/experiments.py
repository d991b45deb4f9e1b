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
from .errors import InvalidParameterError
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
NUMS, LADDER, INTS, FIELDS, SECTION, FIELD, STATEMENT = (
    "number list", "number list of 3+", "integer list", "field list", "section", "field", "statement")
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


def _sup_error(prof):
    """lambda^p times the error of the profile's largest lambda^p mu."""
    i = int(np.argmax(prof.lam_pow_p_mu))
    return float(prof.lambdas[i] ** prof.p * prof.err[i])


def _excess(value, error, bound):
    """value / bound - 1 and its error; at a zero bound, 0 or (value > 0) inf."""
    if bound > 0:
        return value / bound - 1.0, error / bound
    return math.inf if value > 0 else 0.0, 0.0


# ---------------------------------------------------------------------------
# experiment kinds: runner(rep, prm, out, workers) fills the Report `rep`;
# `prm` holds every param of the kind's table, filled, and the `budgets`
# ---------------------------------------------------------------------------

def run_constants(rep, prm, out, workers):
    n_values, tol = prm["N_values"], prm["tolerance"]
    rows = []
    worst = 0.0
    for n in n_values:
        for p in prm["p_values"]:
            sc = quadrature.sphere_abs_moment(p, n, rtol=math.inf)
            worst = max(worst, abs(sc.moment_quad - sc.moment) / sc.moment)
            rows.append((n, p, sc.moment, sc.moment_quad, sc.sigma))
    write_csv(out / "constants.csv", CONSTANTS_HEADER, rows)
    rep.results["worst_relative_error"] = worst
    rep.results["lower_bound_c"] = {str(n): quadrature.lower_bound_constant(n) for n in n_values}
    rep.add_verdict("constants:closed_vs_quad", worst, tol, "<=",
                    detail="closed form vs sphere quadrature, relative")


def run_limit(rep, prm, out, workers):
    f, p, tol = prm["field"], prm["p"], prm["tolerance"]
    alpha = f.dim / p + 1.0
    grid = _lambda_grid(f, prm)
    prof = levelset.distribution_profile(f, p, alpha, grid, budgets=prm["budgets"], workers=workers)
    lim = levelset.tail_limit(prof, prm["window"], prm["flatness_tol"])
    moment = quadrature.sphere_abs_moment(p, f.dim).moment
    grad = fields.gradient_lp_norm(f, p).value
    target = moment / f.dim * grad
    write_csv(out / "profile.csv", PROFILE_HEADER, prof.rows())
    rep.results["plateau"] = lim.plateau
    rep.results["flatness"] = lim.flatness
    rep.results["target"] = target
    rep.results["monotonicity_flags"] = prof.monotonicity_flags
    window = prof.lambdas[-lim.window:] ** p * prof.err[-lim.window:]     # the plateau's terms' errors
    rep.add_verdict("thm1.2:limit", lim.plateau, tol, "band", target=target,
                    error=float(np.mean(window)) if lim.converged else math.inf,
                    detail=f"plateau flatness {lim.flatness:.4g}")


HOLDER_TOL = 1e-6      # relative slack of sec2:holder's segment condition
SANDWICH_TOL = 1e-9    # slack of sec3:sandwich: verify_sandwich solves each outer end to 1e-9


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

    target = moment / f.dim * grad
    c_emp = sup_val / grad if grad > 0 else 0.0
    rep.results["sup_lambda_p_mu"] = sup_val
    rep.results["sup_flagged"] = flagged
    rep.results["gradient_lp"] = grad
    rep.results["c_emp"] = c_emp
    excess, excess_err = _excess(sup_val, math.inf if flagged else _sup_error(prof), target)
    rep.add_verdict("thm1.1:lower", -excess, prm["lower_tolerance"], "<=", target=target,
                    error=excess_err, detail="1 - sup lambda^p mu / target, target = moment/N * grad_lp")

    ref_budgets = budgets | {"x_nodes": 2 * budgets["x_nodes"], "scan": 2 * budgets["scan"]}
    prof2 = levelset.distribution_profile(f, p, alpha, grid, budgets=ref_budgets, workers=workers)
    sup2 = levelset.weak_quasinorm(prof2, refine=refine)
    c2 = sup2 / grad if grad > 0 else 0.0
    drift = abs(c2 / c_emp - 1.0) if c_emp > 0 else 0.0
    rep.results["c_emp_refined"] = c2
    rep.add_verdict("thm1.1:upper_stable", drift, prm["stability_tolerance"], "<=",
                    detail="empirical upper ratio drift under one full refinement")

    unit = levelset.lambda_scale(f)
    if prm["sandwich"]:
        stream = RandomStream(rep.seed, 1)
        recs = [
            levelset.verify_sandwich(f, p, lam_f * unit, prm["sandwich.samples"], delta, stream)
            for lam_f in prm["sandwich.lambda_factors"]
            for delta in prm["sandwich.deltas"]
        ]
        worst = max(max(r["worst_upper_excess"], r["worst_lower_shortfall"]) for r in recs)
        rep.results["sandwich"] = recs
        rep.add_verdict("sec3:sandwich", worst, SANDWICH_TOL, "<=",
                        detail="largest relative excess of a run's outer end over the outer radius, "
                               "or shortfall of the quotient inside the inner radius")
    if prm["holder"]:
        stream = RandomStream(rep.seed, 2)
        rec = covering.holder_containment_check(
            f, p, prm["holder.lambda_factor"] * unit, prm["holder.samples"], stream,
        )
        rep.results["holder"] = rec
        shortfall = 1.0 - rec["worst_margin"] if rec["members"] else -math.inf
        rep.add_verdict("sec2:holder", shortfall, HOLDER_TOL, "<=",
                        detail=f"largest relative shortfall of the segment mass, {rec['members']} members")


def run_gagliardo(rep, prm, out, workers):
    q = seminorms.SeminormQuery(prm["field"], prm["s"], prm["p"], prm["delta_in"])
    res = seminorms.gagliardo(q, **prm["budgets"])
    rep.results["value"] = res.value
    rep.results["error_estimate"] = res.error_estimate
    rep.results["nodes_used"] = res.nodes_used
    rep.add_verdict("gagliardo:stable", res.error_estimate / max(abs(res.value), 1e-300), 1e-3, "<=",
                    detail="refinement delta relative to value")


def run_covering(rep, prm, out, workers):
    trials = prm["trials"]
    rng = np.random.default_rng(rep.seed)
    overlaps = cover_bad = 0
    excess = -math.inf
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
            overlaps += int(np.count_nonzero(s_[1:] <= e_[:-1]))
            ver = covering.verify_5j_cover(cov)
            cover_bad += ver["violations"]
            en = covering.weighted_energy(cov)
            mid, outer = en["bound_selected"], en["bound_mass"]
            excess = max(excess, max(en["energy"] - mid, mid - outer) / max(outer, 1.0))
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
    rep.add_verdict("prop2.1:disjoint", overlaps, 0, "<=",
                    detail="overlapping neighbours in the greedy selections")
    rep.add_verdict("prop2.1:cover5J", cover_bad, 0, "<=",
                    detail="member pairs outside every selected 5J x 5J")
    rep.add_verdict("prop2.1:energy", excess, 1e-9, "<=", detail="largest excess in energy <= "
                    "factor * sum |J|^(gamma+1) <= factor * mass, over max(factor * mass, 1)")


def run_rotation(rep, prm, out, workers):
    n_mc, cells, drift_tol = prm["mc_samples"], prm["line_cells"], prm["stability_tolerance"]
    names, flds = zip(*prm["fields"])
    rows = []
    excess = []         # (measure / certified multiple of ||F||_1 - 1, its error) per field

    def one(item):
        idx, f = item
        rec = covering.rotation_measure(f, line_cells=cells, offset_cells=max(1, cells // 2))
        return rec, covering.rotation_measure_mc(f, n_mc, RandomStream(rep.seed, 100 + idx))

    for name, (rec, mc) in zip(names, ordered_parallel_map(one, list(enumerate(flds)), workers)):
        sig = math.hypot(rec["measure"].error_estimate, mc.error_estimate)
        z = abs(rec["measure"].value - mc.value) / max(sig, 1e-300)
        excess.append(_excess(rec["measure"].value, rec["measure"].error_estimate,
                              rec["bound_factor"] * rec["mass"]))
        rows.append((name, rec["measure"].value, rec["measure"].error_estimate,
                     mc.value, mc.error_estimate, z, rec["c_emp"], rec["c_emp_drift"]))
    write_csv(out / "rotation.csv",
              ["field", "foliation", "foliation_err", "mc", "mc_err", "z", "c_emp",
               "c_emp_drift"], rows)
    rep.results["rows"] = [list(r) for r in rows]
    # an unresolved foliation (error inf) leaves every verdict it enters open
    unresolved_err = math.inf if any(math.isinf(r[2]) for r in rows) else 0.0
    rep.add_verdict("prop2.2:agreement", max(r[5] for r in rows), 3.0, "<=", error=unresolved_err,
                    detail="combined standard errors")
    worst, worst_err = max(excess)
    rep.add_verdict("prop2.2:mass_bound", worst, 1e-9, "<=", error=worst_err,
                    detail="largest relative excess of the measure over its certified multiple of ||F||_1")
    rep.add_verdict("prop2.2:cemp_stable", max(r[7] for r in rows), drift_tol, "<=", error=unresolved_err,
                    detail="c_emp refinement drift")


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
    write_csv(out / "route_profile.csv", PROFILE_HEADER, rec["profile"].rows())
    header = ["x", "value"] if f.dim == 1 else ["x", "y", "value"]
    write_csv(out / "maximal_grid.csv", header, maximal.grid_rows(rec["maximal"]))
    excess, excess_err = _excess(rec["direct_max"], _sup_error(rec["profile"]), rec["bound"])
    rep.add_verdict("rmk2.3:domination", excess, 1e-9, "<=", target=rec["bound"], error=excess_err,
                    detail="direct max lambda^p mu / target - 1, target the maximal-route bound")
    rep.add_verdict("rmk2.3:cemp_stable", _factor(ref["c_emp"], rec["c_emp"]), 2.0, "<=",
                    detail="factor between c_emp across one grid refinement")
    scale_dev = abs(scaled["c_emp"] / ref["c_emp"] - 1.0) if ref["c_emp"] > 0 else 0.0
    rep.add_verdict("rmk2.3:cemp_scaling", scale_dev, 1e-2, "<=",
                    detail="amplitude invariance of c_emp")


# statement -> (verdict tag, the quadrature.BUDGETS entries its check runs, the
# statement's own params, check(field, **own params, budgets=...));
# weak-seminorm's seminorm runs at the gagliardo defaults
_WEAK, _STRONG = ("weak", "polar"), ("gagliardo",)
_STATEMENTS = {
    "weak-1d": ("cor1.4", _WEAK, {"p": (NUM, 1.5)}, corollaries.check_weak_gradient_1d),
    "weak-sup": ("cor1.5", _WEAK, {"p": (NUM, 1.5)}, corollaries.check_weak_sup_interpolation),
    "weak-seminorm": ("cor1.6", _WEAK, {"theta": (NUM, 0.5), "p1": (NUM, 2.0), "s1": (NUM, 0.5)},
                      corollaries.check_weak_seminorm_interpolation),
    "strong-interp": ("gn", _STRONG, {"theta": (NUM, 0.5), "p1": (NUM, 2.0)},
                      corollaries.check_strong_interpolation),
    "embedding": ("sobolev", _STRONG, {"s": (NUM, 0.5)}, corollaries.check_strong_embedding),
}


def _factor(a, b):
    """max(a/b, b/a) for finite a and b of one sign; 1 when both are 0, else inf."""
    if a == b == 0.0:
        return 1.0
    same_sign = math.isfinite(a) and math.isfinite(b) and (min(a, b) > 0 or max(a, b) < 0)
    return max(a / b, b / a) if same_sign else math.inf


def _median_spread(ratios):
    """The ratios' median, and the largest factor between a ratio and it."""
    med = float(np.median(ratios))
    return med, max(_factor(r, med) for r in ratios)


def run_corollary(rep, prm, out, workers):
    tag, _, own, check = _STATEMENTS[prm["statement"]]
    kwargs = {key: prm[key] for key in own} | {"budgets": prm["budgets"]}
    if prm["fields"] is None:
        box = [[0.0, 1.0]] * prm["dim"]
        flds = [fields.make_mollified_indicator(box, e) for e in prm["eps_ladder"]]
    else:
        flds = [f for _, f in prm["fields"]]

    reports = ordered_parallel_map(lambda f: check(f, **kwargs), flds, workers)
    ratios = [r.ratio for r in reports]
    med, spread = _median_spread(ratios)

    r1 = reports[0]
    r3 = check(fields.scale_field(flds[0], 3.0), **kwargs)
    homo_dev = max(
        abs(r3.lhs / (3.0 * r1.lhs) - 1.0) if r1.lhs > 0 else 0.0,
        abs(r3.rhs / (3.0 * r1.rhs) - 1.0) if r1.rhs > 0 else 0.0,
    )

    rep.results["ratios"] = ratios
    rep.results["median_ratio"] = med
    rep.add_verdict(f"{tag}:bounded", spread, prm["spread_factor"], "<=", target=med,
                    detail="largest factor between a ratio and their median")
    word = "bounded" if rep.verdicts[f"{tag}:bounded"]["pass"] is True else "spread"
    rows = [
        (r.field_label.replace(",", ";"), str(r.params).replace(",", ";"), r.lhs, r.rhs, r.ratio, word)
        for r in reports
    ]
    write_csv(out / "corollary.csv", COROLLARY_HEADER, rows)
    rep.add_verdict(f"{tag}:homogeneity", homo_dev, 1e-2, "<=",
                    detail="both sides 1-homogeneous at c in {1, 3}")


def run_failure(rep, prm, out, workers):
    probe = corollaries.strong_norm_divergence_probe(
        prm["p"], prm["eps_ladder"], delta_in=prm["delta_in"], weak_p=prm["weak_p"],
        budgets=prm["budgets"],
    )
    write_csv(out / "failure_ladder.csv", LADDER_HEADER,
              list(zip(probe["eps"], probe["values"])))
    rep.results.update(probe)
    drift = probe["increment_drift"] if probe["increments_positive"] else math.inf
    rep.add_verdict("eq4.3:divergence", drift, prm["increment_tolerance"], "<=",
                    detail="drift of the last increment, inf unless every increment is positive")
    med, spread = _median_spread(probe["weak_ratios"])
    rep.add_verdict("cor1.4:bounded", spread, 3.0, "<=", target=med,
                    detail="largest factor between a weak counterpart ratio and their median")


def run_crosscheck(rep, prm, out, workers):
    f, p, tol, budgets = prm["field"], prm["p"], prm["tolerance"], prm["budgets"]
    fac = seminorms.seminorm_limit_factor(f, p, prm["s_ladder"], **budgets)
    probe = seminorms.diagonal_divergence_probe(f, p, prm["delta_ladder"], **budgets)
    write_csv(out / "limit_factor_ladder.csv", LADDER_HEADER,
              list(zip(fac["s_values"], fac["factors"])))
    write_csv(out / "divergence_ladder.csv", LADDER_HEADER,
              list(zip(probe["deltas"], probe["values"])))
    rep.results["limit_factor"] = fac
    rep.results["divergence"] = probe
    rep.add_verdict("limit_factor:multiple", fac["plateau"], tol, "band", target=fac["conjectured"],
                    error=fac["plateau_error"], detail="(1-s) seminorm plateau vs conjectured multiple")
    rep.add_verdict("s1:divergence_slope", probe["slope"], tol, "band", target=probe["target"],
                    error=probe["slope_error"],
                    detail="truncated-integral slope vs moment * gradient mass")
    # over a zero plateau a zero slope agrees and any other does not, as in `target_ratio`
    consistency, error = math.inf if probe["slope"] != 0 else 1.0, 0.0
    if fac["plateau"] > 0:
        consistency = probe["slope"] / (p * fac["plateau"])
        error = abs(consistency) * (probe["slope_error"] / max(abs(probe["slope"]), 1e-300)
                                    + fac["plateau_error"] / fac["plateau"])
    rep.add_verdict("limit_factor:probe_consistency", consistency, tol, "band", target=1.0,
                    error=error, detail="slope vs p * plateau, mutually independent estimates")


_FIELD = {"field": (FIELD, REQUIRED)}
_EPS_LADDER = [0.2, 0.1, 0.05, 0.025]


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
        "spread_factor": (POS, 3.0), "eps_ladder": (NUMS, _EPS_LADDER)}),
    "failure": (run_failure, ("gagliardo", "weak", "polar"), {
        "p": (POS, 2.0), "delta_in": (OPT_NUM, None), "weak_p": (OPT_NUM, None),
        "increment_tolerance": (POS, 0.25), "eps_ladder": (LADDER, _EPS_LADDER)}),
    "crosscheck": (run_crosscheck, ("gagliardo",), _FIELD | {
        "p": (POS, REQUIRED), "tolerance": (POS, 0.10),
        "s_ladder": (NUMS, [0.5, 0.75, 0.875, 0.9375, 0.96875]),
        "delta_ladder": (LADDER, [1e-2, 1e-3, 1e-4, 1e-5])}),
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


def _ladder(path, v):
    """A number list of at least three rungs: the divergence probes compare
    two successive increments or fit a slope."""
    v = KINDS[NUMS](path, v)
    if len(v) < 3:
        raise ConfigError(f"config field '{path}' must hold at least three rungs, got {v!r}")
    return v


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
    LADDER: _ladder,
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
