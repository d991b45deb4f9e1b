"""Experiment implementations behind the CLI: each takes a validated config,
runs the relevant module operations, writes CSV artifacts, and returns a
Report whose verdicts all cite their tolerances.

Worker counts only control scheduling of independent jobs; results are
reduced in fixed index order and must be byte-identical for any count.
"""
from __future__ import annotations

import math
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


def _get(cfg, path, default=None, required=False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(f"config field '{path}' is required")
            return default
        node = node[part]
    return node


def _field_from(cfg):
    try:
        return fields.field_from_spec(_get(cfg, "field", required=True))
    except InvalidParameterError as exc:
        raise ConfigError(f"config field 'field': {exc}") from exc


def _fields_from(specs):
    """The fields of `params.fields`: catalogue names or field specs."""
    specs = [{"kind": "catalogue", "name": s} if isinstance(s, str) else s for s in specs]
    try:
        return [fields.field_from_spec(s) for s in specs]
    except InvalidParameterError as exc:
        raise ConfigError(f"config field 'params.fields': {exc}") from exc


def _positive(cfg, path, default=None, required=False):
    v = _get(cfg, path, default, required)
    if v is not None and (not isinstance(v, (int, float)) or v <= 0):
        raise ConfigError(f"config field '{path}' must be positive, got {v!r}")
    return v


def _count(cfg, path, default):
    v = _get(cfg, path, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0 or not float(v).is_integer():
        raise ConfigError(f"config field '{path}' must be a non-negative integer, got {v!r}")
    return int(v)


def _section(cfg, path):
    """An optional sub-object of the config; None when absent or empty."""
    v = _get(cfg, path)
    if v is not None and not isinstance(v, dict):
        raise ConfigError(f"config field '{path}' must be an object, got {v!r}")
    return v or None


def _lambda_grid(f, params):
    n = int(_positive(params, "lambda_points", 48))
    lo = _positive(params, "lambda_lo_factor", 0.1)
    hi = _positive(params, "lambda_hi_factor", 1e3)
    if n < 2 or hi <= lo:
        raise ConfigError("config field 'params.lambda_points'/factors malformed")
    return levelset.default_lambda_grid(f, n, lo, hi)


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def run_constants(cfg, out, workers, seed):
    params = _get(cfg, "params", {})
    n_values = params.get("N_values", [1, 2, 3, 4])
    p_values = params.get("p_values", DEFAULT_P_VALUES)
    tol = _positive(params, "tolerance", 1e-6)
    rep = Report("constants", cfg, seed)
    rows = []
    worst = 0.0
    ok = True
    for n in n_values:
        for p in p_values:
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
    return rep


def run_limit(cfg, out, workers, seed):
    f = _field_from(cfg)
    params = _get(cfg, "params", {})
    p = _positive(cfg, "params.p", required=True)
    tol = _positive(cfg, "params.tolerance", 0.05)
    window = int(_positive(cfg, "params.window", 8))
    budgets = _get(cfg, "budgets", {})
    alpha = f.dim / p + 1.0
    grid = _lambda_grid(f, params)
    prof = levelset.distribution_profile(f, p, alpha, grid, budgets=budgets, workers=workers)
    lim = levelset.tail_limit(prof, window, tol=_positive(cfg, "params.flatness_tol", 0.03))
    moment = quadrature.sphere_abs_moment(p, f.dim).moment
    grad = fields.gradient_lp_norm(f, p).value
    target = moment / f.dim * grad
    write_csv(out / "profile.csv", PROFILE_HEADER, prof.rows())
    rep = Report("limit", cfg, seed)
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
    return rep


def run_quasinorm(cfg, out, workers, seed):
    f = _field_from(cfg)
    params = _get(cfg, "params", {})
    p = _positive(cfg, "params.p", required=True)
    (budgets,) = quadrature.split_budgets(f.dim, _get(cfg, "budgets", {}), "polar")
    refine = _count(cfg, "params.refine", 12)
    sand = _section(cfg, "params.sandwich")
    hold = _section(cfg, "params.holder")
    alpha = f.dim / p + 1.0
    grid = _lambda_grid(f, params)
    prof = levelset.distribution_profile(f, p, alpha, grid, budgets=budgets, workers=workers)
    sup_val, flagged = levelset.weak_quasinorm(prof, refine=refine, with_flag=True)
    grad = fields.gradient_lp_norm(f, p).value
    moment = quadrature.sphere_abs_moment(p, f.dim).moment
    write_csv(out / "profile.csv", PROFILE_HEADER, prof.rows())

    rep = Report("quasinorm", cfg, seed)
    lower_tol = _positive(cfg, "params.lower_tolerance", 0.05)
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

    stability_tol = _positive(cfg, "params.stability_tolerance", 0.10)
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

    if sand:
        stream = RandomStream(seed, 1)
        samples = int(_positive(cfg, "params.sandwich.samples", 500))
        recs = [
            levelset.verify_sandwich(f, p, lam_f * f.lip_bound, samples, delta, stream)
            for lam_f in sand.get("lambda_factors", [10.0, 100.0])
            for delta in sand.get("deltas", [0.25, 0.5])
        ]
        total_bad = sum(r["violations_upper"] + r["violations_lower"] for r in recs)
        rep.results["sandwich"] = recs
        rep.add_verdict("sec3:sandwich", total_bad == 0, 0, observed=total_bad,
                        detail="ray containment violations")
    if hold:
        stream = RandomStream(seed, 2)
        rec = covering.holder_containment_check(
            f, p, _positive(cfg, "params.holder.lambda_factor", 1.0) * f.lip_bound,
            int(_positive(cfg, "params.holder.samples", 10000)), stream,
        )
        rep.results["holder"] = rec
        rep.add_verdict("sec2:holder", rec["violations"] == 0, 1e-6,
                        observed=rec["violations"],
                        detail=f"members {rec['members']}, segment-mass tolerance relative")
    return rep


def run_gagliardo(cfg, out, workers, seed):
    f = _field_from(cfg)
    params = _get(cfg, "params", {})
    s = _positive(cfg, "params.s", required=True)
    p = _positive(cfg, "params.p", required=True)
    delta_in = params.get("delta_in", 0.0)
    q = seminorms.SeminormQuery(f, s, p, delta_in)
    res = seminorms.gagliardo(q, **_get(cfg, "budgets") or {})
    rep = Report("gagliardo", cfg, seed)
    rep.results["value"] = res.value
    rep.results["error_estimate"] = res.error_estimate
    rep.results["nodes_used"] = res.nodes_used
    rep.add_verdict(
        "gagliardo:stable", bool(res.converged), 1e-3,
        observed=res.error_estimate / max(abs(res.value), 1e-300),
        detail="refinement delta relative to value",
    )
    return rep


def run_covering(cfg, out, workers, seed):
    params = _get(cfg, "params", {})
    trials = int(_positive(cfg, "params.trials", 100))
    gammas = params.get("gammas", [0.5, 1.0, 2.0])
    rng = np.random.default_rng(seed)
    disjoint_ok = True
    cover_bad = 0
    energy_ok = True
    rows = []
    last_dump = None
    for t in range(trials):
        m = int(rng.integers(16, 129))
        vals = rng.uniform(0.0, 3.0, m) * (rng.random(m) < 0.7)
        f = covering.PiecewiseConstantField(-1.0, 1.5, vals)
        for gamma in gammas:
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
        sel = {(a, b) for a, b in zip(cov.starts, cov.ends)}
        dump = [(f.node(a), f.node(b), int((a, b) in sel))
                for a, b in zip(fam.starts, fam.ends)]
        write_csv(out / "cover.csv", COVER_HEADER, dump)
    rep = Report("covering", cfg, seed)
    rep.results["trials"] = trials
    rep.add_verdict("prop2.1:disjoint", disjoint_ok, 0, observed=int(not disjoint_ok),
                    detail="exact pairwise disjointness of the greedy selection")
    rep.add_verdict("prop2.1:cover5J", cover_bad == 0, 0, observed=cover_bad,
                    detail="member pairs outside every selected 5J x 5J")
    rep.add_verdict("prop2.1:energy", energy_ok, 1e-9, observed=int(not energy_ok),
                    detail="energy <= factor * sum |J|^(gamma+1) <= factor * mass")
    return rep


def run_rotation(cfg, out, workers, seed):
    params = _get(cfg, "params", {})
    names = params.get("fields", ["bump2", "bump2_off", "plateau2", "bumps2_pair", "product2"])
    n_mc = int(_positive(cfg, "params.mc_samples", 150_000))
    cells = int(_positive(cfg, "params.line_cells", 256))
    drift_tol = _positive(cfg, "params.stability_tolerance", 0.10)
    flds = _fields_from(names)
    rows = []
    agree_ok = True
    bound_ok = True
    drift_ok = True

    def one(item):
        idx, f = item
        rec = covering.rotation_measure(f, line_cells=cells, offset_cells=cells // 2)
        return rec, covering.rotation_measure_mc(f, n_mc, RandomStream(seed, 100 + idx))

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
    rep = Report("rotation", cfg, seed)
    rep.results["rows"] = [list(r) for r in rows]
    rep.add_verdict("prop2.2:agreement", agree_ok, 3.0,
                    observed=max(r[5] for r in rows), detail="combined standard errors")
    rep.add_verdict("prop2.2:mass_bound", bound_ok, 1e-9,
                    detail="measure <= certified multiple of ||F||_1")
    rep.add_verdict("prop2.2:cemp_stable", drift_ok, drift_tol,
                    observed=max(r[7] for r in rows), detail="c_emp refinement drift")
    return rep


def run_maximal(cfg, out, workers, seed):
    f = _field_from(cfg)
    params = _get(cfg, "params", {})
    p = _positive(cfg, "params.p", 2.0)
    cells = int(_positive(cfg, "params.cells", 96 if f.dim == 1 else 64))
    grid = _lambda_grid(f, {"lambda_points": int(params.get("lambda_points", 12)),
                            "lambda_lo_factor": params.get("lambda_lo_factor", 0.5),
                            "lambda_hi_factor": params.get("lambda_hi_factor", 100.0)})
    budgets = _get(cfg, "budgets", {})
    rec = maximal.maximal_route_bound(f, p, grid, cells=cells, profile_budgets=budgets,
                                      stream=RandomStream(seed, 5))
    ref = maximal.lusin_lipschitz_check(f, 20_000, RandomStream(seed, 6), cells=2 * cells)
    scaled = maximal.lusin_lipschitz_check(
        fields.scale_field(f, 3.0), 20_000, RandomStream(seed, 6), cells=2 * cells
    )
    rep = Report("maximal", cfg, seed)
    rep.results["bound"] = rec["bound"]
    rep.results["direct_max"] = rec["direct_max"]
    rep.results["c_emp"] = rec["c_emp"]
    rep.results["c_emp_refined"] = ref["c_emp"]
    rep.constants["lusin_c_emp"] = {"N": f.dim, "value": rec["c_emp"]}
    write_csv(out / "route_profile.csv", PROFILE_HEADER, rec["profile"].rows())
    mgrid = maximal.hl_maximal(maximal.gridded_gradient_norm(f, cells))
    header = ["x", "value"] if f.dim == 1 else ["x", "y", "value"]
    write_csv(out / "maximal_grid.csv", header, maximal.grid_rows(mgrid))
    rep.add_verdict("rmk2.3:domination", rec["dominates"], 1e-9,
                    observed=rec["direct_max"], target=rec["bound"],
                    detail="constant maximal-route bound vs direct lambda^p mu")
    ratio = ref["c_emp"] / rec["c_emp"] if rec["c_emp"] > 0 else 1.0
    rep.add_verdict("rmk2.3:cemp_stable", 0.5 <= ratio <= 2.0, 2.0, observed=ratio,
                    detail="c_emp across one grid refinement")
    scale_dev = abs(scaled["c_emp"] / ref["c_emp"] - 1.0) if ref["c_emp"] > 0 else 0.0
    rep.add_verdict("rmk2.3:cemp_scaling", scale_dev <= 1e-2, 1e-2, observed=scale_dev,
                    detail="amplitude invariance of c_emp")
    return rep


_STATEMENTS = {
    "weak-1d": ("cor1.4", lambda f, prm, b: corollaries.check_weak_gradient_1d(
        f, prm.get("p", 1.5), budgets=b)),
    "weak-sup": ("cor1.5", lambda f, prm, b: corollaries.check_weak_sup_interpolation(
        f, prm.get("p", 1.5), budgets=b)),
    "weak-seminorm": ("cor1.6", lambda f, prm, b: corollaries.check_weak_seminorm_interpolation(
        f, corollaries.GNParams(prm.get("theta", 0.5), prm.get("p1", 2.0), prm.get("s1", 0.5)),
        budgets=b)),
    "strong-interp": ("gn", lambda f, prm, b: corollaries.check_strong_interpolation(
        f, prm.get("theta", 0.5), prm.get("p1", 2.0), budgets=b)),
    "embedding": ("sobolev", lambda f, prm, b: corollaries.check_strong_embedding(
        f, prm.get("s", 0.5), budgets=b)),
}


def run_corollary(cfg, out, workers, seed):
    params = _get(cfg, "params", {})
    statement = _get(params, "statement", required=True)
    if statement not in _STATEMENTS:
        raise ConfigError(
            f"config field 'params.statement' must be one of {sorted(_STATEMENTS)}"
        )
    tag, runner = _STATEMENTS[statement]
    budgets = _get(cfg, "budgets", {})
    specs = params.get("fields")
    if specs is None:
        eps_ladder = params.get("eps_ladder", [0.2, 0.1, 0.05, 0.025])
        dim = int(params.get("dim", 1))
        box = [[0.0, 1.0]] * dim
        flds = [fields.make_mollified_indicator(box, e) for e in eps_ladder]
    else:
        flds = _fields_from(specs)

    def one(f):
        return runner(f, params, budgets)

    reports = ordered_parallel_map(one, flds, workers)
    ratios = [r.ratio for r in reports]
    med = float(np.median(ratios))
    spread_tol = _positive(cfg, "params.spread_factor", 3.0)
    bounded = all(math.isfinite(r) for r in ratios) and (
        med == 0.0 or all(med / spread_tol <= r <= med * spread_tol for r in ratios)
    )

    homo_tol = 1e-2
    r1 = reports[0]
    r3 = runner(fields.scale_field(flds[0], 3.0), params, budgets)
    homo_dev = max(
        abs(r3.lhs / (3.0 * r1.lhs) - 1.0) if r1.lhs > 0 else 0.0,
        abs(r3.rhs / (3.0 * r1.rhs) - 1.0) if r1.rhs > 0 else 0.0,
    )

    rows = [
        (r.field_label, str(r.params).replace(",", ";"), r.lhs, r.rhs, r.ratio,
         "bounded" if bounded else "spread")
        for r in reports
    ]
    write_csv(out / "corollary.csv", COROLLARY_HEADER, rows)
    rep = Report("corollary", cfg, seed)
    rep.results["ratios"] = ratios
    rep.results["median_ratio"] = med
    rep.add_verdict(f"{tag}:bounded", bounded, spread_tol, observed=max(ratios),
                    target=med, detail="ratios within a fixed factor of their median")
    rep.add_verdict(f"{tag}:homogeneity", homo_dev <= homo_tol, homo_tol,
                    observed=homo_dev, detail="both sides 1-homogeneous at c in {1, 3}")
    return rep


def run_failure(cfg, out, workers, seed):
    params = _get(cfg, "params", {})
    p = _positive(cfg, "params.p", 2.0)
    eps_ladder = params.get("eps_ladder", [0.2, 0.1, 0.05, 0.025])
    probe = corollaries.strong_norm_divergence_probe(
        p, eps_ladder,
        delta_in=params.get("delta_in"),
        weak_p=params.get("weak_p"),
        budgets=_get(cfg, "budgets", {}),
    )
    write_csv(out / "failure_ladder.csv", LADDER_HEADER,
              list(zip(probe["eps"], probe["values"])))
    rep = Report("failure", cfg, seed)
    rep.results.update(probe)
    drift_tol = _positive(cfg, "params.increment_tolerance", 0.25)
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
    return rep


def run_crosscheck(cfg, out, workers, seed):
    f = _field_from(cfg)
    params = _get(cfg, "params", {})
    p = _positive(cfg, "params.p", required=True)
    tol = _positive(cfg, "params.tolerance", 0.10)
    s_ladder = params.get("s_ladder", [0.5, 0.75, 0.875, 0.9375, 0.96875])
    deltas = params.get("delta_ladder", [1e-2, 1e-3, 1e-4, 1e-5])
    budgets = _get(cfg, "budgets") or {}
    fac = seminorms.seminorm_limit_factor(f, p, s_ladder, tol=tol, **budgets)
    probe = seminorms.diagonal_divergence_probe(f, p, deltas, tol=tol, **budgets)
    write_csv(out / "limit_factor_ladder.csv", LADDER_HEADER,
              list(zip(fac["s_values"], fac["factors"])))
    write_csv(out / "divergence_ladder.csv", LADDER_HEADER,
              list(zip(probe["deltas"], probe["values"])))
    rep = Report("crosscheck", cfg, seed)
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
    return rep


# kind -> (runner, the quadrature.BUDGETS entries its `budgets` feed)
EXPERIMENTS = {
    "constants": (run_constants, ()),
    "limit": (run_limit, ("polar",)),
    "quasinorm": (run_quasinorm, ("polar",)),
    "gagliardo": (run_gagliardo, ("gagliardo",)),
    "covering": (run_covering, ()),
    "rotation": (run_rotation, ()),
    "maximal": (run_maximal, ("polar",)),
    "corollary": (run_corollary, ("weak", "polar", "gagliardo")),
    "failure": (run_failure, ("gagliardo", "weak", "polar")),
    "crosscheck": (run_crosscheck, ("gagliardo",)),
}


def run_experiment(cfg, out, workers, seed):
    kind = _get(cfg, "experiment", required=True)
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"config field 'experiment' must be one of {sorted(EXPERIMENTS)}, got {kind!r}"
        )
    runner, estimators = EXPERIMENTS[kind]
    quadrature.split_budgets(1, _section(cfg, "budgets"), *estimators)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if seed is None:
        seed = _get(cfg, "seed")
    if seed is None:
        raise ConfigError("config field 'seed' is required")
    return runner(cfg, out, workers, int(seed))
