"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets are pinned here; every tolerance is stated inline and matches the
package contract.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import json
import math
import time

import numpy as np
import pytest

from weaklp import corollaries as Co
from weaklp import covering as C
from weaklp import fields as F
from weaklp import levelset as LS
from weaklp import maximal as M
from weaklp import quadrature as Q
from weaklp import seminorms as S
from weaklp.cli import main as cli_main
from weaklp.experiments import HOLDER_TOL, SANDWICH_TOL

LIMIT_1D_P1 = 1.4715177646857693        # moment(1,1) * (2/e), frozen oracle
GRAD2_BUMP = 0.4095870607527702         # int |u'|^2, frozen oracle

BUDGET_1D = {"x_nodes": 192, "scan": 512}
BUDGET_2D = {"x_nodes": 36, "sphere_order": 12, "scan": 128}


def report(tag, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"{state} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _mesh_refined(budget):
    out = dict(budget)
    out["x_nodes"] = 2 * budget["x_nodes"]
    return out


def test_a01_constants():
    Q.sphere_rule.cache_clear()
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        for p in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0):
            sc = Q.sphere_abs_moment(p, n, rtol=1e-6)
            worst = max(worst, abs(sc.moment_quad - sc.moment) / sc.moment)
    anchors = (
        abs(Q.sphere_abs_moment(3.0, 1).moment - 2.0),
        abs(Q.sphere_abs_moment(1.0, 2).moment - 4.0),
        abs(Q.sphere_abs_moment(2.0, 3).moment - 4 * math.pi / 3),
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and max(anchors) <= 1e-10 and elapsed < 1.0
    report("A1 constants", ok,
           f"worst rel {worst:.2e} (tol 1e-6), anchors {max(anchors):.1e} (tol 1e-10), "
           f"{elapsed:.2f}s (budget 1s)")


def test_a02_tail_limit():
    t0 = time.perf_counter()
    cat = F.catalogue()
    checks = []
    for p, target in ((1.0, LIMIT_1D_P1), (2.0, 2.0 * GRAD2_BUMP)):
        f = cat["bump1"]
        prof = LS.distribution_profile(f, p, 1.0 / p + 1.0, LS.default_lambda_grid(f, 48),
                                       budgets=BUDGET_1D)
        lim = LS.tail_limit(prof, 8)
        dev = abs(lim.plateau - target) / target
        checks.append((f"N=1 p={p}", dev, 0.05, lim.converged))
    f2 = cat["bump2"]
    prof2 = LS.distribution_profile(f2, 1.0, 3.0, LS.default_lambda_grid(f2, 24),
                                    budgets=BUDGET_2D)
    lim2 = LS.tail_limit(prof2, 5, tol=0.05)
    grad2 = F.gradient_lp_norm(f2, 1.0, budget=8192).value
    target2 = Q.sphere_abs_moment(1.0, 2).moment / 2.0 * grad2
    checks.append(("N=2 p=1", abs(lim2.plateau - target2) / target2, 0.10, lim2.converged))
    elapsed = time.perf_counter() - t0
    ok = all(dev <= tol and conv for _, dev, tol, conv in checks) and elapsed < 300
    report("A2 tail limit", ok,
           "; ".join(f"{tag} dev {dev:.3%} (tol {tol:.0%})" for tag, dev, tol, _ in checks)
           + f"; {elapsed:.0f}s (budget 300s)")


def test_a03_two_sided_bound():
    t0 = time.perf_counter()
    rows = []
    for name in F.catalogue_names():
        f = F.catalogue()[name]
        for p in (1.0, 1.5, 2.0):
            alpha = f.dim / p + 1.0
            grid = LS.default_lambda_grid(f, 12)
            if f.dim == 3:
                budgets = {"mc_samples": 150_000}
                prof = LS.distribution_profile(f, p, alpha, grid, estimator="mc",
                                               budgets=budgets, stream=Q.RandomStream(31, 0))
                ref = dict(budgets, mc_samples=300_000)
                prof2 = LS.distribution_profile(f, p, alpha, grid, estimator="mc",
                                                budgets=ref, stream=Q.RandomStream(31, 0))
            else:
                budgets = BUDGET_1D if f.dim == 1 else BUDGET_2D
                prof = LS.distribution_profile(f, p, alpha, grid, budgets=budgets)
                prof2 = LS.distribution_profile(f, p, alpha, grid,
                                                budgets=_mesh_refined(budgets))
            sup1 = LS.weak_quasinorm(prof, refine=0)
            sup2 = LS.weak_quasinorm(prof2, refine=0)
            grad = F.gradient_lp_norm(f, p, budget=8192).value
            target = Q.sphere_abs_moment(p, f.dim).moment / f.dim * grad
            lower_ratio = sup1 / target
            drift = abs(sup2 / sup1 - 1.0) if sup1 > 0 else 0.0
            rows.append((name, p, lower_ratio, drift))
    worst_lower = min(r[2] for r in rows)
    worst_drift = max(r[3] for r in rows)
    elapsed = time.perf_counter() - t0
    ok = worst_lower >= 0.95 and worst_drift < 0.10 and elapsed < 600
    report("A3 two-sided bound", ok,
           f"min sup/target {worst_lower:.4f} (>= 0.95), max refinement drift "
           f"{worst_drift:.3%} (< 10%) over {len(rows)} field/p combos; "
           f"{elapsed:.0f}s (budget 600s)")


def test_a04_interval_cover_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    disjoint = True
    violations = 0
    chain = True
    for _ in range(100):
        m = int(rng.integers(16, 129))
        f = Q.GriddedFunction([[-1.0, 1.5]], rng.uniform(0, 3, m) * (rng.random(m) < 0.7))
        for gamma in (0.5, 1.0, 2.0):
            cov = C.vitali_select(C.admissible_intervals(f, gamma))
            order = np.argsort(cov.starts)
            s, e = cov.starts[order], cov.ends[order]
            disjoint &= bool(np.all(s[1:] > e[:-1]))
            violations += C.verify_5j_cover(cov)["violations"]
            en = C.weighted_energy(cov)
            slack = 1e-9 * max(en["bound_mass"], 1.0)
            chain &= (en["energy"] <= en["bound_selected"] + slack
                      and en["bound_selected"] <= en["bound_mass"] + slack)
    elapsed = time.perf_counter() - t0
    ok = disjoint and violations == 0 and chain and elapsed < 120
    report("A4 interval covers", ok,
           f"100 random fields x 3 exponents: disjoint={disjoint}, "
           f"cover violations={violations}, energy chain={chain}; "
           f"{elapsed:.0f}s (budget 120s)")


def test_a05_rotation_vs_mc():
    t0 = time.perf_counter()
    worst_z = 0.0
    worst_drift = 0.0
    bound_ok = True
    for i, name in enumerate(["bump2", "bump2_off", "plateau2", "bumps2_pair", "product2"]):
        f = F.catalogue()[name]
        rec = C.rotation_measure(f, line_cells=256, offset_cells=96, sphere_order=24)
        mc = C.rotation_measure_mc(f, 150_000, Q.RandomStream(11, 100 + i))
        sig = math.hypot(rec["measure"].error_estimate, mc.error_estimate)
        worst_z = max(worst_z, abs(rec["measure"].value - mc.value) / max(sig, 1e-300))
        worst_drift = max(worst_drift, rec["c_emp_drift"])
        bound_ok &= rec["measure"].value <= rec["bound_factor"] * rec["mass"] * (1.0 + 1e-9)
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 3.0 and worst_drift < 0.10 and bound_ok and elapsed < 300
    report("A5 rotation measure", ok,
           f"5 fields: max |z| {worst_z:.2f} (<= 3 sigma), c_emp drift {worst_drift:.3%} "
           f"(< 10%), mass bound {bound_ok}; {elapsed:.0f}s (budget 300s)")


def test_a06_containment_and_sandwich():
    t0 = time.perf_counter()
    holder_shortfall = -math.inf
    holder_members = 0
    sandwich_worst = -math.inf
    for i, name in enumerate(F.catalogue_names()):
        f = F.catalogue()[name]
        for p in (1.0, 2.0):
            rec = C.holder_containment_check(f, p, max(f.lip_bound, 1e-6), 10_000,
                                             Q.RandomStream(61, 10 * i + int(p)))
            if rec["members"]:
                holder_shortfall = max(holder_shortfall, 1.0 - rec["worst_margin"])
            holder_members += rec["members"]
            if f.dim > 2:
                continue
            for lam_f in (10.0, 100.0):
                for delta in (0.25, 0.5):
                    sr = LS.verify_sandwich(f, p, lam_f * max(f.lip_bound, 1e-6), 250,
                                            delta, Q.RandomStream(62, 10 * i + int(p)))
                    sandwich_worst = max(sandwich_worst, sr["worst_upper_excess"], sr["worst_lower_shortfall"])
    elapsed = time.perf_counter() - t0
    ok = holder_shortfall <= HOLDER_TOL and sandwich_worst <= SANDWICH_TOL and holder_members > 0 \
        and elapsed < 180
    report("A6 containment and sandwich", ok,
           f"worst segment-condition shortfall {holder_shortfall:.2e} (<= {HOLDER_TOL:g}) "
           f"over {holder_members} members, "
           f"worst sandwich excess or shortfall {sandwich_worst:.2e} (<= {SANDWICH_TOL:g}); "
           f"{elapsed:.0f}s (budget 180s)")


def test_a07_divergence_probes():
    t0 = time.perf_counter()
    f = F.catalogue()["bump1"]
    slope_devs = []
    for p in (1.0, 2.0):
        rec = S.diagonal_divergence_probe(f, p, [1e-2, 1e-3, 1e-4, 1e-5])
        slope_devs.append(abs(rec["target_ratio"] - 1.0))
    probe = Co.strong_norm_divergence_probe(2.0, [0.2, 0.1, 0.05, 0.025], weak_p=1.5)
    weak = probe["weak_ratios"]
    med = float(np.median(weak))
    weak_ok = all(med / 3.0 <= w <= med * 3.0 for w in weak)
    elapsed = time.perf_counter() - t0
    ok = (max(slope_devs) <= 0.10 and probe["increments_positive"]
          and probe["increment_drift"] <= 0.25 and weak_ok and elapsed < 300)
    report("A7 divergence probes", ok,
           f"slope devs {[f'{d:.3f}' for d in slope_devs]} (tol 0.10), increments "
           f"positive={probe['increments_positive']} drift {probe['increment_drift']:.3f} "
           f"(tol 0.25), weak ratios bounded={weak_ok}; {elapsed:.0f}s (budget 300s)")


def test_a08_limit_factor_crosscheck():
    t0 = time.perf_counter()
    f = F.catalogue()["bump1"]
    devs = []
    cons = []
    for p in (1.0, 2.0):
        fac = S.seminorm_limit_factor(f, p, [0.5, 0.75, 0.875, 0.9375, 0.96875])
        devs.append(abs(fac["plateau_ratio"] - 1.0))
        probe = S.diagonal_divergence_probe(f, p, [1e-2, 1e-3, 1e-4, 1e-5])
        cons.append(abs(probe["slope"] / (p * fac["plateau"]) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = max(devs) <= 0.10 and max(cons) <= 0.10
    report("A8 limit-factor crosscheck", ok,
           f"plateau devs {[f'{d:.3f}' for d in devs]} (tol 0.10), probe consistency "
           f"{[f'{c:.3f}' for c in cons]} (tol 0.10); {elapsed:.0f}s")


def test_a09_maximal_route():
    t0 = time.perf_counter()
    dominated = True
    stable = True
    for name, cells in (("bump1", 192), ("bump2", 64)):
        f = F.catalogue()[name]
        grid = LS.default_lambda_grid(f, 10, 0.5, 100.0)
        budgets = BUDGET_1D if f.dim == 1 else BUDGET_2D
        rec = M.maximal_route_bound(f, 2.0, grid, cells=cells, profile_budgets=budgets,
                                    stream=Q.RandomStream(71, cells))
        dominated &= rec["direct_max"] <= rec["bound"] * (1.0 + 1e-9)
        ref = M.lusin_lipschitz_check(f, 20_000, Q.RandomStream(71, cells), cells=2 * cells)
        ratio = ref["c_emp"] / rec["c_emp"]
        stable &= 0.5 <= ratio <= 2.0
    f2 = F.catalogue()["bump2"]
    a = M.lusin_lipschitz_check(f2, 10_000, Q.RandomStream(72, 0), cells=48)
    b = M.lusin_lipschitz_check(F.scale_field(f2, 3.0), 10_000, Q.RandomStream(72, 0), cells=48)
    scale_dev = abs(b["c_emp"] / a["c_emp"] - 1.0)
    elapsed = time.perf_counter() - t0
    ok = dominated and stable and scale_dev <= 1e-2
    report("A9 maximal route", ok,
           f"domination={dominated}, c_emp stability within 2x={stable}, amplitude "
           f"invariance dev {scale_dev:.2e} (tol 1e-2); {elapsed:.0f}s")


def test_a10_interpolation_checks():
    t0 = time.perf_counter()
    fast = {"lambda_points": 16}
    cat = F.catalogue()
    finite = []
    homo = []

    def homo_dev(fn, f):
        r1, r3 = fn(f), fn(F.scale_field(f, 3.0))
        finite.extend([r1.ratio, r3.ratio])
        return max(abs(r3.lhs / (3 * r1.lhs) - 1.0), abs(r3.rhs / (3 * r1.rhs) - 1.0))

    homo.append(homo_dev(lambda f: Co.check_weak_sup_interpolation(f, 1.5, budgets=fast),
                         cat["bump1"]))
    homo.append(homo_dev(lambda f: Co.check_weak_sup_interpolation(
        f, 2.0, budgets=dict(fast, **BUDGET_2D)), cat["bump2"]))
    homo.append(homo_dev(lambda f: Co.check_weak_seminorm_interpolation(
        f, 0.5, 2.0, 0.5, budgets=fast), cat["bump1"]))
    homo.append(homo_dev(lambda f: Co.check_strong_interpolation(f, 0.5, 2.0), cat["bump1"]))

    emb = Co.check_strong_embedding(cat["bump2"], 0.5, budgets={"x_nodes": 32})
    exact_p = emb.params["p"] == 4.0 / 3.0
    finite.append(emb.ratio)
    emb2 = Co.check_strong_embedding(cat["plateau2"], 0.5, budgets={"x_nodes": 32})
    finite.append(emb2.ratio)

    elapsed = time.perf_counter() - t0
    all_finite = all(math.isfinite(r) and r > 0 for r in finite)
    ok = all_finite and max(homo) <= 1e-2 and exact_p
    report("A10 interpolation checks", ok,
           f"{len(finite)} ratios finite={all_finite}, max homogeneity dev {max(homo):.2e} "
           f"(tol 1e-2), embedding exponent exact={exact_p}; {elapsed:.0f}s")


def test_a11_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "experiment": "quasinorm",
        "field": {"kind": "bump", "center": [0.0], "radius": 1.0, "amplitude": 1.0},
        "params": {"p": 1.0, "lambda_points": 10, "refine": 4,
                   "sandwich": {"lambda_factors": [10.0], "deltas": [0.5], "samples": 100},
                   "holder": {"lambda_factor": 1.0, "samples": 2000}},
        "budgets": {"x_nodes": 128, "scan": 256},
        "seed": 2024,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for w in (1, 4):
        out = tmp_path / f"w{w}"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--workers", str(w)])
        assert code == 0
        outs.append(out)
    same_report = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    same_csv = (outs[0] / "profile.csv").read_bytes() == (outs[1] / "profile.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = same_report and same_csv
    report("A11 determinism", ok,
           f"byte-identical report={same_report}, csv={same_csv} across worker counts; "
           f"{elapsed:.0f}s")
