import hashlib
import math

import numpy as np
import pytest

from weaklp import fields as F
from weaklp import levelset as LS
from weaklp import quadrature as Q
from weaklp.errors import InvalidParameterError, PreconditionError

LIMIT_1D_P1 = 1.4715177646857693        # moment(1,1) * int |u'| = 2 * 2/e
TV_BUMP = 2 / math.e
GRAD1_BUMP_2D = 1.3948477111129345


class RampStub:
    """u(x) = min(x, r0) on x >= 0: a locally linear stretch along +e1."""

    dim = 1
    lip_bound = 1.0
    hess_bound = 0.0
    sup_norm = 1.0
    support_radius = 2.0
    label = "ramp-stub"

    def evaluate(self, pts):
        x = np.asarray(pts)[..., 0]
        return np.clip(x, 0.0, 1.0)

    def support_distance(self, pts):
        return np.zeros(np.asarray(pts).shape[:-1])

    def segments_meet_support(self, X, W, length, margin):
        return np.ones((len(X), len(W)), dtype=bool)


def zero_field():
    return F.make_bump([0.0], 1.0, 0.0)


def _scan_one_ray(f, lam, alpha, x, w, scan=1024, tol=1e-10):
    """(measure, crossings, outer, r_cap) of the one ray x + r w, 0 < r <= r_cap."""
    xs = np.array([x], dtype=float).T
    ws = np.array([w], dtype=float).T
    r_cap = LS.truncation_radius(f, lam, alpha)
    m, c, outer = LS._scan_rays(f, lam, alpha, xs, ws, f.evaluate(xs.T), r_cap, scan, tol)
    return m[0], c[0], outer[0], r_cap


def test_scan_rays_zero_field_empty():
    z = zero_field()
    xs = np.array([[-0.5, 0.0, 0.7]])
    ws = np.array([[1.0, -1.0, 1.0]])
    m, c, outer = LS._scan_rays(z, 1.0, 2.0, xs, ws, z.evaluate(xs.T), 1.0, 64, 1e-10)
    assert not np.any(m) and not np.any(c) and not np.any(outer)


def test_scan_rays_linear_stretch():
    # g r >= lam r^2 exactly when r <= g/lam; here g = 1, lam = 2, r0 = 1, so
    # the one run is (0, 0.5]: it reaches r_cap = lip_bound / lam = 0.5 ...
    m, c, outer, r_cap = _scan_one_ray(RampStub(), 2.0, 2.0, [0.0], [1.0])
    assert r_cap == 0.5 and outer == r_cap and c == 0 and m == r_cap
    # ... or ends at a bisected down-crossing inside a longer scan
    ramp = RampStub()
    ramp.lip_bound = 4.0
    m, c, outer, r_cap = _scan_one_ray(ramp, 2.0, 2.0, [0.0], [1.0])
    assert r_cap == 2.0 and c == 1
    assert outer == pytest.approx(0.5, abs=1e-9)
    assert m == outer     # the run starts at 0+


def test_scan_rays_far_from_support_empty(bump1):
    m, c, outer, _ = _scan_one_ray(bump1, 10 * bump1.lip_bound, 2.0, [2.5], [-1.0])
    assert m == 0.0 and c == 0 and outer == 0.0


def test_levelset_query_validation(bump1):
    with pytest.raises(InvalidParameterError):
        LS.LevelSetQuery(bump1, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        LS.LevelSetQuery(bump1, 1.0, 2.0, 0.0)
    with pytest.raises(InvalidParameterError):
        LS.LevelSetQuery(bump1, 0.5, 2.0, 1.0)


def test_truncation_radius_small_lambda_uses_sup_cap(bump1):
    lam = 0.1 * bump1.lip_bound
    r = LS.truncation_radius(bump1, lam, 2.0)
    assert r <= 2.0 * (2.0 * bump1.sup_norm / lam) ** 0.5 + 1e-12
    assert r <= 2.0 * (bump1.support_radius + 1.0) + 1e-12


# ---------------------------------------------------------------------------
# sandwich radii
# ---------------------------------------------------------------------------

def test_sandwich_zero_slope_gives_zero_lower(bump1):
    sb = LS.sandwich_bounds(bump1, 1.0, 10 * bump1.lip_bound, [0.0], [1.0], 0.5)
    assert sb.lower == 0.0


def test_sandwich_far_point_gives_zero_upper(bump1):
    sb = LS.sandwich_bounds(bump1, 1.0, 10 * bump1.lip_bound, [2.5], [1.0], 0.5)
    assert sb.upper == 0.0


def test_sandwich_formula_1d(bump1):
    lam = 10 * bump1.lip_bound
    x = np.array([0.5])
    g = abs(bump1.gradient(x[None, :])[0, 0])
    sb = LS.sandwich_bounds(bump1, 1.0, lam, x, [1.0], 0.5)
    expected = min(g / (2 * bump1.hess_bound), g / (2 * lam))
    assert sb.lower == pytest.approx(expected, rel=1e-12)


def test_sandwich_requires_large_lambda(bump1):
    with pytest.raises(PreconditionError):
        LS.sandwich_bounds(bump1, 1.0, 0.5 * bump1.lip_bound, [0.5], [1.0], 0.5)


def test_sandwich_degenerate_delta_near_one(bump1):
    sb = LS.sandwich_bounds(bump1, 1.0, 10 * bump1.lip_bound, [0.5], [1.0], 1 - 1e-9)
    assert sb.lower <= 1e-6


@pytest.mark.parametrize("name", ["bump1", "bump2_off", "plateau2"])
def test_sandwich_bounds_rows_match_single_points(cat, name):
    # one call on (k, N) rows gives every row's radii, bit for bit
    f = cat[name]
    rng = np.random.default_rng(7)
    xs = rng.uniform(-f.support_radius - 1.5, f.support_radius + 1.5, (40, f.dim))
    ws = rng.normal(size=(40, f.dim))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    lam = 10 * f.lip_bound
    sb = LS.sandwich_bounds(f, 2.0, lam, xs, ws, 0.25)
    assert sb.lower.shape == sb.upper.shape == (40,)
    assert np.count_nonzero(sb.upper == 0.0) > 0 and np.count_nonzero(sb.lower > 0.0) > 0
    for x, w, lo, up in zip(xs, ws, sb.lower, sb.upper):
        one = LS.sandwich_bounds(f, 2.0, lam, x, w, 0.25)
        assert (one.lower[0].hex(), one.upper[0].hex()) == (lo.hex(), up.hex())


def test_verify_sandwich_zero_field_vacuous():
    rec = LS.verify_sandwich(zero_field(), 1.0, 1.0, 50, 0.5, Q.RandomStream(1, 0))
    assert rec["violations_upper"] == rec["violations_lower"] == 0


def test_verify_sandwich_rejects_coarse_scan(bump1):
    with pytest.raises(InvalidParameterError, match="scan"):
        LS.verify_sandwich(bump1, 1.0, 10 * bump1.lip_bound, 20, 0.5, Q.RandomStream(1, 0),
                           scan=8)


@pytest.mark.parametrize("name", ["bump1", "plateau1", "bumps1_pair", "bump2"])
def test_verify_sandwich_no_violations(cat, name):
    f = cat[name]
    rec = LS.verify_sandwich(f, 1.0, 10 * f.lip_bound, 300, 0.25, Q.RandomStream(7, 1))
    assert rec["violations_upper"] == 0
    assert rec["violations_lower"] == 0


# ---------------------------------------------------------------------------
# pair measures
# ---------------------------------------------------------------------------

def _grid_for(f, lam, alpha, nodes):
    need = f.support_radius + min(1.0, LS.truncation_radius(f, lam, alpha))
    return Q.centered_box_grid(need, f.dim, nodes)


def test_pair_measure_polar_zero_field():
    z = zero_field()
    q = LS.LevelSetQuery(z, 1.0, 2.0, 1.0)
    res = LS.pair_measure_polar(q, _grid_for(z, 1.0, 2.0, 64), Q.sphere_rule(1, 4), scan=128)
    assert res.value == 0.0


def test_pair_measure_polar_fixture_large_threshold(bump1):
    q = LS.LevelSetQuery(bump1, 1.0, 2.0, 100.0)
    res = LS.pair_measure_polar(q, _grid_for(bump1, 100.0, 2.0, 256), Q.sphere_rule(1, 4),
                                scan=768)
    assert 100.0 * res.value == pytest.approx(LIMIT_1D_P1, rel=0.05)


def test_pair_measure_polar_translation_invariance():
    lam = 5.0
    a = F.make_bump([0.0], 1.0, 1.0)
    b = F.make_bump([0.4], 1.0, 1.0)
    va = LS.pair_measure_polar(LS.LevelSetQuery(a, 1.0, 2.0, lam),
                               _grid_for(a, lam, 2.0, 256), Q.sphere_rule(1, 4), scan=512)
    vb = LS.pair_measure_polar(LS.LevelSetQuery(b, 1.0, 2.0, lam),
                               _grid_for(b, lam, 2.0, 256), Q.sphere_rule(1, 4), scan=512)
    assert vb.value == pytest.approx(va.value, rel=1e-3)


def test_pair_measure_polar_grid_must_cover(bump1):
    q = LS.LevelSetQuery(bump1, 1.0, 2.0, 1.0)
    small = Q.centered_box_grid(0.5 * bump1.support_radius, 1, 64)
    with pytest.raises(PreconditionError):
        LS.pair_measure_polar(q, small, Q.sphere_rule(1, 4))


def test_pair_measure_mc_zero_field():
    q = LS.LevelSetQuery(zero_field(), 1.0, 2.0, 1.0)
    res = LS.pair_measure_mc(q, 2000, Q.RandomStream(3, 3))
    assert res.value == 0.0 and res.error_estimate == 0.0


def test_pair_measure_mc_matches_polar(bump1):
    lam = 2.0
    q = LS.LevelSetQuery(bump1, 1.0, 2.0, lam)
    polar = LS.pair_measure_polar(q, _grid_for(bump1, lam, 2.0, 256), Q.sphere_rule(1, 4),
                                  scan=512)
    mc = LS.pair_measure_mc(q, 200_000, Q.RandomStream(3, 2))
    assert abs(mc.value - polar.value) <= 3 * math.hypot(mc.error_estimate,
                                                         polar.error_estimate)


def test_pair_measure_mc_stderr_scaling(bump1):
    q = LS.LevelSetQuery(bump1, 1.0, 2.0, 2.0)
    small = LS.pair_measure_mc(q, 50_000, Q.RandomStream(4, 0))
    big = LS.pair_measure_mc(q, 100_000, Q.RandomStream(4, 0))
    assert big.error_estimate / small.error_estimate == pytest.approx(1 / math.sqrt(2), rel=0.2)


def test_pair_measure_mc_rejects_tiny_sample(bump1):
    with pytest.raises(InvalidParameterError):
        LS.pair_measure_mc(LS.LevelSetQuery(bump1, 1.0, 2.0, 1.0), 10, Q.RandomStream(0, 0))


# ---------------------------------------------------------------------------
# profiles, quasinorm, tail limit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bump1_profile(bump1):
    grid = LS.default_lambda_grid(bump1, 48)
    return LS.distribution_profile(bump1, 1.0, 2.0, grid)


def test_profile_zero_field_all_zero():
    z = zero_field()
    grid = np.geomspace(0.1, 100.0, 12)
    prof = LS.distribution_profile(z, 1.0, 2.0, grid)
    assert np.all(prof.mu == 0.0)


def test_profile_rejects_empty_or_unsorted(bump1):
    with pytest.raises(InvalidParameterError):
        LS.distribution_profile(bump1, 1.0, 2.0, np.array([]))
    with pytest.raises(InvalidParameterError):
        LS.distribution_profile(bump1, 1.0, 2.0, np.array([2.0, 1.0]))


def test_profile_monotone_within_error(bump1_profile):
    assert bump1_profile.monotonicity_flags == []


def test_profile_upper_ratio_bounded(bump1_profile):
    # lambda^p mu stays below the empirical constant times the gradient mass
    c_emp = np.max(bump1_profile.lam_pow_p_mu) / TV_BUMP
    assert np.all(bump1_profile.lam_pow_p_mu <= c_emp * TV_BUMP * (1 + 1e-12))
    assert c_emp < 10.0


def test_scaling_covariance(bump1):
    lam_grid = np.geomspace(0.5, 50.0, 10)
    base = LS.distribution_profile(bump1, 1.0, 2.0, lam_grid)
    scaled_field = F.scale_field(bump1, 3.0)
    scaled = LS.distribution_profile(scaled_field, 1.0, 2.0, 3.0 * lam_grid)
    assert np.allclose(scaled.mu, base.mu, rtol=1e-10, atol=1e-14)


def test_weak_quasinorm_zero_field():
    grid = np.geomspace(0.1, 100.0, 8)
    prof = LS.distribution_profile(zero_field(), 1.0, 2.0, grid)
    assert LS.weak_quasinorm(prof, refine=0) == 0.0


def test_weak_quasinorm_at_least_tail(bump1_profile):
    sup = LS.weak_quasinorm(bump1_profile, refine=8)
    lim = LS.tail_limit(bump1_profile, 8)
    assert sup >= lim.plateau * (1 - 1e-9)


def test_weak_quasinorm_ratio_brackets(bump1_profile):
    sup = LS.weak_quasinorm(bump1_profile, refine=8)
    ratio = sup / TV_BUMP
    assert ratio >= 0.9 * 1.0          # lower-bound constant at N = 1 is 1
    assert ratio <= 10.0


def test_tail_limit_fixture(bump1_profile):
    lim = LS.tail_limit(bump1_profile, 8)
    assert lim.converged
    assert lim.plateau == pytest.approx(LIMIT_1D_P1, rel=0.05)


def test_tail_limit_2d_radial(bump2):
    grid = LS.default_lambda_grid(bump2, 24)
    prof = LS.distribution_profile(bump2, 1.0, 3.0, grid,
                                   budgets={"x_nodes": 40, "scan": 160, "sphere_order": 12})
    lim = LS.tail_limit(prof, 5, tol=0.05)
    target = Q.sphere_abs_moment(1.0, 2).moment / 2.0 * GRAD1_BUMP_2D
    assert lim.plateau == pytest.approx(target, rel=0.10)


def test_tail_limit_zero_field_converged():
    grid = np.geomspace(0.1, 150.0, 12)
    prof = LS.distribution_profile(zero_field(), 1.0, 2.0, grid)
    lim = LS.tail_limit(prof, 4)
    assert lim.plateau == 0.0 and lim.converged


def test_tail_limit_window_validation(bump1_profile):
    with pytest.raises(InvalidParameterError):
        LS.tail_limit(bump1_profile, 500)


def test_tail_limit_needs_three_decades(bump1):
    grid = np.geomspace(bump1.lip_bound, 10 * bump1.lip_bound, 8)
    prof = LS.distribution_profile(bump1, 1.0, 2.0, grid)
    with pytest.raises(PreconditionError):
        LS.tail_limit(prof, 4)


def test_nesting_of_level_sets(bump1_profile):
    mu, err = bump1_profile.mu, bump1_profile.err
    for i in range(len(mu) - 1):
        assert mu[i + 1] <= mu[i] + err[i] + err[i + 1] + 1e-15


def test_weak_quasinorm_flags_noisy_argmax(bump1_profile):
    noisy = LS.DistributionProfile(
        bump1_profile.field_label, bump1_profile.p, bump1_profile.alpha,
        bump1_profile.lambdas, bump1_profile.mu,
        np.full_like(bump1_profile.err, 0.5), list(bump1_profile.tags),
    )
    _, flagged = LS.weak_quasinorm(noisy, refine=0, with_flag=True)
    assert flagged
    _, clean = LS.weak_quasinorm(bump1_profile, refine=0, with_flag=True)
    assert not clean


def test_pair_measures_capped_at_three_dimensions():
    f4 = F.make_bump([0.0, 0.0, 0.0, 0.0], 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        LS.LevelSetQuery(f4, 1.0, 5.0, 1.0)


# ---------------------------------------------------------------------------
# scan kernel: bit-identical goldens and support pruning
# ---------------------------------------------------------------------------

# float.hex of pair_measure_polar's value and error estimate, and its
# nodes_used, at p = 1, recorded with the unblocked, unpruned scan kernel;
# bump3's error and nodes_used were re-recorded when its coarse pass went
# from 64 to 24 scan nodes (the old coarse pass was finer than the 48-node
# fine pass).
# lam = 4 lip_bound gives r_cap < 1, so x nodes in the grid corners lie
# farther than r_cap from the support; lam = lip_bound / 2 sits below it.
POLAR_GOLDENS = {
    ("bump2", 4.0): ("0x1.86dbb5fc19607p-1", "0x1.316ee59eeac40p-7", 573440),
    ("bump2", 0.5): ("0x1.54b1999e7c2b8p+2", "0x1.344abbe112880p-5", 573440),
    ("plateau2", 4.0): ("0x1.1a4ef64814802p-3", "0x1.dc00a49c76f40p-8", 573440),
    ("plateau2", 0.5): ("0x1.bff544b92c8bbp-1", "0x1.a557bca0690f8p-4", 573440),
    ("bumps2_pair", 4.0): ("0x1.4fb07606f7948p-2", "0x1.8e27f5bf6b380p-8", 573440),
    ("bumps2_pair", 0.5): ("0x1.1c4cbee615fc0p+1", "0x1.583e6af16e5e0p-4", 573440),
    ("product2", 4.0): ("0x1.f5265e929c107p-2", "0x1.3455bb05f0500p-8", 573440),
    ("product2", 0.5): ("0x1.b92be417f310cp+1", "0x1.7e52371222680p-4", 573440),
    ("bump3", 4.0): ("0x1.0c5467caf77d3p+0", "0x1.074c1b578bd40p-5", 3047424),
}
# (x nodes per axis, Gauss order, sphere order, scan) per dimension; the 2-D
# grid has 576 x nodes and the 3-D one 1728, so both span several x chunks
GOLDEN_BUDGETS = {2: (24, 8, 8, 96), 3: (12, 4, 4, 48)}


class CountingField:
    """Delegates to a field; counts and hashes the points passed to `evaluate`."""

    def __init__(self, base):
        self.base = base
        self.points = 0
        self.digest = hashlib.sha256()

    def __getattr__(self, name):
        return getattr(self.base, name)

    def evaluate(self, pts):
        pts = np.asarray(pts)
        self.points += pts.size // pts.shape[-1]
        self.digest.update(np.ascontiguousarray(pts, dtype=float).tobytes())
        return self.base.evaluate(pts)


def _golden_polar(f, lam_factor):
    x_nodes, order, sphere_order, scan = GOLDEN_BUDGETS[f.dim]
    alpha = f.dim + 1.0
    lam = lam_factor * f.lip_bound
    need = f.support_radius + min(1.0, LS.truncation_radius(f, lam, alpha))
    grid = Q.centered_box_grid(need, f.dim, x_nodes, order=order)
    return LS.pair_measure_polar(LS.LevelSetQuery(f, 1.0, alpha, lam), grid,
                                 Q.sphere_rule(f.dim, sphere_order), scan=scan)


@pytest.mark.parametrize("name, lam_factor", sorted(POLAR_GOLDENS))
def test_pair_measure_polar_bit_identical_goldens(cat, name, lam_factor):
    res = _golden_polar(cat[name], lam_factor)
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        POLAR_GOLDENS[name, lam_factor]


def test_pruning_skips_rays_and_keeps_goldens(bump2):
    f = CountingField(bump2)
    res = _golden_polar(f, 4.0)
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        POLAR_GOLDENS["bump2", 4.0]
    # nodes_used is the nominal nx * nw * scan over both passes; the scan
    # skips the corner x nodes, so fewer points reach the field
    assert f.points < res.nodes_used


def _record_scans(monkeypatch):
    """Wrap `_scan_rays`; each call appends its (k, N) ray x and w rows and outputs."""
    calls = []
    scan_rays = LS._scan_rays

    def recording(f, lam, alpha, xs, ws, *rest):
        out = scan_rays(f, lam, alpha, xs, ws, *rest)
        calls.append((xs.T.copy(), ws.T.copy(), out))
        return out

    monkeypatch.setattr(LS, "_scan_rays", recording)
    return calls


def test_scan_far_from_support_is_zero_without_evaluation(bump2, monkeypatch):
    calls = _record_scans(monkeypatch)
    lam = 4.0 * bump2.lip_bound
    r_cap = LS.truncation_radius(bump2, lam, 3.0)
    R = bump2.support_radius
    margin = LS._PRUNE_MARGIN * (r_cap + R)
    x = np.array([[R + r_cap, 0.0]])
    # from x, rays away from or across the support miss it by at least r_cap
    away = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [math.sqrt(0.5)] * 2])
    toward = np.array([[-1.0, 0.0]])
    f = CountingField(bump2)
    measures, crossings = LS._grid_measures(f, lam, 3.0, x, away, r_cap, 64, 1e-10)
    assert f.points == 0 and calls[-1][1].shape == (0, 2)
    assert not np.any(measures) and not np.any(crossings)
    # a ray toward the support that stops two margins short also evaluates nothing
    f = CountingField(bump2)
    short = x + [[2.0 * margin, 0.0]]
    measures, crossings = LS._grid_measures(f, lam, 3.0, short, toward, r_cap, 64, 1e-10)
    assert f.points == 0 and calls[-1][1].shape == (0, 2)
    assert not np.any(measures) and not np.any(crossings)
    # the ray that reaches the support boundary exactly at r_cap, where u
    # vanishes, is scanned (u(x) once, then its 64 ray points), as is one
    # that stops half a margin short; their measures are still zero
    for start in (x, x + [[0.5 * margin, 0.0]]):
        f = CountingField(bump2)
        measures, crossings = LS._grid_measures(
            f, lam, 3.0, start, np.vstack([away, toward]), r_cap, 64, 1e-10
        )
        ray_x, ray_w, (_, _, outer) = calls[-1]
        assert ray_x.tolist() == start.tolist() and ray_w.tolist() == toward.tolist()
        assert f.points == 1 + 64
        assert not np.any(measures) and not np.any(crossings)
        assert not np.any(outer)      # no member on the scanned ray


def _parent_bisect_crossings(f, xs, ws, uxs, lam, alpha, lo, hi, iters):
    """The bisection of the x-pruned kernel below, kept verbatim as a reference."""

    def member(r):
        return np.abs(f.evaluate((xs + r * ws).T) - uxs) - lam * r ** alpha >= 0.0

    up = member(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same = member(mid) == up
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _parent_scan_measures(f, lam, alpha, X, W, r_cap, scan, tol, n_dim):
    """The scan kernel before ray-level pruning: it skips only x nodes farther
    than r_cap from the centered support ball and scans every ray of the rest."""
    nx, nw = X.shape[0], W.shape[0]
    r = np.linspace(r_cap / scan, r_cap, scan)
    lam_r = lam * r ** alpha
    member = np.zeros((nx, nw, scan), dtype=bool)
    margin = 1e-9 * (r_cap + f.support_radius)
    live = np.flatnonzero(f.support_distance(X) <= r_cap + margin)
    ux = np.zeros(nx)
    if live.size:
        ux[live] = f.evaluate(X[live])
    rw = W.T[:, :, None] * r
    block = max(1, 2 ** 15 // (nw * scan))
    for b0 in range(0, live.size, block):
        rows = live[b0 : b0 + block]
        pts = X[rows].T[:, :, None, None] + rw[:, None]
        g = f.evaluate(np.moveaxis(pts, 0, -1)) - ux[rows][:, None, None]
        np.abs(g, out=g)
        g -= lam_r
        member[rows] = g >= 0.0
    member = member.reshape(nx * nw, scan)

    cell, i = np.nonzero(member[:, 1:] != member[:, :-1])
    up = member[cell, i + 1]
    iters = max(8, min(60, int(math.ceil(math.log2(max((r_cap / scan) / max(tol, 1e-300), 2.0))))))
    r_cross = np.empty(0)
    if cell.size:
        xi = cell // nw
        r_cross = _parent_bisect_crossings(
            f, X.T[:, xi], W.T[:, cell % nw], ux[xi], lam, alpha, r[i], r[i + 1], iters
        )
    acc = np.zeros(nx * nw)
    np.subtract.at(acc, cell[up], r_cross[up] ** n_dim)
    np.add.at(acc, cell[~up], r_cross[~up] ** n_dim)
    acc[member[:, -1]] += r_cap ** n_dim
    return acc / n_dim, np.bincount(cell, minlength=nx * nw)


@pytest.mark.parametrize("name", F.catalogue_names())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_kernel_bitwise_equal_to_x_pruned_reference(cat, name, seed):
    f = cat[name]
    rng = np.random.default_rng(1000 * seed + len(name))
    n = f.dim
    lam = f.lip_bound * 10.0 ** rng.uniform(-1.0, 1.3)
    alpha = n + 1.0
    half, r_cap = F.pair_region(f, lam, alpha)
    X = rng.uniform(-half, half, size=(97, n))
    W = rng.normal(size=(7, n))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    W = np.vstack([W, np.eye(n)])     # axis directions: zero components
    got = LS._grid_measures(f, lam, alpha, X, W, r_cap, 40, 1e-10)
    want = _parent_scan_measures(f, lam, alpha, X, W, r_cap, 40, 1e-10, n)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    assert np.any(want[0]) and np.any(want[1])


# Per (field, lam / lip_bound) at p = 1, for the 200 rays of `_golden_rays`:
# a sha256 prefix over "outer.hex():crossings;" of every ray, and the rays
# with two membership runs with their (outer.hex(), crossings).  Recorded with
# the one-ray path the ray-list kernel replaced (`radial_levelset`: the
# largest interval end, 0 without runs, at scan 256 and tol 1e-10).
RAY_GOLDENS = {
    ("bump1", 0.5): ("00a312c602654492", {30: ("0x1.df96054240000p-1", 3),
                                          42: ("0x1.d85fa58640000p-1", 3),
                                          123: ("0x1.c7fedee6c0000p-1", 3)}),
    ("bumps1_pair", 0.5): ("0d0a28b7395c4e75", {73: ("0x1.b1709eb696ccbp-2", 3),
                                                156: ("0x1.1af3dfcc839f0p-1", 3)}),
    ("bumps2_pair", 0.5): ("42f393d26b7d8780", {54: ("0x1.58a8e9a8b72e8p-1", 3),
                                                181: ("0x1.386ea3487ae34p-1", 3)}),
    ("plateau2", 0.5): ("36f947a211a3c1c1", {182: ("0x1.e1ef563291afdp-2", 3)}),
    ("product2", 0.5): ("8f478b9061439800", {46: ("0x1.373f0fd9bdcdep-1", 3),
                                             182: ("0x1.58d29e5f3f2a0p-1", 3)}),
    ("bump3", 8.0): ("e53f3d5969638a05", {80: ("0x1.4f86c62d00000p-3", 3)}),
}


def _golden_rays(f, lam):
    half, _ = F.pair_region(f, lam, f.dim + 1.0)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-half, half, (200, f.dim))
    ws = rng.normal(size=(200, f.dim))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    return xs, ws


@pytest.mark.parametrize("name, lam_factor", sorted(RAY_GOLDENS))
def test_scan_rays_outer_and_crossings_goldens(cat, name, lam_factor):
    f = cat[name]
    lam = lam_factor * f.lip_bound
    alpha = f.dim + 1.0
    xs, ws = _golden_rays(f, lam)
    r_cap = LS.truncation_radius(f, lam, alpha)
    _, crossings, outer = LS._scan_rays(f, lam, alpha, xs.T, ws.T, f.evaluate(xs), r_cap,
                                        256, 1e-10)
    digest = hashlib.sha256("".join(f"{o.hex()}:{c};" for o, c in zip(outer, crossings)).encode())
    want, two_runs = RAY_GOLDENS[name, lam_factor]
    assert digest.hexdigest()[:16] == want
    assert {i: (outer[i].hex(), int(crossings[i])) for i in two_runs} == two_runs


def test_error_pass_is_strictly_coarser_on_small_grids(cat):
    # 2 panels of order 4 and 48 scan nodes: the coarse pass used to keep the
    # 2 panels and raise the scan to 64, reporting an error of 2.6e-12
    f = cat["bump3"]
    lam = 4.0 * f.lip_bound
    half, _ = F.pair_region(f, lam, 4.0)
    q = LS.LevelSetQuery(f, 1.0, 4.0, lam)
    sphere = Q.sphere_rule(3, 4)
    nw = sphere.nodes.shape[0]
    grid = Q.centered_box_grid(half, 3, 8, order=4)
    assert grid.panels == 2
    res = LS.pair_measure_polar(q, grid, sphere, scan=48)
    assert res.value.hex() == "0x1.148ec8a5b3dbcp+0"    # as before the change
    assert res.error_estimate > 1e-2 * res.value
    assert res.nodes_used == 8 ** 3 * nw * 48 + 4 ** 3 * nw * 24
    # a fine pass already at a floor (1 panel, or 8 scan nodes) has no
    # coarser pass and never reports converged
    one_panel = Q.TensorGrid(grid.box, 1, 4)
    assert not LS.pair_measure_polar(q, one_panel, sphere, scan=48).converged
    assert not LS.pair_measure_polar(q, grid, sphere, scan=8).converged


# ---------------------------------------------------------------------------
# goldens: pair sampling, recorded before the samplers were shared
# ---------------------------------------------------------------------------

# sha256 prefix of every (x, w) pair verify_sandwich(f, p, 10 lip_bound, 12,
# 0.5, RandomStream(62, 3), scan=64) hands to the scan kernel, x then w per
# ray, which pins the sampled x and w bit for bit; every violation count is
# 0.  Recorded on the one-ray path (`radial_levelset`, one call per ray)
# that the batched kernel call replaced.
SANDWICH_GOLDENS = {
    ("bump1", 1.0): "0b75504ff9c0c74a",
    ("bump2", 2.0): "4be6a2e5334c21de",
    ("bump3", 2.0): "0dde9d35b8e003e9",
}


@pytest.mark.parametrize("name, p", sorted(SANDWICH_GOLDENS))
def test_verify_sandwich_goldens(cat, monkeypatch, name, p):
    f = cat[name]
    calls = _record_scans(monkeypatch)
    rec = LS.verify_sandwich(f, p, 10.0 * f.lip_bound, 12, 0.5, Q.RandomStream(62, 3), scan=64)
    assert len(calls) == 1
    digest = hashlib.sha256()
    for x, w in zip(*calls[0][:2]):
        digest.update(x.tobytes())
        digest.update(w.tobytes())
    assert digest.hexdigest()[:16] == SANDWICH_GOLDENS[name, p]
    assert rec["violations_upper"] == rec["violations_lower"] == rec["flagged_profiles"] == 0


def test_pair_measure_mc_golden(bump2):
    q = LS.LevelSetQuery(bump2, 1.0, 3.0, 0.5 * bump2.lip_bound)
    res = LS.pair_measure_mc(q, 40_000, Q.RandomStream(5, 7))
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        ("0x1.5b48a372132d2p+2", "0x1.9917aa8658bcap-4", 40_000)


def test_polar_budgets_fill_defaults_and_keep_overrides():
    assert Q.split_budgets(1, None, "polar") == [{"x_nodes": 256, "sphere_order": 16, "scan": 768,
                                                  "bisect_tol": 1e-10}]
    given = {"scan": 96}
    (filled,) = Q.split_budgets(3, given, "polar")
    assert filled == {"x_nodes": 48, "sphere_order": 16, "scan": 96, "bisect_tol": 1e-10}
    assert given == {"scan": 96}
    # a key the polar estimator does not take is named, with the keys it takes
    with pytest.raises(InvalidParameterError) as err:
        Q.split_budgets(3, {"scan": 96, "mc_samples": 5000, "scna": 64}, "polar")
    msg = str(err.value)
    assert "'mc_samples', 'scna'" in msg and "'scan'" not in msg
    assert "x_nodes, sphere_order, scan, bisect_tol" in msg


def test_split_budgets_sends_each_key_to_the_first_estimator_that_takes_it():
    gag, weak, polar = Q.split_budgets(1, {"x_nodes": 64, "refine": 2, "scan": 128},
                                       "gagliardo", "weak", "polar")
    assert gag == {"x_nodes": 64, "sphere_order": 16, "v_order": 8, "panels_per_decade": 3}
    assert weak == {"lambda_points": 32, "lambda_lo": 0.1, "lambda_hi": 1e3, "refine": 2}
    assert polar == {"x_nodes": 256, "sphere_order": 16, "scan": 128, "bisect_tol": 1e-10}
    assert Q.split_budgets(2, {}, "gagliardo", "mc") == [
        {"x_nodes": 40, "sphere_order": 16, "v_order": 8, "panels_per_decade": 3},
        {"mc_samples": 200_000},
    ]
    # with no estimator named, every key is unknown
    with pytest.raises(InvalidParameterError, match="unknown budget 'scan'; none are taken here"):
        Q.split_budgets(1, {"scan": 64})


@pytest.mark.parametrize("estimator, budgets", [
    ("polar", {"refine": 2}), ("mc", {"x_nodes": 32}), ("mc", {"mc_samples": 2000, "scan": 64}),
])
def test_profile_rejects_budget_keys_its_estimator_does_not_take(bump1, estimator, budgets):
    bad = next(k for k in budgets if k != "mc_samples")
    with pytest.raises(InvalidParameterError, match=f"'{bad}'"):
        LS.distribution_profile(bump1, 1.0, 2.0, [1.0, 2.0], estimator=estimator,
                                budgets=budgets, stream=Q.RandomStream(1))


def test_mc_profile_identical_across_workers(bump2):
    # 70k samples make three Monte Carlo chunks, which two workers split
    grid = [0.5 * bump2.lip_bound, 2.0 * bump2.lip_bound]
    profs = [
        LS.distribution_profile(bump2, 2.0, 2.0, grid, estimator="mc",
                                budgets={"mc_samples": 70_000}, stream=Q.RandomStream(5), workers=w)
        for w in (1, 2)
    ]
    assert [v.hex() for v in profs[0].mu] == [v.hex() for v in profs[1].mu]
    assert [v.hex() for v in profs[0].err] == [v.hex() for v in profs[1].err]
    assert np.all(profs[0].mu > 0)
