import hashlib
import math

import numpy as np
import pytest

from weaklp import fields as F
from weaklp import levelset as LS
from weaklp import quadrature as Q
from weaklp.errors import InvalidParameterError, PreconditionError

from oracles import BUMP2_MU

LIMIT_1D_P1 = 1.4715177646857693        # moment(1,1) * int |u'| = 2 * 2/e
TV_BUMP = 2 / math.e
GRAD1_BUMP_2D = 1.3948477111129345


class RampStub(F.ScalarField):
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


def test_scan_rays_takes_an_empty_ray_list():
    empty = np.empty((1, 0))
    m, c, outer = LS._scan_rays(RampStub(), 1.0, 2.0, empty, empty, np.empty(0), 1.0, 64, 1e-10)
    assert m.shape == c.shape == outer.shape == (0,)


def test_scan_rays_crossings_in_the_first_and_last_cell():
    # u(r w) - u(0) = min(r w, 1) >= r^2 exactly when r <= w (here w <= 1): on
    # r_k = k/64, k = 1..64, a run ending in the first cell (1/64, 2/64], none,
    # and one ending in the last cell (63/64, 1]; each crossing must pair with
    # its own ray
    w = np.array([[1.5 / 64, 0.0, 63.5 / 64]])
    m, c, outer = LS._scan_rays(RampStub(), 1.0, 2.0, np.zeros((1, 3)), w, np.zeros(3), 1.0, 64,
                                1e-12)
    assert c.tolist() == [1, 0, 1]
    assert outer == pytest.approx(w[0], abs=1e-11) and m == pytest.approx(w[0], abs=1e-11)


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

def test_pair_measure_polar_zero_field():
    q = LS.LevelSetQuery(zero_field(), 1.0, 2.0, 1.0)
    res = LS.pair_measure_polar(q, 64, 4, scan=128)
    assert res.value == 0.0


def test_pair_measure_polar_fixture_large_threshold(bump1):
    q = LS.LevelSetQuery(bump1, 1.0, 2.0, 100.0)
    res = LS.pair_measure_polar(q, 256, 4, scan=768)
    assert 100.0 * res.value == pytest.approx(LIMIT_1D_P1, rel=0.05)


def test_pair_measure_polar_translation_invariance():
    lam = 5.0
    a = F.make_bump([0.0], 1.0, 1.0)
    b = F.make_bump([0.4], 1.0, 1.0)
    va = LS.pair_measure_polar(LS.LevelSetQuery(a, 1.0, 2.0, lam), 256, 4, scan=512)
    vb = LS.pair_measure_polar(LS.LevelSetQuery(b, 1.0, 2.0, lam), 256, 4, scan=512)
    assert vb.value == pytest.approx(va.value, rel=1e-3)


@pytest.mark.parametrize("lam_factor", sorted(BUMP2_MU))
def test_polar_defaults_meet_the_radial_oracle(bump2, lam_factor):
    # the 2-D polar defaults: 48 x nodes per axis, sphere order 16, scan 224
    prof = LS.distribution_profile(bump2, 1.0, 3.0, [lam_factor * bump2.lip_bound])
    assert abs(prof.mu[0] - BUMP2_MU[lam_factor]) <= prof.err[0]


def test_pair_measure_mc_zero_field():
    q = LS.LevelSetQuery(zero_field(), 1.0, 2.0, 1.0)
    res = LS.pair_measure_mc(q, 2000, Q.RandomStream(3, 3))
    assert res.value == 0.0 and res.error_estimate == 0.0


def test_pair_measure_mc_matches_polar(bump1):
    lam = 2.0
    q = LS.LevelSetQuery(bump1, 1.0, 2.0, lam)
    polar = LS.pair_measure_polar(q, 256, 4, scan=512)
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
# nodes_used, at p = 1.  Recorded when the estimator began to scan one
# direction of each antipodal pair (half the sphere rule, doubled weights):
# against the full-sphere values before, the centrally symmetric rows
# (bump2, plateau2, bump3) moved by at most one ulp of the value (value and
# error estimate alike), the others by at most a third of the old error
# estimate; nodes_used halved.  bump3 re-pinned when the estimator began to
# build its own grid, always of Gauss order 8: it was recorded on an order-4
# grid (12 nodes per axis), and the old and new entry points agree on this
# order-8 grid (16 nodes per axis) bit for bit.
# lam = 4 lip_bound gives r_cap < 1, so x nodes in the grid corners lie
# farther than r_cap from the support; lam = lip_bound / 2 sits below it.
POLAR_GOLDENS = {
    ("bump2", 4.0): ("0x1.86dbb5fc19606p-1", "0x1.316ee59eeac80p-7", 286720),
    ("bump2", 0.5): ("0x1.54b1999e7c2b8p+2", "0x1.344abbe112800p-5", 286720),
    ("plateau2", 4.0): ("0x1.1a4ef64814802p-3", "0x1.dc00a49c76f40p-8", 286720),
    ("plateau2", 0.5): ("0x1.bff544b92c8bcp-1", "0x1.a557bca0690f8p-4", 286720),
    ("bumps2_pair", 4.0): ("0x1.4fcf8390aa2a4p-2", "0x1.1e290b5cc4a00p-10", 286720),
    ("bumps2_pair", 0.5): ("0x1.1ca9b6346633ep+1", "0x1.a0bec2c1dee40p-4", 286720),
    ("product2", 4.0): ("0x1.f39df2ee1504ap-2", "0x1.25b589de7c9e0p-5", 286720),
    ("product2", 0.5): ("0x1.ba4876fd8479ap+1", "0x1.7c15ad7f9abc0p-5", 286720),
    ("bump3", 4.0): ("0x1.0d3430cb2f6d2p+0", "0x1.7f665d319d800p-7", 3342336),
}
# (x nodes per axis, sphere order, scan) per dimension; the 2-D grid has 576
# x nodes and the 3-D one 4096, so both span several x chunks
GOLDEN_BUDGETS = {2: (24, 8, 96), 3: (16, 4, 48)}


class CountingField:
    """Delegates to a field; counts and hashes the points passed to `evaluate`
    and the nominal ray points of each block an `along` binding is read at."""

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

    def along(self, xs, ws):
        u = self.base.along(xs, ws)

        def counted(r, b=slice(None)):
            pts = np.moveaxis(xs[:, b, None] + ws[:, b, None] * r, 0, -1)
            self.points += pts.size // pts.shape[-1]
            self.digest.update(np.ascontiguousarray(pts, dtype=float).tobytes())
            return u(r, b)

        return counted


def _golden_polar(f, lam_factor):
    q = LS.LevelSetQuery(f, 1.0, f.dim + 1.0, lam_factor * f.lip_bound)
    return LS.pair_measure_polar(q, *GOLDEN_BUDGETS[f.dim])


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


def _full_sphere_polar(q, grid, sphere, scan):
    """pair_measure_polar's value and coarse-pass error summed over every
    node of `sphere`: the unfolded sum the hemisphere fold replaces."""
    f = q.field
    _, r_cap = F.pair_region(f, q.lam, q.alpha)

    def run(g, scan_n):
        pts, w = g.points_weights()
        m = LS._grid_measures(f, q.lam, q.alpha, pts, sphere.nodes, r_cap, scan_n)
        return float(np.sum(w * (m.reshape(pts.shape[0], -1) * sphere.weights).sum(axis=1)))

    value = run(grid, scan)
    coarse_scan = min(scan, max(64 if scan > 64 else 8, scan // 2))
    coarse = run(grid.coarsened(), coarse_scan)
    return value, abs(value - coarse)


# (x nodes per axis, sphere order, scan): the 1-D polar defaults, and the
# golden budgets above
FOLD_BUDGETS = {1: (256, 4, 768)} | GOLDEN_BUDGETS


def _fold_and_full(f, lam_factor):
    x_nodes, sphere_order, scan = FOLD_BUDGETS[f.dim]
    alpha = f.dim + 1.0
    lam = lam_factor * f.lip_bound
    grid = Q.centered_box_grid(F.pair_region(f, lam, alpha)[0], f.dim, x_nodes)
    q = LS.LevelSetQuery(f, 1.0, alpha, lam)
    sphere = Q.sphere_rule(f.dim, sphere_order)
    return (LS.pair_measure_polar(q, x_nodes, sphere_order, scan),
            _full_sphere_polar(q, grid, sphere, scan))


@pytest.mark.parametrize("name", ["bump1", "plateau1", "bump2", "plateau2", "bump3"])
@pytest.mark.parametrize("lam_factor", [4.0, 0.5])
def test_fold_equals_full_sphere_on_centrally_symmetric_fields(cat, name, lam_factor):
    # u(-x) = u(x) on an x grid symmetric about 0: the ray measures of w at x
    # and of -w at -x agree, so the hemisphere sum equals the full one up to
    # rounding, whatever r_cap is
    fold, (full, _) = _fold_and_full(cat[name], lam_factor)
    assert fold.value == pytest.approx(full, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("name", ["bump1_wide", "bumps1_pair", "bumps2_pair", "product2", "bump2_off"])
def test_fold_agrees_with_full_sphere_within_its_error(cat, name):
    # lam = 4 lip_bound gives r_cap < 1, where the x box holds both ends of
    # every member pair and the fold is exact up to quadrature error
    fold, (full, err) = _fold_and_full(cat[name], 4.0)
    assert abs(fold.value - full) <= err


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


@pytest.mark.parametrize("name, lam_factor", sorted(POLAR_GOLDENS))
def test_one_x_chunk_per_kernel_call_keeps_goldens(cat, monkeypatch, name, lam_factor):
    # the golden grids span 2 (2-D) and 4 (3-D) x chunks, which one kernel call
    # per pass takes at the default _SCAN_POINTS; one chunk per call must
    # give the same bits
    f = cat[name]
    calls = _record_scans(monkeypatch)
    _golden_polar(f, lam_factor)
    assert len(calls) == 2
    monkeypatch.setattr(LS, "_SCAN_POINTS", 1)
    calls.clear()
    res = _golden_polar(f, lam_factor)
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        POLAR_GOLDENS[name, lam_factor]
    x_nodes = GOLDEN_BUDGETS[f.dim][0]
    assert len(calls) == math.ceil(x_nodes ** f.dim / LS._X_CHUNK) + 1    # coarse pass: one chunk


def test_polar_2d_makes_one_kernel_call_per_pass(cat, monkeypatch):
    # the acceptance and benchmark 2-D budget: the fine and the coarse pass
    # each scan their rays in one call
    calls = _record_scans(monkeypatch)
    budgets = {"x_nodes": 36, "sphere_order": 12, "scan": 128}
    f = cat["plateau2"]
    LS.distribution_profile(f, 1.0, 3.0, LS.default_lambda_grid(f, 3), budgets=budgets)
    assert len(calls) == 2 * 3


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
    measures = LS._grid_measures(f, lam, 3.0, x, away, r_cap, 64)
    assert f.points == 0 and calls[-1][1].shape == (0, 2)
    assert not np.any(measures)
    # a ray toward the support that stops two margins short also evaluates nothing
    f = CountingField(bump2)
    short = x + [[2.0 * margin, 0.0]]
    measures = LS._grid_measures(f, lam, 3.0, short, toward, r_cap, 64)
    assert f.points == 0 and calls[-1][1].shape == (0, 2)
    assert not np.any(measures)
    # the ray that reaches the support boundary exactly at r_cap, where u
    # vanishes, is scanned (u(x) once, then its 64 ray points), as is one
    # that stops half a margin short; their measures are still zero
    for start in (x, x + [[0.5 * margin, 0.0]]):
        f = CountingField(bump2)
        measures = LS._grid_measures(f, lam, 3.0, start, np.vstack([away, toward]), r_cap, 64)
        ray_x, ray_w, (_, crossings, outer) = calls[-1]
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


def _assert_kernel_matches_reference(f, lam, alpha, X, W):
    half, r_cap = F.pair_region(f, lam, alpha)
    got = LS._grid_measures(f, lam, alpha, X, W, r_cap, 40)
    want, crossings = _parent_scan_measures(f, lam, alpha, X, W, r_cap, 40, 1e-10, f.dim)
    assert got.tobytes() == want.tobytes()
    assert np.any(want) and np.any(crossings)
    # crossing counts of every ray, pruned or not, from the unpruned kernel
    xs, ws = np.repeat(X, len(W), axis=0).T.copy(), np.tile(W, (len(X), 1)).T.copy()
    ux = np.repeat(f.evaluate(X), len(W))
    assert np.array_equal(LS._scan_rays(f, lam, alpha, xs, ws, ux, r_cap, 40, 1e-10)[1], crossings)


@pytest.mark.parametrize("name", F.catalogue_names())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_kernel_bitwise_equal_to_x_pruned_reference(cat, name, seed):
    f = cat[name]
    rng = np.random.default_rng(1000 * seed + len(name))
    n = f.dim
    lam = f.lip_bound * 10.0 ** rng.uniform(-1.0, 1.3)
    alpha = n + 1.0
    half, _ = F.pair_region(f, lam, alpha)
    X = rng.uniform(-half, half, size=(97, n))
    W = rng.normal(size=(7, n))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    W = np.vstack([W, np.eye(n)])     # axis directions: zero components
    _assert_kernel_matches_reference(f, lam, alpha, X, W)


def _polar_rays(f, lam, alpha):
    """A tensor grid of x nodes and a half sphere rule, as pair_measure_polar
    scans them: every (x_i, w_i) pair repeats across rays."""
    X, _ = Q.centered_box_grid(F.pair_region(f, lam, alpha)[0], f.dim, 36).points_weights()
    return X, Q.sphere_rule(f.dim, 12).half().nodes


@pytest.mark.parametrize("name", ["plateau2", "product2"])
@pytest.mark.parametrize("lam_factor", [4.0, 0.5])
def test_scan_kernel_bitwise_equal_to_x_pruned_reference_on_a_tensor_grid(cat, name, lam_factor):
    # separable fields read their profiles from per-pair tables on these rays;
    # the scanned rays span several blocks of the shared tables
    f = cat[name]
    lam, alpha = lam_factor * f.lip_bound, 3.0
    X, W = _polar_rays(f, lam, alpha)
    r_cap = F.pair_region(f, lam, alpha)[1]
    rays = np.count_nonzero(f.segments_meet_support(X, W, r_cap, 1e-9))
    assert rays > 2 * (LS._BLOCK_POINTS // 40)
    _assert_kernel_matches_reference(f, lam, alpha, X, W)


@pytest.mark.parametrize("name", F.catalogue_names(2))
def test_scan_block_size_keeps_every_bit(cat, monkeypatch, name):
    # 2^7 ray points make blocks of 3 rays: every binding is read on many slices
    f = cat[name]
    lam, alpha = 0.5 * f.lip_bound, 3.0
    X, W = _polar_rays(f, lam, alpha)
    r_cap = F.pair_region(f, lam, alpha)[1]
    want = LS._grid_measures(f, lam, alpha, X, W, r_cap, 40)
    monkeypatch.setattr(LS, "_BLOCK_POINTS", 2 ** 7)
    got = LS._grid_measures(f, lam, alpha, X, W, r_cap, 40)
    assert got.tobytes() == want.tobytes()
    assert np.any(want)


def test_separable_scan_evaluates_each_axis_pair_once(cat, monkeypatch):
    f = cat["plateau2"]
    lam, alpha, scan = 0.5 * f.lip_bound, 3.0, 64
    r_cap = F.pair_region(f, lam, alpha)[1]
    calls = {id(p): [] for p in f.profiles}      # points per profile jet call
    counting = [True]
    jet, bisect = F._Window1D.jet, LS._bisect_crossings

    def counted_jet(self, t, order=0):
        if counting[0]:
            calls[id(self)].append(np.size(t))
        return jet(self, t, order)

    def uncounted_bisect(*args):
        # the bisection reads per-ray radii, never a table: count the scan only
        counting[0] = False
        try:
            return bisect(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(F._Window1D, "jet", counted_jet)
    monkeypatch.setattr(LS, "_bisect_crossings", uncounted_bisect)

    def scan_calls(xs, ws):
        ux = f.evaluate(xs.T)
        for c in calls.values():
            c.clear()
        LS._scan_rays(f, lam, alpha, xs, ws, ux, r_cap, scan, 1e-10)
        return [calls[id(p)] for p in f.profiles]

    # polar-grid rays: per axis at most (distinct (x_i, w_i) pairs) x scan points
    X, W = _polar_rays(f, lam, alpha)
    xs, ws = np.repeat(X, len(W), axis=0).T.copy(), np.tile(W, (len(X), 1)).T.copy()
    k = xs.shape[1]
    pairs = [len(set(zip(xs[i].tolist(), ws[i].tolist()))) for i in range(f.dim)]
    assert all(2 * n <= k for n in pairs)
    assert all(0 < sum(c) <= n * scan for c, n in zip(scan_calls(xs, ws), pairs))
    # random rays repeat no pair: no table, each block's points evaluated once
    rng = np.random.default_rng(5)
    k = 500
    xs, ws = rng.uniform(-1.0, 1.0, (f.dim, k)), rng.normal(size=(f.dim, k))
    block = LS._BLOCK_POINTS // scan
    assert k > block
    blocks = [min(block, k - b0) * scan for b0 in range(0, k, block)]
    assert scan_calls(xs, ws) == [blocks] * f.dim


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
    # 2 panels (16 nodes per axis) and 48 scan nodes: the coarse pass used to
    # keep the 2 panels and raise the scan to 64, reporting an error of 2.6e-12
    q = LS.LevelSetQuery(cat["bump3"], 1.0, 4.0, 4.0 * cat["bump3"].lip_bound)
    nw = Q.sphere_rule(3, 4).nodes.shape[0]
    res = LS.pair_measure_polar(q, 16, 4, scan=48)
    assert res.error_estimate > 1e-2 * res.value
    assert res.nodes_used == (16 ** 3 * nw * 48 + 8 ** 3 * nw * 24) // 2   # hemisphere
    # a fine pass already at the scan floor of 8 nodes has no coarser pass
    # and never reports converged
    assert not LS.pair_measure_polar(q, 16, 4, scan=8).converged


# ---------------------------------------------------------------------------
# goldens: pair sampling, recorded before the samplers were shared
# ---------------------------------------------------------------------------

# sha256 prefix of every (x, w) pair verify_sandwich(f, p, 10 lip_bound, 12,
# 0.5, RandomStream(62, 3), scan=64) hands to the scan kernel, x then w per
# ray, which pins the sampled x and w bit for bit; every violation count is
# 0.  Recorded on the one-ray path (`radial_levelset`, one call per ray)
# that the batched kernel call replaced; bump2 and bump3 re-recorded when the
# sampler's 2-D and 3-D directions became the tangent formula of
# `quadrature._unit_vectors` (still no violation).
SANDWICH_GOLDENS = {
    ("bump1", 1.0): "0b75504ff9c0c74a",
    ("bump2", 2.0): "d7c40a1738a695dc",
    ("bump3", 2.0): "8ba4302a84f23ffa",
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
    # re-recorded with the tangent-formula directions: 5.4263 +- 0.0999 before,
    # 5.2921 +- 0.0987 now, 0.96 combined standard errors apart
    q = LS.LevelSetQuery(bump2, 1.0, 3.0, 0.5 * bump2.lip_bound)
    res = LS.pair_measure_mc(q, 40_000, Q.RandomStream(5, 7))
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        ("0x1.52b1783271510p+2", "0x1.945e9fe9761acp-4", 40_000)


@pytest.mark.parametrize("name", ["bump2", "bump3"])
def test_pair_measure_mc_bitwise_across_workers(cat, name):
    # 150k samples make five Monte Carlo chunks, split across 1, 2 and 5 workers
    f = cat[name]
    q = LS.LevelSetQuery(f, 2.0, 2.0, 0.5 * f.lip_bound)
    got = {(r.value.hex(), r.error_estimate.hex())
           for r in (LS.pair_measure_mc(q, 150_000, Q.RandomStream(8, 2), workers=w)
                     for w in (1, 2, 5))}
    assert len(got) == 1


def test_polar_budgets_fill_defaults_and_keep_overrides():
    assert Q.split_budgets(1, None, "polar") == [{"x_nodes": 256, "sphere_order": 16, "scan": 768}]
    given = {"scan": 96}
    (filled,) = Q.split_budgets(3, given, "polar")
    assert filled == {"x_nodes": 48, "sphere_order": 16, "scan": 96}
    assert given == {"scan": 96}
    # a key the polar estimator does not take is named, with the keys it takes
    with pytest.raises(InvalidParameterError) as err:
        Q.split_budgets(3, {"scan": 96, "mc_samples": 5000, "scna": 64}, "polar")
    msg = str(err.value)
    assert "'mc_samples', 'scna'" in msg and "'scan'" not in msg
    assert "polar takes x_nodes, sphere_order, scan" in msg


def test_split_budgets_sends_each_key_to_the_first_estimator_that_takes_it():
    gag, weak, polar = Q.split_budgets(1, {"x_nodes": 64, "refine": 2, "scan": 128},
                                       "gagliardo", "weak", "polar")
    assert gag == {"x_nodes": 64, "sphere_order": 16}
    assert weak == {"lambda_points": 32, "refine": 2}
    assert polar == {"x_nodes": 256, "sphere_order": 16, "scan": 128}
    assert Q.split_budgets(2, {}, "gagliardo", "mc") == [
        {"x_nodes": 40, "sphere_order": 16},
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
