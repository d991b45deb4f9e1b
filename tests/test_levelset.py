import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from weaklp import covering as C
from weaklp import fields as F
from weaklp import levelset as LS
from weaklp import quadrature as Q
from weaklp import seminorms as S
from weaklp.errors import InvalidParameterError, PreconditionError
from weaklp.experiments import SANDWICH_TOL

from oracles import BUMP2_MU, BUMP3_MU, JUMP_LAM_MU, JUMP_SMOOTH_LIMIT, rotated

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

    def segments_meet_support(self, X, W, length):
        return np.ones(np.broadcast_shapes(np.shape(X)[:-1], np.shape(W)[:-1]), dtype=bool)


def zero_field():
    return F.make_bump([0.0], 1.0, 0.0)


def _scan_one_ray(f, lam, alpha, x, w, scan=1024):
    """(measure, crossings, outer, r_cap) of the one ray x + r w, 0 < r <= r_cap."""
    xs = np.array([x], dtype=float).T
    ws = np.array([w], dtype=float).T
    r_cap = LS.truncation_radius(f, lam, alpha)
    m, c, outer = LS._scan_rays(f, lam, alpha, xs, ws, r_cap, scan, LS._HALVINGS)
    return m[0], c[0], outer[0], r_cap


def test_scan_rays_zero_field_empty():
    z = zero_field()
    xs = np.array([[-0.5, 0.0, 0.7]])
    ws = np.array([[1.0, -1.0, 1.0]])
    m, c, outer = LS._scan_rays(z, 1.0, 2.0, xs, ws, 1.0, 64, LS._HALVINGS)
    assert not np.any(m) and not np.any(c) and not np.any(outer)


def test_scan_rays_linear_stretch():
    # g r >= lam r^2 exactly when r <= g/lam; here g = 1, lam = 2, r0 = 1, so
    # the one run is (0, 0.5]: it reaches r_cap = lip_bound / lam = 0.5 ...
    m, c, outer, r_cap = _scan_one_ray(RampStub(), 2.0, 2.0, [0.0], [1.0])
    assert r_cap == 0.5 and outer == r_cap and c == 0 and m == r_cap
    # ... or ends at a solved down-crossing inside a longer scan: r = 0.5 is a
    # scan point where g = 0, which the regula-falsi step returns exactly
    ramp = RampStub()
    ramp.lip_bound = 4.0
    m, c, outer, r_cap = _scan_one_ray(ramp, 2.0, 2.0, [0.0], [1.0])
    assert r_cap == 2.0 and c == 1
    assert outer == pytest.approx(0.5, abs=1e-9)
    assert m == outer     # the run starts at 0+


def test_scan_rays_takes_an_empty_ray_list():
    empty = np.empty((1, 0))
    m, c, outer = LS._scan_rays(RampStub(), 1.0, 2.0, empty, empty, 1.0, 64, LS._HALVINGS)
    assert m.shape == c.shape == outer.shape == (0,)


def test_scan_rays_crossings_in_the_first_and_last_cell():
    # u(r w) - u(0) = min(r w, 1) >= r^2 exactly when r <= w (here w <= 1): on
    # r_k = k/64, k = 1..64, a run ending in the first cell (1/64, 2/64], none,
    # and one ending in the last cell (63/64, 1]; each crossing must pair with
    # its own ray (30 halvings: final brackets of 2^-36)
    w = np.array([[1.5 / 64, 0.0, 63.5 / 64]])
    m, c, outer = LS._scan_rays(RampStub(), 1.0, 2.0, np.zeros((1, 3)), w, 1.0, 64, 30)
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
    lower, _ = LS.sandwich_bounds(bump1, 1.0, 10 * bump1.lip_bound, [0.0], [1.0], 0.5)
    assert lower == 0.0


def test_sandwich_formula_1d(bump1):
    lam = 10 * bump1.lip_bound
    x = np.array([0.5])
    g = abs(bump1.gradient(x[None, :])[0, 0])
    lower, _ = LS.sandwich_bounds(bump1, 1.0, lam, x, [1.0], 0.5)
    expected = min(g / (2 * bump1.hess_bound), g / (2 * lam))
    assert lower == pytest.approx(expected, rel=1e-12)


def test_sandwich_requires_large_lambda(bump1):
    with pytest.raises(PreconditionError):
        LS.sandwich_bounds(bump1, 1.0, 0.5 * bump1.lip_bound, [0.5], [1.0], 0.5)


def test_sandwich_degenerate_delta_near_one(bump1):
    lower, _ = LS.sandwich_bounds(bump1, 1.0, 10 * bump1.lip_bound, [0.5], [1.0], 1 - 1e-9)
    assert lower <= 1e-6


@pytest.mark.parametrize("name", ["bump1", "bump2_off", "plateau2"])
def test_sandwich_bounds_rows_match_single_points(cat, name):
    # one call on (k, N) rows gives every row's radii, bit for bit
    f = cat[name]
    rng = np.random.default_rng(7)
    xs = rng.uniform(-f.support_radius - 1.5, f.support_radius + 1.5, (40, f.dim))
    ws = rng.normal(size=(40, f.dim))
    ws /= np.linalg.norm(ws, axis=1, keepdims=True)
    lam = 10 * f.lip_bound
    lower, upper = LS.sandwich_bounds(f, 2.0, lam, xs, ws, 0.25)
    assert lower.shape == upper.shape == (40,)
    assert np.count_nonzero(lower > 0.0) > 0
    for x, w, lo, up in zip(xs, ws, lower, upper):
        one_lower, one_upper = LS.sandwich_bounds(f, 2.0, lam, x, w, 0.25)
        assert (one_lower[0].hex(), one_upper[0].hex()) == (lo.hex(), up.hex())


def test_verify_sandwich_zero_field_vacuous():
    rec = LS.verify_sandwich(zero_field(), 1.0, 1.0, 50, 0.5, Q.RandomStream(1, 0))
    # no run and a zero outer radius on every ray; no ray has an inner radius
    assert rec["worst_upper_excess"] == 0.0 and rec["worst_lower_shortfall"] == -math.inf
    assert rec["rays_with_members"] == rec["rays_with_inner_radius"] == 0


@pytest.mark.parametrize("name", ["bump1", "plateau1", "bumps1_pair", "bump2"])
def test_verify_sandwich_no_violations(cat, name):
    f = cat[name]
    rec = LS.verify_sandwich(f, 1.0, 10 * f.lip_bound, 300, 0.25, Q.RandomStream(7, 1))
    assert rec["worst_upper_excess"] <= SANDWICH_TOL
    assert -math.inf < rec["worst_lower_shortfall"] <= SANDWICH_TOL


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


@pytest.mark.parametrize("p", sorted(BUMP3_MU))
def test_mc_profile_meets_the_bump3_radial_oracle(cat, p):
    # the pinned thresholds of one 150k-sample profile, z within 4 of the
    # exact values (at most 2.0 on this seed, A3's)
    f = cat["bump3"]
    factors = sorted(BUMP3_MU[p])
    prof = _mc_profile(f, p, [k * f.lip_bound for k in factors], 150_000, seed=31)
    z = (prof.mu - [BUMP3_MU[p][k] for k in factors]) / prof.err
    assert np.all(np.abs(z) <= 4.0), z


def test_a_jump_reads_half_the_smooth_limit():
    # a mollified indicator of [-1, 1] reads the jump identity at lam = 1
    # (d = 1 is 50 mollifier widths) and the W^{1,1} limit at lam = 1e5
    # (d = 0.003 lies inside the mollified edges); the mollifier moves the
    # first by 1.7%
    f = F.make_mollified_indicator([[-1.0, 1.0]], 0.02)
    for lam, want in ((1.0, JUMP_LAM_MU), (1e5, JUMP_SMOOTH_LIMIT)):
        res = LS.pair_measure_polar(LS.LevelSetQuery(f, 1.0, 2.0, lam), 1024, 16, 1024)
        assert res.converged
        assert lam * res.value == pytest.approx(want, rel=0.02)


def test_a_one_point_scan_is_rejected(bump2):
    # one scan point brackets no crossing: this profile read mu 0 with error
    # 0 (the true value is 0.77), and weak_quasinorm did not flag it
    with pytest.raises(InvalidParameterError, match="budgets.scan must be an integer >= 2"):
        LS.distribution_profile(bump2, 1.0, 3.0, [4.0 * bump2.lip_bound],
                                budgets={"scan": 1, "x_nodes": 36, "sphere_order": 12})
    q = LS.LevelSetQuery(bump2, 1.0, 3.0, 4.0 * bump2.lip_bound)
    with pytest.raises(InvalidParameterError, match="scan must be >= 2"):
        LS.pair_measure_polar(q, 36, 12, scan=1)
    assert LS.pair_measure_polar(q, 16, 4, scan=2).value > 0.0


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


def _mc_profile(f, p, grid, n, seed=5, workers=1):
    return LS.distribution_profile(f, p, f.dim / p + 1.0, grid, estimator="mc",
                                   budgets={"mc_samples": n}, stream=Q.RandomStream(seed),
                                   workers=workers)


@pytest.mark.parametrize("name", ["bump1", "bump2", "bump3"])
def test_pair_measure_mc_equals_the_profile_at_each_threshold(cat, name):
    # one driver: a one-threshold call, the profile's refinement estimator and
    # the profile read the same unit pairs of the stream, so they agree bit for bit
    f = cat[name]
    grid = LS.default_lambda_grid(f, 12)
    prof = _mc_profile(f, 1.5, grid, 40_000)
    assert np.all(prof.mu > 0)
    for lam, mu, err in zip(grid, prof.mu, prof.err):
        q = LS.LevelSetQuery(f, 1.5, f.dim / 1.5 + 1.0, lam)
        for res in (LS.pair_measure_mc(q, 40_000, Q.RandomStream(5)), prof._estimator(lam)):
            assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
                (mu.hex(), err.hex(), 40_000)


def test_weak_quasinorm_refines_an_mc_profile_alike_across_workers(cat):
    # 40k samples make two chunks, which two workers split
    f = cat["bump3"]
    grid = LS.default_lambda_grid(f, 12)
    profs = [_mc_profile(f, 2.0, grid, 40_000, workers=w) for w in (1, 2)]
    sups = [LS.weak_quasinorm(pr, refine=2) for pr in profs]
    assert sups[0].hex() == sups[1].hex()
    assert sups[0] >= np.max(profs[0].lam_pow_p_mu)


def test_mc_profile_of_the_zero_field_reads_zero_and_checks_its_inputs():
    grid = np.geomspace(0.1, 100.0, 6)
    prof = _mc_profile(zero_field(), 1.0, grid, 2000)
    assert np.all(prof.mu == 0.0) and np.all(prof.err == 0.0)
    with pytest.raises(InvalidParameterError, match="at least 1e3 samples"):
        _mc_profile(zero_field(), 1.0, grid, 999)
    with pytest.raises(InvalidParameterError, match="needs a RandomStream"):
        LS.distribution_profile(zero_field(), 1.0, 2.0, grid, estimator="mc")


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


@pytest.mark.parametrize("refine", range(6))
def test_weak_quasinorm_makes_refine_estimator_calls(bump1_profile, refine):
    # each refinement step is one estimator call, and a smaller refine
    # evaluates a prefix of a larger one's golden-section sequence
    def counted(calls):
        def estimator(lam):
            calls.append(lam)
            return bump1_profile._estimator(lam)
        return dataclasses.replace(bump1_profile, _estimator=estimator)

    calls, longest = [], []
    LS.weak_quasinorm(counted(calls), refine=refine)
    LS.weak_quasinorm(counted(longest), refine=5)
    assert len(calls) == refine
    assert calls == longest[:refine]


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
# order-8 grid (16 nodes per axis) bit for bit.  Re-pinned when the crossing
# solve became 10 halvings of each scan bracket and a regula-falsi step:
# every value moved by at most 8.7e-10 relative and lies within 8.6e-10 of a
# 40-halving bisection (the bisection to 1e-10 before lay within 6.4e-11),
# the error estimates by at most 2.7e-7; a test below checks the reference
# bound and that every crossing lies in its final bracket.
# lam = 4 lip_bound gives r_cap < 1, so x nodes in the grid corners lie
# farther than r_cap from the support; lam = lip_bound / 2 sits below it.
POLAR_GOLDENS = {
    ("bump2", 4.0): ("0x1.86dbb5fb20e6bp-1", "0x1.316ee53b6b200p-7", 286720),
    ("bump2", 0.5): ("0x1.54b1999d6115bp+2", "0x1.344abaa627d80p-5", 286720),
    ("plateau2", 4.0): ("0x1.1a4ef646d3e36p-3", "0x1.dc00a456bfda0p-8", 286720),
    ("plateau2", 0.5): ("0x1.bff544b7f72ccp-1", "0x1.a557bca8029f8p-4", 286720),
    ("bumps2_pair", 4.0): ("0x1.4fcf838ef7d2dp-2", "0x1.1e290d1b49e00p-10", 286720),
    ("bumps2_pair", 0.5): ("0x1.1ca9b632d41ebp+1", "0x1.a0bec2eaf76c0p-4", 286720),
    ("product2", 4.0): ("0x1.f39df2ec18f8bp-2", "0x1.25b589f0ffea8p-5", 286720),
    ("product2", 0.5): ("0x1.ba4876fb57cdap+1", "0x1.7c15ac8234880p-5", 286720),
    ("bump3", 4.0): ("0x1.0d3430c73deabp+0", "0x1.7f6663d510380p-7", 3342336),
}
# (x nodes per axis, sphere order, scan) per dimension; the 2-D grid has 576
# x nodes and the 3-D one 4096, so both span several x chunks
GOLDEN_BUDGETS = {2: (24, 8, 96), 3: (16, 4, 48)}


class CountingField:
    """Delegates to a field; counts and hashes the points passed to `evaluate`
    and the nominal ray points of each block an `along` binding is read at,
    and keeps the points `evaluate` reads and the rays each `along` binds, as
    (k, N) x and w rows."""

    def __init__(self, base):
        self.base = base
        self.points = 0
        self.digest = hashlib.sha256()
        self.evaluated, self.bound = [], []

    def __getattr__(self, name):
        return getattr(self.base, name)

    def evaluate(self, pts):
        pts = np.asarray(pts)
        self.points += pts.size // pts.shape[-1]
        self.digest.update(np.ascontiguousarray(pts, dtype=float).tobytes())
        self.evaluated.append(pts.reshape(-1, pts.shape[-1]).copy())
        return self.base.evaluate(pts)

    def along(self, xs, ws):
        self.bound.append((xs.T.copy(), ws.T.copy()))
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
        m = _grid_measures(f, q.lam, q.alpha, pts, sphere.nodes, r_cap, scan_n)
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


def _grid_rays(X, W):
    """The (N, nx*nw) axis-major rays of the (x, w) grid, x-major, as
    pair_measure_polar hands them to the kernel."""
    return np.repeat(X.T, len(W), axis=1), np.tile(W.T, len(X))


def _grid_measures(f, lam, alpha, X, W, r_cap, scan):
    """Measure of every (x, w) cell, (nx*nw,): one scan of the grid's ray
    list and its own solve, as pair_measure_polar makes them."""
    cells = np.zeros(len(X) * len(W))
    br = LS._ray_brackets(f, lam, alpha, *_grid_rays(X, W), r_cap, scan)
    LS._solve_into(f, lam, alpha, [(cells, br)])
    return cells


def _record_scans(monkeypatch):
    """Wrap `_ray_brackets`; each scan appends the (k, N) x and w rows of the
    rays it is handed, pruned or not, and its `_Brackets`."""
    calls = []
    ray_brackets = LS._ray_brackets

    def recording(f, lam, alpha, xs, ws, *rest):
        out = ray_brackets(f, lam, alpha, xs, ws, *rest)
        calls.append((xs.T.copy(), ws.T.copy(), out))
        return out

    monkeypatch.setattr(LS, "_ray_brackets", recording)
    return calls


def _record_solves(monkeypatch):
    """Wrap `_bisect_crossings`; each solve appends its bracket count."""
    calls = []
    solve = LS._bisect_crossings

    def recording(f, lam, alpha, xs, ws, uxs, lo, *rest):
        calls.append(lo.size)
        return solve(f, lam, alpha, xs, ws, uxs, lo, *rest)

    monkeypatch.setattr(LS, "_bisect_crossings", recording)
    return calls


@pytest.mark.parametrize("name, lam_factor", sorted(POLAR_GOLDENS))
def test_one_x_chunk_per_kernel_call_keeps_goldens(cat, monkeypatch, name, lam_factor):
    # the golden grids span 2 (2-D) and 4 (3-D) x chunks, which one scan per
    # pass takes at the default _SCAN_POINTS; one chunk per scan must give the
    # same bits, and both ways the call solves all its brackets at once
    f = cat[name]
    calls, solves = _record_scans(monkeypatch), _record_solves(monkeypatch)
    _golden_polar(f, lam_factor)
    assert len(calls) == 2 and len(solves) == 1
    assert solves[0] == sum(br.lo.size for *_, br in calls)
    monkeypatch.setattr(LS, "_SCAN_POINTS", 1)
    calls.clear()
    solves.clear()
    res = _golden_polar(f, lam_factor)
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        POLAR_GOLDENS[name, lam_factor]
    x_nodes = GOLDEN_BUDGETS[f.dim][0]
    assert len(calls) == math.ceil(x_nodes ** f.dim / LS._X_CHUNK) + 1    # coarse pass: one chunk
    assert len(solves) == 1
    # a solve of at most one bracket at a time moves no bit either
    monkeypatch.setattr(LS, "_SOLVE_BRACKETS", 1)
    solves.clear()
    res = _golden_polar(f, lam_factor)
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        POLAR_GOLDENS[name, lam_factor]
    assert len(solves) > 1


def test_polar_2d_makes_one_kernel_call_per_pass(cat, monkeypatch):
    # the acceptance and benchmark 2-D budget: the fine and the coarse pass
    # each scan their rays in one call, and each estimate solves the brackets
    # of both passes in one call
    calls, solves = _record_scans(monkeypatch), _record_solves(monkeypatch)
    budgets = {"x_nodes": 36, "sphere_order": 12, "scan": 128}
    f = cat["plateau2"]
    LS.distribution_profile(f, 1.0, 3.0, LS.default_lambda_grid(f, 3), budgets=budgets)
    assert len(calls) == 2 * 3 and len(solves) == 3
    assert solves == [sum(br.lo.size for *_, br in calls[j : j + 2]) for j in (0, 2, 4)]


def test_scan_far_from_support_is_zero_without_evaluation(bump2, monkeypatch):
    calls = _record_scans(monkeypatch)
    lam = 4.0 * bump2.lip_bound
    r_cap = LS.truncation_radius(bump2, lam, 3.0)
    R = bump2.support_radius
    margin = F._PRUNE_MARGIN * (r_cap + R)
    x = np.array([[R + r_cap, 0.0]])
    # from x, rays away from or across the support miss it by at least r_cap
    away = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [math.sqrt(0.5)] * 2])
    toward = np.array([[-1.0, 0.0]])
    f = CountingField(bump2)
    measures = _grid_measures(f, lam, 3.0, x, away, r_cap, 64)
    assert f.points == 0 and all(w.shape == (0, 2) for _, w in f.bound)
    assert calls[-1][1].shape == (4, 2) and calls[-1][2].last.shape == (4,)
    assert not np.any(measures)
    # a ray toward the support that stops two margins short also evaluates nothing
    f = CountingField(bump2)
    short = x + [[2.0 * margin, 0.0]]
    measures = _grid_measures(f, lam, 3.0, short, toward, r_cap, 64)
    assert f.points == 0 and all(w.shape == (0, 2) for _, w in f.bound)
    assert not np.any(measures)
    # the ray that reaches the support boundary exactly at r_cap, where u
    # vanishes, is scanned (u(x) once, then its 64 ray points in float32 and
    # its two ends again in float64), as is one that stops half a margin
    # short; their measures are still zero
    for start in (x, x + [[0.5 * margin, 0.0]]):
        f = CountingField(bump2)
        measures = _grid_measures(f, lam, 3.0, start, np.vstack([away, toward]), r_cap, 64)
        brackets = calls[-1][2]
        assert [(bx.tolist(), bw.tolist()) for bx, bw in f.bound] == [(start.tolist(), toward.tolist())]
        assert f.points == 1 + 64 + 2
        assert not np.any(measures) and brackets.lo.size == 0
        assert not np.any(brackets.last)      # no member on the scanned ray


@pytest.mark.parametrize("name", ["bump1", "plateau2", "bumps2_pair", "bump3"])
@pytest.mark.parametrize("lam_factor", [10.0, 100.0])
def test_verify_sandwich_draws_x_from_the_pair_region(cat, monkeypatch, name, lam_factor):
    # every x the kernel is handed lies in pair_region's ball, of radius
    # support_radius + r_cap
    calls = _record_scans(monkeypatch)
    f = cat[name]
    lam = lam_factor * f.lip_bound
    LS.verify_sandwich(f, 1.0, lam, 200, 0.5, Q.RandomStream(2024, 1))
    ((xs, _, _),) = calls
    half, r_cap = F.pair_region(f, lam, f.dim + 1.0)
    assert r_cap < 1.0 and half == f.support_radius + r_cap
    radii = np.sqrt(F._sum_squares(xs))
    assert np.max(radii) <= half * (1.0 + 4 * np.finfo(float).eps)


@pytest.mark.parametrize("lam_factor, delta, error", [
    (10.0, 1.5, InvalidParameterError), (10.0, 0.0, InvalidParameterError), (0.5, 0.5, PreconditionError),
])
def test_verify_sandwich_rejects_before_any_scan(bump2, monkeypatch, lam_factor, delta, error):
    calls = _record_scans(monkeypatch)
    with pytest.raises(error):
        LS.verify_sandwich(bump2, 1.0, lam_factor * bump2.lip_bound, 50, delta, Q.RandomStream(1, 0))
    assert calls == []


@pytest.mark.parametrize("name", ["bump1", "bump2_off", "plateau2", "bumps2_pair"])
def test_verify_sandwich_reads_no_point_on_rays_that_miss_the_support(cat, monkeypatch, name):
    # its kernel call binds and reads only the rays the support test keeps,
    # and the sandwich reads u(x) itself only where a ray has an inner radius
    calls = _record_scans(monkeypatch)
    f = CountingField(cat[name])
    lam = 10.0 * f.lip_bound
    LS.verify_sandwich(f, 1.0, lam, 300, 0.5, Q.RandomStream(7, 1))
    ((xs, ws, _),) = calls
    meets = f.segments_meet_support(xs, ws, LS.truncation_radius(f, lam, f.dim + 1.0))
    assert 0 < np.count_nonzero(meets) < 300
    kept = {(tuple(x), tuple(w)) for x, w in zip(xs[meets], ws[meets])}
    bound = [(tuple(x), tuple(w)) for b in f.bound for x, w in zip(*b)]
    assert len(f.bound[0][0]) == len(kept) and kept.issuperset(bound)
    missed = {tuple(x) for x in xs[~meets]}
    assert not missed.intersection(tuple(p) for pts in f.evaluated for p in pts)


def _parent_bisection(f, xs, ws, uxs, lam, alpha, lo, hi, iters):
    """The plain bisection the crossing solve replaced, kept as a reference:
    the final bracket (lo, hi] after `iters` halvings, read through
    `evaluate`.  Its midpoint was the crossing, at 17-30 halvings."""

    def member(r):
        return np.abs(f.evaluate((xs + r * ws).T) - uxs) - lam * r ** alpha >= 0.0

    up = member(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same = member(mid) == up
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return lo, hi


def _reference_crossings(f, lam, alpha, xs, ws, uxs, lo, hi, inside, halvings):
    """`_bisect_crossings`'s signature on the reference: the midpoint of the
    final bracket after _REFERENCE_HALVINGS plain halvings."""
    return 0.5 * np.add(*_parent_bisection(f, xs, ws, uxs, lam, alpha, lo, hi, _REFERENCE_HALVINGS))


_REFERENCE_HALVINGS = 40


def _parent_scan_measures(f, lam, alpha, X, W, r_cap, scan, n_dim):
    """The scan kernel before ray-level pruning: it skips only x nodes farther
    than r_cap from the centered support ball and scans every ray of the rest,
    through `evaluate`; it hands its brackets to the kernel's solve."""
    nx, nw = X.shape[0], W.shape[0]
    r = np.linspace(r_cap / scan, r_cap, scan)
    lam_r = lam * r ** alpha
    member = np.zeros((nx, nw, scan), dtype=bool)
    margin = 1e-9 * (r_cap + f.support_radius)
    ball_distance = np.maximum(np.sqrt(F._sum_squares(X)) - f.support_radius, 0.0)
    live = np.flatnonzero(ball_distance <= r_cap + margin)
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
    xi = cell // nw
    r_cross = LS._bisect_crossings(
        f, lam, alpha, X.T[:, xi], W.T[:, cell % nw], ux[xi], r[i], r[i + 1], ~up, LS._HALVINGS
    )
    acc = np.zeros(nx * nw)
    np.subtract.at(acc, cell[up], r_cross[up] ** n_dim)
    np.add.at(acc, cell[~up], r_cross[~up] ** n_dim)
    acc[member[:, -1]] += r_cap ** n_dim
    return acc / n_dim, np.bincount(cell, minlength=nx * nw)


def _assert_kernel_matches_reference(f, lam, alpha, X, W):
    half, r_cap = F.pair_region(f, lam, alpha)
    got = _grid_measures(f, lam, alpha, X, W, r_cap, 40)
    want, crossings = _parent_scan_measures(f, lam, alpha, X, W, r_cap, 40, f.dim)
    assert got.tobytes() == want.tobytes()
    assert np.any(want) and np.any(crossings)
    # crossing counts of every ray, pruned or not, from one scan and solve
    assert np.array_equal(LS._scan_rays(f, lam, alpha, *_grid_rays(X, W), r_cap, 40, LS._HALVINGS)[1],
                          crossings)


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
    rays = np.count_nonzero(f.segments_meet_support(X[:, None], W[None], r_cap))
    assert rays > 2 * (LS._BLOCK_POINTS // 40)
    _assert_kernel_matches_reference(f, lam, alpha, X, W)


@pytest.mark.parametrize("name", F.catalogue_names(2))
def test_scan_block_size_keeps_every_bit(cat, monkeypatch, name):
    # 2^7 ray points make blocks of 3 rays: every binding is read on many slices
    f = cat[name]
    lam, alpha = 0.5 * f.lip_bound, 3.0
    X, W = _polar_rays(f, lam, alpha)
    r_cap = F.pair_region(f, lam, alpha)[1]
    want = _grid_measures(f, lam, alpha, X, W, r_cap, 40)
    monkeypatch.setattr(LS, "_BLOCK_POINTS", 2 ** 7)
    got = _grid_measures(f, lam, alpha, X, W, r_cap, 40)
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
        # u(x) is read first, in one call on the kept rays; the scan follows
        for c in calls.values():
            c.clear()
        LS._scan_rays(f, lam, alpha, xs, ws, r_cap, scan, LS._HALVINGS)
        assert all(calls[id(p)][0] == xs.shape[1] for p in f.profiles)
        return [calls[id(p)][1:] for p in f.profiles]

    # polar-grid rays that meet the support: per axis at most (distinct
    # (x_i, w_i) pairs) x scan points
    xs, ws = _grid_rays(*_polar_rays(f, lam, alpha))
    meets = f.segments_meet_support(xs.T, ws.T, r_cap)
    xs, ws = xs[:, meets], ws[:, meets]
    k = xs.shape[1]
    pairs = [len(set(zip(xs[i].tolist(), ws[i].tolist()))) for i in range(f.dim)]
    assert all(2 * n <= k for n in pairs)
    assert all(0 < sum(c) <= n * scan for c, n in zip(scan_calls(xs, ws), pairs))
    # random rays repeat no pair: no table, each block's points evaluated once
    rng = np.random.default_rng(5)
    xs, ws = rng.uniform(-1.0, 1.0, (f.dim, 500)), rng.normal(size=(f.dim, 500))
    meets = f.segments_meet_support(xs.T, ws.T, r_cap)
    xs, ws = xs[:, meets], ws[:, meets]
    k = xs.shape[1]
    block = LS._BLOCK_POINTS // scan
    assert k > block
    blocks = [min(block, k - b0) * scan for b0 in range(0, k, block)]
    assert scan_calls(xs, ws) == [blocks] * f.dim


# Per (field, lam / lip_bound) at p = 1, for the 200 rays of `_golden_rays`:
# a sha256 prefix over "outer.hex():crossings;" of every ray, and the rays
# with two membership runs with their (outer.hex(), crossings).  Recorded with
# the one-ray path the ray-list kernel replaced (`radial_levelset`: the
# largest interval end, 0 without runs, at scan 256 and tol 1e-10), and
# re-pinned at scan 256 when the crossing solve became 10 halvings and a
# regula-falsi step: no crossing count changed, every outer end lies within
# 1.6e-10 r_cap of a 40-halving bisection and each two-run outer end within
# 3.0e-10 relative (`test_solve_matches_a_tight_bisection_on_the_golden_rays`).
RAY_GOLDENS = {
    ("bump1", 0.5): ("f01dbe65c7517f31", {30: ("0x1.df96054236309p-1", 3),
                                          42: ("0x1.d85fa584f91f4p-1", 3),
                                          123: ("0x1.c7fedee533a5ap-1", 3)}),
    ("bumps1_pair", 0.5): ("317516aa22679d55", {73: ("0x1.b1709eb44826ep-2", 3),
                                                156: ("0x1.1af3dfcbbfe8ep-1", 3)}),
    ("bumps2_pair", 0.5): ("1938dcedc019a2fb", {54: ("0x1.58a8e9a86df92p-1", 3),
                                                181: ("0x1.386ea348a14cep-1", 3)}),
    ("plateau2", 0.5): ("d360021fa2226014", {182: ("0x1.e1ef5631e7617p-2", 3)}),
    ("product2", 0.5): ("7e15b7f66ba821c7", {46: ("0x1.373f0fd9dc08ep-1", 3),
                                             182: ("0x1.58d29e5ecd596p-1", 3)}),
    ("bump3", 8.0): ("cd60deab33a17d19", {80: ("0x1.4f86c62d5353cp-3", 3)}),
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
    _, crossings, outer = LS._scan_rays(f, lam, alpha, xs.T, ws.T, r_cap, 256, LS._HALVINGS)
    digest = hashlib.sha256("".join(f"{o.hex()}:{c};" for o, c in zip(outer, crossings)).encode())
    want, two_runs = RAY_GOLDENS[name, lam_factor]
    assert digest.hexdigest()[:16] == want
    assert {i: (outer[i].hex(), int(crossings[i])) for i in two_runs} == two_runs


def _checked_solve(monkeypatch, inside_final):
    """Wrap `_bisect_crossings`: every crossing it returns, and the reference
    crossing of its bracket, must lie in the final bracket of _HALVINGS plain
    halvings; `inside_final` collects the bracket counts checked."""
    solve = LS._bisect_crossings

    def checked(f, lam, alpha, xs, ws, uxs, lo, hi, inside, halvings):
        got = solve(f, lam, alpha, xs, ws, uxs, lo, hi, inside, halvings)
        a, b = _parent_bisection(f, xs, ws, uxs, lam, alpha, lo, hi, halvings)
        ref = _reference_crossings(f, lam, alpha, xs, ws, uxs, lo, hi, inside, halvings)
        assert np.all((a <= got) & (got <= b)) and np.all((a <= ref) & (ref <= b))
        inside_final.append(lo.size)
        return got

    monkeypatch.setattr(LS, "_bisect_crossings", checked)


@pytest.mark.parametrize("name, lam_factor", sorted(RAY_GOLDENS))
def test_solve_matches_a_tight_bisection_on_the_golden_rays(cat, monkeypatch, name, lam_factor):
    # each crossing lies in its final bracket, (r_cap / 256) 2^-10 wide, and
    # within 1e-9 r_cap of a 40-halving bisection; relative to r itself the
    # crossings nearest 0 (r ~ 0.01 r_cap) move by up to 3e-8.  The two-run
    # outer ends of RAY_GOLDENS and the rays' summed measure are within 1e-9
    # relative of the reference.
    f = cat[name]
    lam, alpha = lam_factor * f.lip_bound, f.dim + 1.0
    xs, ws = _golden_rays(f, lam)
    r_cap = LS.truncation_radius(f, lam, alpha)
    br = LS._ray_brackets(f, lam, alpha, xs.T, ws.T, r_cap, 256)
    checked = []
    _checked_solve(monkeypatch, checked)
    got = LS._bisect_crossings(f, lam, alpha, *br[:6], LS._HALVINGS)
    ref = _reference_crossings(f, lam, alpha, *br[:6], LS._HALVINGS)
    assert checked == [br.lo.size] and br.lo.size > 20
    assert np.max(np.abs(got - ref)) <= 1e-9 * r_cap
    (m_got, _, outer_got), (m_ref, _, outer_ref) = br.runs(got), br.runs(ref)
    two_runs = sorted(RAY_GOLDENS[name, lam_factor][1])
    assert outer_got[two_runs] == pytest.approx(outer_ref[two_runs], rel=1e-9, abs=0.0)
    assert m_got.sum() == pytest.approx(m_ref.sum(), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("name, lam_factor", sorted(POLAR_GOLDENS))
def test_solve_matches_a_tight_bisection_on_the_polar_goldens(cat, monkeypatch, name, lam_factor):
    # the estimate with every crossing from a 40-halving bisection (the
    # parent's solve, which sat within 6.4e-11 of it) against the solve's
    # own; each of its crossings lies in its final bracket
    f = cat[name]
    with monkeypatch.context() as m:
        m.setattr(LS, "_bisect_crossings", _reference_crossings)
        ref = _golden_polar(f, lam_factor)
    checked = []
    _checked_solve(monkeypatch, checked)
    got = _golden_polar(f, lam_factor)
    assert len(checked) == 1 and checked[0] > 0
    assert got.value == pytest.approx(ref.value, rel=1e-9, abs=0.0)
    assert got.value.hex() == POLAR_GOLDENS[name, lam_factor][0]


# (x nodes per axis, sphere order, scan) of the dilation check, per dimension
DILATION_BUDGETS = {1: (64, 4, 64), 2: (16, 8, 32), 3: (8, 4, 16)}


def test_polar_estimate_is_dilation_covariant():
    # u_t(x) = u_1(x / t) gives E_lam(u_t) = t E_{lam t^alpha}(u_1), so
    # mu_t(lam) = t^{2N} mu_1(lam t^alpha).  The x box, the sphere rule, the
    # scan row and the solve's halvings all scale with t; pair_region's
    # min(1, r_cap) does not, so only rows with both r_cap below min(1, t)
    # are kept.  The bisection to an absolute 1e-10 missed this by 1.6e-7.
    rows = 0
    for n in (1, 2, 3):
        one = F.make_bump([0.0] * n, 1.0)
        for t in (0.5, 0.7, 1.3, 2.0):
            f = F.make_bump([0.0] * n, t)
            for p in (1.0, 2.0):
                alpha = n / p + 1.0
                for lam in (2.0 * f.lip_bound, 10.0 * f.lip_bound, 100.0 * f.lip_bound):
                    lam_1 = lam * t ** alpha
                    if max(LS.truncation_radius(f, lam, alpha),
                           LS.truncation_radius(one, lam_1, alpha)) >= min(1.0, t):
                        continue
                    mu_t = LS.pair_measure_polar(LS.LevelSetQuery(f, p, alpha, lam),
                                                 *DILATION_BUDGETS[n]).value
                    mu_1 = LS.pair_measure_polar(LS.LevelSetQuery(one, p, alpha, lam_1),
                                                 *DILATION_BUDGETS[n]).value
                    assert mu_t == pytest.approx(t ** (2 * n) * mu_1, rel=1e-11, abs=0.0)
                    rows += 1
    assert rows == 60


def test_no_membership_run_ends_beyond_r_cap(cat):
    # r_cap is a proven bound on the length of a member pair: scanning random
    # rays of the pair_region box twice as far, no run may end past it
    for name in F.catalogue_names():
        f = cat[name]
        rng = np.random.default_rng(len(name))
        for lam_factor in (1.05, 1.5, 4.0, 100.0):
            for p in (1.0, 2.0):
                lam, alpha = lam_factor * f.lip_bound, f.dim / p + 1.0
                half, r_cap = F.pair_region(f, lam, alpha)
                xs = rng.uniform(-half, half, (1000, f.dim))
                ws = rng.normal(size=(1000, f.dim))
                ws /= np.linalg.norm(ws, axis=1, keepdims=True)
                _, _, outer = LS._scan_rays(f, lam, alpha, xs.T, ws.T, 2.0 * r_cap, 256, LS._HALVINGS)
                assert np.any(outer) and np.max(outer) <= r_cap, (name, lam_factor, p)


ROTATION_ANGLES = (0.0, 0.1234, 0.3, 0.5, 1.0)
ROTATION_BUDGET = {"x_nodes": 36, "sphere_order": 12, "scan": 128}     # BUDGET_2D, the 2-D acceptance budget
# rows whose converged copies disagree beyond their summed error estimates
# at the 2-D acceptance budget (worst gap / summed estimates in brackets):
# the coarse pass keeps the sphere rule, so the estimate misses the angular
# error
ROTATION_UNDER_REPORTED = {
    ("plateau2", 1.0, 2.154),       # 1.63
    ("product2", 1.0, 2.154),       # 1.05
    ("product2", 1.0, 46.4),        # 2.26
    ("bumps2_pair", 1.0, 46.4),     # 1.19
}


@pytest.mark.parametrize("name, p, lam_factor", [
    pytest.param(*row, marks=pytest.mark.xfail(row in ROTATION_UNDER_REPORTED, strict=True,
                                               reason="the error estimate misses the angular error"))
    for row in itertools.product(["plateau2", "product2", "bumps2_pair", "bump2_off"], [1.0, 2.0],
                                 [2.154, 46.4])
])
def test_rotated_copies_agree_within_their_error_estimates(cat, name, p, lam_factor):
    # u(R x) has u's pair measure, so two converged copies whose readings
    # differ by more than their summed estimates show an under-reported error
    f = cat[name]
    res = [LS.pair_measure_polar(LS.LevelSetQuery(rotated(f, theta), p, 2.0 / p + 1.0, lam_factor * f.lip_bound),
                                 **ROTATION_BUDGET)
           for theta in ROTATION_ANGLES]
    assert res[0].value > 0
    for a, b in itertools.combinations([r for r in res if r.converged], 2):
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


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
# 0.5, RandomStream(62, 3)) hands to the scan kernel, x then w per ray, which
# pins the sampled x and w bit for bit; every violation count is 0 (recorded
# at scan 64; the scan, now fixed at 1024, does not enter the digest).  Recorded on the one-ray path (`radial_levelset`, one call per ray)
# that the batched kernel call replaced; re-recorded when the uniforms moved
# to per-slot PCG64DXSM lanes (still no violation), and again when x's ball
# shrank from radius support_radius + 1 to `pair_region`'s half,
# support_radius + r_cap (the same uniforms, x's radius rescaled).
SANDWICH_GOLDENS = {
    ("bump1", 1.0): "145de4d80e936a7d",
    ("bump2", 2.0): "0e4c6c4f8521cc9c",
    ("bump3", 2.0): "6dc34f45133a260d",
}


@pytest.mark.parametrize("name, p", sorted(SANDWICH_GOLDENS))
def test_verify_sandwich_goldens(cat, monkeypatch, name, p):
    f = cat[name]
    calls = _record_scans(monkeypatch)
    rec = LS.verify_sandwich(f, p, 10.0 * f.lip_bound, 12, 0.5, Q.RandomStream(62, 3))
    assert len(calls) == 1
    digest = hashlib.sha256()
    for x, w in zip(*calls[0][:2]):
        digest.update(x.tobytes())
        digest.update(w.tobytes())
    assert digest.hexdigest()[:16] == SANDWICH_GOLDENS[name, p]
    assert max(rec["worst_upper_excess"], rec["worst_lower_shortfall"]) <= SANDWICH_TOL
    assert rec["flagged_profiles"] == 0


# float.hex of verify_sandwich(f, 1, lam_factor lip_bound, 200, 0.5,
# RandomStream(2024, 1))'s worst upper excess and worst lower shortfall, and
# its flagged count, and its counts of rays with members and with an inner
# radius.  First recorded when the sandwich check still scanned every
# sampled ray, before the kernel skipped the rays that miss the support;
# re-recorded with the two counts when x's ball shrank to `pair_region`'s
# half, which puts 1.8-3.2x as many of the 200 rays on the support; the
# members count rose (169 -> 176 on bump1 at 10 L) when it began to count
# the runs that lie wholly below the scan's first point, which only the
# dense read of (0, lower] sees.
SANDWICH_RECORDS = {
    ("bump1", 10.0): ("-0x1.01f7f8e3933e1p-4", "0x1.3e970671cc927p-207", 0, 176, 177),
    ("bump1", 100.0): ("-0x1.7ea033a8c3ed0p-11", "0x1.33b02deefeacfp-102", 0, 197, 200),
    ("bump2_off", 10.0): ("-0x1.7554c4950f280p-3", "-0x1.ad6c000000000p-84", 0, 69, 69),
    ("bump2_off", 100.0): ("-0x1.d7c5422718580p-6", "0x1.0afeade2f4cc2p-151", 0, 87, 90),
    ("plateau2", 10.0): ("-0x1.62940958ee041p-2", "0x1.43b728153c14fp-95", 0, 38, 37),
    ("plateau2", 100.0): ("-0x1.2909c30bf6238p-4", "0x1.e5793e93cd0f5p-88", 0, 51, 52),
    ("bumps2_pair", 10.0): ("-0x1.2a7d36f056c69p-2", "0x1.24f48f1e95e29p-148", 0, 50, 52),
    ("bumps2_pair", 100.0): ("-0x1.fdd00945f5349p-5", "0x1.32e3f214a26b3p-292", 0, 66, 68),
}


@pytest.mark.parametrize("name, lam_factor", sorted(SANDWICH_RECORDS))
def test_verify_sandwich_records_golden(cat, name, lam_factor):
    f = cat[name]
    rec = LS.verify_sandwich(f, 1.0, lam_factor * f.lip_bound, 200, 0.5, Q.RandomStream(2024, 1))
    assert (rec["worst_upper_excess"].hex(), rec["worst_lower_shortfall"].hex(), rec["flagged_profiles"],
            rec["rays_with_members"], rec["rays_with_inner_radius"]) == SANDWICH_RECORDS[name, lam_factor]


def test_verify_sandwich_counts_runs_below_the_first_scan_point(bump1, monkeypatch):
    # on 8 of the 177 rays with an inner radius, lower <= 4.6e-5 lies below
    # the scan's first point r_cap/1024 = 9.8e-5, so the scan finds no run
    # there; the dense read of (0, lower] finds members on 7 of them.  On the
    # 8th, lower is 2.7e-32 and |u(y) - u(x)| rounds below lam r^alpha at
    # every one of its 64 radii, so no member pair is seen on it.
    scan_rays, outers = LS._scan_rays, []

    def recording(*args):
        out = scan_rays(*args)
        outers.append(out[2])
        return out

    monkeypatch.setattr(LS, "_scan_rays", recording)
    rec = LS.verify_sandwich(bump1, 1, 10 * bump1.lip_bound, 200, 0.5, Q.RandomStream(2024, 1))
    assert np.count_nonzero(outers[0] > 0) == 169
    assert (rec["rays_with_members"], rec["rays_with_inner_radius"]) == (176, 177)


def test_pair_measure_mc_golden(bump2):
    # re-recorded with the per-slot uniform lanes: 5.2921 +- 0.0987 before,
    # 5.2980 +- 0.0988 now, 0.04 combined standard errors apart
    q = LS.LevelSetQuery(bump2, 1.0, 3.0, 0.5 * bump2.lip_bound)
    res = LS.pair_measure_mc(q, 40_000, Q.RandomStream(5, 7))
    assert (res.value.hex(), res.error_estimate.hex(), res.nodes_used) == \
        ("0x1.53127ddea9661p+2", "0x1.94945cf6d7466p-4", 40_000)


# sha256 prefix of float.hex of the value, then of the error, at each of the
# 12 thresholds of pair_measure_mc on bump3 (p = 1.5, 40k samples, the
# `default_lambda_grid` of 12 thresholds); recorded with the boolean-mask
# bump jet, before its index-set form
MC_BUMP3_GOLDEN = "dc5b4584fbef3b12"


@pytest.mark.parametrize("workers", [1, 2])
def test_pair_measure_mc_bump3_profile_golden(cat, workers):
    f = cat["bump3"]
    q = LS.LevelSetQuery(f, 1.5, f.dim / 1.5 + 1.0, LS.default_lambda_grid(f, 12))
    res = LS.pair_measure_mc(q, 40_000, Q.RandomStream(35, 3), workers=workers)
    digest = hashlib.sha256()
    for v, e in zip(res.value, res.error_estimate):
        digest.update(v.hex().encode())
        digest.update(e.hex().encode())
    assert (digest.hexdigest()[:16], res.value[0].hex(), res.nodes_used) == \
        (MC_BUMP3_GOLDEN, "0x1.3163fd601b2cbp+5", 480_000)


@pytest.mark.parametrize("name", ["bump1", "bump2", "bump3"])
def test_pair_measure_mc_bitwise_across_workers(cat, name):
    # 98,307 and 150k samples make four and five Monte Carlo chunks, the last
    # one partial (3 and 18,928 samples), split across 1, 2 and 5 workers
    f = cat[name]
    q = LS.LevelSetQuery(f, 2.0, 2.0, 0.5 * f.lip_bound)
    for n in (98_307, 150_000):
        got = {(r.value.hex(), r.error_estimate.hex())
               for r in (LS.pair_measure_mc(q, n, Q.RandomStream(8, 2), workers=w)
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


def test_mc_profile_identical_across_workers(cat):
    # 98,307 samples make four Monte Carlo chunks, the last one holding 3
    # samples, each serving all 12 thresholds, split across 1, 2 and 5 workers
    f = cat["bump3"]
    grid = LS.default_lambda_grid(f, 12)
    profs = [_mc_profile(f, 2.0, grid, 98_307, workers=w) for w in (1, 2, 5)]
    assert len({(tuple(v.hex() for v in pr.mu), tuple(v.hex() for v in pr.err)) for pr in profs}) == 1
    assert np.all(profs[0].mu > 0)


# ---------------------------------------------------------------------------
# the float32 scan, checked in float64
# ---------------------------------------------------------------------------

class Float64Scan:
    """Delegates to a field and declares a float64 scan: the reference for
    the checked float32 scan of the same rays."""

    scan_dtype = np.dtype(np.float64)

    def __init__(self, base):
        self.base = base

    def __getattr__(self, name):
        return getattr(self.base, name)


def _compare_with_float64_scans(monkeypatch):
    """Wrap `_ray_brackets`: each scan of a float32 field is repeated as a
    float64 scan of the same rays, and every column of their `_Brackets`
    must agree bit for bit.  Returns the ray count of each compared scan."""
    compared = []
    ray_brackets = LS._ray_brackets

    def compared_scan(f, *args):
        got = ray_brackets(f, *args)
        if f.scan_dtype == np.float32:
            want = ray_brackets(Float64Scan(f), *args)
            for name, a, b in zip(got._fields, got, want):
                assert np.asarray(a).dtype == np.asarray(b).dtype, name
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
            compared.append(got.last.size)
        return got

    monkeypatch.setattr(LS, "_ray_brackets", compared_scan)
    return compared


CONTRACT_FIELDS = ["bump1", "bumps1_pair", "bump2", "bump2_off", "bumps2_pair", "bump3"]
CONTRACT_LAMBDAS = [0.1, 2.154, 46.4, 1000.0]       # times lip_bound
# the 2-D acceptance budget, BUDGET_2D, and the polar defaults; bump3 runs at
# the 3-D golden budget, as its defaults take minutes
CONTRACT_BUDGETS = {1: [{}], 2: [{"x_nodes": 36, "sphere_order": 12, "scan": 128}, {}],
                    3: [dict(zip(("x_nodes", "sphere_order", "scan"), GOLDEN_BUDGETS[3]))]}


@pytest.mark.parametrize("name", CONTRACT_FIELDS)
@pytest.mark.parametrize("lam_factor", CONTRACT_LAMBDAS)
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_float32_polar_scans_equal_float64_scans(cat, monkeypatch, name, lam_factor, p):
    f = cat[name]
    assert f.scan_dtype == np.float32
    compared = _compare_with_float64_scans(monkeypatch)
    for budgets in CONTRACT_BUDGETS[f.dim]:
        (budgets,) = Q.split_budgets(f.dim, budgets, "polar")
        q = LS.LevelSetQuery(f, p, f.dim / p + 1.0, lam_factor * f.lip_bound)
        LS.pair_measure_polar(q, **budgets)
    assert len(compared) >= 2 * len(CONTRACT_BUDGETS[f.dim]) and sum(compared) > 0


@pytest.mark.parametrize("name", CONTRACT_FIELDS)
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_float32_sandwich_scans_equal_float64_scans(cat, monkeypatch, name, p):
    # the quasinorm experiment's sandwich defaults: 500 rays at 10 and 100 L
    f = cat[name]
    compared = _compare_with_float64_scans(monkeypatch)
    for lam_factor in (10.0, 100.0):
        LS.verify_sandwich(f, p, lam_factor * f.lip_bound, 500, 0.5, Q.RandomStream(2024, 1))
    assert compared == [500, 500]


class SkewedFloat32:
    """Delegates to a radial field; its float32 reads take u at radii 0.4%
    beyond r, so a float32 scan disagrees with float64 near crossings.
    Counts the float64 reads on a shared row, which only a rescan makes."""

    def __init__(self, base):
        self.base = base
        self.rescan_reads = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def along(self, xs, ws):
        u = self.base.along(xs, ws)

        def skewed(r, b=slice(None)):
            if r.dtype == np.float32:
                return u(r * np.float32(1.004), b)
            self.rescan_reads += r.ndim == 1
            return u(r, b)

        return skewed


def test_disagreeing_rays_are_rescanned_in_float64(cat, monkeypatch):
    f = SkewedFloat32(cat["bump2"])
    compared = _compare_with_float64_scans(monkeypatch)
    q = LS.LevelSetQuery(f, 1.0, 3.0, 2.154 * f.lip_bound)
    res = LS.pair_measure_polar(q, 36, 12, 128)
    assert f.rescan_reads > 0 and len(compared) == 2
    # the rescanned rays give the unskewed estimate, bit for bit
    ref = LS.pair_measure_polar(LS.LevelSetQuery(cat["bump2"], 1.0, 3.0, q.lam), 36, 12, 128)
    assert (res.value.hex(), res.error_estimate.hex()) == (ref.value.hex(), ref.error_estimate.hex())


class ReadDtypes:
    """Delegates to a field; records the radius and value dtype of every read
    of an `along` binding."""

    def __init__(self, base):
        self.base = base
        self.reads = []

    def __getattr__(self, name):
        return getattr(self.base, name)

    def along(self, xs, ws):
        u = self.base.along(xs, ws)

        def recorded(r, b=slice(None)):
            out = u(r, b)
            self.reads.append((np.asarray(r).dtype, out.dtype))
            return out

        return recorded


@pytest.mark.parametrize("name", ["bump2", "bumps2_pair"])
def test_only_the_scan_reads_float32(cat, name):
    f64 = np.dtype(np.float64)
    f = ReadDtypes(cat[name])
    S.gagliardo(S.SeminormQuery(f, 0.5, 2.0), x_nodes=12, sphere_order=8)
    C.rotation_measure(f, line_cells=32, offset_cells=16, sphere_order=8)
    C.rotation_measure_mc(f, 4000, Q.RandomStream(3, 0))
    assert f.reads and set(f.reads) == {(f64, f64)}
    # a polar estimate reads float32 in its scan only, and every read keeps
    # its radii's dtype; the float64 ones are the check and the solve
    f.reads.clear()
    LS.pair_measure_polar(LS.LevelSetQuery(f, 1.0, 3.0, 2.0 * f.lip_bound), 24, 8, 96)
    assert set(f.reads) == {(np.dtype(np.float32),) * 2, (f64, f64)}
