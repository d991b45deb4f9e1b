import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from weaklp import quadrature as q
from weaklp.errors import ConsistencyError, InvalidParameterError


def test_gauss_one_node_is_midpoint():
    x, w = q.gauss_nodes_1d(1)
    assert x[0] == 0.0 and w[0] == 2.0


@pytest.mark.parametrize("n,power,exact", [(2, 2, 2 / 3), (3, 4, 2 / 5)])
def test_gauss_monomials(n, power, exact):
    x, w = q.gauss_nodes_1d(n)
    assert np.sum(w * x ** power) == pytest.approx(exact, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.lists(st.floats(-3, 3), min_size=1, max_size=8))
def test_gauss_exact_for_low_degree_polynomials(n, coeffs):
    deg = min(len(coeffs) - 1, 2 * n - 1)
    c = np.array(coeffs[: deg + 1])
    x, w = q.gauss_nodes_1d(n)
    val = np.sum(w * np.polynomial.polynomial.polyval(x, c))
    exact = sum(c[k] * ((1.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)) for k in range(deg + 1))
    assert val == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("n", [1, 4, 8, 48])
def test_gauss_rules_are_cached_read_only_and_equal_leggauss(n):
    x, w = q.gauss_nodes_1d(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert q.gauss_nodes_1d(n)[0] is x
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
def test_sphere_rule_moments(n_dim):
    rule = q.sphere_rule(n_dim, 32)
    sigma = q.surface_area(n_dim)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(sigma, abs=1e-12 * max(sigma, 1))
    mean = (rule.weights[:, None] * rule.nodes).sum(axis=0)
    assert np.abs(mean).max() < 1e-10
    second = (rule.weights[:, None, None] * rule.nodes[:, :, None] * rule.nodes[:, None, :]).sum(axis=0)
    assert np.abs(second - sigma / n_dim * np.eye(n_dim)).max() < 1e-8


def test_sphere_rule_n1_is_two_points():
    rule = q.sphere_rule(1, 8)
    assert sorted(rule.nodes[:, 0].tolist()) == [-1.0, 1.0]
    assert rule.weights.tolist() == [1.0, 1.0]
    assert rule.weights.sum() == 2.0 == q.surface_area(1)


def test_sphere_rule_n2_sum_is_two_pi():
    rule = q.sphere_rule(2, 64)
    assert rule.weights.sum() == pytest.approx(2 * math.pi, abs=1e-12)


def test_sphere_rule_n3_axis_second_moment():
    rule = q.sphere_rule(3, 32)
    val = rule.integrate(rule.nodes[:, 2] ** 2)
    assert val == pytest.approx(4 * math.pi / 3, abs=1e-10)


@pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [4, 8, 12, 16, 32])
def test_sphere_rule_half_holds_one_node_of_each_antipodal_pair(n_dim, order):
    rule = q.sphere_rule(n_dim, order)
    half = rule.half()
    m = rule.weights.size
    assert half.nodes.shape == (m // 2, n_dim)
    # node j of the second half is minus exactly one half() node, of equal weight
    dist = np.abs(rule.nodes[m // 2 :, None, :] + half.nodes[None, :, :]).max(axis=-1)
    match = dist <= 1e-15
    assert np.all(match.sum(axis=1) == 1)
    partner = match.argmax(axis=1)
    assert sorted(partner) == list(range(m // 2))
    assert np.array_equal(2.0 * rule.weights[m // 2 :], half.weights[partner])
    assert half.weights.sum() == pytest.approx(rule.weights.sum(), rel=1e-14)


def test_sphere_rule_half_needs_an_even_rule():
    with pytest.raises(InvalidParameterError, match="sphere_order"):
        q.sphere_rule(2, 13).half()


# sha256 of nodes.tobytes() + weights.tobytes() for every rule the code and
# tests build, recorded before the 3-D and 4-D rules became lifts of the
# rule one dimension down; every 1-D rule is the same two points
_TWO_POINTS = "76a449f8269ad0c33e311404ad718e74aacda5ab0cf3030ca43bee47ad8f194e"
SPHERE_RULE_DIGESTS = {(1, order): _TWO_POINTS for order in (4, 6, 8, 12, 16, 24, 48, 192, 4096)} | {
    (2, 4): "4ce478f970209514abcd6823c57a8566c57b2e564fe7fa8e297aa5d3ce5d8c26",
    (2, 6): "9994a5f6fda2f36c743c6a80cf44df76447453d192e45f710c1731319c186df1",
    (2, 8): "cc20eeb6b5941e8b94cd28e39989a23261264d51daa31a36f0abb560d108e849",
    (2, 12): "d26ff93dfb6b3812fe54c016caa8d2c4d74361db41e1bde0638db09ca510b723",
    (2, 16): "6d4272e10c6b02e763699e34f652d97ccb0df2150f7c452d5762f48fe773ed6a",
    (2, 24): "95c0f503920b3f03ca30923eae7f33db5844a71f92f4387034d1c3faf8b58511",
    (2, 48): "97cab7a0be1e6f4df12cf5fc5c4ad35ef318644f167def96fff11d6c2f4852fc",
    (2, 192): "a9a47871920e16f68baf657a694929dda2e18074ea6737e5ad5816f3ca2e9ae5",
    (2, 4096): "1a992bf6e0beadd5f66faac85aece59438a5a27713afffc39ebb67d38a7d19a8",
    (3, 4): "5b4b2a89bcec0386a1bc93132c741becebdf4f72c023f2983db5f8b024309bc4",
    (3, 6): "c67befe3987e149e27039eb2af26c1d9d8a09f708e89b0761f22ac9ff6e9f6c9",
    (3, 8): "998be4778a467a060a677857d002e6b932ab038ffa862ce4732b1f169ab92580",
    (3, 12): "7f403caa0ea095a542f58d9a264feb418bea4d04d6df01808658376b7b90416c",
    (3, 16): "31bcc15fc5a19fae4e256295ab9ef3d6c85fadef0a01ab7cd99618d04a2a50d5",
    (3, 24): "f5156bf68b8fcf24d621ad5934379c93c78ee72c749320b5d34487ebad3a7871",
    (3, 48): "0f5230f7ae9d1422ad712c3c16f809c727ed41e39058e652028c245279bff789",
    (3, 192): "1e0c97a7c688e7176269d71e1f8327e83db643effc00a7a043b220f605a293a7",
    (4, 4): "d2c123d73a3d85b839520436a958fa022da7239d0e5c97f97439c90db2d97554",
    (4, 6): "7300149288976279c1584480729f6289677bc8f818fb6982b4bc53d627743550",
    (4, 8): "a16fe2423bf87c7d6ff4f58f600539ecdeb7215069eb5578c17b04ca196f54c6",
    (4, 12): "89e30db902681209107e9cadf9540e81c72bfd456fff04ae8fb854dafab79fc0",
    (4, 16): "a3dd043d63396f2736e7720553382c22194b5e2f3252ebddc3a58a00728e1f5f",
    (4, 24): "5ef6e018db1849275f9b57d540846443ea6033aa29851c9412ec62a578182c9d",
    (4, 48): "697f4a94318ccf2808f9530dfb1aeb7967489558b9fef664aeef65d5db61f89f",
    (4, 192): "e57e0591b4b497126ab281a75dc1e6ad3023a00d004e5d0d31e82ae8e7b03100",
}


@pytest.mark.parametrize("n_dim, order", sorted(SPHERE_RULE_DIGESTS))
def test_sphere_rules_are_bit_identical(n_dim, order):
    rule = q.sphere_rule(n_dim, order)
    digest = hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()
    assert digest == SPHERE_RULE_DIGESTS[n_dim, order]


@pytest.mark.parametrize("panels, coarse", [(2, 1), (3, 2), (4, 2), (5, 2), (6, 3), (9, 4)])
def test_coarsened_grid_halves_panels_with_floors(panels, coarse):
    # half the panels, at least 2 where that is still coarser, else 1
    grid = q.TensorGrid(np.array([[-1.0, 1.0], [0.0, 2.0]]), panels)
    assert grid.coarsened().panels == coarse
    assert np.array_equal(grid.coarsened().box, grid.box)


def test_unsupported_sphere_dimension():
    with pytest.raises(InvalidParameterError):
        q.sphere_rule(5, 16)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0])
def test_moment_on_two_point_sphere_is_two(p):
    sc = q.sphere_abs_moment(p, 1)
    assert sc.moment == 2.0
    assert sc.moment_quad == pytest.approx(2.0, abs=1e-14)


def test_moment_fixtures():
    # k(1,2) frozen from a 1-D quadrature oracle of the angular integral
    assert q.sphere_abs_moment(1.0, 2).moment == pytest.approx(4.0, rel=1e-12)
    assert q.sphere_abs_moment(2.0, 3).moment == pytest.approx(4 * math.pi / 3, rel=1e-12)


@pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0])
def test_moment_closed_form_vs_quadrature(n_dim, p):
    sc = q.sphere_abs_moment(p, n_dim)
    assert abs(sc.moment_quad - sc.moment) <= 1e-6 * sc.moment
    assert sc.moment <= sc.sigma + 1e-12
    if p == 2.0:
        assert sc.moment * n_dim == pytest.approx(sc.sigma, rel=1e-10)


def test_moment_consistency_error_raised():
    with pytest.raises(ConsistencyError):
        q.sphere_abs_moment(1.25, 2, order=64, rtol=1e-12)


def test_lower_bound_constants():
    assert q.lower_bound_constant(1) == pytest.approx(1.0, rel=1e-12)
    assert q.lower_bound_constant(2) == pytest.approx(2 / math.pi, rel=1e-12)
    assert q.lower_bound_constant(3) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# random streams and Monte Carlo
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 16), st.integers(1, 199))
def test_stream_split_invariance(seed, stream_id, cut):
    st_ = q.RandomStream(seed, stream_id)
    whole = st_.uniform_matrix(0, 200, 5)
    parts = np.vstack([st_.uniform_matrix(0, cut, 5), st_.uniform_matrix(cut, 200 - cut, 5)])
    assert np.array_equal(whole, parts)


def test_streams_differ():
    a = q.RandomStream(1, 0).uniform_matrix(0, 64, 3)
    b = q.RandomStream(1, 1).uniform_matrix(0, 64, 3)
    assert not np.array_equal(a, b)


def test_monte_carlo_constant_has_zero_stderr():
    # integrand 1 gives the sampler weight, |B_1.5| * sigma_1 * 0.5^2 / 2
    sampler = q.PairSampler(2, 1.5, 0.5)
    res = q.monte_carlo(lambda x, w, r: np.ones(r.size), sampler, 4096, q.RandomStream(3, 0))
    assert sampler.weight == pytest.approx(math.pi * 1.5 ** 2 * 2 * math.pi * 0.25 / 2, rel=1e-14)
    assert res.value == pytest.approx(sampler.weight, rel=1e-14)
    assert res.error_estimate == pytest.approx(0.0, abs=1e-12)


def test_monte_carlo_half_ball():
    # x is uniform on the ball, so 1[x_0 > 0] gives half the weight
    for dim in (1, 2, 3):
        sampler = q.PairSampler(dim, 1.0, 0.7)
        res = q.monte_carlo(lambda x, w, r: x[:, 0] > 0, sampler, 60_000, q.RandomStream(5, 2))
        assert abs(res.value - sampler.weight / 2) <= 3 * res.error_estimate


def test_pair_sampler_radius_density():
    # r has density proportional to r^(N-1) on (0, r_cap]: E r = N/(N+1) r_cap
    for dim in (1, 2, 3):
        sampler = q.PairSampler(dim, 1.0, 0.7)
        res = q.monte_carlo(lambda x, w, r: r, sampler, 60_000, q.RandomStream(5, 1))
        assert abs(res.value - sampler.weight * 0.7 * dim / (dim + 1)) <= 3 * res.error_estimate


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_sampler_draw_splits_bitwise(dim):
    # monte_carlo's chunks draw [lo, hi) each: the pairs must not depend on the split
    sampler = q.PairSampler(dim, 1.3, 0.6)
    stream = q.RandomStream(17, dim)
    whole = sampler.draw(stream, 0, 300)
    assert [a.shape for a in whole] == [(300, dim), (300, dim), (300,)]
    for k in (0, 1, 137, 299, 300):
        parts = zip(sampler.draw(stream, 0, k), sampler.draw(stream, k, 300 - k))
        for a, (lo, hi) in zip(whole, parts):
            assert np.concatenate([lo, hi]).tobytes() == a.tobytes()


def test_pair_sampler_1d_draw_is_pinned():
    # sha256 of x, w and r bytes for 300 1-D samples, recorded before the 2-D and
    # 3-D directions moved to the tangent formula: the 1-D path must not move a bit
    x, w, r = q.PairSampler(1, 1.3, 0.6).draw(q.RandomStream(17, 1), 0, 300)
    digest = hashlib.sha256(x.tobytes() + w.tobytes() + r.tobytes()).hexdigest()
    assert digest == "0f73b6b55216c4e88a3ee68ce3da87a4e06544cd66bf188cd2fe0561b1605602"


@pytest.mark.parametrize("dim, k", [(1, 4), (2, 4), (3, 6)])
def test_pair_sampler_reads_n_minus_1_uniforms_per_direction(monkeypatch, dim, k):
    seen = []
    uniform_matrix = q.RandomStream.uniform_matrix

    def recording(self, start, count, k_):
        seen.append(k_)
        return uniform_matrix(self, start, count, k_)

    monkeypatch.setattr(q.RandomStream, "uniform_matrix", recording)
    q.PairSampler(dim, 1.0, 1.0).draw(q.RandomStream(1, 0), 0, 8)
    assert seen == [k]


def test_pair_sampler_supports_n_up_to_3():
    with pytest.raises(InvalidParameterError, match="N <= 3"):
        q.PairSampler(4, 1.0, 1.0)


def _within(samples, mean, sigmas=4.0):
    """Whether the sample mean of each column is within `sigmas` standard errors of `mean`."""
    err = samples.std(axis=0) / math.sqrt(samples.shape[0])
    return np.all(np.abs(samples.mean(axis=0) - mean) <= sigmas * err)


def _chi2_uniform_bins(values, lo, hi, bins=8):
    counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
    return stats.chisquare(counts).pvalue


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_sampler_direction_and_ball_laws(dim):
    n = 200_000
    half = 1.3
    x, w, _ = q.PairSampler(dim, half, 0.6).draw(q.RandomStream(23, dim), 0, n)
    eps = np.finfo(float).eps
    assert np.max(np.abs(np.sqrt(np.sum(w * w, axis=1)) - 1.0)) <= 4 * eps
    # E w = 0 and E w w^T = I / N
    assert _within(w, 0.0)
    outer = (w[:, :, None] * w[:, None, :]).reshape(n, -1)
    assert _within(outer, np.eye(dim).ravel() / dim)
    # the azimuth is uniform on 8 bins, and in 3-D so is the height (Archimedes)
    assert _chi2_uniform_bins(np.arctan2(w[:, 1], w[:, 0]), -math.pi, math.pi) > 1e-3
    if dim == 3:
        assert _chi2_uniform_bins(w[:, 2], -1.0, 1.0) > 1e-3
    # x uniform on the ball of radius half: |x|^N / half^N is uniform on [0, 1]
    rn = np.sum(x * x, axis=1) ** (dim / 2)
    assert _within(rn[:, None], half ** dim / 2)


def test_budget_values_must_be_numbers():
    # every budget is a count: an integer >= 1, or >= 0 for refine
    (b,) = q.split_budgets(1, {"x_nodes": 64.0}, "polar")
    assert b["x_nodes"] == 64 and isinstance(b["x_nodes"], int)
    for value in ("many", True, None, 64.5, math.inf, math.nan, 0, -3):
        with pytest.raises(InvalidParameterError, match="budgets.scan must be an integer >= 1"):
            q.split_budgets(2, {"scan": value}, "polar")
    assert q.split_budgets(1, {"refine": 0}, "weak") == [{"lambda_points": 32, "refine": 0}]
    with pytest.raises(InvalidParameterError, match="budgets.refine must be an integer >= 0"):
        q.split_budgets(1, {"refine": -1}, "weak")


@pytest.mark.parametrize("estimator, key", [
    ("polar", "bisect_tol"), ("gagliardo", "v_order"), ("gagliardo", "panels_per_decade"),
    ("weak", "lambda_lo"), ("weak", "lambda_hi"),
])
def test_constant_resolutions_are_not_budgets(estimator, key):
    with pytest.raises(InvalidParameterError, match=f"unknown budget '{key}'"):
        q.split_budgets(1, {key: 1}, estimator)


def test_monte_carlo_bitwise_deterministic_across_workers():
    def f(x, w, r):
        return np.sin(7 * x[:, 0]) ** 2

    results = [
        q.monte_carlo(f, q.PairSampler(1, 1.0, 1.0), 150_000, q.RandomStream(9, 4), workers=w)
        for w in (1, 2, 5)
    ]
    assert results[0].value == results[1].value == results[2].value


def test_monte_carlo_rejects_zero_samples():
    with pytest.raises(InvalidParameterError):
        q.monte_carlo(lambda x, w, r: r, q.PairSampler(1, 1.0, 1.0), 0, q.RandomStream(1, 0))


def test_quadrature_result_validates_error():
    with pytest.raises(InvalidParameterError):
        q.QuadratureResult(1.0, -1.0, 10, True)
