import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    res = q.monte_carlo(lambda p: np.ones(p.shape[0]), sampler, 4096, q.RandomStream(3, 0))
    assert sampler.weight == pytest.approx(math.pi * 1.5 ** 2 * 2 * math.pi * 0.25 / 2, rel=1e-14)
    assert res.value == pytest.approx(sampler.weight, rel=1e-14)
    assert res.error_estimate == pytest.approx(0.0, abs=1e-12)


def test_monte_carlo_half_ball():
    # x is uniform on the ball, so 1[x_0 > 0] gives half the weight
    for dim in (1, 2, 3):
        sampler = q.PairSampler(dim, 1.0, 0.7)
        res = q.monte_carlo(lambda p: p[:, 0] > 0, sampler, 60_000, q.RandomStream(5, 2))
        assert abs(res.value - sampler.weight / 2) <= 3 * res.error_estimate


def test_pair_sampler_radius_density():
    # r has density proportional to r^(N-1) on (0, r_cap]: E r = N/(N+1) r_cap
    for dim in (1, 2, 3):
        sampler = q.PairSampler(dim, 1.0, 0.7)
        res = q.monte_carlo(lambda p: p[:, 2 * dim], sampler, 60_000, q.RandomStream(5, 1))
        assert abs(res.value - sampler.weight * 0.7 * dim / (dim + 1)) <= 3 * res.error_estimate


def test_monte_carlo_bitwise_deterministic_across_workers():
    def f(p):
        return np.sin(7 * p[:, 0]) ** 2

    results = [
        q.monte_carlo(f, q.PairSampler(1, 1.0, 1.0), 150_000, q.RandomStream(9, 4), workers=w)
        for w in (1, 2, 5)
    ]
    assert results[0].value == results[1].value == results[2].value


def test_monte_carlo_rejects_zero_samples():
    with pytest.raises(InvalidParameterError):
        q.monte_carlo(lambda p: p[:, 0], q.PairSampler(1, 1.0, 1.0), 0, q.RandomStream(1, 0))


def test_quadrature_result_validates_error():
    with pytest.raises(InvalidParameterError):
        q.QuadratureResult(1.0, -1.0, 10, True)
