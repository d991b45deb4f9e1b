import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import truncated_seminorm_1d
from weaklp import fields as F
from weaklp import quadrature as Q
from weaklp import seminorms as S
from weaklp.errors import InvalidParameterError, PreconditionError

# adaptive polar quadrature oracle, frozen before this module was written;
# confirmed by a second, ordered-pair decomposition
GAGLIARDO_BUMP_S05_P2 = 1.126627670218293
TV_BUMP = 2 / math.e
GRAD2_BUMP = 0.4095870607527702


def zero_field():
    return F.make_bump([0.0], 1.0, 0.0)


def test_query_validation(bump1):
    with pytest.raises(PreconditionError):
        S.SeminormQuery(bump1, 1.0, 2.0)          # s = 1 needs a cutoff
    with pytest.raises(InvalidParameterError):
        S.SeminormQuery(bump1, 1.5, 2.0)
    with pytest.raises(InvalidParameterError):
        S.SeminormQuery(bump1, 0.5, 0.5)


def test_gagliardo_constant_field_zero():
    res = S.gagliardo(S.SeminormQuery(zero_field(), 0.5, 2.0))
    assert res.value == 0.0


def test_gagliardo_fixture(bump1):
    res = S.gagliardo(S.SeminormQuery(bump1, 0.5, 2.0))
    assert res.value == pytest.approx(GAGLIARDO_BUMP_S05_P2, rel=1e-4)
    assert res.error_estimate <= 1e-3 * res.value


def test_gagliardo_amplitude_homogeneity(bump1):
    base = S.gagliardo(S.SeminormQuery(bump1, 0.5, 2.0)).value
    scaled = S.gagliardo(S.SeminormQuery(F.scale_field(bump1, 2.0), 0.5, 2.0)).value
    assert scaled == pytest.approx(4.0 * base, rel=1e-10)


def _dilation_gap(center, t, s, p):
    """|[u_t] - t^(N - s p) [u_1]| and the summed error estimates, for the bump
    u_t of radius t: u_t(x) = u_1(c + (x - c) / t) and dx dy / |x-y|^(N+sp)
    scale by t^(2N) t^-(N+sp)."""
    base, dilated = (S.gagliardo(S.SeminormQuery(F.make_bump(center, r), s, p)) for r in (1.0, t))
    factor = t ** (len(center) - s * p)
    return abs(dilated.value - factor * base.value), dilated.error_estimate + factor * base.error_estimate


@settings(max_examples=12, deadline=None)
@given(st.floats(0.5, 3.2), st.floats(-0.5, 0.5), st.floats(0.1, 0.95), st.floats(1.0, 3.0))
def test_gagliardo_scales_under_dilation_1d(t, c, s, p):
    gap, err = _dilation_gap([c], t, s, p)
    assert gap <= err


@pytest.mark.parametrize("s, p, t", [(0.5, 2.0, 1.7), (0.9, 1.5, 0.6)])
def test_gagliardo_scales_under_dilation_2d(s, p, t):
    gap, err = _dilation_gap([0.2, -0.1], t, s, p)
    assert gap <= err


def test_gagliardo_stable_under_refinement(bump1):
    r1 = S.gagliardo(S.SeminormQuery(bump1, 0.75, 1.0), x_nodes=96)
    r2 = S.gagliardo(S.SeminormQuery(bump1, 0.75, 1.0), x_nodes=192)
    assert abs(r2.value - r1.value) <= r1.error_estimate + 1e-3 * abs(r1.value)


def test_gagliardo_names_unknown_budget_keys(bump1):
    with pytest.raises(InvalidParameterError, match="'scna'.*gagliardo takes x_nodes"):
        S.gagliardo(S.SeminormQuery(bump1, 0.5, 2.0), x_nodes=8, scna=3)


def test_truncated_values_increase_as_cutoff_shrinks(bump1):
    vals = [S.gagliardo(S.SeminormQuery(bump1, 1.0, 1.0, d)).value for d in (1e-2, 1e-3, 1e-4)]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("name", ["bump1", "plateau1"])
@pytest.mark.parametrize("delta", [1e-8, 0.2, 1.5])
def test_s1_counts_exactly_the_pairs_beyond_the_cutoff(cat, name, delta):
    # the far term once integrated from t_exit even where t_exit < delta_in,
    # counting short pairs that leave the ball (bump1 read 4.01446 and
    # plateau1 11.4496 at delta_in = 0.2, against 3.99881 and 10.4291), and
    # the mid part started at max(1e-6, delta_in), so every cutoff below 1e-6
    # read V(1e-6) (bump1: 21.958, against 28.734 at 1e-8)
    f = cat[name]
    res = S.gagliardo(S.SeminormQuery(f, 1.0, 1.0, delta), x_nodes=1536)
    ref = truncated_seminorm_1d(f, delta)
    assert abs(res.value - ref) <= res.error_estimate + 1e-14 * ref


@pytest.mark.parametrize("x_nodes", [256, 1536])
@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("name", ["bump1", "plateau1"])
def test_converged_s1_error_estimate_covers_the_true_error(cat, name, delta, x_nodes):
    # the fine pass once took its log-radius panels from its own span, 1.5x
    # the coarse pass's at some cutoffs, and an exact pass difference read an
    # error of 0: three of these rows converged with an estimate below the
    # true error (plateau1 at delta_in 0.5: true 2.03e-5 over an estimate of
    # 1.18e-5 at 1536 nodes; at 1.5: true 4.4e-16 over an estimate of 0)
    f = cat[name]
    res = S.gagliardo(S.SeminormQuery(f, 1.0, 1.0, delta), x_nodes=x_nodes)
    assert res.converged
    assert abs(res.value - truncated_seminorm_1d(f, delta)) <= res.error_estimate


def test_gagliardo_fine_pass_takes_twice_the_coarse_panels(monkeypatch, cat):
    # plateau1 at delta_in 1.5: the passes' own spans once gave 2 and 3 panels
    calls = []
    real = S._gagliardo_pass

    def spy(*args):
        out = real(*args)
        calls.append(out[3])
        return out

    monkeypatch.setattr(S, "_gagliardo_pass", spy)
    S.gagliardo(S.SeminormQuery(cat["plateau1"], 1.0, 1.0, 1.5), x_nodes=1536)
    assert calls[1] == 2 * calls[0]


class _Unfolded(Q.SphereRule):
    """A sphere rule whose `half` is the whole rule, undoubled."""

    def half(self):
        return self


def _fold_and_full(monkeypatch, f, s, p, delta, budgets):
    """gagliardo's value, and the same passes with the mid part summed over
    every node of the sphere rule."""
    q = S.SeminormQuery(f, s, p, delta)
    fold = S.gagliardo(q, **budgets)
    rule = S.sphere_rule

    def unfolded(n, order):
        r = rule(n, order)
        return _Unfolded(r.dim, r.nodes, r.weights)

    monkeypatch.setattr(S, "sphere_rule", unfolded)
    return fold, S.gagliardo(q, **budgets)


# budgets at each dimension, and (s, p, delta_in)
FOLD_BUDGETS = {1: {}, 2: {"x_nodes": 16, "sphere_order": 8}, 3: {"x_nodes": 16, "sphere_order": 4}}
FOLD_QUERIES = [(0.5, 2.0, 0.0), (1.0, 1.0, 0.1)]


@pytest.mark.parametrize("name, s, p, delta", [(n, *q) for n in ("bump1", "plateau1", "bump2", "plateau2")
                                               for q in FOLD_QUERIES] + [("bump3", 1.0, 1.0, 0.5)])
def test_gagliardo_fold_equals_full_sphere_on_centrally_symmetric_fields(cat, monkeypatch, name, s, p, delta):
    # u(-x) = u(x) on an x grid symmetric about 0: the mid part of w at x and
    # of -w at -x agree, so the hemisphere sum equals the full one up to rounding
    f = cat[name]
    fold, full = _fold_and_full(monkeypatch, f, s, p, delta, FOLD_BUDGETS[f.dim])
    assert fold.value == pytest.approx(full.value, rel=1e-14, abs=0.0)
    assert 2 * fold.nodes_used == full.nodes_used


@pytest.mark.parametrize("s, p, delta", FOLD_QUERIES)
@pytest.mark.parametrize("name", ["bump1_wide", "bumps1_pair", "bumps2_pair", "bump2_off", "product2"])
def test_gagliardo_fold_agrees_with_full_sphere_within_its_error(cat, monkeypatch, name, s, p, delta):
    # the swap (x, w, r) -> (x + r w, -w, r) makes the fold exact at every
    # budget up to quadrature error, which the coarse/fine difference bounds
    f = cat[name]
    fold, full = _fold_and_full(monkeypatch, f, s, p, delta, FOLD_BUDGETS[f.dim])
    assert abs(fold.value - full.value) <= fold.error_estimate


def test_divergence_probe_slope_1d(bump1):
    rec = S.diagonal_divergence_probe(bump1, 1.0, [1e-2, 1e-3, 1e-4, 1e-5])
    assert abs(rec["target_ratio"] - 1.0) <= 0.10
    assert rec["slope"] == pytest.approx(2.0 * TV_BUMP, rel=0.10)


def test_divergence_probe_slope_p2(bump1):
    rec = S.diagonal_divergence_probe(bump1, 2.0, [1e-2, 1e-3, 1e-4, 1e-5])
    assert rec["slope"] == pytest.approx(2.0 * GRAD2_BUMP, rel=0.10)


def test_divergence_probe_against_extended_ladder(bump1):
    # the probe's own oracle: one extra decade should not move the slope
    short = S.diagonal_divergence_probe(bump1, 1.0, [1e-2, 1e-3, 1e-4])
    long = S.diagonal_divergence_probe(bump1, 1.0, [1e-2, 1e-3, 1e-4, 1e-5])
    assert short["slope"] == pytest.approx(long["slope"], rel=0.02)


def test_divergence_probe_zero_field_flat():
    rec = S.diagonal_divergence_probe(zero_field(), 1.0, [1e-2, 1e-3, 1e-4])
    assert all(v == 0.0 for v in rec["values"])
    assert rec["slope"] == 0.0


def test_divergence_probe_positive_for_nonconstant(cat):
    for name in ("bump1", "plateau1", "bumps1_pair"):
        rec = S.diagonal_divergence_probe(cat[name], 1.0, [1e-2, 1e-3, 1e-4])
        assert rec["slope"] > 0.0


def test_divergence_probe_rejects_non_geometric(bump1):
    with pytest.raises(InvalidParameterError):
        S.diagonal_divergence_probe(bump1, 1.0, [1e-2, 1e-3, 2e-4])


def test_seminorm_limit_factor_zero_field():
    rec = S.seminorm_limit_factor(zero_field(), 1.0, [0.5, 0.75])
    assert all(v == 0.0 for v in rec["factors"])
    assert rec["conjectured"] == 0.0 and rec["plateau_error"] == 0.0


def test_seminorm_limit_factor_plateau_1d(bump1):
    rec = S.seminorm_limit_factor(bump1, 1.0, [0.5, 0.75, 0.875, 0.9375, 0.96875])
    assert abs(rec["plateau_ratio"] - 1.0) <= 0.10
    assert rec["plateau"] == pytest.approx(2.0 * TV_BUMP, rel=0.10)


def test_seminorm_limit_factor_amplitude_homogeneity(bump1):
    a = S.seminorm_limit_factor(bump1, 2.0, [0.5, 0.75])["factors"]
    b = S.seminorm_limit_factor(F.scale_field(bump1, 3.0), 2.0, [0.5, 0.75])["factors"]
    assert np.allclose(b, 9.0 * np.asarray(a), rtol=1e-10)


def test_limit_factor_and_probe_mutually_consistent(bump1):
    for p in (1.0, 2.0):
        fac = S.seminorm_limit_factor(bump1, p, [0.5, 0.75, 0.875, 0.9375, 0.96875])
        probe = S.diagonal_divergence_probe(bump1, p, [1e-2, 1e-3, 1e-4, 1e-5])
        assert probe["slope"] == pytest.approx(p * fac["plateau"], rel=0.10)


def test_limit_factor_ladder_validation(bump1):
    with pytest.raises(InvalidParameterError):
        S.seminorm_limit_factor(bump1, 1.0, [0.9, 0.5])
    with pytest.raises(InvalidParameterError):
        S.seminorm_limit_factor(bump1, 1.0, [0.5, 1.0])
