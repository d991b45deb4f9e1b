import math

import numpy as np
import pytest

from weaklp import corollaries as Co
from weaklp import fields as F
from weaklp.errors import InvalidParameterError

FAST = {"lambda_points": 16}


def test_gn_params_identities():
    prm = Co.GNParams(0.3, 2.5, 0.4)
    assert prm.s == 0.3 * 0.4 + (1.0 - 0.3)
    assert prm.inv_p == 0.3 / 2.5 + (1.0 - 0.3)
    assert prm.p == pytest.approx(1.0 / prm.inv_p, rel=1e-15)
    inf = Co.GNParams(0.5, math.inf)
    assert inf.inv_p == 0.5 and inf.p == 2.0
    with pytest.raises(InvalidParameterError):
        Co.GNParams(1.5, 2.0)


def test_weak_gradient_1d_zero_field():
    z = F.make_bump([0.0], 1.0, 0.0)
    rep = Co.check_weak_gradient_1d(z, 1.5, budgets=FAST)
    assert rep.lhs == 0.0 and rep.ratio == 0.0


def test_weak_gradient_1d_refusals(bump1, bump2):
    with pytest.raises(InvalidParameterError):
        Co.check_weak_gradient_1d(bump1, 1.0)
    with pytest.raises(InvalidParameterError):
        Co.check_weak_gradient_1d(bump1, 2.5)
    with pytest.raises(InvalidParameterError):
        Co.check_weak_gradient_1d(bump2, 1.5)


def test_weak_gradient_1d_homogeneity(bump1):
    r1 = Co.check_weak_gradient_1d(bump1, 1.5, budgets=FAST)
    r3 = Co.check_weak_gradient_1d(F.scale_field(bump1, 3.0), 1.5, budgets=FAST)
    assert r3.lhs == pytest.approx(3.0 * r1.lhs, rel=1e-2)
    assert r3.rhs == pytest.approx(3.0 * r1.rhs, rel=1e-12)


def test_weak_gradient_1d_bounded_on_shrinking_plateaus():
    ratios = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        u = F.make_mollified_indicator([[0.0, 1.0]], eps)
        rep = Co.check_weak_gradient_1d(u, 1.5, budgets=FAST)
        assert rep.rhs == pytest.approx(2.0, rel=1e-9)
        ratios.append(rep.ratio)
    med = float(np.median(ratios))
    assert all(med / 3 <= r <= 3 * med for r in ratios)


def test_weak_sup_interpolation_homogeneity(bump1):
    r1 = Co.check_weak_sup_interpolation(bump1, 1.5, budgets=FAST)
    r3 = Co.check_weak_sup_interpolation(F.scale_field(bump1, 3.0), 1.5, budgets=FAST)
    # both sides scale by c^(1-1/p) * c^(1/p) = c
    assert r3.rhs == pytest.approx(3.0 * r1.rhs, rel=1e-12)
    assert r3.lhs == pytest.approx(3.0 * r1.lhs, rel=1e-2)


def test_weak_sup_interpolation_refuses_bad_p(bump1):
    with pytest.raises(InvalidParameterError):
        Co.check_weak_sup_interpolation(bump1, 1.0)
    with pytest.raises(InvalidParameterError):
        Co.check_weak_sup_interpolation(bump1, 2.5)


def test_weak_seminorm_interpolation_regime_redirect(bump1):
    with pytest.raises(InvalidParameterError, match="strong"):
        Co.check_weak_seminorm_interpolation(bump1, 0.5, 1.5, 0.3, budgets=FAST)


def test_weak_seminorm_interpolation_finite_ratio(bump1):
    rep = Co.check_weak_seminorm_interpolation(bump1, 0.5, 2.0, 0.5, budgets=FAST)
    assert math.isfinite(rep.ratio) and rep.ratio > 0


def test_weak_seminorm_interpolation_theta_near_one(bump1):
    rep = Co.check_weak_seminorm_interpolation(bump1, 0.85, 2.0, 0.6, budgets=FAST)
    assert math.isfinite(rep.ratio) and rep.ratio > 0


def test_strong_interpolation_refuses_infinite_p1(bump1):
    with pytest.raises(InvalidParameterError):
        Co.check_strong_interpolation(bump1, 0.5, math.inf)


def test_strong_interpolation_bounded_on_plateaus():
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        u = F.make_mollified_indicator([[0.0, 1.0]], eps)
        rep = Co.check_strong_interpolation(u, 0.5, 2.0)
        ratios.append(rep.ratio)
    med = float(np.median(ratios))
    assert all(med / 3 <= r <= 3 * med for r in ratios)


def test_strong_interpolation_homogeneous(bump1):
    r1 = Co.check_strong_interpolation(bump1, 0.5, 2.0)
    r3 = Co.check_strong_interpolation(F.scale_field(bump1, 3.0), 0.5, 2.0)
    assert r3.lhs == pytest.approx(3.0 * r1.lhs, rel=1e-10)
    assert r3.rhs == pytest.approx(3.0 * r1.rhs, rel=1e-10)


def test_strong_embedding_refuses_1d(bump1):
    with pytest.raises(InvalidParameterError, match="divergence"):
        Co.check_strong_embedding(bump1, 0.5)


def test_strong_embedding_exponent_relation(bump2):
    rep = Co.check_strong_embedding(bump2, 0.5, budgets={"x_nodes": 24})
    assert rep.params["p"] == pytest.approx(4.0 / 3.0, abs=0)
    assert math.isfinite(rep.ratio) and rep.ratio > 0


def test_divergence_probe_monotone_and_log_rate():
    probe = Co.strong_norm_divergence_probe(2.0, [0.2, 0.1, 0.05, 0.025])
    assert probe["increments_positive"]
    assert probe["increment_drift"] <= 0.25
    assert all(w is not None for w in probe["weak_ratios"])


def test_divergence_probe_requires_cutoff_at_p_one():
    with pytest.raises(InvalidParameterError, match="delta_in"):
        Co.strong_norm_divergence_probe(1.0, [0.2, 0.1, 0.05])
    rec = Co.strong_norm_divergence_probe(1.0, [0.2, 0.1, 0.05], delta_in=1e-5)
    assert len(rec["values"]) == 3


def test_divergence_probe_rejects_fewer_than_three_rungs():
    # two rungs have one increment and so no drift to measure
    with pytest.raises(InvalidParameterError, match="three rungs"):
        Co.strong_norm_divergence_probe(2.0, [0.2, 0.1])


def test_divergence_probe_rejects_increasing_ladder():
    with pytest.raises(InvalidParameterError):
        Co.strong_norm_divergence_probe(2.0, [0.1, 0.2])


def test_strong_checks_name_unknown_budget_keys():
    f = F.catalogue()["plateau2"]
    with pytest.raises(InvalidParameterError, match="'lambda_points'"):
        Co.check_strong_embedding(f, 0.5, budgets={"lambda_points": 8, "v_order": 4})
    with pytest.raises(InvalidParameterError, match="'scan'"):
        Co.check_strong_interpolation(f, 0.5, 2.0, budgets={"scan": 64})


def test_weak_checks_name_unknown_budget_keys():
    f = F.make_mollified_indicator([[0.0, 1.0]], 0.2)
    with pytest.raises(InvalidParameterError, match="'scna'"):
        Co.check_weak_gradient_1d(f, 1.5, budgets={"lambda_points": 8, "refine": 2, "scna": 64})
