import math

import numpy as np
import pytest

from weaklp import fields as F
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


def test_divergence_probe_slope_1d(bump1):
    rec = S.diagonal_divergence_probe(bump1, 1.0, [1e-2, 1e-3, 1e-4, 1e-5])
    assert rec["passed"]
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
    assert rec["passed"]


def test_seminorm_limit_factor_plateau_1d(bump1):
    rec = S.seminorm_limit_factor(bump1, 1.0, [0.5, 0.75, 0.875, 0.9375, 0.96875])
    assert rec["passed"]
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
