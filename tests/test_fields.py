import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklp import fields as F
from weaklp.errors import InvalidParameterError

# adaptive-quadrature oracle values, frozen before the estimators were built
TV_BUMP = 2 / math.e                      # int |u'|, unimodal so 2 * max
GRAD2_BUMP = 0.4095870607527702           # int |u'|^2
GRAD1_BUMP_2D = 1.3948477111129345        # int |grad u|, radial 2-D bump


def test_bump_center_value(bump1):
    assert bump1.evaluate(np.array([[0.0]]))[0] == pytest.approx(math.exp(-1), rel=1e-15)


def test_bump_outside_support_is_exact_zero(bump1):
    assert bump1.evaluate(np.array([[1.5]]))[0] == 0.0


def test_bump_rejects_bad_radius():
    with pytest.raises(InvalidParameterError):
        F.make_bump([0.0], -1.0)


def test_mollified_indicator_plateau_and_outside():
    u = F.make_mollified_indicator([[0.0, 1.0]], 0.1)
    assert u.evaluate(np.array([[0.5]]))[0] == 1.0
    assert u.evaluate(np.array([[-0.2]]))[0] == 0.0


def test_mollified_indicator_epsilon_bound():
    with pytest.raises(InvalidParameterError):
        F.make_mollified_indicator([[0.0, 1.0]], 0.5)


def test_support_exactness_random_points(cat, rng):
    for f in cat.values():
        R = f.support_radius
        d = rng.uniform(1.0 + 1e-9, 3.0, size=(10_000, 1))
        w = rng.normal(size=(10_000, f.dim))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        pts = R * d * w
        assert np.all(f.evaluate(pts) == 0.0)


def test_lipschitz_and_taylor_bounds_sampled(cat, rng):
    for f in cat.values():
        R = f.support_radius + 0.5
        x = rng.uniform(-R, R, size=(10_000, f.dim))
        y = x + rng.uniform(-0.3, 0.3, size=(10_000, f.dim))
        du = np.abs(f.evaluate(x) - f.evaluate(y))
        dist = np.linalg.norm(x - y, axis=1)
        assert np.all(du <= f.lip_bound * dist + 1e-12)
        lin = f.evaluate(y) - f.evaluate(x) - np.sum(f.gradient(x) * (y - x), axis=1)
        assert np.all(np.abs(lin) <= f.hess_bound * dist ** 2 + 1e-12)


def test_bounds_dominate_observed_grid(cat):
    for f in cat.values():
        R = f.support_radius
        if f.dim == 1:
            pts = np.linspace(-R, R, 4096)[:, None]
        elif f.dim == 2:
            ax = np.linspace(-R, R, 160)
            XX, YY = np.meshgrid(ax, ax, indexing="ij")
            pts = np.stack([XX.ravel(), YY.ravel()], axis=-1)
        else:
            ax = np.linspace(-R, R, 40)
            g = np.meshgrid(ax, ax, ax, indexing="ij")
            pts = np.stack([a.ravel() for a in g], axis=-1)
        assert np.abs(f.evaluate(pts)).max() <= f.sup_norm * (1 + 1e-12)
        grad = np.sqrt(np.sum(f.gradient(pts) ** 2, axis=-1))
        assert grad.max() <= f.lip_bound * (1 + 1e-12)


def test_gradient_matches_central_differences(cat, rng):
    # second-order ladder: err <= K h^2 with K estimated at the coarsest h
    for f in cat.values():
        pts = rng.uniform(-0.6, 0.6, size=(64, f.dim))
        errs = []
        ladder = [1e-2, 5e-3, 2.5e-3]
        for h in ladder:
            worst = 0.0
            for i in range(f.dim):
                e = np.zeros(f.dim)
                e[i] = h
                fd = (f.evaluate(pts + e) - f.evaluate(pts - e)) / (2 * h)
                worst = max(worst, np.abs(fd - f.gradient(pts)[:, i]).max())
            errs.append(worst)
        K = errs[0] / ladder[0] ** 2
        for h, err in zip(ladder[1:], errs[1:]):
            assert err <= 1.5 * K * h ** 2 + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10.0))
def test_amplitude_homogeneity(c):
    base = F.make_bump([0.2], 0.9, 1.0)
    scaled = F.scale_field(base, c)
    pts = np.linspace(-1.2, 1.2, 64)[:, None]
    assert np.allclose(scaled.evaluate(pts), c * base.evaluate(pts), rtol=1e-14)
    assert np.allclose(scaled.gradient(pts), c * base.gradient(pts), rtol=1e-14)
    assert scaled.lip_bound == pytest.approx(c * base.lip_bound, rel=1e-14)


def test_gradient_lp_norm_zero_field():
    z = F.make_bump([0.0], 1.0, 0.0)
    assert F.gradient_lp_norm(z, 1.0).value == 0.0


def test_gradient_l1_norm_matches_total_variation(bump1):
    res = F.gradient_lp_norm(bump1, 1.0)
    assert res.value == pytest.approx(TV_BUMP, rel=1e-9)
    assert res.converged


def test_gradient_l2_norm_matches_oracle(bump1):
    assert F.gradient_lp_norm(bump1, 2.0).value == pytest.approx(GRAD2_BUMP, rel=1e-9)


def test_gradient_l1_norm_2d_matches_oracle(bump2):
    assert F.gradient_lp_norm(bump2, 1.0, budget=16384).value == pytest.approx(
        GRAD1_BUMP_2D, rel=1e-6
    )


def test_mollified_indicator_total_variation():
    u = F.make_mollified_indicator([[0.0, 1.0]], 0.1)
    assert F.gradient_lp_norm(u, 1.0).value == pytest.approx(2.0, rel=1e-9)


def test_gradient_lp_norm_refinement_within_error(bump1):
    base = F.gradient_lp_norm(bump1, 2.0, budget=1024)
    fine = F.gradient_lp_norm(bump1, 2.0, budget=2048)
    assert abs(fine.value - base.value) <= base.error_estimate + 1e-12


def test_gradient_lp_norm_budget_floor(bump1):
    with pytest.raises(InvalidParameterError):
        F.gradient_lp_norm(bump1, 1.0, budget=4)


def test_field_from_spec_round_trip(cat):
    for f in cat.values():
        g = F.field_from_spec(f.spec)
        pts = np.zeros((1, f.dim)) + 0.1
        assert g.evaluate(pts)[0] == f.evaluate(pts)[0]


def test_field_from_spec_rejects_unknown():
    with pytest.raises(InvalidParameterError):
        F.field_from_spec({"kind": "mystery"})
    with pytest.raises(InvalidParameterError):
        F.field_from_spec({"kind": "bump", "center": [0.0]})


def test_sum_field_bounds_subadditive(cat):
    f = cat["bumps1_pair"]
    parts = f.fields
    assert f.lip_bound <= sum(p.lip_bound for p in parts) + 1e-12
    assert f.sup_norm <= sum(p.sup_norm for p in parts) + 1e-12


# ---------------------------------------------------------------------------
# per-axis squared distances: bitwise equal to the numpy reduce they replace
# ---------------------------------------------------------------------------

def _reference_evaluate(f, pts):
    r = np.sqrt(np.sum((pts - f.center) ** 2, axis=-1))
    return F._bump_profile(r, f.radius, f.amplitude)


def _reference_gradient(f, pts):
    d = pts - f.center
    q = np.sum(d ** 2, axis=-1) / f.radius ** 2
    out = np.zeros_like(d)
    m = q < 1.0
    w = 1.0 / (1.0 - q[m])
    val = f.amplitude * np.exp(-1.0 / (1.0 - q[m]))
    out[m] = (-2.0 * val * w ** 2 / f.radius ** 2)[..., None] * d[m]
    return out


def _reference_support_distance(f, pts):
    return np.maximum(np.sqrt(np.sum(pts ** 2, axis=-1)) - f.support_radius, 0.0)


# dyadic centres and radii make c +- R e_i exact points of the support sphere
_coord = st.one_of(st.integers(-256, 256).map(lambda k: k / 64.0),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
_radius = st.one_of(st.integers(1, 192).map(lambda k: k / 64.0), st.floats(0.05, 3.0))


@st.composite
def _radial_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    f = F.make_bump(draw(st.lists(_coord, min_size=n, max_size=n)), draw(_radius),
                    draw(st.floats(-2.0, 2.0, allow_nan=False)))
    shape = draw(st.sampled_from([(9,), (2, 3, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = f.center + rng.uniform(-1.5, 1.5, size=shape + (n,)) * f.radius
    # points on the bump's sphere and on the support ball's sphere
    eye = np.eye(n)
    on_sphere = np.concatenate([f.center + f.radius * eye, f.center - f.radius * eye,
                                f.support_radius * eye])
    return f, pts, on_sphere


@settings(max_examples=200, deadline=None)
@given(_radial_cases())
def test_radial_bump_per_axis_sums_bitwise_equal_reference(case):
    f, pts, on_sphere = case
    for p in (pts, on_sphere):
        assert np.array_equal(f.evaluate(p), _reference_evaluate(f, p))
        assert np.array_equal(f.gradient(p), _reference_gradient(f, p))
        assert np.array_equal(f.support_distance(p), _reference_support_distance(f, p))
    assert np.all(f.evaluate(f.center + f.radius * np.eye(f.dim)) == 0.0)


# ---------------------------------------------------------------------------
# segments_meet_support: conservative segment-support tests
# ---------------------------------------------------------------------------

_offset = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@st.composite
def _support_fields(draw, n):
    kind = draw(st.sampled_from(["catalogue", "bump", "product", "indicator"]))
    if kind == "catalogue":
        return F.catalogue()[draw(st.sampled_from(F.catalogue_names(n)))]
    centre = draw(st.lists(_offset, min_size=n, max_size=n))
    if kind == "bump":
        return F.make_bump(centre, draw(st.floats(0.1, 1.5)), draw(st.floats(-2.0, 2.0)))
    radii = draw(st.lists(st.floats(0.1, 1.5), min_size=n, max_size=n))
    if kind == "product":
        return F.make_product_bump(centre, radii, draw(st.floats(-2.0, 2.0)))
    box = [[c - r, c + r] for c, r in zip(centre, radii)]
    return F.make_mollified_indicator(box, 0.4 * min(radii))


@st.composite
def _segment_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    f = draw(_support_fields(n))
    shape = draw(st.sampled_from(["plain", "scaled", "sum"]))
    if shape == "scaled":
        f = F.scale_field(f, draw(st.sampled_from([-3.0, 0.5, 2.0])))
    elif shape == "sum":
        f = F.make_sum([f, draw(_support_fields(n))])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    half = f.support_radius + 1.0
    X = rng.uniform(-half, half, size=(24, n))
    W = rng.normal(size=(6, n))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    W = np.vstack([W, np.eye(n), -np.eye(n)])     # zero components for the slab test
    length = draw(st.floats(0.01, 2.0))
    margin = draw(st.sampled_from([0.0, 1e-9]))
    return f, X, W, length, margin


@settings(max_examples=150, deadline=None)
@given(_segment_cases())
def test_segments_meet_support_is_conservative(case):
    f, X, W, length, margin = case
    hit = f.segments_meet_support(X, W, length, margin)
    assert hit.shape == (X.shape[0], W.shape[0]) and hit.dtype == bool
    xi, wi = np.nonzero(~hit)
    # dense points along every segment reported as missing, both ends included
    t = np.linspace(0.0, length, 257)
    pts = X[xi][:, None, :] + t[None, :, None] * W[wi][:, None, :]
    assert np.all(f.evaluate(pts) == 0.0)


def test_segments_meet_support_is_tighter_than_the_centred_ball():
    # an off-centre bump and a box miss rays that the centred ball keeps
    for f in (F.make_bump([1.0, 0.0], 0.5), F.make_mollified_indicator([[0.5, 1.5], [0.0, 1.0]], 0.1)):
        X = np.array([[-0.5, 0.0]])
        W = np.array([[-1.0, 0.0], [0.0, 1.0]])
        assert not f.segments_meet_support(X, W, 0.4, 1e-9).any()
        assert F.ScalarField.segments_meet_support(f, X, W, 0.4, 1e-9).all()
        assert f.segments_meet_support(X, np.array([[1.0, 0.0]]), 1.0, 1e-9).all()
