import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaklp import fields as F
from weaklp import quadrature as Q
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


def test_separable_sup_norm_covers_each_profile_peak():
    # each axis grid holds its profile's peak: a bump's centre, a window's midpoint
    for name, f in _golden_fields().items():
        if not isinstance(f, F._SeparableField):
            continue
        axes = []
        for prof in f.profiles:
            peak = prof.center if isinstance(prof, F._Bump1DProfile) else 0.5 * (prof.lo + prof.hi)
            axes.append(np.union1d(np.linspace(*prof.sweep_extent(), 65), [peak]))
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        assert f.sup_norm >= np.abs(f.evaluate(pts)).max(), name


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
    with pytest.raises(InvalidParameterError) as err:
        F.field_from_spec({"kind": "catalogue", "name": "bump9"})
    assert str(err.value) == ("unknown catalogue field 'bump9'; the catalogue has "
                              + ", ".join(F.catalogue_names()))


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
    return F._bump_jet(r, f.radius, f.amplitude)[0]


def _reference_gradient(f, pts):
    d = pts - f.center
    q = np.sum(d ** 2, axis=-1) / f.radius ** 2
    out = np.zeros_like(d)
    m = q < 1.0
    w = 1.0 / (1.0 - q[m])
    val = f.amplitude * np.exp(-1.0 / (1.0 - q[m]))
    out[m] = (-2.0 * val * w ** 2 / f.radius ** 2)[..., None] * d[m]
    return out


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


def _support_entry(f, x, w):
    """The least r >= 0 at which x + r w, rows of (k, N), enters the closed
    set the field's own support test stands for (inf where it never does):
    a bump's ball, a separable field's box of sweep extents."""
    if hasattr(f, "fields"):
        return np.min([_support_entry(t, x, w) for t in f.fields], axis=0)
    if hasattr(f, "base"):
        return _support_entry(f.base, x, w)
    if hasattr(f, "profiles"):
        ext = np.array([p.sweep_extent() for p in f.profiles])
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = (ext[:, 0] - x) / w, (ext[:, 1] - x) / w
        inside = (ext[:, 0] <= x) & (x <= ext[:, 1])
        enter = np.max(np.where(w == 0.0, np.where(inside, 0.0, np.inf), np.minimum(a, b)), axis=1)
        leave = np.min(np.where(w == 0.0, np.where(inside, np.inf, -np.inf), np.maximum(a, b)), axis=1)
        enter = np.maximum(enter, 0.0)
        return np.where(enter <= leave, enter, np.inf)
    d = x - f.center
    dw, ww = np.sum(d * w, axis=1), np.sum(w * w, axis=1)
    disc = dw * dw - ww * (np.sum(d * d, axis=1) - f.radius ** 2)
    with np.errstate(invalid="ignore"):
        r = (-dw - np.sqrt(disc)) / ww
    r = np.where(np.sum(d * d, axis=1) <= f.radius ** 2, 0.0, r)
    return np.where((disc >= 0.0) & (r >= 0.0), r, np.inf)


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
    length = draw(st.sampled_from([0.0, 0.01, 0.5, 2.0]))
    # the same segments as rows, each with a length of its own: 0, one that
    # ends exactly where the segment enters the support, or a random one
    xr, wr = np.repeat(X, len(W), axis=0), np.tile(W, (len(X), 1))
    entry = _support_entry(f, xr, wr)
    lengths = np.where(np.isfinite(entry), entry, rng.uniform(0.0, 2.0, xr.shape[0]))
    pick = rng.integers(0, 3, xr.shape[0])
    lengths = np.where(pick == 0, 0.0, np.where(pick == 1, rng.uniform(0.0, 2.0, xr.shape[0]), lengths))
    return f, X, W, length, xr, wr, lengths, entry


def _assert_dropped_segments_read_zero(f, x, w, length):
    # dense points along every segment, both ends included
    t = np.linspace(0.0, 1.0, 257) * length
    pts = x[:, None, :] + t[..., None] * w[:, None, :]
    assert np.all(f.evaluate(pts) == 0.0)


@settings(max_examples=150, deadline=None)
@given(_segment_cases())
def test_segments_meet_support_is_conservative(case):
    f, X, W, length, xr, wr, lengths, entry = case
    hit = f.segments_meet_support(X[:, None], W[None], length)
    assert hit.shape == (X.shape[0], W.shape[0]) and hit.dtype == bool
    xi, wi = np.nonzero(~hit)
    _assert_dropped_segments_read_zero(f, X[xi], W[wi], np.full((xi.size, 1), length))
    # the grid form is the row form, element by element
    assert np.array_equal(hit.ravel(), f.segments_meet_support(xr, wr, np.full(xr.shape[0], length)))
    assert np.array_equal(hit.ravel(), f.segments_meet_support(xr, wr, length))
    rows = f.segments_meet_support(xr, wr, lengths)
    assert rows.shape == lengths.shape and rows.dtype == bool
    miss = ~rows
    _assert_dropped_segments_read_zero(f, xr[miss], wr[miss], lengths[miss, None])
    # a segment that reaches its entry point meets the support
    assert np.all(rows[lengths >= entry])


def test_segments_meet_support_is_tighter_than_the_centred_ball():
    # an off-centre bump and a box miss rays that the centred ball keeps
    for f in (F.make_bump([1.0, 0.0], 0.5), F.make_mollified_indicator([[0.5, 1.5], [0.0, 1.0]], 0.1)):
        X = np.array([[[-0.5, 0.0]]])
        W = np.array([[[-1.0, 0.0], [0.0, 1.0]]])
        assert not f.segments_meet_support(X, W, 0.4).any()
        assert F.ScalarField.segments_meet_support(f, X, W, 0.4).all()
        assert f.segments_meet_support(X, np.array([[[1.0, 0.0]]]), 1.0).all()


# ---------------------------------------------------------------------------
# along: u along axis-major rays
# ---------------------------------------------------------------------------

def _ray_tolerance(f, xs, ws, r):
    """Bound on |along - evaluate|: 0 for separable fields, which compute the
    same x + w r per element (directly, or once per distinct (x_i, w_i) pair
    on a shared row) and multiply in evaluate's order; for a radial bump the
    quadratic in r rounds relative to (|x - c| + r |w|)^2 / R^2, and the
    bump's slope in q is below |a|."""
    if isinstance(f, F._SumField):
        return sum(_ray_tolerance(t, xs, ws, r) for t in f.fields)
    if isinstance(f, F._ScaledField):
        return abs(f.factor) * _ray_tolerance(f.base, xs, ws, r)
    if isinstance(f, F._RadialBump):
        reach = np.linalg.norm(xs - f.center[:, None], axis=0)[:, None] \
            + r * np.linalg.norm(ws, axis=0)[:, None]
        return 1e-15 * abs(f.amplitude) * (1.0 + (reach / f.radius) ** 2)
    return 0.0


def _random_rays(rng, n, half):
    """300 random (N, k) axis-major rays, |w| != 1 on every other one."""
    k = 300
    xs = rng.uniform(-half, half, (n, k))
    ws = rng.normal(size=(n, k))
    ws /= np.linalg.norm(ws, axis=0)
    ws[:, ::2] *= rng.uniform(0.25, 3.0, k // 2)
    return xs, ws


def _product_rays(X, W):
    """Every (x, w) pair of the rows of X and W as (N, k) axis-major rays."""
    return np.repeat(X, len(W), axis=0).T.copy(), np.tile(W, (len(X), 1)).T.copy()


def _grid_rays(n, half):
    """The rays of a small polar grid: each (x_i, w_i) pair repeats.  The x
    grid has 4 - n panels per axis: 24, 1024 and 8192 rays in 1-D to 3-D."""
    X, _ = Q.TensorGrid(np.array([[-half, half]] * n), 4 - n).points_weights()
    return _product_rays(X, Q.sphere_rule(n, 8 if n < 3 else 4).half().nodes)


def _signed_zero_rays(n):
    """A product of x and w coordinates holding both 0.0 and -0.0, |w| != 1."""
    def product(vals):
        return np.stack(np.meshgrid(*[np.array(vals)] * n, indexing="ij"), -1).reshape(-1, n)

    return _product_rays(product([-0.0, 0.0, 0.3, -0.45]), product([0.0, -0.0, 1.5, -0.7]))


@pytest.mark.parametrize("name", F.catalogue_names() + ["scaled", "radial_sum", "separable_sum"])
def test_ray_values_match_evaluate(cat, name):
    extra = {"scaled": F.scale_field(cat["bump2_off"], -3.0),
             "radial_sum": F.make_sum([cat["bump2"], cat["bump2_off"], F.make_bump([0.3, 0.1], 0.05, 2.0)]),
             "separable_sum": F.make_sum([cat["plateau2"], F.scale_field(cat["product2"], -2.0),
                                          F.make_product_bump([0.2, -0.1], [0.9, 1.1], -1.7)])}
    f = extra[name] if name in extra else cat[name]
    rng = np.random.default_rng(len(name))
    n = f.dim
    half = f.support_radius + 1.0
    row, row2 = np.linspace(0.0, 2.0, 65), np.linspace(0.0, 2.0, 33)
    for xs, ws in (_random_rays(rng, n, half), _grid_rays(n, half), _signed_zero_rays(n)):
        k = xs.shape[1]
        # per-ray radii: one each (the bisection), or a row each (the seminorm)
        per_ray, per_ray_rows = rng.uniform(0.0, 2.0, (k, 1)), rng.uniform(0.0, 2.0, (k, 7))
        u = f.along(xs, ws)      # one binding, read on ray subsets as the scan does
        for b in (slice(None), slice(0, 1), slice(5, k // 2), slice(k // 3, None)):
            for r in (row, per_ray[b], row2, per_ray_rows[b]):
                got = u(r, b)
                want = f.evaluate(np.moveaxis(xs[:, b, None] + ws[:, b, None] * r, 0, -1))
                assert got.shape == want.shape == np.broadcast_shapes((len(range(k)[b]), 1), r.shape)
                tol = _ray_tolerance(f, xs[:, b], ws[:, b], r)
                if np.all(tol == 0.0):
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.all(np.abs(got - want) <= tol)
        assert np.any(u(row))


def _reference_radial_along(f, xs, ws, r):
    """The radial quadratic in r with a masked exponential: the reference for
    `along`'s unmasked one."""
    dd = dw = ww = 0.0
    for i in range(f.dim):
        d = xs[i] - f.center[i]
        dd, dw, ww = dd + d * d, dw + d * ws[i], ww + ws[i] * ws[i]
    q = (r * ww[:, None] + 2.0 * dw[:, None]) * r + dd[:, None]
    q /= f.radius ** 2
    out = np.zeros(q.shape)
    m = q < 1.0
    out[m] = f.amplitude * np.exp(-1.0 / (1.0 - q[m]))
    return out


@settings(max_examples=200, deadline=None)
@given(_radial_cases())
def test_radial_along_equals_the_masked_exponential(case):
    # 1 - q >= 2^-53 inside the ball, so flooring 1 - q at 2^-53 changes no
    # value inside and gives exactly 0 outside (-0.0 for a negative amplitude)
    f, pts, _ = case
    n = f.dim
    xs = np.concatenate([pts.reshape(-1, n), np.repeat(f.center[None], n, axis=0)]).T
    ws = np.concatenate([np.ones_like(pts.reshape(-1, n)), np.eye(n)]).T
    # on the axis rays from the centre r = R, and one ulp either side, is the sphere
    r = np.concatenate([np.linspace(0.0, 3.0 * f.radius, 33),
                        np.nextafter(f.radius, [0.0, f.radius, np.inf])])[None, :]
    got, want = f.along(xs, ws)(r), _reference_radial_along(f, xs, ws, r)
    assert np.array_equal(got, want)
    assert not np.any(got[-n:, -2:])


class _EvaluateOnly(F.ScalarField):
    """A field with `evaluate` alone, read through the base class's `along`."""

    def __init__(self, base):
        self.base, self.dim, self.support_radius = base, base.dim, base.support_radius

    def evaluate(self, pts):
        return self.base.evaluate(pts)


def _dtype_fields(cat):
    """name -> (field, its scan dtype): the catalogue, sums and multiples of
    radial bumps, of separable fields and of both, and a generic field."""
    separable = ("plateau1", "plateau2", "product2")
    out = {name: (f, np.float64 if name in separable else np.float32) for name, f in cat.items()}
    return out | {
        "scaled_bump": (F.scale_field(cat["bump2_off"], -3.0), np.float32),
        "scaled_sum": (F.scale_field(cat["bumps2_pair"], 0.5), np.float32),
        "scaled_product": (F.scale_field(cat["product2"], 2.0), np.float64),
        "radial_and_separable": (F.make_sum([cat["bump2"], cat["plateau2"]]), np.float64),
        "generic": (_EvaluateOnly(cat["bump2"]), np.float64),
    }


@pytest.mark.parametrize("name", F.catalogue_names() + ["scaled_bump", "scaled_sum", "scaled_product",
                                                        "radial_and_separable", "generic"])
def test_along_reads_in_the_declared_scan_dtype(cat, name):
    # a field that declares a float32 scan computes in float32 on float32
    # radii, with no silent upcast; every field computes in float64 on
    # float64 radii, the only ones the solve, the seminorm and covering pass
    f, dtype = _dtype_fields(cat)[name]
    assert f.scan_dtype == dtype
    xs, ws = _grid_rays(f.dim, f.support_radius + 1.0)
    k = xs.shape[1]
    u = f.along(xs, ws)
    row = np.linspace(0.0, 2.0, 65)
    per_ray = np.random.default_rng(k).uniform(0.0, 2.0, (k, 1))
    for b in (slice(None), slice(3, k // 2), np.arange(0, k, 3)):
        for r in (row, per_ray[b]):
            want = u(r, b)
            assert want.dtype == np.float64
            if dtype == np.float32:
                got = u(r.astype(np.float32), b)
                assert got.dtype == np.float32 and got.shape == want.shape
                # float32 rounding of the quadratic: |q| stays below 25, and
                # |d/dq a exp(-1/(1 - q))| below |a|
                assert np.all(np.abs(got - want) <= 2e-5 * f.sup_norm / math.exp(-1.0))


# windows: lo in [-3, 3], side, and eps as a fraction of the side up to 0.49
_windows = st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 4.0), st.floats(1e-3, 0.49))


@settings(max_examples=200, deadline=None)
@given(_windows, st.lists(st.floats(-8.0, 8.0), max_size=16))
@example((1e-6, 1e-3, 1e-3), [])     # lo - eps is 0: a subnormal t once overflowed 1/t
def test_window_value_is_the_two_step_product(window, extra):
    lo, side, frac = window
    w = F._Window1D(lo, lo + side, frac * side)
    # the four layer edges lo +- eps, hi +- eps, one ulp either side of each,
    # and arbitrary points
    edges = [w.lo - w.eps, w.lo + w.eps, w.hi - w.eps, w.hi + w.eps]
    t = np.concatenate([np.nextafter(e, [-np.inf, e, np.inf]) for e in edges] + [extra])
    h = 2.0 * w.eps
    rise = F._step_jet((t - (w.lo - w.eps)) / h)[0]
    fall = F._step_jet(((w.hi + w.eps) - t) / h)[0]
    assert w.jet(t)[0].tobytes() == (rise * fall).tobytes()


# ---------------------------------------------------------------------------
# bit-identity goldens of bounds, values and gradients
# ---------------------------------------------------------------------------

def _golden_fields():
    out = dict(F.catalogue())
    out["indicator3"] = F.make_mollified_indicator([[-0.5, 0.5], [-0.3, 0.6], [0.0, 1.0]], 0.1)
    out["product3_neg"] = F.make_product_bump([0.1, -0.2, 0.3], [0.9, 0.7, 1.1], -1.3)
    out["indicator1_fine"] = F.make_mollified_indicator([[0.0, 1.0]], 0.025)
    return out


def _edges(spec, dim):
    """Per-axis coordinates where a profile switches: lo +- eps, hi +- eps and
    center +- radius, taken from the field's spec."""
    kind = spec["kind"]
    if kind == "mollified_indicator":
        e = spec["epsilon"]
        return [[lo - e, lo + e, hi - e, hi + e] for lo, hi in spec["box"]]
    if kind == "product_bump":
        return [[c - r, c + r] for c, r in zip(spec["centers"], spec["radii"])]
    if kind == "bump":
        return [[c - spec["radius"], c + spec["radius"]] for c in spec["center"]]
    if kind == "scaled":
        return _edges(spec["base"], dim)
    parts = [_edges(t, dim) for t in spec["terms"]]
    return [sum((p[i] for p in parts), []) for i in range(dim)]


def _golden_points(f, seed):
    rng = np.random.default_rng(seed)
    R = f.support_radius + 0.1
    pts = [rng.uniform(-R, R, size=(2000, f.dim))]
    edges = _edges(f.spec, f.dim)
    for i, axis in enumerate(edges):
        for e in axis:
            p = rng.uniform(-R, R, size=(8, f.dim))
            p[:, i] = e
            pts.append(p)
    # every coordinate at an edge (both switches of each profile at once)
    pts.append(np.array([[axis[k % len(axis)] for axis in edges] for k in range(4)]))
    return np.concatenate(pts)


def _field_digest(f, seed):
    pts = _golden_points(f, seed)
    return (
        f.lip_bound.hex(), f.hess_bound.hex(), f.sup_norm.hex(),
        hashlib.sha256(np.ascontiguousarray(f.evaluate(pts)).tobytes()).hexdigest(),
        hashlib.sha256(np.ascontiguousarray(f.gradient(pts)).tobytes()).hexdigest(),
    )


# recorded before the profile kernels were folded into jets; the sup_norm of
# product2 and product3_neg re-recorded when separable fields took the exact
# profile peaks instead of the sweep's maxima
FIELD_GOLDENS = {
    "bump1": (
        "0x1.ad3c5860810bdp-1", "0x1.0463a724c1126p+3", "0x1.78b56362cef38p-2",
        "66a110062bcf18f8ff637723d0e1c70b4cb295a6e4b249a4d94af4909d648045",
        "f91060d7e9dd9648f2657fe7d44b13e7a4b1d81e15ab19239e1088ea4f20b506",
    ),
    "bump1_wide": (
        "0x1.926892da78faep-2", "0x1.3124c7df12416p+1", "0x1.1a880a8a1b36ap-2",
        "8fdd267ec0dffcf65c32b03924bb4a4702a6303910023e7e09eb914830c8dcea",
        "21d0f0ae46287f4d925855cea5aed34feb49cf78cd94b1d4fe32f92205f9308f",
    ),
    "bump2": (
        "0x1.ad3c5860810bdp-1", "0x1.0463a724c1126p+3", "0x1.78b56362cef38p-2",
        "ffcb3db6cc3e0a6ba2d537dfd6a7efed11d0426ce6ac519094e7c0fb71fbb051",
        "48310d450eb3cc068544b6095694b7d70aa865d1ff7526707646360a62ef7f2d",
    ),
    "bump2_off": (
        "0x1.1e283aeb00b29p-1", "0x1.215247eff2f7ep+2", "0x1.2d5de91bd8c2dp-2",
        "d2e13f6ac437b78d3c566d57838fbc38b3649f0b7f070c4a4477b7e5f1259430",
        "bffdb7aa436696924569744bb9b006a1d32f8920af950b18ea33655b57cf6198",
    ),
    "bump3": (
        "0x1.ad3c5860810bdp-1", "0x1.0463a724c1126p+3", "0x1.78b56362cef38p-2",
        "0a32d3c40d3776746947fb597695f94f08aebf4f7bb41661871af0a5a96e4869",
        "7558b6a641475395c0d63fca19f19acb339cbe73797a77d9e2e89f1bc01b13ef",
    ),
    "bumps1_pair": (
        "0x1.339e72896d8ccp+1", "0x1.510f37a59ee5ep+5", "0x1.2d5de91bd8c2dp-1",
        "b24c3639bf3b9bd768502e33318a0b60635fbf664ebdd46d0c71938f78f83b2d",
        "f75b6cc2c325ec51a5f31268a984aeefd4ca27a546f5b7d448310b190f44b60e",
    ),
    "bumps2_pair": (
        "0x1.2860862a40b8fp+1", "0x1.15832ae0ee46ap+5", "0x1.5309a63f53db2p-1",
        "e59c9d7a5ec6e3e02b824040b37dd1ff935f8060c3e352cd222a4a901ce39ae1",
        "582ac5c52ad17f4df522fd6a1fb608c97595b80724f6060b5fd38fbe065298fd",
    ),
    "indicator1_fine": (
        "0x1.4ffdbcd6ba497p+5", "0x1.023b7fe8b5d65p+12", "0x1.0000000000000p+0",
        "deab2042f50c0e3424b61b0d6251b9280abafb5f8d8be9a42f9d3c255767b776",
        "abf142843a6ca54220675443e7f91e9087f6630430faf907a662cb13c69d1804",
    ),
    "indicator3": (
        "0x1.22fc004b79bc9p+4", "0x1.020b83515dc6ap+9", "0x1.0000000000000p+0",
        "c8913b89633abc69392466a3c33e99bd4fc0618a02188075fd8e2cfd328f53de",
        "ac7102604983449a6938779d7f1289bc5a5adb30de0d41ed56ddc0bd4786d186",
    ),
    "plateau1": (
        "0x1.4ffff42e840f6p+3", "0x1.0253c99388ca6p+8", "0x1.0000000000000p+0",
        "5b9f581c9d4245aea20ec1fcfe1c3eddb59bdd8e7c525687d0827de5039623ba",
        "78df53814c72c856ca4dc0dbb1fdf3230c64549a0e4899108ebb79f1a15c0a54",
    ),
    "plateau2": (
        "0x1.8bfac614215f2p+3", "0x1.11db95bd6b714p+8", "0x1.0000000000000p+0",
        "a09befab8fcfdb0e130c420a0dd8db5aca7b7ddc0640d694ad3bd8eedc5eb2b5",
        "d889670c83e4a60a2b22a9469f0cd788f253a3cde0f89b08c26f09063006421a",
    ),
    "product2": (
        "0x1.f98c8b6062d4ep-2", "0x1.6b62a818480dfp+2", "0x1.152aaa3bf81ccp-3",
        "50a988c6522fe3bb1b968624434ac761e8378ca042a6045776e45902a333b5a2",
        "0f73d3422132a9cde1a335f90765fd25244c8a30e2f79f7fc587fd11fab39265",
    ),
    "product3_neg": (
        "0x1.31e483b4b6582p-2", "0x1.e12ab3547ecbcp+1", "0x1.091b2eb86593fp-4",
        "20a21b7eff55806d2b35db756de7fe1bb7e2083a9951d0fd755ab89a9c7adc70",
        "8b1bed8446c77d62005d0072899c69deaa3bbe2302ea598213855f58a1f4b6eb",
    ),
}


@pytest.mark.parametrize("name", sorted(FIELD_GOLDENS))
def test_field_bounds_values_gradients_bit_identical(name):
    seed = sorted(FIELD_GOLDENS).index(name)
    assert _field_digest(_golden_fields()[name], seed) == FIELD_GOLDENS[name]


# float.hex of gradient_lp_norm(f, p) at the default budget for p = 1 and 2,
# recorded while |grad u|^2 was np.sum(grad ** 2, axis=-1)
GRADIENT_LP_GOLDENS = {
    "bump1": ("0x1.78b56362cef38p-1", "0x1.a36aca5b31102p-2"),
    "bump1_wide": ("0x1.1a880a730b6acp-1", "0x1.26e716481e7f5p-3"),
    "bump2": ("0x1.6514ba70f54bcp+0", "0x1.b35f52158ac9ap-1"),
    "bump2_off": ("0x1.56cc4c616aa25p+0", "0x1.16a365fe4dd4bp-1"),
    "bump3": ("0x1.ddb10a6f8edc2p+0", "0x1.2ea39bfa11312p+0"),
    "bumps1_pair": ("0x1.2d5de80c41e39p+0", "0x1.f48124adace51p-1"),
    "bumps2_pair": ("0x1.a558fd46e129fp+0", "0x1.6501d4a995bf6p+0"),
    "plateau1": ("0x1.0000000000000p+1", "0x1.061f9021ae431p+4"),
    "plateau2": ("0x1.ee812acc81e6ap+1", "0x1.a11e13de0d326p+4"),
    "product2": ("0x1.0202d133dd902p-1", "0x1.c9b69c3bc3aa4p-4"),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_LP_GOLDENS))
def test_gradient_lp_norm_goldens(cat, name):
    got = tuple(F.gradient_lp_norm(cat[name], p).value.hex() for p in (1.0, 2.0))
    assert got == GRADIENT_LP_GOLDENS[name]
