"""Smooth compactly supported test fields with exact gradients and certified bounds.

Fields are immutable after construction; evaluation is vectorized over point
arrays of shape (..., N) and is safe to call concurrently.  Every field
vanishes *exactly* (returns 0.0, not something small) outside the centered
ball of radius `support_radius`, and `segments_meet_support(X, W, length)`
says, conservatively, which segments can meet its support at all: the field
owns the whole test, its own tighter set and the slack `_PRUNE_MARGIN` that
covers the rounding of x + r w, and X, W and `length` broadcast, so one call
answers a grid of segments or a list of row-paired ones.  The certified
bounds `lip_bound`, `hess_bound` and `sup_norm` are plain attributes, set
when the field is built.

Bumps and the axis profiles of separable fields rest on two jets, `_bump_jet`
and `_step_jet`, each [value, d1, ..., d_order] from one mask and one set of
exponentials; only the radial bump's gradient keeps a formula of its own.  A
window's value is its nearer edge's step.  `along(xs, ws)` binds a ray list once
and returns u(r, b) on its ray subsets b: a quadratic in r for radial bumps, and
on a shared row r tables per distinct (x_i, w_i) pair for separable fields.
`scan_dtype` names the dtype the ray scan reads `along` in: float32 for radial
bumps and for sums and multiples of them, whose `along` computes in r's dtype,
and float64 for every other field.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .quadrature import QuadratureResult, centered_box_grid

__all__ = [
    "ScalarField",
    "catalogue",
    "catalogue_names",
    "field_from_spec",
    "gradient_lp_norm",
    "lp_norm",
    "make_bump",
    "make_mollified_indicator",
    "make_product_bump",
    "make_sum",
    "scale_field",
]

_CERT_GRID = 2 ** 12          # per-axis certification sweep resolution
_CERT_SAFETY = 1.05
_PRUNE_MARGIN = 1e-9          # support-test slack relative to length + support_radius:
                              # covers the rounding of x + r w, so a segment the test
                              # drops reads u = 0 exactly


def _sum_squares(pts, center=None):
    """sum((pts - center)^2, axis=-1), accumulated axis by axis: numpy reduces a
    short trailing axis in this same order, so the bits agree, and the loop skips
    the slow small-axis reduce and the (..., N) temporaries."""
    pts = np.asarray(pts, dtype=float)
    q = None
    for i in range(pts.shape[-1]):
        d = pts[..., i] if center is None else pts[..., i] - center[i]
        if q is None:
            q = d * d
        else:
            q += d * d
    return q


class ScalarField:
    """Base class; subclasses implement `evaluate` and `gradient`."""

    dim: int
    support_radius: float
    label: str
    lip_bound: float      # certified upper bounds for |grad u|, the Hessian norm and |u|
    hess_bound: float
    sup_norm: float
    scan_dtype = np.dtype(np.float64)   # dtype of r that `along` computes in, for the ray scan

    def evaluate(self, pts):
        raise NotImplementedError

    def along(self, xs, ws):
        """u along the (N, k) axis-major rays xs + r ws: u(r, b) on the ray subset
        b at radii r, a shared (m,) row or per-ray (len(b), 1) or (len(b), m)
        radii, as a new (len(b), m) array.  The base class builds the (N,
        len(b), m) points, so each coordinate `evaluate` reads is contiguous."""
        return lambda r, b=slice(None): self.evaluate(np.moveaxis(xs[:, b, None] + ws[:, b, None] * r, 0, -1))

    def gradient(self, pts):
        raise NotImplementedError

    def support_distance(self, pts):
        """Distance to the support ball (a lower bound on the distance to supp u)."""
        return np.maximum(np.sqrt(_sum_squares(pts)) - self.support_radius, 0.0)

    def segments_meet_support(self, X, W, length):
        """Whether the segment x + r w, 0 <= r <= length, can meet supp u, for
        X (..., N), W (..., N) and `length` broadcast against each other:
        X[:, None] and W[None] give the (nx, nw) grid, equal shapes the rows.

        Conservative: False only where every point of the segment, x itself
        included, lies more than `_margin(length)` outside a set containing
        supp u, so `evaluate` and `along` return exactly 0.0 there.  The base
        class tests the centered ball of `support_radius`; subclasses test
        tighter sets.
        """
        return _segments_meet_ball(X, W, length, np.zeros(self.dim), self.support_radius + self._margin(length))

    def _margin(self, length):
        # near the support |x| and r |w| are at most length + support_radius
        # (unit w), and x + r w rounds by a few ulps of that
        return _PRUNE_MARGIN * (np.asarray(length, dtype=float) + self.support_radius)

    def __repr__(self):
        return f"<ScalarField {self.label!r} N={self.dim}>"


def _segments_meet_ball(X, W, length, center, radius):
    """Whether x + r w, 0 <= r <= length, meets the closed ball, broadcast."""
    X, W = np.asarray(X, dtype=float), np.asarray(W, dtype=float)
    d = [X[..., i] - c for i, c in enumerate(center)]
    w = [W[..., i] for i in range(W.shape[-1])]
    # the point of each segment nearest the centre, taken as a vector so the
    # distance keeps its relative accuracy near the sphere; axis by axis, so
    # no array has a short trailing axis
    dw, ww = sum(a * b for a, b in zip(d, w)), sum(b * b for b in w)
    t = np.clip(-dw / np.maximum(ww, np.finfo(float).tiny), 0.0, length)
    return np.sqrt(sum((a + t * b) ** 2 for a, b in zip(d, w))) <= radius


def _segments_meet_box(X, W, length, lo, hi, margin):
    """Whether x + r w, 0 <= r <= length, meets the box [lo - margin, hi +
    margin], broadcast (slab test: the r-intervals inside each axis slab must
    overlap)."""
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    enter = np.zeros(np.broadcast_shapes(X.shape[:-1], W.shape[:-1], np.shape(length)))
    leave = enter + length
    for i in range(X.shape[-1]):
        x, w = X[..., i], W[..., i]
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (lo[i] - margin - x) / w
            b = (hi[i] + margin - x) / w
        # a direction parallel to the slab stays inside it or outside for all r
        inside = np.where((lo[i] - margin <= x) & (x <= hi[i] + margin), np.inf, -np.inf)
        flat = w == 0.0
        enter = np.maximum(enter, np.where(flat, -inside, np.minimum(a, b)))
        leave = np.minimum(leave, np.where(flat, inside, np.maximum(a, b)))
    return enter <= leave


# ---------------------------------------------------------------------------
# 1-D profiles used as building blocks
# ---------------------------------------------------------------------------

def _bump_jet(t, radius, amplitude, order=0):
    """[value, d1, ..., d_order] (order <= 2) of amplitude * exp(-1/(1 - (t/radius)^2))
    inside |t| < radius, 0 outside, from one mask and one exponential."""
    t = np.asarray(t, dtype=float)
    q = (t / radius) ** 2
    jet = [np.zeros_like(q) for _ in range(order + 1)]
    m = q < 1.0
    v = amplitude * np.exp(-1.0 / (1.0 - q[m]))
    jet[0][m] = v
    if order >= 1:
        tm = t[m]
        w = 1.0 / (1.0 - q[m])
        jet[1][m] = v * (-(w ** 2) * 2.0 * tm / radius ** 2)
    if order >= 2:
        c = 2.0 * tm / radius ** 2
        jet[2][m] = v * (w ** 4 * c ** 2 - 2.0 * w ** 3 * c ** 2 - 2.0 * w ** 2 / radius ** 2)
    return jet


def _step_jet(t, order=0):
    """[value, d1, ..., d_order] (order <= 2) of the C-infinity step f/(f+g),
    f = exp(-1/t), g = exp(-1/(1-t)): 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    jet = [(t >= 1.0).astype(float)] + [np.zeros_like(t) for _ in range(order)]
    # the jet is exactly 0.0 for t <= 1e-3 (exp(-1000) is 0.0); a subnormal t would overflow 1/t
    m = (t > 1e-3) & (t < 1.0)
    tm = t[m]
    f = np.exp(-1.0 / tm)
    g = np.exp(-1.0 / (1.0 - tm))
    jet[0][m] = f / (f + g)
    if order >= 1:
        s = f + g
        fp = f / tm ** 2
        gp = -g / (1.0 - tm) ** 2
        sp = fp + gp
        jet[1][m] = (fp * s - f * sp) / s ** 2
    if order >= 2:
        fpp = f * (1.0 / tm ** 4 - 2.0 / tm ** 3)
        gpp = g * (1.0 / (1.0 - tm) ** 4 - 2.0 / (1.0 - tm) ** 3)
        spp = fpp + gpp
        jet[2][m] = ((fpp * s - f * spp) * s - 2.0 * sp * (fp * s - f * sp)) / s ** 3
    return jet


class _Window1D:
    """Smooth window: 1 on [lo+eps, hi-eps], 0 outside [lo-eps, hi+eps]."""

    peak = 1.0      # exact max |value|, on the plateau

    def __init__(self, lo, hi, eps):
        self.lo, self.hi, self.eps = float(lo), float(hi), float(eps)

    def jet(self, t, order=0):
        """[value, d1, ..., d_order]: a rising times a falling step of width 2 eps.
        The layers are disjoint (eps < side/2): at any t one step is exactly 1
        or the product is 0, so the value is the nearer edge's step alone."""
        h = 2.0 * self.eps
        rise, fall = (t - (self.lo - self.eps)) / h, ((self.hi + self.eps) - t) / h
        if order == 0:
            return _step_jet(np.minimum(rise, fall))
        a, b = _step_jet(rise, order), _step_jet(fall, order)
        jet = [a[0] * b[0]]
        if order >= 1:
            da, db = a[1] / h, -b[1] / h
            jet.append(da * b[0] + a[0] * db)
        if order >= 2:
            jet.append(a[2] / h ** 2 * b[0] + 2.0 * da * db + a[0] * (b[2] / h ** 2))
        return jet

    def sweep_extent(self):
        return self.lo - self.eps, self.hi + self.eps


class _Bump1DProfile:
    """Axis profile wrapper sharing the _Window1D interface."""

    peak = math.exp(-1.0)      # exact max |value|, at the centre

    def __init__(self, center, radius):
        self.center, self.radius = float(center), float(radius)

    def jet(self, t, order=0):
        return _bump_jet(np.asarray(t) - self.center, self.radius, 1.0, order)

    def sweep_extent(self):
        return self.center - self.radius, self.center + self.radius


def _profile_maxima(profile):
    """max |value|, |d1|, |d2| of a 1-D profile over its sweep extent."""
    t = np.linspace(*profile.sweep_extent(), _CERT_GRID)
    return tuple(float(np.max(np.abs(d))) for d in profile.jet(t, 2))


# ---------------------------------------------------------------------------
# concrete fields
# ---------------------------------------------------------------------------

class _RadialBump(ScalarField):
    scan_dtype = np.dtype(np.float32)

    def __init__(self, center, radius, amplitude):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        self.dim = self.center.shape[0]
        self.support_radius = float(np.linalg.norm(self.center) + self.radius)
        self.label = f"bump(N={self.dim},R={self.radius},a={self.amplitude})"
        self.lip_bound, self.hess_bound, self.sup_norm = self._certify()
        self.spec = {
            "kind": "bump",
            "center": self.center.tolist(),
            "radius": self.radius,
            "amplitude": self.amplitude,
        }

    def _certify(self):
        # radial structure: |grad u| = |phi'(r)| and the Hessian eigenvalues
        # are phi''(r) and phi'(r)/r, so 1-D sweeps certify both bounds
        r = np.linspace(0.0, self.radius, _CERT_GRID)
        d1, d2 = (np.abs(d) for d in _bump_jet(r, self.radius, self.amplitude, 2)[1:])
        rad = d1[1:] / r[1:]
        lip = _CERT_SAFETY * float(np.max(d1))
        hess = _CERT_SAFETY * float(max(np.max(d2), np.max(rad)))
        sup = abs(self.amplitude) * math.exp(-1.0)
        return lip, hess, sup

    def evaluate(self, pts):
        r = np.sqrt(_sum_squares(pts, self.center))
        return _bump_jet(r, self.radius, self.amplitude)[0]

    def along(self, xs, ws):
        # |x + r w - c|^2 as a quadratic in r: no (k, m, N) points, no sqrt;
        # computed in r's dtype, float32 or float64, from coefficients rounded
        # once per binding
        dd = dw = ww = 0.0
        for i in range(self.dim):
            d = xs[i] - self.center[i]
            dd, dw, ww = dd + d * d, dw + d * ws[i], ww + ws[i] * ws[i]
        coef = {False: (dd, 2.0 * dw, ww)}
        r2 = self.radius ** 2

        def u(r, b=slice(None)):
            single = getattr(r, "dtype", None) == np.float32
            if single not in coef:
                coef[True] = tuple(c.astype(np.float32) for c in coef[False])
            # 1-D rows of the ray subset, then a column: a ray-index b gathers faster
            dd, dw2, ww = (c[b][:, None] for c in coef[single])
            q = r * ww                # q = (dd + r (2 dw + r ww)) / R^2, in place
            q += dw2
            q *= r
            q += dd
            q /= r2
            # a exp(-1 / (1 - q)) without a mask: inside the ball 1 - q is at
            # least one ulp of 1 from below (2^-53, in float32 2^-24), and
            # outside that floor sends exp to exactly 0 (-0.0 when a < 0)
            np.subtract(1.0, q, out=q)
            np.maximum(q, np.finfo(q.dtype).epsneg, out=q)
            np.divide(-1.0, q, out=q)
            np.exp(q, out=q)
            q *= self.amplitude
            return q

        return u

    def segments_meet_support(self, X, W, length):
        return _segments_meet_ball(X, W, length, self.center, self.radius + self._margin(length))

    def gradient(self, pts):
        d = np.asarray(pts, dtype=float) - self.center
        q = _sum_squares(d) / self.radius ** 2
        out = np.zeros_like(d)
        m = q < 1.0
        w = 1.0 / (1.0 - q[m])
        val = self.amplitude * np.exp(-1.0 / (1.0 - q[m]))
        out[m] = (-2.0 * val * w ** 2 / self.radius ** 2)[..., None] * d[m]
        return out


class _SeparableField(ScalarField):
    """Product of per-axis profiles times an amplitude."""

    def __init__(self, profiles, amplitude, label, spec):
        self.profiles = tuple(profiles)
        self.amplitude = float(amplitude)
        self.dim = len(profiles)
        ext = np.array([p.sweep_extent() for p in profiles])
        self.support_radius = float(np.sqrt(np.sum(np.max(np.abs(ext), axis=1) ** 2)))
        self.label = label
        self.lip_bound, self.hess_bound, self.sup_norm = self._certify()
        self.spec = spec

    def _certify(self):
        a = abs(self.amplitude)
        mx = [_profile_maxima(p) for p in self.profiles]
        m0 = [m[0] for m in mx]
        m1 = [m[1] for m in mx]
        m2 = [m[2] for m in mx]

        def others(vals, skip):
            out = 1.0
            for j, v in enumerate(vals):
                if j not in skip:
                    out *= v
            return out

        # the sweep can miss a profile's maximum, so sup takes the exact peaks
        sup = a * math.prod(p.peak for p in self.profiles)
        lip = a * math.sqrt(sum((m1[i] * others(m0, {i})) ** 2 for i in range(self.dim)))
        diag = sum((m2[i] * others(m0, {i})) ** 2 for i in range(self.dim))
        off = sum(
            (m1[i] * m1[j] * others(m0, {i, j})) ** 2
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )
        hess = a * math.sqrt(diag + off)   # Frobenius norm dominates the operator norm
        return _CERT_SAFETY * lip, _CERT_SAFETY * hess, sup

    def evaluate(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = np.full(pts.shape[:-1], self.amplitude)
        for i, prof in enumerate(self.profiles):
            out *= prof.jet(pts[..., i])[0]
        return out

    def along(self, xs, ws):
        # on a shared row r, axis i reads its profile at x_i + w_i r only; when
        # every axis has at most half as many distinct (x_i, w_i) bit patterns
        # as rays (a tensor grid), tabulate each pair once on the first such read
        direct, k, tab = super().along(xs, ws), xs.shape[1], [None, None]

        def u(r, b=slice(None)):
            if np.ndim(r) == 1 and tab[0] is not r:
                axes = [_axis_pairs(xs[i], ws[i]) for i in range(self.dim)]
                tab[:] = r, None
                if all(2 * px.size <= k for px, _, _ in axes):
                    tab[1] = [(prof.jet(px[:, None] + pw[:, None] * r)[0], pair)
                              for prof, (px, pw, pair) in zip(self.profiles, axes)]
                    np.multiply(tab[1][0][0], self.amplitude, out=tab[1][0][0])
            if np.ndim(r) != 1 or tab[1] is None:
                return direct(r, b)
            (t0, p0), *rest = tab[1]
            out = t0[p0[b]]          # a * phi_0, then *= phi_i: evaluate's order
            for t, pair in rest:
                out *= t[pair[b]]
            return out

        return u

    def segments_meet_support(self, X, W, length):
        # every profile vanishes outside its sweep extent, so u does outside the box
        ext = np.array([p.sweep_extent() for p in self.profiles])
        return _segments_meet_box(X, W, length, ext[:, 0], ext[:, 1], self._margin(length))

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        jets = [prof.jet(pts[..., i], 1) for i, prof in enumerate(self.profiles)]
        out = np.empty_like(pts)
        for i in range(self.dim):
            g = np.full(pts.shape[:-1], self.amplitude) * jets[i][1]
            for j in range(self.dim):
                if j != i:
                    g = g * jets[j][0]
            out[..., i] = g
        return out


def _axis_pairs(x, w):
    """The distinct (x, w) bit patterns of one axis of a ray list: their x and
    w, and each ray's pair index (three 1-D sorts; signed zeros stay apart)."""
    ux, ix = np.unique(x.view(np.int64), return_inverse=True)
    uw, iw = np.unique(w.view(np.int64), return_inverse=True)
    code, pair = np.unique(ix * uw.size + iw, return_inverse=True)
    return ux.view(float)[code // uw.size], uw.view(float)[code % uw.size], pair


class _SumField(ScalarField):
    def __init__(self, fields):
        dims = {f.dim for f in fields}
        if len(dims) != 1:
            raise InvalidParameterError("summands must share a dimension")
        self.fields = tuple(fields)
        self.dim = dims.pop()
        self.support_radius = max(f.support_radius for f in fields)
        self.label = "sum(" + ",".join(f.label for f in fields) + ")"
        self.lip_bound = sum(f.lip_bound for f in fields)
        self.hess_bound = sum(f.hess_bound for f in fields)
        self.sup_norm = sum(f.sup_norm for f in fields)
        # float32 only when every term's `along` computes in it
        self.scan_dtype = np.result_type(*(f.scan_dtype for f in fields))
        self.spec = {"kind": "sum", "terms": [f.spec for f in fields]}

    def evaluate(self, pts):
        out = self.fields[0].evaluate(pts)
        for f in self.fields[1:]:
            out = out + f.evaluate(pts)
        return out

    def along(self, xs, ws):
        first, *rest = (f.along(xs, ws) for f in self.fields)
        return lambda r, b=slice(None): sum((t(r, b) for t in rest), first(r, b))  # in term order

    def segments_meet_support(self, X, W, length):
        out = self.fields[0].segments_meet_support(X, W, length)
        for f in self.fields[1:]:
            out |= f.segments_meet_support(X, W, length)
        return out

    def gradient(self, pts):
        out = self.fields[0].gradient(pts)
        for f in self.fields[1:]:
            out = out + f.gradient(pts)
        return out


class _ScaledField(ScalarField):
    def __init__(self, base, factor):
        self.base = base
        self.factor = float(factor)
        self.dim = base.dim
        self.support_radius = base.support_radius
        self.label = f"{factor}*{base.label}"
        a = abs(self.factor)
        self.lip_bound, self.hess_bound, self.sup_norm = (a * base.lip_bound, a * base.hess_bound,
                                                          a * base.sup_norm)
        self.scan_dtype = base.scan_dtype
        self.spec = {"kind": "scaled", "factor": self.factor, "base": base.spec}

    def evaluate(self, pts):
        return self.factor * self.base.evaluate(pts)

    def along(self, xs, ws):
        base = self.base.along(xs, ws)
        return lambda r, b=slice(None): self.factor * base(r, b)

    def segments_meet_support(self, X, W, length):
        return self.base.segments_meet_support(X, W, length)

    def gradient(self, pts):
        return self.factor * self.base.gradient(pts)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_bump(center, radius, amplitude=1.0):
    """Radial bump supported on the closed ball B(center, radius)."""
    if radius <= 0:
        raise InvalidParameterError("radius must be positive")
    return _RadialBump(center, radius, amplitude)


def make_mollified_indicator(box, epsilon):
    """Smooth version of a box indicator: 1 on the eps-eroded box, 0 outside
    the eps-dilated box, one smooth transition layer per axis."""
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    sides = box[:, 1] - box[:, 0]
    if np.any(sides <= 0):
        raise InvalidParameterError("box sides must have positive length")
    if not 0 < epsilon < 0.5 * np.min(sides):
        raise InvalidParameterError("epsilon must lie in (0, half the shortest side)")
    profiles = [_Window1D(lo, hi, epsilon) for lo, hi in box]
    label = f"mollified_indicator(N={box.shape[0]},eps={epsilon})"
    spec = {"kind": "mollified_indicator", "box": box.tolist(), "epsilon": float(epsilon)}
    return _SeparableField(profiles, 1.0, label, spec)


def make_product_bump(centers, radii, amplitude=1.0):
    """Product of 1-D bumps, one per axis."""
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.shape != centers.shape or np.any(radii <= 0):
        raise InvalidParameterError("need one positive radius per axis")
    profiles = [_Bump1DProfile(c, r) for c, r in zip(centers, radii)]
    label = f"product_bump(N={centers.shape[0]})"
    spec = {
        "kind": "product_bump",
        "centers": centers.tolist(),
        "radii": radii.tolist(),
        "amplitude": float(amplitude),
    }
    return _SeparableField(profiles, amplitude, label, spec)


def make_sum(fields):
    if not fields:
        raise InvalidParameterError("need at least one summand")
    return _SumField(list(fields))


def scale_field(f, factor):
    """c*u with bounds scaled exactly; used by homogeneity checks."""
    return _ScaledField(f, factor)


def field_from_spec(spec):
    """Build a field from its JSON description (CLI config surface)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameterError("field spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "bump":
            return make_bump(spec["center"], spec["radius"], spec.get("amplitude", 1.0))
        if kind == "mollified_indicator":
            return make_mollified_indicator(spec["box"], spec["epsilon"])
        if kind == "product_bump":
            return make_product_bump(spec["centers"], spec["radii"], spec.get("amplitude", 1.0))
        if kind == "sum":
            return make_sum([field_from_spec(t) for t in spec["terms"]])
        if kind == "scaled":
            return scale_field(field_from_spec(spec["base"]), spec["factor"])
        if kind == "catalogue":
            if spec["name"] not in catalogue_names():
                raise InvalidParameterError(f"unknown catalogue field {spec['name']!r}; "
                                            f"the catalogue has {', '.join(catalogue_names())}")
            return catalogue()[spec["name"]]
    except KeyError as exc:
        raise InvalidParameterError(f"field spec missing key {exc}") from exc
    raise InvalidParameterError(f"unknown field kind {kind!r}")


_CATALOGUE = None


def catalogue():
    """The finite field catalogue exercised by every experiment suite."""
    global _CATALOGUE
    if _CATALOGUE is None:
        _CATALOGUE = {
            "bump1": make_bump([0.0], 1.0, 1.0),
            "bump1_wide": make_bump([0.2], 1.6, 0.75),
            "bumps1_pair": make_sum(
                [make_bump([-0.8], 0.6, 1.0), make_bump([0.8], 0.5, -0.6)]
            ),
            "plateau1": make_mollified_indicator([[-0.5, 0.5]], 0.1),
            "bump2": make_bump([0.0, 0.0], 1.0, 1.0),
            "bump2_off": make_bump([0.3, -0.2], 1.2, 0.8),
            "plateau2": make_mollified_indicator([[-0.5, 0.5], [-0.5, 0.5]], 0.12),
            "bumps2_pair": make_sum(
                [make_bump([-0.7, 0.0], 0.7, 1.0), make_bump([0.7, 0.1], 0.6, 0.8)]
            ),
            "product2": make_product_bump([0.0, 0.1], [1.0, 0.8], 1.0),
            "bump3": make_bump([0.0, 0.0, 0.0], 1.0, 1.0),
        }
    return _CATALOGUE


def catalogue_names(dim=None):
    return [k for k, f in catalogue().items() if dim is None or f.dim == dim]


# ---------------------------------------------------------------------------
# pair truncation from the certified bounds, shared by levelset and covering
# ---------------------------------------------------------------------------

def truncation_radius(f, lam, alpha):
    """Largest radius any member pair can have, given the certified bounds."""
    r = (f.lip_bound / lam) ** (1.0 / (alpha - 1.0))
    r = min(r, 2.0 * (f.support_radius + 1.0))
    if lam <= f.lip_bound:
        r = min(r, 2.0 * (2.0 * f.sup_norm / lam) ** (1.0 / alpha))
    return r


def pair_region(f, lam, alpha):
    """(half, r_cap) of the truncated pair region: pairs (x, x + r w) with
    |x| <= half and 0 < r <= r_cap."""
    r_cap = truncation_radius(f, lam, alpha)
    return f.support_radius + min(1.0, r_cap), r_cap


def pair_members(f, lam, alpha, x, w, r):
    """Whether each pair (x, x + r w) of the (k, N), (k, N), (k,) arrays has
    r > 0 and |u(x) - u(x + r w)| >= lam r^alpha."""
    dv = np.abs(f.evaluate(x + r[:, None] * w) - f.evaluate(x))
    return (dv >= lam * r ** alpha) & (r > 0.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _box_integral(field, integrand, budget):
    if budget < 16 ** field.dim:
        raise InvalidParameterError("budget below the minimum node count")
    per_axis = max(16, int(round(budget ** (1.0 / field.dim))))
    grid = centered_box_grid(field.support_radius, field.dim, per_axis)

    def run(g):
        pts, w = g.points_weights()
        return float(np.sum(w * integrand(pts))), pts.shape[0]

    coarse, n1 = run(grid)
    fine, n2 = run(grid.refined())
    err = abs(fine - coarse)
    converged = err <= 1e-6 * max(abs(fine), 1e-300)
    return QuadratureResult(fine, err, n1 + n2, converged)


def gradient_lp_norm(field, p, budget=4096):
    """int |grad u|^p over R^N (restricted to the support ball, which is exact).

    Unconverged results (refinement change above 1e-6 relative) are flagged via `converged`.
    """
    if p < 1:
        raise InvalidParameterError("p must be >= 1")
    return _box_integral(
        field, lambda pts: _sum_squares(field.gradient(pts)) ** (p / 2.0), budget
    )


def lp_norm(field, p, budget=4096):
    """int |u|^p over R^N, same contract as gradient_lp_norm."""
    if p < 1:
        raise InvalidParameterError("p must be >= 1")
    return _box_integral(field, lambda pts: np.abs(field.evaluate(pts)) ** p, budget)
