"""Superlevel-set measures of the difference quotient |u(x)-u(y)| / |x-y|^alpha.

The membership function along a ray from x in direction w is
g(r) = |u(x + r w) - u(x)| - lambda r^alpha.  All estimators share one scan
kernel: uniform bracketing in r, vectorized bisection of every sign change,
then exact closed-form integration of r^{N-1} over the membership runs.
The scan visits only the rays that the field's `segments_meet_support`
reports as meeting its support, in cache-sized blocks of ray points.  That
method is conservative: it reports a miss only when every point of x + r w,
0 <= r <= r_cap, lies more than a margin (which covers the rounding of
x + r w) outside supp u, so u is exactly 0 on a skipped ray and at x, and
the ray carries no members.  Both leave every estimate bit-for-bit unchanged.

Truncation: members satisfy lambda r^{alpha-1} <= lip_bound, so the scan stops
at r_cap = (lip_bound/lambda)^{1/(alpha-1)} clipped to the support-dilate
diameter; below lambda <= lip_bound an additional |u(x)-u(y)| <= 2 sup_norm
cap applies.  For lambda > lip_bound the truncation is exact (no members x
farther than r_cap from the support).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .fields import pair_region, truncation_radius
from .quadrature import (
    PairSampler,
    QuadratureResult,
    SphereRule,
    TensorGrid,
    centered_box_grid,
    monte_carlo,
    sphere_rule,
)

__all__ = [
    "DistributionProfile",
    "LevelSetQuery",
    "LimitEstimate",
    "RadialProfile",
    "SandwichBounds",
    "default_lambda_grid",
    "distribution_profile",
    "pair_measure_mc",
    "pair_measure_polar",
    "polar_budgets",
    "radial_levelset",
    "sandwich_bounds",
    "tail_limit",
    "truncation_radius",
    "verify_sandwich",
    "weak_quasinorm",
]

CROSSING_CAP = 64
_BLOCK_POINTS = 2 ** 15    # ray points per scan block: its temporaries stay in L2
_PRUNE_MARGIN = 1e-9       # pruning slack relative to r_cap + support_radius: covers
                           # the rounding of x + r w, so pruned rays read u = 0 exactly


@dataclass(frozen=True)
class LevelSetQuery:
    """One superlevel set: field, integrability exponent p, quotient exponent
    alpha (the two-sided theorems use alpha = N/p + 1), and threshold."""

    field: object
    p: float
    alpha: float
    lam: float

    def __post_init__(self):
        if self.p < 1:
            raise InvalidParameterError("p must be >= 1")
        if self.alpha <= 1:
            raise InvalidParameterError("alpha must exceed 1 for the radial truncation")
        if self.lam <= 0:
            raise InvalidParameterError("lambda must be positive")
        if self.field.dim > 3:
            raise InvalidParameterError("pair measures support N <= 3")


@dataclass
class RadialProfile:
    """Membership runs (r_lo, r_hi] along one ray, endpoints bisected to tol."""

    x: np.ndarray
    omega: np.ndarray
    intervals: list
    r_cap: float
    flagged: bool = False     # set when the crossing count exceeds CROSSING_CAP

    def measure(self, n_dim):
        return sum((b ** n_dim - a ** n_dim) / n_dim for a, b in self.intervals)


# ---------------------------------------------------------------------------
# shared scan kernel
# ---------------------------------------------------------------------------

def _bisect_crossings(f, xs, ws, uxs, lam, alpha, lo, hi, iters):
    """Refine the sign-change brackets (lo, hi] of the rays xs + r ws; the
    (N, k) rays are axis-major, so the field reads contiguous coordinates."""

    def member(r):
        return np.abs(f.evaluate((xs + r * ws).T) - uxs) - lam * r ** alpha >= 0.0

    up = member(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same = member(mid) == up
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _scan_measures(f, lam, alpha, X, W, r_cap, scan, tol, n_dim):
    """Membership measure int 1_E r^{N-1} dr for every (x, w) pair.

    Returns (measures (nx*nw,), crossings (nx*nw,), scan state) with all
    endpoint refinement done by batched bisection.  The run pairing trick:
    sum over runs of (b^N - a^N) equals sum over down-crossings of b^N minus
    sum over up-crossings of a^N, so no explicit pairing is needed.

    Only the rays x + r w, 0 < r <= r_cap, that `segments_meet_support`
    reports are scanned, in blocks of about _BLOCK_POINTS ray points: on
    every other ray u is exactly 0, at x too, so its row is exactly zero.
    The state holds the member array of the scanned rays, (rays, scan), and
    their cell indices x * nw + w.
    """
    nx, nw = X.shape[0], W.shape[0]
    r = np.linspace(r_cap / scan, r_cap, scan)
    lam_r = lam * r ** alpha
    margin = _PRUNE_MARGIN * (r_cap + f.support_radius)
    rays = np.flatnonzero(f.segments_meet_support(X, W, r_cap, margin))
    ray_x, ray_w = np.divmod(rays, nw)
    ux = np.zeros(nx)
    live = np.unique(ray_x)
    if live.size:
        ux[live] = f.evaluate(X[live])
    member = np.empty((rays.size, scan), dtype=bool)
    # ray points are built axis-major, (N, ray, r), so each coordinate the
    # field reads is contiguous; the field sees the (ray, r, N) view
    block = max(1, _BLOCK_POINTS // scan)
    for b0 in range(0, rays.size, block):
        xi, wi = ray_x[b0 : b0 + block], ray_w[b0 : b0 + block]
        pts = X.T[:, xi, None] + W.T[:, wi, None] * r
        g = f.evaluate(np.moveaxis(pts, 0, -1)) - ux[xi][:, None]
        np.abs(g, out=g)
        g -= lam_r
        member[b0 : b0 + block] = g >= 0.0

    row, i = np.nonzero(member[:, 1:] != member[:, :-1])
    cell = rays[row]
    up = member[row, i + 1]
    iters = max(8, min(60, int(math.ceil(math.log2(max((r_cap / scan) / max(tol, 1e-300), 2.0))))))
    r_cross = np.empty(0)
    if cell.size:
        xi = ray_x[row]
        r_cross = _bisect_crossings(
            f, X.T[:, xi], W.T[:, ray_w[row]], ux[xi], lam, alpha, r[i], r[i + 1], iters
        )
    up_cell, up_r = cell[up], r_cross[up]
    dn_cell, dn_r = cell[~up], r_cross[~up]
    acc = np.zeros(nx * nw)
    np.subtract.at(acc, up_cell, up_r ** n_dim)
    np.add.at(acc, dn_cell, dn_r ** n_dim)
    # runs starting at 0+ contribute nothing to subtract; runs still open at
    # r_cap close there
    acc[rays[member[:, -1]]] += r_cap ** n_dim
    measures = acc / n_dim

    crossings = np.bincount(cell, minlength=nx * nw)
    state = {"member": member, "rays": rays, "up": (up_cell, up_r), "dn": (dn_cell, dn_r)}
    return measures, crossings, state


def radial_levelset(q: LevelSetQuery, x, omega, scan=1024, tol=1e-10):
    """Membership runs along the ray x + r*omega, r in (0, r_cap]."""
    if scan < 16:
        raise InvalidParameterError("scan must be >= 16")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    f = q.field
    r_cap = truncation_radius(f, q.lam, q.alpha)
    if r_cap <= 0.0:
        return RadialProfile(x, omega, [], 0.0, False)
    X = x[None, :]
    W = omega[None, :]
    _, crossings, state = _scan_measures(f, q.lam, q.alpha, X, W, r_cap, scan, tol, f.dim)
    member = state["member"]      # one row if the ray was scanned, none if not
    starts = sorted(state["up"][1].tolist())
    ends = sorted(state["dn"][1].tolist())
    if member[:, 0].any():
        starts = [0.0] + starts
    if member[:, -1].any():
        ends = ends + [r_cap]
    flagged = crossings[0] > CROSSING_CAP or len(starts) != len(ends)
    intervals = list(zip(starts, ends))[: CROSSING_CAP]
    return RadialProfile(x, omega, intervals, r_cap, bool(flagged))


# ---------------------------------------------------------------------------
# sandwich radii
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichBounds:
    """Radii with (0, lower] inside and the membership set inside (0, upper]."""

    lower: float
    upper: float
    delta: float


def sandwich_bounds(f, p, lam, x, omega, delta):
    """Certified inner/outer radii for the ray set at alpha = N/p + 1.

    Requires lambda > lip_bound; the outer radius is 0 once x sits more than
    unit distance from the support.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError("delta must lie in (0, 1)")
    if lam <= f.lip_bound:
        raise PreconditionError("sandwich radii need lambda > lip_bound")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = f.dim
    g = abs(float(np.dot(f.gradient(x[None, :])[0], omega)))
    A = f.hess_bound
    L = f.lip_bound
    lower_n = min(
        (delta ** n) * g ** n / A ** n if A > 0 else math.inf,
        ((1.0 - delta) ** p) * g ** p / lam ** p,
    )
    lower = lower_n ** (1.0 / n) if lower_n > 0 else 0.0
    if float(f.support_distance(x[None, :])[0]) > 1.0:
        upper = 0.0
    else:
        upper = (((g + A * (L / lam) ** (p / n)) / lam) ** p) ** (1.0 / n)
    return SandwichBounds(lower, upper, delta)


def verify_sandwich(f, p, lam, samples, delta, stream, scan=1024, tol=1e-9):
    """Check (0, lower] <= membership runs <= (0, upper] on sampled rays.

    Returns a dict of violation counts (target zero on the catalogue).
    """
    if lam <= f.lip_bound:
        raise PreconditionError("verify_sandwich needs lambda > lip_bound")
    n = f.dim
    q = LevelSetQuery(f, p, n / p + 1.0, lam)
    sampler = PairSampler(n, f.support_radius + 1.0, truncation_radius(f, lam, q.alpha))
    pts, _ = sampler.map(stream.uniform_matrix(0, samples, sampler.draws))
    xs, ws = pts[:, :n], pts[:, n : 2 * n]
    rel = max(tol, 1e-12)
    bad_upper = 0
    bad_lower = 0
    flagged = 0
    for i in range(samples):
        sb = sandwich_bounds(f, p, lam, xs[i], ws[i], delta)
        prof = radial_levelset(q, xs[i], ws[i], scan=scan, tol=tol)
        if prof.flagged:
            flagged += 1
        hi_lim = sb.upper * (1.0 + rel) + tol
        if any(b > hi_lim for _, b in prof.intervals):
            bad_upper += 1
        need = sb.lower * (1.0 - rel) - tol
        if need > 0:
            # the inner radius can sit below the scan's first grid point, so
            # check membership directly on a dense sample of (0, need]
            rr = need * np.geomspace(1e-3, 1.0, 64)
            pts = xs[i][None, :] + rr[:, None] * ws[i][None, :]
            gv = np.abs(f.evaluate(pts) - f.evaluate(xs[i][None, :])[0]) - lam * rr ** q.alpha
            if np.any(gv < -tol):
                bad_lower += 1
    return {
        "samples": samples,
        "violations_upper": bad_upper,
        "violations_lower": bad_lower,
        "flagged_profiles": flagged,
        "lam": lam,
        "delta": delta,
    }


# ---------------------------------------------------------------------------
# pair measures
# ---------------------------------------------------------------------------

def pair_measure_polar(
    q: LevelSetQuery,
    x_grid: TensorGrid,
    sphere: SphereRule,
    scan=512,
    tol=1e-10,
    x_chunk=512,
    with_error=True,
):
    """L^{2N} measure of the superlevel set by polar pair coordinates.

    The inner radial integral is exact on each membership run; the outer
    integrals use the tensor grid and sphere rule.  Error estimate comes
    from one combined coarsening step (half the panels and scan); a fine
    pass with 1 panel or at most 8 scan nodes cannot be coarsened and
    reports converged=False.
    """
    f = q.field
    need, r_cap = pair_region(f, q.lam, q.alpha)
    if np.any(x_grid.box[:, 0] > -need + 1e-12) or np.any(x_grid.box[:, 1] < need - 1e-12):
        raise PreconditionError(
            f"x grid must cover the support dilate (need half-width {need:.6g})"
        )

    def run(grid, scan_n):
        if r_cap <= 0.0:
            return 0.0, 0
        pts, w = grid.points_weights()
        total = 0.0
        nodes = 0
        for c0 in range(0, pts.shape[0], x_chunk):
            Xc = pts[c0 : c0 + x_chunk]
            m, _, _ = _scan_measures(
                f, q.lam, q.alpha, Xc, sphere.nodes, r_cap, scan_n, tol, f.dim
            )
            m = m.reshape(Xc.shape[0], -1)
            total += float(np.sum(w[c0 : c0 + x_chunk] * (m * sphere.weights[None, :]).sum(axis=1)))
            nodes += Xc.shape[0] * sphere.nodes.shape[0] * scan_n
        return total, nodes

    value, nodes = run(x_grid, scan)
    if not with_error:
        return QuadratureResult(value, 0.0, nodes, True)
    # the coarse pass halves panels and scan, at least to 2 panels and 64 scan
    # nodes where that is still coarser, else down to floors of 1 and 8
    panels = x_grid.panels
    coarse_panels = max(2 if panels > 2 else 1, panels // 2)
    coarse_scan = min(scan, max(64 if scan > 64 else 8, scan // 2))
    coarse, n2 = run(TensorGrid(x_grid.box, coarse_panels, x_grid.order), coarse_scan)
    err = abs(value - coarse)
    # a fine pass already at a floor has no coarser pass to compare with
    coarser = coarse_panels < panels and coarse_scan < scan
    converged = coarser and err <= 0.05 * max(abs(value), 1e-300)
    return QuadratureResult(value, err, nodes + n2, converged)


def pair_measure_mc(q: LevelSetQuery, n, stream, workers=1):
    """Unbiased Monte Carlo estimate of the same truncated pair measure."""
    if n < 1000:
        raise InvalidParameterError("need at least 1e3 samples")
    f = q.field
    sampler = PairSampler(f.dim, *pair_region(f, q.lam, q.alpha))
    d = f.dim

    def member(pts):
        x = pts[:, :d]
        w = pts[:, d : 2 * d]
        r = pts[:, 2 * d]
        dv = np.abs(f.evaluate(x + r[:, None] * w) - f.evaluate(x))
        return ((dv >= q.lam * r ** q.alpha) & (r > 0.0)).astype(float)

    return monte_carlo(member, sampler, n, stream, workers=workers)


# ---------------------------------------------------------------------------
# distribution profiles and the weak quasinorm
# ---------------------------------------------------------------------------

def default_lambda_grid(f, n=64, lo_factor=0.1, hi_factor=1e3):
    """Log-spaced thresholds bracketing both the sup region and the tail."""
    scale = f.lip_bound if f.lip_bound > 0 else 1.0    # zero field: any grid works
    return np.geomspace(lo_factor * scale, hi_factor * scale, n)


@dataclass
class DistributionProfile:
    """Per-threshold measure estimates with the lambda^p * mu column."""

    field_label: str
    p: float
    alpha: float
    lambdas: np.ndarray
    mu: np.ndarray
    err: np.ndarray
    tags: list
    monotonicity_flags: list = dc_field(default_factory=list)
    _estimator: object = None     # lambda -> QuadratureResult, for refinement

    @property
    def lam_pow_p_mu(self):
        return self.lambdas ** self.p * self.mu

    def rows(self):
        lpm = self.lam_pow_p_mu
        return [
            (float(l), float(m), float(e), float(v), t)
            for l, m, e, v, t in zip(self.lambdas, self.mu, self.err, lpm, self.tags)
        ]


# polar estimator budget defaults: (N = 1, N >= 2)
_POLAR_DEFAULTS = {
    "x_nodes": (256, 48),
    "sphere_order": (16, 16),
    "scan": (768, 224),
    "bisect_tol": (1e-10, 1e-10),
}


def polar_budgets(dim, budgets=None):
    """A copy of `budgets` with every polar estimator default it lacks filled in."""
    out = {key: value[dim > 1] for key, value in _POLAR_DEFAULTS.items()}
    out.update(budgets or {})
    return out


def _polar_budget_estimate(f, p, alpha, lam, budgets):
    need, _ = pair_region(f, lam, alpha)
    return pair_measure_polar(
        LevelSetQuery(f, p, alpha, lam),
        centered_box_grid(need, f.dim, budgets["x_nodes"]),
        sphere_rule(f.dim, budgets["sphere_order"]),
        scan=budgets["scan"],
        tol=budgets["bisect_tol"],
    )


def distribution_profile(f, p, alpha, lam_grid, estimator="polar", budgets=None, stream=None, workers=1):
    """Estimate mu(E_lambda) on an ascending threshold grid with shared budgets."""
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0:
        raise InvalidParameterError("empty lambda grid")
    if np.any(lam_grid <= 0) or np.any(np.diff(lam_grid) <= 0):
        raise InvalidParameterError("lambda grid must be positive and ascending")
    budgets = dict(budgets or {})
    if estimator == "polar":
        budgets = polar_budgets(f.dim, budgets)

        def one(lam):
            return _polar_budget_estimate(f, p, alpha, lam, budgets)
    elif estimator == "mc":
        if stream is None:
            raise InvalidParameterError("mc estimator needs a RandomStream")
        n_mc = budgets.get("mc_samples", 200_000)

        def one(lam):
            # sub-stream keyed by the threshold's bit pattern: reproducible
            # and independent of evaluation order
            tag = int(np.float64(lam).view(np.uint64) % (2 ** 62))
            return pair_measure_mc(
                LevelSetQuery(f, p, alpha, lam), n_mc, stream.derived(tag), workers=workers
            )
    else:
        raise InvalidParameterError(f"unknown estimator {estimator!r}")

    results = [one(lam) for lam in lam_grid]
    mu = np.array([r.value for r in results])
    err = np.array([r.error_estimate for r in results])
    flags = [
        i
        for i in range(len(lam_grid) - 1)
        if mu[i + 1] > mu[i] + err[i] + err[i + 1] + 1e-15
    ]
    return DistributionProfile(
        f.label, p, alpha, lam_grid, mu, err, [estimator] * len(lam_grid), flags, one
    )


def weak_quasinorm(profile: DistributionProfile, refine=16, root=False, with_flag=False):
    """sup over lambda of lambda^p * mu, golden-section refined near the argmax.

    Ties at the sup resolve to the smallest lambda.  Set `root=True` for the
    quasinorm itself (power 1/p).  With `with_flag=True` also returns whether
    the estimate at the argmax was unconverged (error above 5% of the value).
    """
    vals = profile.lam_pow_p_mu
    if vals.size == 0:
        raise InvalidParameterError("profile is empty")
    i = int(np.argmax(vals))      # first index wins ties
    flagged = bool(profile.err[i] > 0.05 * profile.mu[i]) if profile.mu[i] > 0 else False
    best = float(vals[i])
    if refine > 0 and profile._estimator is not None and vals.size > 1:
        lo = profile.lambdas[max(i - 1, 0)]
        hi = profile.lambdas[min(i + 1, vals.size - 1)]
        if hi > lo:
            phi = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = math.log(lo), math.log(hi)
            c = b - phi * (b - a)
            d = a + phi * (b - a)

            def val_at(t):
                lam = math.exp(t)
                return lam ** profile.p * profile._estimator(lam).value

            fc, fd = val_at(c), val_at(d)
            best = max(best, fc, fd)
            for _ in range(max(refine - 2, 0)):
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c = b - phi * (b - a)
                    fc = val_at(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + phi * (b - a)
                    fd = val_at(d)
                best = max(best, fc, fd)
    out = best ** (1.0 / profile.p) if root else best
    return (out, flagged) if with_flag else out


@dataclass(frozen=True)
class LimitEstimate:
    """Tail plateau of lambda^p * mu with a flatness-based convergence flag."""

    plateau: float
    flatness: float
    converged: bool
    window: int


def tail_limit(profile: DistributionProfile, window=8, tol=0.03):
    """Plateau of the last `window` values of lambda^p * mu.

    The limit has no known convergence rate, so this is plateau detection:
    converged means the relative spread across the window is below `tol`.
    """
    lams = profile.lambdas
    if window > lams.size:
        raise InvalidParameterError("window exceeds the grid size")
    if lams[-1] < 1e3 * lams[0] * (1 - 1e-9):
        raise PreconditionError("profile must cover at least three decades")
    vals = profile.lam_pow_p_mu[-window:]
    plateau = float(np.mean(vals))
    if plateau <= 0:
        return LimitEstimate(0.0, 0.0, True, window)
    flatness = float(np.max(np.abs(vals - plateau)) / plateau)
    return LimitEstimate(plateau, flatness, flatness < tol, window)
