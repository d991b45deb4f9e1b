"""Superlevel-set measures of the difference quotient |u(x)-u(y)| / |x-y|^alpha.

The membership function along a ray from x in direction w is
g(r) = |u(x + r w) - u(x)| - lambda r^alpha.  One kernel scans every ray
list: uniform bracketing in r, one batched bisection of all sign changes,
then exact integration of r^{N-1} over the membership runs; per ray it also
reports the crossing count and the outer end of the last run.  The polar
estimator scans one direction of each antipodal pair of its sphere rule
(`SphereRule.half`): the set is symmetric under (x, y) -> (y, x), so the
x-integrated measures of w and -w agree and mu is twice the hemisphere
integral.  It hands the kernel only the rays that the field's conservative
`segments_meet_support` reports as meeting its support (u is exactly 0 on
the others, at x too), so every estimate equals the unpruned scan's bit for
bit; the ray sandwich check hands it all its sampled rays in one call, and a
polar pass one call per run of x chunks.  The kernel reads u through
`ScalarField.along`, bound once per call and read block by block on the shared
scan row, and once per bisection; separable fields tabulate their profiles per
distinct (x_i, w_i) pair on that row, bit for bit, and radial bumps take u as
a quadratic in r, which can flip a crossing decision where g is within
rounding of 0.  It tests |u(y) - u(x)| >= lambda r^alpha, which decides as
g >= 0 does: with gradual underflow a - b >= 0 iff a >= b.

Truncation: members satisfy lambda r^{alpha-1} <= lip_bound, so the scan stops
at r_cap = (lip_bound/lambda)^{1/(alpha-1)} clipped to the support-dilate
diameter; below lambda <= lip_bound an additional |u(x)-u(y)| <= 2 sup_norm
cap applies.  For lambda > lip_bound the truncation is exact (no members x
farther than r_cap from the support).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .fields import pair_members, pair_region, truncation_radius
from .quadrature import (
    PairSampler,
    QuadratureResult,
    centered_box_grid,
    monte_carlo,
    sphere_rule,
    split_budgets,
)

__all__ = [
    "DistributionProfile",
    "LevelSetQuery",
    "LimitEstimate",
    "SandwichBounds",
    "default_lambda_grid",
    "distribution_profile",
    "pair_measure_mc",
    "pair_measure_polar",
    "sandwich_bounds",
    "tail_limit",
    "truncation_radius",
    "verify_sandwich",
    "weak_quasinorm",
]

CROSSING_CAP = 64
_BLOCK_POINTS = 2 ** 14    # ray points per scan block, one slice of the call's `along`
                           # binding: its 128 KiB temporaries stay in L2; 2^15 took
                           # 9x the page faults of a polar-2d pass (glibc malloc)
_X_CHUNK = 512             # x nodes per partial sum of pair_measure_polar's reduction
_SCAN_POINTS = 2 ** 22     # nominal ray points per pair_measure_polar kernel call
_PRUNE_MARGIN = 1e-9       # pruning slack relative to r_cap + support_radius: covers
                           # the rounding of x + r w, so pruned rays read u = 0 exactly
_BISECT_TOL = 1e-10        # crossing radius tolerance of the polar estimator


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


# ---------------------------------------------------------------------------
# shared scan kernel
# ---------------------------------------------------------------------------

def _bisect_crossings(f, xs, ws, uxs, lam, alpha, lo, hi, iters):
    """Refine the sign-change brackets (lo, hi] of the (N, k) axis-major rays
    xs + r ws, bound once through `along` for every step."""
    u = f.along(xs, ws)

    def member(r):
        return np.abs(u(r[:, None])[:, 0] - uxs) >= lam * r ** alpha

    up = member(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        same = member(mid) == up
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _scan_rays(f, lam, alpha, xs, ws, uxs, r_cap, scan, tol):
    """Membership runs of the rays xs + r ws, 0 < r <= r_cap, with u(x) = uxs.

    The (N, k) rays are axis-major.  Returns per ray the measure
    int 1_E r^{N-1} dr, the crossing count and the outer end of the last
    membership run (0 without members), with every endpoint refined by
    batched bisection.  The run pairing trick: sum over runs of (b^N - a^N)
    equals sum over down-crossings of b^N minus sum over up-crossings of a^N,
    so no explicit pairing is needed.  The scan runs in blocks of about
    _BLOCK_POINTS ray points.
    """
    n_dim, k = xs.shape
    r = np.linspace(r_cap / scan, r_cap, scan)
    lam_r = lam * r ** alpha
    member = np.empty((k, scan), dtype=bool)
    block = max(1, _BLOCK_POINTS // scan)
    u = f.along(xs, ws)
    for b0 in range(0, k, block):
        b = slice(b0, b0 + block)
        g = u(r, b) - uxs[b, None]
        np.abs(g, out=g)
        np.greater_equal(g, lam_r, out=member[b])

    ray, i = np.divmod(np.flatnonzero(member[:, 1:] != member[:, :-1]), scan - 1)
    up = member[ray, i + 1]
    iters = max(8, min(60, int(math.ceil(math.log2(max((r_cap / scan) / max(tol, 1e-300), 2.0))))))
    r_cross = np.empty(0)
    if ray.size:
        r_cross = _bisect_crossings(
            f, xs[:, ray], ws[:, ray], uxs[ray], lam, alpha, r[i], r[i + 1], iters
        )
    acc = np.zeros(k)
    np.subtract.at(acc, ray[up], r_cross[up] ** n_dim)
    np.add.at(acc, ray[~up], r_cross[~up] ** n_dim)
    # runs starting at 0+ contribute nothing to subtract; runs still open at
    # r_cap close there
    acc[member[:, -1]] += r_cap ** n_dim
    outer = np.zeros(k)
    np.maximum.at(outer, ray[~up], r_cross[~up])
    outer[member[:, -1]] = r_cap
    return acc / n_dim, np.bincount(ray, minlength=k), outer


def _grid_measures(f, lam, alpha, X, W, r_cap, scan):
    """Measure of every (x, w) cell, (nx*nw,).

    Only the rays x + r w, 0 < r <= r_cap, that `segments_meet_support`
    reports are scanned: on every other ray u is exactly 0, at x too, so its
    cell is exactly zero.
    """
    nx, nw = X.shape[0], W.shape[0]
    margin = _PRUNE_MARGIN * (r_cap + f.support_radius)
    rays = np.flatnonzero(f.segments_meet_support(X, W, r_cap, margin))
    ray_x, ray_w = np.divmod(rays, nw)
    ux = np.zeros(nx)
    live = np.unique(ray_x)
    if live.size:
        ux[live] = f.evaluate(X[live])
    measures = np.zeros(nx * nw)
    measures[rays] = _scan_rays(
        f, lam, alpha, X.T[:, ray_x], W.T[:, ray_w], ux[ray_x], r_cap, scan, _BISECT_TOL
    )[0]
    return measures


# ---------------------------------------------------------------------------
# sandwich radii
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichBounds:
    """Per-ray radii with (0, lower] inside and the membership set inside (0, upper]."""

    lower: np.ndarray
    upper: np.ndarray
    delta: float


def sandwich_bounds(f, p, lam, x, omega, delta):
    """Certified inner/outer radii of the rays x + r omega ((k, N) rows, or
    one (N,) point each) for the ray sets at alpha = N/p + 1.

    Requires lambda > lip_bound; the outer radius is 0 once x sits more than
    unit distance from the support.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError("delta must lie in (0, 1)")
    if lam <= f.lip_bound:
        raise PreconditionError("sandwich radii need lambda > lip_bound")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    n = f.dim
    g = np.abs((f.gradient(x)[:, None, :] @ omega[:, :, None])[:, 0, 0])
    A = f.hess_bound
    L = f.lip_bound
    lower_n = np.minimum(
        (delta ** n) * g ** n / A ** n if A > 0 else math.inf,
        ((1.0 - delta) ** p) * g ** p / lam ** p,
    )
    lower = np.where(lower_n > 0, lower_n ** (1.0 / n), 0.0)
    upper = np.where(
        f.support_distance(x) > 1.0, 0.0, (((g + A * (L / lam) ** (p / n)) / lam) ** p) ** (1.0 / n)
    )
    return SandwichBounds(lower, upper, delta)


def verify_sandwich(f, p, lam, samples, delta, stream, scan=1024):
    """Check (0, lower] <= membership runs <= (0, upper] on sampled rays.

    Returns a dict of violation counts (target zero on the catalogue).  All
    rays go through one kernel call, unpruned: a ray that misses the support
    reads u = 0 and has no members, and r_cap = 0 (a zero field) scans only
    r = 0, where every outer end is 0.
    """
    if lam <= f.lip_bound:
        raise PreconditionError("verify_sandwich needs lambda > lip_bound")
    if scan < 16:
        raise InvalidParameterError("scan must be >= 16")
    n = f.dim
    q = LevelSetQuery(f, p, n / p + 1.0, lam)
    r_cap = truncation_radius(f, lam, q.alpha)
    xs, ws, _ = PairSampler(n, f.support_radius + 1.0, r_cap).draw(stream, 0, samples)
    ux = f.evaluate(xs)
    tol = 1e-9      # bisection tolerance, relative and absolute radius slack
    _, crossings, outer = _scan_rays(f, lam, q.alpha, xs.T, ws.T, ux, r_cap, scan, tol)
    sb = sandwich_bounds(f, p, lam, xs, ws, delta)
    need = sb.lower * (1.0 - tol) - tol
    # the inner radius can sit below the scan's first grid point, so check
    # membership directly on a dense sample of (0, need] where need > 0
    inner = need > 0
    rr = need[inner, None] * np.geomspace(1e-3, 1.0, 64)
    gv = np.abs(f.evaluate(xs[inner, None] + rr[..., None] * ws[inner, None]) - ux[inner, None])
    gv -= lam * rr ** q.alpha
    return {
        "samples": samples,
        "violations_upper": int(np.count_nonzero(outer > sb.upper * (1.0 + tol) + tol)),
        "violations_lower": int(np.count_nonzero(np.any(gv < -tol, axis=1))),
        "flagged_profiles": int(np.count_nonzero(crossings > CROSSING_CAP)),
        "lam": lam,
        "delta": delta,
    }


# ---------------------------------------------------------------------------
# pair measures
# ---------------------------------------------------------------------------

def pair_measure_polar(q: LevelSetQuery, x_nodes, sphere_order, scan):
    """L^{2N} measure of the superlevel set by polar pair coordinates.

    The x integral runs over `centered_box_grid` of about `x_nodes` nodes
    per axis on the box of `pair_region`, the directions over
    `sphere_rule(N, sphere_order).half()` and the ray radius over `scan`
    bracketing points, every crossing bisected to 1e-10.  The inner radial
    integral is exact on each membership run.  The hemisphere with doubled
    weights gives the full-sphere integral from half the rays: the pair
    swap (x, w, r) -> (x + r w, -w, r) preserves the set and the measure, so
    the x-integrated ray measure in direction w equals that in -w (the
    sphere rule needs an even size).  That holds exactly while the x box
    holds both ends of every member pair, i.e. r_cap <= 1; beyond, the box
    drops pairs either way and the two truncations differ for fields that
    are not centrally symmetric.  Error estimate comes from one combined
    coarsening step (half the panels and scan); a fine pass with at most 8
    scan nodes cannot be coarsened and reports converged=False.
    """
    f = q.field
    half, r_cap = pair_region(f, q.lam, q.alpha)
    x_grid = centered_box_grid(half, f.dim, x_nodes)
    sphere = sphere_rule(f.dim, sphere_order).half()

    def run(grid, scan_n):
        if r_cap <= 0.0:
            return 0.0, 0
        pts, w = grid.points_weights()
        nx, nw = pts.shape[0], sphere.nodes.shape[0]
        # one kernel call per run of whole x chunks holding at most
        # _SCAN_POINTS nominal ray points; the sum still goes chunk by chunk
        run_x = _X_CHUNK * max(1, _SCAN_POINTS // (_X_CHUNK * nw * scan_n))
        m = np.concatenate([
            _grid_measures(f, q.lam, q.alpha, pts[r0 : r0 + run_x], sphere.nodes, r_cap, scan_n)
            for r0 in range(0, nx, run_x)
        ]).reshape(nx, nw) * sphere.weights
        total = 0.0
        for c0 in range(0, nx, _X_CHUNK):
            total += float(np.sum(w[c0 : c0 + _X_CHUNK] * m[c0 : c0 + _X_CHUNK].sum(axis=1)))
        return total, nx * nw * scan_n

    value, nodes = run(x_grid, scan)
    # the coarse pass halves panels and scan, the scan at least to 64 nodes
    # where that is still coarser, else down to a floor of 8; the grid has at
    # least 2 panels, so only the scan can sit at its floor
    coarse_scan = min(scan, max(64 if scan > 64 else 8, scan // 2))
    coarse, n2 = run(x_grid.coarsened(), coarse_scan)
    err = abs(value - coarse)
    # a fine pass already at the scan floor has no coarser pass to compare with
    converged = coarse_scan < scan and err <= 0.05 * max(abs(value), 1e-300)
    return QuadratureResult(value, err, nodes + n2, converged)


def pair_measure_mc(q: LevelSetQuery, n, stream, workers=1):
    """Unbiased Monte Carlo estimate of the same truncated pair measure."""
    if n < 1000:
        raise InvalidParameterError("need at least 1e3 samples")
    f = q.field
    sampler = PairSampler(f.dim, *pair_region(f, q.lam, q.alpha))
    member = partial(pair_members, f, q.lam, q.alpha)
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


def distribution_profile(f, p, alpha, lam_grid, estimator="polar", budgets=None, stream=None, workers=1):
    """Estimate mu(E_lambda) on an ascending threshold grid with shared budgets."""
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0:
        raise InvalidParameterError("empty lambda grid")
    if np.any(lam_grid <= 0) or np.any(np.diff(lam_grid) <= 0):
        raise InvalidParameterError("lambda grid must be positive and ascending")
    if estimator == "polar":
        (budgets,) = split_budgets(f.dim, budgets, "polar")

        def one(lam):
            return pair_measure_polar(LevelSetQuery(f, p, alpha, lam), **budgets)
    elif estimator == "mc":
        if stream is None:
            raise InvalidParameterError("mc estimator needs a RandomStream")
        n_mc = split_budgets(f.dim, budgets, "mc")[0]["mc_samples"]

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


def weak_quasinorm(profile: DistributionProfile, refine, with_flag=False):
    """sup over lambda of lambda^p * mu, refined near the argmax by `refine`
    golden-section evaluations (at least 2; 0 skips the refinement).

    Ties at the sup resolve to the smallest lambda; the quasinorm itself is
    its power 1/p.  With `with_flag=True` also returns whether the estimate
    at the argmax was unconverged (error above 5% of the value).
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
    return (best, flagged) if with_flag else best


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
