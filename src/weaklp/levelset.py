"""Superlevel-set measures of the difference quotient |u(x)-u(y)| / |x-y|^alpha.

The membership function along a ray from x in direction w is
g(r) = |u(x + r w) - u(x)| - lambda r^alpha.  One kernel handles every ray
list in three steps: a scan brackets the sign changes on a uniform grid in
r; one batched solve refines every bracket by a fixed number of halvings
(_HALVINGS for the polar estimator, so to a fixed fraction of the scan step)
and one regula-falsi step clipped to the final bracket; then r^{N-1} is
integrated exactly over the membership runs, and per ray the crossing count
and the outer end of the last run are reported.  The polar estimator scans
one direction of each antipodal pair of its sphere rule (`SphereRule.half`):
the set is symmetric under (x, y) -> (y, x), so the x-integrated measures of
w and -w agree and mu is twice the hemisphere integral.  It scans only the
rays that the field's conservative `segments_meet_support(X, W, r_cap)`
reports as meeting its support; the field sets the slack that covers
rounding, and u is exactly 0 on the other rays, at x too, so every estimate
equals the unpruned scan's bit for bit.  A polar call scans its
fine and coarse pass, one scan per run of x chunks, and then solves all
their brackets in one call; the ray sandwich check scans and solves all its
sampled rays in one call each, with enough halvings for its absolute slack.
The kernel reads u through `ScalarField.along`, bound once per scan and read
block by block on the shared scan row, and once per solve at per-ray radii;
both read u by the same formula, so the solve takes each bracket's
membership at its lower end from the scan.  Separable fields tabulate their
profiles per distinct (x_i, w_i) pair on the scan row, bit for bit, and
radial bumps take u as a quadratic in r, which can flip a crossing decision
where g is within rounding of 0.  The scan tests |u(y) - u(x)| >= lambda
r^alpha and the solve g >= 0, which decide alike: with gradual underflow
a - b >= 0 iff a >= b.

The scan reads u in the field's `scan_dtype`: float32 for radial bumps and
their sums and multiples, float64 otherwise; the solve always reads it in
float64.  A float32 scan is checked in float64 at both ends of every
bracket and of every ray, and each ray that disagrees at one of them is
scanned again in float64, so the brackets equal a float64 scan's bit for
bit, unless a float64 run lies strictly inside a float32 run, where no
checked point meets it.

Truncation: members satisfy lambda r^{alpha-1} <= lip_bound, so the scan stops
at r_cap = (lip_bound/lambda)^{1/(alpha-1)} clipped to the support-dilate
diameter; below lambda <= lip_bound an additional |u(x)-u(y)| <= 2 sup_norm
cap applies.  For lambda > lip_bound the truncation is exact (no members x
farther than r_cap from the support).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .fields import pair_region, truncation_radius
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
_SCAN_POINTS = 2 ** 22     # nominal ray points per pair_measure_polar scan
_HALVINGS = 10             # halvings of each polar scan bracket before its regula-falsi step
_SOLVE_BRACKETS = 2 ** 16  # brackets per batched solve of pair_measure_polar: one solve
                           # per call at the 2-D budgets, bounded memory at larger ones
_SANDWICH_SCAN = 1024      # scan points per ray of verify_sandwich
_SANDWICH_WIDTH = 1e-9     # widest final bracket of verify_sandwich's solve


@dataclass(frozen=True)
class LevelSetQuery:
    """One superlevel set: field, integrability exponent p, quotient exponent
    alpha (the two-sided theorems use alpha = N/p + 1), and threshold."""

    field: object
    p: float
    alpha: float
    lam: float          # pair_measure_mc also takes an array of thresholds

    def __post_init__(self):
        if self.p < 1:
            raise InvalidParameterError("p must be >= 1")
        if self.alpha <= 1:
            raise InvalidParameterError("alpha must exceed 1 for the radial truncation")
        if np.any(np.asarray(self.lam) <= 0):
            raise InvalidParameterError("lambda must be positive")
        if self.field.dim > 3:
            raise InvalidParameterError("pair measures support N <= 3")


# ---------------------------------------------------------------------------
# shared scan kernel
# ---------------------------------------------------------------------------

class _Brackets(NamedTuple):
    """The sign changes of one scanned ray list.  Bracket j is (lo[j], hi[j]]
    on ray `ray[j]`, whose x, w and u(x) are column j of xs, ws and uxs, and
    `inside[j]` says whether lo[j] is a member; `last` says which rays are
    members at r_cap."""

    xs: np.ndarray
    ws: np.ndarray
    uxs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    inside: np.ndarray
    ray: np.ndarray
    last: np.ndarray
    r_cap: float

    def runs(self, r_cross):
        """Per ray the measure int 1_E r^{N-1} dr, the crossing count and the
        outer end of the last membership run (0 without members), given the
        crossing radius of every bracket.  The run pairing trick: sum over runs
        of (b^N - a^N) equals sum over down-crossings of b^N minus sum over
        up-crossings of a^N, so no explicit pairing is needed."""
        n_dim, k = self.xs.shape[0], self.last.size
        up, down = ~self.inside, self.inside
        acc = np.zeros(k)
        np.subtract.at(acc, self.ray[up], r_cross[up] ** n_dim)
        np.add.at(acc, self.ray[down], r_cross[down] ** n_dim)
        # runs starting at 0+ contribute nothing to subtract; runs still open at
        # r_cap close there
        acc[self.last] += self.r_cap ** n_dim
        outer = np.zeros(k)
        np.maximum.at(outer, self.ray[down], r_cross[down])
        outer[self.last] = self.r_cap
        return acc / n_dim, np.bincount(self.ray, minlength=k), outer


def _ray_brackets(f, lam, alpha, xs, ws, uxs, r_cap, scan):
    """Scan the rays xs + r ws, 0 < r <= r_cap, with u(x) = uxs on `scan`
    uniform points for the sign changes of membership, as `_Brackets`.

    The (N, k) rays are axis-major, bound once through `along` and read in
    blocks of about _BLOCK_POINTS ray points on the shared scan row, in the
    field's `scan_dtype`.  A float32 scan is checked in float64 through the
    same binding at both ends of every bracket and of every ray; a ray that
    disagrees anywhere there is scanned again, whole, in float64.  The
    membership then equals a float64 scan's bit for bit, except where the
    float64 scan has a run (of members or of non-members) strictly inside a
    float32 run, which no checked point meets.
    """
    k = xs.shape[1]
    r = np.linspace(r_cap / scan, r_cap, scan)
    lam_r = lam * r ** alpha
    member = np.empty((k, scan), dtype=bool)
    block = max(1, _BLOCK_POINTS // scan)
    u = f.along(xs, ws)

    def rows_member(rows, r, lam_r, uxs, out=None):
        g = u(r, rows)      # a new array: `along` returns no view
        g -= uxs[rows][:, None]
        np.abs(g, out=g)
        return np.greater_equal(g, lam_r, out=out)

    dt = f.scan_dtype
    r_s, lam_s, uxs_s = (a.astype(dt, copy=False) for a in (r, lam_r, uxs))
    for b0 in range(0, k, block):
        b = slice(b0, b0 + block)
        rows_member(b, r_s, lam_s, uxs_s, out=member[b])
    ray, i = np.divmod(np.flatnonzero(member[:, 1:] != member[:, :-1]), scan - 1)
    if dt != np.float64:
        # float64 at both ends of every bracket and of every ray
        rows = np.concatenate([ray, ray, np.arange(k), np.arange(k)])
        js = np.concatenate([i, i + 1, np.zeros(k, dtype=int), np.full(k, scan - 1)])
        agree = rows_member(rows, r[js][:, None], lam_r[js][:, None], uxs)[:, 0] \
            == member.ravel()[rows * scan + js]
        redo = np.zeros(k, dtype=bool)
        redo[rows[~agree]] = True
        redo = np.flatnonzero(redo)
        for b0 in range(0, redo.size, block):
            b = redo[b0 : b0 + block]
            member[b] = rows_member(b, r, lam_r, uxs)
        if redo.size:
            ray, i = np.divmod(np.flatnonzero(member[:, 1:] != member[:, :-1]), scan - 1)
    return _Brackets(xs[:, ray], ws[:, ray], uxs[ray], r[i], r[i + 1], member[ray, i], ray,
                     member[:, -1].copy(), r_cap)


def _bisect_crossings(f, lam, alpha, xs, ws, uxs, lo, hi, inside, halvings):
    """The crossing radius in every sign-change bracket (lo, hi] of the (N, m)
    axis-major rays xs + r ws, where `inside` says whether lo is a member.

    Each bracket is halved `halvings` times; then one regula-falsi step on
    g(r) = |u(x + r w) - u(x)| - lam r^alpha in the final bracket, clipped to
    it, so a crossing is off by at most that bracket's width.  The rays are
    bound once through `along`; g at an end that no halving moved is read
    once more, on those rays only.  Every bracket is solved on its own, so
    batching brackets moves no bit.
    """
    if not lo.size:
        return lo.copy()
    lo, hi = lo.copy(), hi.copy()
    g_lo, g_hi = np.full(lo.size, np.nan), np.full(lo.size, np.nan)
    u = f.along(xs, ws)

    def g(r, b=slice(None)):
        # g >= 0 decides as the scan's |u(y) - u(x)| >= lam r^alpha does
        v = u(r, b)
        v -= uxs[b, None]
        np.abs(v, out=v)
        v -= lam * r ** alpha
        return v

    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid[:, None])[:, 0]
        to_lo = (g_mid >= 0.0) == inside
        np.copyto(lo, mid, where=to_lo)
        np.copyto(g_lo, g_mid, where=to_lo)
        np.logical_not(to_lo, out=to_lo)
        np.copyto(hi, mid, where=to_lo)
        np.copyto(g_hi, g_mid, where=to_lo)
    stale = np.flatnonzero(np.isnan(g_lo) | np.isnan(g_hi))
    if stale.size:
        g_lo[stale], g_hi[stale] = g(np.stack([lo[stale], hi[stale]], axis=1), stale).T
    r = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
    np.fmax(r, lo, out=r)       # a NaN step (g = 0 at both ends) stays at lo
    return np.fmin(r, hi, out=r)


def _scan_rays(f, lam, alpha, xs, ws, uxs, r_cap, scan, halvings):
    """Membership runs of the rays xs + r ws, 0 < r <= r_cap, with u(x) = uxs:
    one scan and one solve.  Returns `_Brackets.runs` per ray."""
    br = _ray_brackets(f, lam, alpha, xs, ws, uxs, r_cap, scan)
    return br.runs(_bisect_crossings(f, lam, alpha, *br[:6], halvings))


def _grid_brackets(f, lam, alpha, X, W, r_cap, scan):
    """The scanned cells of the (x, w) grid, as indices into its nx*nw cells,
    and their `_Brackets`.

    Only the rays x + r w, 0 < r <= r_cap, that `segments_meet_support`
    reports are scanned: on every other ray u is exactly 0, at x too, so its
    cell is exactly zero.
    """
    nx, nw = X.shape[0], W.shape[0]
    meets = f.segments_meet_support(X[:, None], W[None], r_cap)
    rays = np.flatnonzero(meets)
    ray_x, ray_w = np.divmod(rays, nw)
    ux = np.zeros(nx)
    live = np.flatnonzero(meets.any(axis=1))
    if live.size:
        ux[live] = f.evaluate(X[live])
    return rays, _ray_brackets(f, lam, alpha, X.T[:, ray_x], W.T[:, ray_w], ux[ray_x], r_cap, scan)


def _solve_into(f, lam, alpha, pending):
    """Solve the brackets of every pending (cells, rays, brackets) in one
    batched call, write each ray's measure into its cell, and empty `pending`."""
    parts = [br for _, _, br in pending]
    cols = (np.concatenate(col, axis=-1) for col in zip(*(br[:6] for br in parts)))
    r = _bisect_crossings(f, lam, alpha, *cols, _HALVINGS)
    ends = np.cumsum([br.lo.size for br in parts])[:-1]
    for (cells, rays, br), r_br in zip(pending, np.split(r, ends)):
        cells[rays] = br.runs(r_br)[0]
    pending.clear()


# ---------------------------------------------------------------------------
# sandwich radii
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichBounds:
    """Per-ray radii with (0, lower] inside and the membership set inside (0, upper]."""

    lower: np.ndarray
    upper: np.ndarray


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
    return SandwichBounds(lower, upper)


def verify_sandwich(f, p, lam, samples, delta, stream):
    """Measure (0, lower] <= membership runs <= (0, upper] on sampled rays.

    Returns a dict with the worst upper excess, max (outer - upper) / (1 +
    upper) over the rays, where outer is the outer end of the ray's last run,
    and the worst lower shortfall, max (lam r^alpha - |u(x + r w) - u(x)|)
    over 64 radii geometric in (0, lower] of each ray with lower > 0 (-inf
    without one); both are at most 0 on the catalogue, and the caller
    decides on them.  All rays go through one kernel call, unpruned, solved
    to final brackets at most _SANDWICH_WIDTH wide: a ray that misses the
    support reads u = 0 and has no members, and r_cap = 0 (a zero field)
    scans only r = 0, where every outer end is 0.
    """
    if lam <= f.lip_bound:
        raise PreconditionError("verify_sandwich needs lambda > lip_bound")
    n = f.dim
    q = LevelSetQuery(f, p, n / p + 1.0, lam)
    r_cap = truncation_radius(f, lam, q.alpha)
    xs, ws, _ = PairSampler(n, f.support_radius + 1.0, r_cap).draw(stream, 0, samples)
    ux = f.evaluate(xs)
    halvings = math.ceil(math.log2(max(r_cap / _SANDWICH_SCAN / _SANDWICH_WIDTH, 1.0)))
    _, crossings, outer = _scan_rays(f, lam, q.alpha, xs.T, ws.T, ux, r_cap, _SANDWICH_SCAN, halvings)
    sb = sandwich_bounds(f, p, lam, xs, ws, delta)
    # the inner radius can sit below the scan's first grid point, so read
    # membership directly on a dense sample of (0, lower]
    inner = sb.lower > 0
    rr = sb.lower[inner, None] * np.geomspace(1e-3, 1.0, 64)
    short = lam * rr ** q.alpha - np.abs(f.evaluate(xs[inner, None] + rr[..., None] * ws[inner, None])
                                         - ux[inner, None])
    return {
        "samples": samples,
        "worst_upper_excess": float(np.max((outer - sb.upper) / (1.0 + sb.upper))),
        "worst_lower_shortfall": float(np.max(short, initial=-math.inf)),
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
    bracketing points (in float32 for radial fields, every bracket and ray
    end checked in float64 and each disagreeing ray scanned again, see
    `_ray_brackets`); each crossing is refined in float64 by _HALVINGS
    halvings of its scan bracket and one regula-falsi step, so to a fixed
    fraction of the scan step.  The inner radial integral is exact on each
    membership run.
    The hemisphere with doubled weights gives the full-sphere integral from
    half the rays: the pair swap (x, w, r) -> (x + r w, -w, r) preserves the
    set and the measure, so the x-integrated ray measure in direction w
    equals that in -w (the sphere rule needs an even size).  That holds
    exactly while the x box holds both ends of every member pair, i.e.
    r_cap <= 1; beyond, the box drops pairs either way and the two
    truncations differ for fields that are not centrally symmetric.  Error
    estimate comes from one combined coarsening step (half the panels and
    scan); a fine pass with at most 8 scan nodes cannot be coarsened and
    reports converged=False.  Both passes are scanned first and their
    brackets solved together, in one batched call for up to _SOLVE_BRACKETS
    brackets.
    """
    if scan < 2:
        raise InvalidParameterError(f"scan must be >= 2 to bracket a crossing, got {scan!r}")
    f = q.field
    half, r_cap = pair_region(f, q.lam, q.alpha)
    x_grid = centered_box_grid(half, f.dim, x_nodes)
    sphere = sphere_rule(f.dim, sphere_order).half()
    nw = sphere.nodes.shape[0]
    # the coarse pass halves panels and scan, the scan at least to 64 nodes
    # where that is still coarser, else down to a floor of 8; the grid has at
    # least 2 panels, so only the scan can sit at its floor
    coarse_scan = min(scan, max(64 if scan > 64 else 8, scan // 2))
    passes = [(x_grid, scan), (x_grid.coarsened(), coarse_scan)]
    totals, nodes = [0.0, 0.0], 0
    if r_cap > 0.0:
        grids, pending = [], []
        for grid, scan_n in passes:
            pts, w = grid.points_weights()
            nx = pts.shape[0]
            cells = np.zeros(nx * nw)
            grids.append((w, cells))
            nodes += nx * nw * scan_n
            # one scan per run of whole x chunks holding at most _SCAN_POINTS
            # nominal ray points; the sum still goes chunk by chunk
            run_x = _X_CHUNK * max(1, _SCAN_POINTS // (_X_CHUNK * nw * scan_n))
            for r0 in range(0, nx, run_x):
                pending.append((cells[r0 * nw : (r0 + run_x) * nw], *_grid_brackets(
                    f, q.lam, q.alpha, pts[r0 : r0 + run_x], sphere.nodes, r_cap, scan_n)))
                if sum(br.lo.size for *_, br in pending) >= _SOLVE_BRACKETS:
                    _solve_into(f, q.lam, q.alpha, pending)
        if pending:
            _solve_into(f, q.lam, q.alpha, pending)
        for j, (w, cells) in enumerate(grids):
            m = cells.reshape(-1, nw) * sphere.weights
            for c0 in range(0, m.shape[0], _X_CHUNK):
                totals[j] += float(np.sum(w[c0 : c0 + _X_CHUNK] * m[c0 : c0 + _X_CHUNK].sum(axis=1)))
    value, coarse = totals
    err = abs(value - coarse)
    # a fine pass already at the scan floor has no coarser pass to compare with
    converged = coarse_scan < scan and err <= 0.05 * max(abs(value), 1e-300)
    return QuadratureResult(value, err, nodes, converged)


def pair_measure_mc(q: LevelSetQuery, n, stream, workers=1):
    """Unbiased Monte Carlo estimate of the same truncated pair measure at
    `q.lam`, or at each of an array of thresholds (lists of values and errors,
    as `monte_carlo` gives them, each bit for bit the one-threshold call's).

    Each chunk of unit pairs (|x| <= 1, r <= 1) is drawn from `stream` once
    for every threshold, whose `pair_region` half and r_cap scale x and r:
    that maps the draw uniformly onto its region, so each estimate is
    unbiased with a valid standard error, and estimates at different
    thresholds are correlated.  u(x) is shared by thresholds of equal half.
    """
    if n < 1000:
        raise InvalidParameterError("need at least 1e3 samples")
    f, alpha, lams = q.field, q.alpha, np.atleast_1d(q.lam)
    halves, caps = np.array([pair_region(f, lam, alpha) for lam in lams]).T
    sampler = PairSampler(f.dim, 1.0, 1.0)
    sampler.weight = sampler.weight * (halves * caps) ** f.dim

    def members(x, w, r):
        out, half, r_alpha = np.empty((lams.size, r.size), dtype=bool), None, r ** alpha
        for lam, h, cap, row in zip(lams, halves, caps, out):
            if h != half:
                half, xs = h, x.T * h       # axis-major, as drawn
                ux = f.evaluate(xs.T)
            rs = r * cap
            dv = np.abs(f.evaluate((xs + rs * w.T).T) - ux)
            np.logical_and(dv >= lam * cap ** alpha * r_alpha, rs > 0.0, out=row)
        return out.T if np.ndim(q.lam) else out[0]

    return monte_carlo(members, sampler, n, stream, workers=workers)


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
    """Estimate mu(E_lambda) on an ascending threshold grid with shared budgets.
    Monte Carlo draws each chunk once for the whole grid (`pair_measure_mc`): the
    positive correlation across thresholds makes the monotonicity flags, a rise
    beyond the sum of two standard errors, conservative."""
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.size == 0:
        raise InvalidParameterError("empty lambda grid")
    if np.any(lam_grid <= 0) or np.any(np.diff(lam_grid) <= 0):
        raise InvalidParameterError("lambda grid must be positive and ascending")
    if estimator == "polar":
        (budgets,) = split_budgets(f.dim, budgets, "polar")

        def one(lam):
            return pair_measure_polar(LevelSetQuery(f, p, alpha, lam), **budgets)
        results = [one(lam) for lam in lam_grid]
        mu = np.array([r.value for r in results])
        err = np.array([r.error_estimate for r in results])
    elif estimator == "mc":
        if stream is None:
            raise InvalidParameterError("mc estimator needs a RandomStream")
        n_mc = split_budgets(f.dim, budgets, "mc")[0]["mc_samples"]

        def one(lam):
            # the grid and every refined threshold read the same unit pairs
            return pair_measure_mc(LevelSetQuery(f, p, alpha, lam), n_mc, stream, workers=workers)
        res = one(lam_grid)
        mu, err = np.array(res.value), np.array(res.error_estimate)
    else:
        raise InvalidParameterError(f"unknown estimator {estimator!r}")

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
    golden-section evaluations (0 skips the refinement).

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

            fc = val_at(c)
            fd = val_at(d) if refine > 1 else -math.inf     # refine 1: c alone
            best = max(best, fc, fd)
            for _ in range(refine - 2):
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
