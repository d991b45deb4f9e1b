"""Fractional difference-quotient seminorms and the s = 1 diagonal divergence.

The double integral over R^N x R^N is rewritten in polar pair coordinates
anchored at x inside the support ball B:

    iint = int_{x in B} int_w [ int_{r_lo}^{t_exit} |u(x+rw)-u(x)|^p r^{-1-sp} dr
                                + 2 |u(x)|^p max(t_exit, r_lo)^{-sp} / (sp) ] dw dx

where t_exit is the exit radius of the ray from the ball and r_lo is the
inner cutoff (delta_in at s = 1, else 0).  The closed-form tail accounts
exactly for both orderings of pairs with one endpoint outside B and length
at least r_lo (u vanishes outside B), so truncation introduces no bias.
For s < 1, below a splitting radius of 1e-6 the radial integrand is replaced
by its certified linearization |grad u(x).w|^p r^{p-1-sp}, whose error is
bounded through the Hessian bound and reported; at s = 1 it splits at r_lo.

The mid part, from the splitting radius to t_exit, reads u(y) through
`ScalarField.along` on one direction of each antipodal pair, counted twice
(`SphereRule.half`): the swap (x, w, r) -> (x + r w, -w, r) preserves
measure and the symmetric integrand, and maps {x in B, r_split <= r <=
t_exit(x, w)} onto itself, as x + r w lies in B exactly when r <= t_exit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .fields import gradient_lp_norm
from .quadrature import (
    QuadratureResult,
    centered_box_grid,
    composite_gauss,
    sphere_abs_moment,
    sphere_rule,
    split_budgets,
)

__all__ = [
    "SeminormQuery",
    "seminorm_limit_factor",
    "diagonal_divergence_probe",
    "gagliardo",
]

_NEAR_SPLIT = 1e-6
_CHUNK_POINTS = 2 ** 16    # mid-part ray points per chunk; 2e6 (16 MB temporaries) took 2x as long
_PANELS_PER_DECADE = 3     # log-radius panels per decade in the coarse pass; the fine takes twice its panels
_ROUNDING = 8 * np.finfo(float).eps     # error floor relative to |value|, a few ulps


@dataclass(frozen=True)
class SeminormQuery:
    """Seminorm parameters; s = 1 demands an inner cutoff delta_in > 0."""

    field: object
    s: float
    p: float
    delta_in: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0:
            raise InvalidParameterError("s must lie in (0, 1]")
        if self.p < 1.0:
            raise InvalidParameterError("p must be >= 1")
        if self.s == 1.0 and self.delta_in <= 0.0:
            raise PreconditionError(
                "the s = 1 integral diverges for nonconstant fields; an inner cutoff is required"
            )


def _exit_radius(X, W):
    # distance from x (inside the ball of radius R) to the sphere along w
    # X: (nx, N), W: (nw, N); returns (nx, nw)
    xw = X @ W.T
    x2 = np.sum(X ** 2, axis=1)
    return -xw + np.sqrt(np.maximum(xw ** 2 + (1.0 - x2)[:, None], 0.0))


def _gagliardo_pass(f, s, p, delta_in, x_nodes, sphere_order, n_panels=None):
    """(value, linearization error, nodes, log-radius panels) of one pass; without
    `n_panels`, _PANELS_PER_DECADE per decade of the pass's longest log-radius range."""
    R = f.support_radius
    grid = centered_box_grid(R, f.dim, x_nodes)
    pts, wx = grid.points_weights()
    inside = np.sum(pts ** 2, axis=1) < R ** 2 * (1.0 - 1e-14)
    X, wx = pts[inside], wx[inside]
    rule = sphere_rule(f.dim, sphere_order)
    W = rule.nodes
    t_exit = R * _exit_radius(X / R, W)                     # (nx, nw)
    ux = f.evaluate(X)
    gdir = np.abs(f.gradient(X) @ W.T)                      # (nx, nw)

    sp = s * p
    expo = p * (1.0 - s)
    r_lo = delta_in if s == 1.0 else 0.0
    r_split = np.minimum(r_lo if s == 1.0 else _NEAR_SPLIT, t_exit)

    near = near_err = np.zeros_like(t_exit)
    if s < 1.0:
        # certified linearization on (0, r_split]
        near = gdir ** p * r_split ** expo / expo
        near_err = (p * f.hess_bound * (gdir + f.hess_bound * r_split) ** (p - 1.0)
                    * r_split ** (expo + 1.0) / (expo + 1.0))

    # mid part on [r_split, t_exit] in log coordinates, on the half rule: the
    # first M/2 columns of the full rule's arrays
    half = rule.half()
    mh = half.weights.shape[0]
    lo_v = np.log(np.maximum(r_split, 1e-300))
    hi_v = np.log(np.maximum(t_exit, 1e-300))
    if n_panels is None:
        span = float(np.max(np.maximum(hi_v - lo_v, 0.0)))
        n_panels = max(2, int(math.ceil(_PANELS_PER_DECADE * span / math.log(10.0))))
    vg, vw = composite_gauss(0.0, 1.0, n_panels)   # reference panelization

    # map reference nodes onto each active (x, w) log-range, chunk by chunk
    mid = np.zeros((X.shape[0], mh))
    idx = np.nonzero(hi_v[:, :mh] > lo_v[:, :mh])
    chunk = max(1, _CHUNK_POINTS // vg.size)
    for c0 in range(0, idx[0].size, chunk):
        ii, jj = idx[0][c0 : c0 + chunk], idx[1][c0 : c0 + chunk]
        a, b = lo_v[ii, jj][:, None], hi_v[ii, jj][:, None]
        v = a + (b - a) * vg[None, :]
        dv = np.abs(f.along(X[ii].T, half.nodes[jj].T)(np.exp(v)) - ux[ii][:, None])
        mid[ii, jj] = np.sum(dv ** p * np.exp(-sp * v) * vw[None, :], axis=1) * (b - a)[:, 0]

    # pairs leaving B, both orderings, no shorter than the inner cutoff
    far = 2.0 * np.abs(ux[:, None]) ** p * np.maximum(t_exit, max(r_lo, 1e-300)) ** (-sp) / sp
    far = np.where(np.abs(ux[:, None]) > 0.0, far, 0.0)

    per_x = ((near + far) * rule.weights).sum(axis=1) + (mid * half.weights).sum(axis=1)
    err_lin = float(np.sum(wx * (near_err * rule.weights[None, :]).sum(axis=1)))
    value = float(np.sum(wx * per_x))
    nodes = X.shape[0] * mh * vg.size
    return value, err_lin, nodes, n_panels


def gagliardo(q: SeminormQuery, **budgets):
    """iint |u(x)-u(y)|^p / |x-y|^{N+sp} dx dy with one refinement step.

    For s = 1 only pairs with |x-y| >= delta_in are counted.  The fine pass
    takes twice the coarse pass's `x_nodes` and exactly twice its log-radius
    panels.  The error estimate is the passes' difference plus the
    linearization bound, and never below a few ulps of the value.
    """
    f = q.field
    (b,) = split_budgets(f.dim, budgets, "gagliardo")
    x_nodes, order = b["x_nodes"], b["sphere_order"]
    coarse, _, n1, panels = _gagliardo_pass(f, q.s, q.p, q.delta_in, x_nodes, order)
    fine, err_lin, n2, _ = _gagliardo_pass(f, q.s, q.p, q.delta_in, 2 * x_nodes, order, 2 * panels)
    err = max(abs(fine - coarse) + err_lin, _ROUNDING * abs(fine))
    converged = err <= 1e-3 * max(abs(fine), 1e-300)
    return QuadratureResult(fine, err, n1 + n2, converged)


def diagonal_divergence_probe(f, p, deltas, **budgets):
    """Truncated s = 1 values V(delta) and their slope against log(1/delta).

    The slope estimates moment(p, N) * int |grad u|^p, `target`; their ratio
    is `target_ratio`.  `slope_error` bounds the slope's error through the
    values' error estimates.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size < 3:
        raise InvalidParameterError("need at least three rungs")
    if np.any(deltas <= 0) or np.any(np.diff(deltas) >= 0):
        raise InvalidParameterError("delta ladder must be positive and decreasing")
    ratios = deltas[1:] / deltas[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9 * ratios[0]:
        raise InvalidParameterError("delta ladder must be geometric")

    runs = [gagliardo(SeminormQuery(f, 1.0, p, d), **budgets) for d in deltas]
    values = np.array([r.value for r in runs])
    x = np.log(1.0 / deltas)
    slope, intercept = np.polyfit(x, values, 1)
    weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    slope_error = float(np.abs(weights) @ np.array([r.error_estimate for r in runs]))
    target = sphere_abs_moment(p, f.dim).moment * gradient_lp_norm(f, p).value
    ratio = slope / target if target > 0 else math.inf if slope > 0 else 1.0
    return {
        "deltas": deltas.tolist(),
        "values": values.tolist(),
        "slope": float(slope),
        "slope_error": slope_error,
        "intercept": float(intercept),
        "target": float(target),
        "target_ratio": float(ratio),
    }


def seminorm_limit_factor(f, p, s_ladder, **budgets):
    """(1-s) * seminorm^p along s -> 1, against the conjectured limit
    moment(p, N)/p * int |grad u|^p.

    The limit is *measured*, not assumed: the record carries the plateau,
    the last rung's factor, next to the conjectured value, and their ratio,
    so a disagreement is visible.
    """
    s_ladder = np.asarray(s_ladder, dtype=float)
    if np.any((s_ladder <= 0) | (s_ladder >= 1)) or np.any(np.diff(s_ladder) <= 0):
        raise InvalidParameterError("s ladder must be increasing inside (0, 1)")
    runs = [gagliardo(SeminormQuery(f, s, p), **budgets) for s in s_ladder]
    factors = (1.0 - s_ladder) * np.array([r.value for r in runs])
    conjectured = sphere_abs_moment(p, f.dim).moment / p * gradient_lp_norm(f, p).value
    plateau = float(factors[-1])
    # one linear extrapolation step in (1 - s)
    if s_ladder.size >= 2:
        e1, e0 = 1.0 - s_ladder[-1], 1.0 - s_ladder[-2]
        extrapolated = float(factors[-1] + (factors[-1] - factors[-2]) * e1 / (e0 - e1))
    else:
        extrapolated = plateau
    return {
        "s_values": s_ladder.tolist(),
        "factors": factors.tolist(),
        "plateau": plateau,
        "plateau_error": float((1.0 - s_ladder[-1]) * runs[-1].error_estimate),
        "extrapolated": extrapolated,
        "conjectured": float(conjectured),
        "plateau_ratio": float(plateau / conjectured) if conjectured > 0 else 0.0,
    }
