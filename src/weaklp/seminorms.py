"""Fractional difference-quotient seminorms and the s = 1 diagonal divergence.

The double integral over R^N x R^N is rewritten in polar pair coordinates
anchored at x inside the support ball B:

    iint = int_{x in B} int_w [ int_0^{t_exit} |u(x+rw)-u(x)|^p r^{-1-sp} dr
                                + 2 |u(x)|^p t_exit^{-sp} / (sp) ] dw dx

where t_exit is the exit radius of the ray from the ball.  The closed-form
tail accounts exactly for both orderings of pairs with one endpoint outside
B (u vanishes there), so truncation introduces no bias.  Below a splitting
radius the radial integrand is replaced by its certified linearization
|grad u(x).w|^p r^{p-1-sp}, whose error is bounded through the Hessian bound
and reported.
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
_PANELS_PER_DECADE = 3     # log-radius panels per decade in the coarse pass; doubled in the fine


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


def _gagliardo_pass(f, s, p, delta_in, x_nodes, sphere_order, panels_per_decade):
    R = f.support_radius
    grid = centered_box_grid(R, f.dim, x_nodes)
    pts, wx = grid.points_weights()
    inside = np.sum(pts ** 2, axis=1) < R ** 2 * (1.0 - 1e-14)
    X = pts[inside]
    wx = wx[inside]
    rule = sphere_rule(f.dim, sphere_order)
    W = rule.nodes
    t_exit = R * _exit_radius(X / R, W)                     # (nx, nw)
    ux = f.evaluate(X)
    gvec = f.gradient(X)
    gdir = np.abs(gvec @ W.T)                               # (nx, nw)

    sp = s * p
    expo = p * (1.0 - s)
    r_lo = delta_in if s == 1.0 else 0.0
    r_split = np.minimum(max(_NEAR_SPLIT, r_lo), t_exit)

    near = np.zeros_like(t_exit)
    near_err = np.zeros_like(t_exit)
    if s < 1.0:
        # certified linearization on (0, r_split]
        near = gdir ** p * r_split ** expo / expo
        near_err = (
            p
            * f.hess_bound
            * (gdir + f.hess_bound * r_split) ** (p - 1.0)
            * r_split ** (expo + 1.0)
            / (expo + 1.0)
        )

    # mid part on [r_split, t_exit] in log coordinates
    lo_v = np.log(np.maximum(r_split, 1e-300))
    hi_v = np.log(np.maximum(t_exit, 1e-300))
    span = float(np.max(np.maximum(hi_v - lo_v, 0.0)))
    n_panels = max(2, int(math.ceil(panels_per_decade * span / math.log(10.0))))
    vg, vw = composite_gauss(0.0, 1.0, n_panels)   # reference panelization

    mid = np.zeros_like(t_exit)
    active = hi_v > lo_v
    if np.any(active):
        # map reference nodes onto each (x, w) log-range; chunk over x to
        # bound memory
        idx = np.nonzero(active)
        chunk = max(1, int(2e6 // max(vg.size, 1)))
        for c0 in range(0, idx[0].size, chunk):
            ii = idx[0][c0 : c0 + chunk]
            jj = idx[1][c0 : c0 + chunk]
            a = lo_v[ii, jj][:, None]
            b = hi_v[ii, jj][:, None]
            v = a + (b - a) * vg[None, :]
            r = np.exp(v)
            pts_c = X[ii][:, None, :] + r[..., None] * W[jj][:, None, :]
            dv = np.abs(f.evaluate(pts_c) - ux[ii][:, None])
            integ = dv ** p * np.exp(-sp * v)
            mid[ii, jj] = np.sum(integ * vw[None, :], axis=1) * (b - a)[:, 0]

    far = 2.0 * np.abs(ux[:, None]) ** p * np.maximum(t_exit, 1e-300) ** (-sp) / sp
    far = np.where(np.abs(ux[:, None]) > 0.0, far, 0.0)

    per_x = ((near + mid + far) * rule.weights[None, :]).sum(axis=1)
    err_lin = float(np.sum(wx * (near_err * rule.weights[None, :]).sum(axis=1)))
    value = float(np.sum(wx * per_x))
    nodes = X.shape[0] * W.shape[0] * vg.size
    return value, err_lin, nodes


def gagliardo(q: SeminormQuery, **budgets):
    """iint |u(x)-u(y)|^p / |x-y|^{N+sp} dx dy with one refinement step.

    For s = 1 only pairs with |x-y| >= delta_in are counted.  The fine pass
    doubles the `x_nodes` budget and the log-radius panels per decade.
    """
    f = q.field
    (b,) = split_budgets(f.dim, budgets, "gagliardo")
    x_nodes, order = b["x_nodes"], b["sphere_order"]
    coarse, _, n1 = _gagliardo_pass(f, q.s, q.p, q.delta_in, x_nodes, order, _PANELS_PER_DECADE)
    fine, err_lin, n2 = _gagliardo_pass(
        f, q.s, q.p, q.delta_in, 2 * x_nodes, order, 2 * _PANELS_PER_DECADE)
    err = abs(fine - coarse) + err_lin
    converged = err <= 1e-3 * max(abs(fine), 1e-300)
    return QuadratureResult(fine, err, n1 + n2, converged)


def diagonal_divergence_probe(f, p, deltas, tol=0.10, **budgets):
    """Truncated s = 1 values V(delta) and their slope against log(1/delta).

    The slope estimates moment(p, N) * int |grad u|^p; `target_ratio` close
    to 1 and `passed` report how the fit landed relative to `tol`.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size < 3:
        raise InvalidParameterError("need at least three rungs")
    if np.any(deltas <= 0) or np.any(np.diff(deltas) >= 0):
        raise InvalidParameterError("delta ladder must be positive and decreasing")
    ratios = deltas[1:] / deltas[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9 * ratios[0]:
        raise InvalidParameterError("delta ladder must be geometric")

    values = np.array(
        [gagliardo(SeminormQuery(f, 1.0, p, d), **budgets).value for d in deltas]
    )
    x = np.log(1.0 / deltas)
    slope, intercept = np.polyfit(x, values, 1)
    target = sphere_abs_moment(p, f.dim).moment * gradient_lp_norm(f, p).value
    ratio = slope / target if target > 0 else math.inf if slope > 0 else 1.0
    return {
        "deltas": deltas.tolist(),
        "values": values.tolist(),
        "slope": float(slope),
        "intercept": float(intercept),
        "target": float(target),
        "target_ratio": float(ratio),
        "passed": bool(abs(ratio - 1.0) <= tol),
        "tolerance": tol,
    }


def seminorm_limit_factor(f, p, s_ladder, tol=0.10, **budgets):
    """(1-s) * seminorm^p along s -> 1, against the conjectured multiple.

    The limiting multiple moment(p, N)/p is *measured*, not assumed: the
    record carries both the conjectured value and the observed multiple so a
    disagreement is visible.
    """
    s_ladder = np.asarray(s_ladder, dtype=float)
    if np.any((s_ladder <= 0) | (s_ladder >= 1)) or np.any(np.diff(s_ladder) <= 0):
        raise InvalidParameterError("s ladder must be increasing inside (0, 1)")
    factors = np.array(
        [(1.0 - s) * gagliardo(SeminormQuery(f, s, p), **budgets).value for s in s_ladder]
    )
    grad_p = gradient_lp_norm(f, p).value
    conjectured = sphere_abs_moment(p, f.dim).moment / p * grad_p
    plateau = float(factors[-1])
    # one linear extrapolation step in (1 - s)
    if s_ladder.size >= 2:
        e1, e0 = 1.0 - s_ladder[-1], 1.0 - s_ladder[-2]
        extrapolated = float(factors[-1] + (factors[-1] - factors[-2]) * e1 / (e0 - e1))
    else:
        extrapolated = plateau
    measured_multiple = plateau * p / grad_p if grad_p > 0 else 0.0
    return {
        "s_values": s_ladder.tolist(),
        "factors": factors.tolist(),
        "plateau": plateau,
        "extrapolated": extrapolated,
        "conjectured": float(conjectured),
        "measured_multiple": float(measured_multiple),
        "plateau_ratio": float(plateau / conjectured) if conjectured > 0 else 0.0,
        "passed": bool(conjectured == 0.0 or abs(plateau / conjectured - 1.0) <= tol),
        "tolerance": tol,
    }
