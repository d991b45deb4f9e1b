"""Weak-norm inequality checks in the regimes where the strong inequalities
fail, the strong-norm divergence witness, and the valid strong regimes.

Every check records LHS, RHS, and their ratio; the testable content is that
ratios stay bounded along witness ladders (the strong-norm probe diverges on
the same ladders).  All LHS/RHS pairs are exactly 1-homogeneous in the field
amplitude, which the suites assert by running at two amplitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvalidParameterError
from .fields import gradient_lp_norm, lp_norm, make_mollified_indicator
from .levelset import default_lambda_grid, distribution_profile, weak_quasinorm
from .quadrature import split_budgets
from .seminorms import SeminormQuery, gagliardo

__all__ = [
    "CorollaryReport",
    "GNParams",
    "check_strong_embedding",
    "check_strong_interpolation",
    "check_weak_gradient_1d",
    "check_weak_seminorm_interpolation",
    "check_weak_sup_interpolation",
    "strong_norm_divergence_probe",
]


@dataclass(frozen=True)
class GNParams:
    """Interpolation parameters with the derived (s, p) pair.

    s = theta * s1 + (1 - theta) and 1/p = theta/p1 + (1 - theta), with
    s1 = 0 for the zero-smoothness family.
    """

    theta: float
    p1: float
    s1: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise InvalidParameterError("theta must lie in (0, 1)")
        if self.p1 <= 1.0:
            raise InvalidParameterError("p1 must exceed 1 (possibly infinite)")
        if not 0.0 <= self.s1 < 1.0:
            raise InvalidParameterError("s1 must lie in [0, 1)")

    @property
    def s(self):
        return self.theta * self.s1 + (1.0 - self.theta)

    @property
    def inv_p(self):
        return (self.theta / self.p1 if math.isfinite(self.p1) else 0.0) + (1.0 - self.theta)

    @property
    def p(self):
        return 1.0 / self.inv_p


@dataclass
class CorollaryReport:
    lhs: float
    rhs: float
    field_label: str
    params: dict
    extras: dict = dc_field(default_factory=dict)

    @property
    def ratio(self):
        return self.lhs / self.rhs if self.rhs > 0 else math.inf if self.lhs > 0 else 0.0


def _weak_lhs(field, p, alpha, budgets):
    weak, polar = split_budgets(field.dim, budgets, "weak", "polar")
    grid = default_lambda_grid(field, weak["lambda_points"], weak["lambda_lo"], weak["lambda_hi"])
    prof = distribution_profile(field, p, alpha, grid, budgets=polar)
    return weak_quasinorm(prof, refine=weak["refine"]) ** (1.0 / p)


def check_weak_gradient_1d(field, p, budgets=None):
    """1-D weak quasinorm at exponent 2/p against the total gradient mass;
    the strong analogue fails on indicator-like witnesses."""
    if field.dim != 1:
        raise InvalidParameterError("this bound is one-dimensional")
    if p <= 1:
        raise InvalidParameterError("needs 1 < p < infinity")
    if 2.0 / p <= 1.0:
        raise InvalidParameterError(
            "quotient exponent 2/p must exceed 1 for the radial truncation; take p < 2"
        )
    lhs = _weak_lhs(field, p, 2.0 / p, budgets)
    rhs = gradient_lp_norm(field, 1.0).value
    return CorollaryReport(lhs, rhs, field.label, {"p": p, "alpha": 2.0 / p})


def check_weak_sup_interpolation(field, p, budgets=None):
    """Weak quasinorm at exponent (N+1)/p against ||u||_inf^(1-1/p) ||grad u||_1^(1/p)."""
    if p <= 1:
        raise InvalidParameterError("needs 1 < p < infinity")
    n = field.dim
    if (n + 1.0) / p <= 1.0:
        raise InvalidParameterError(
            "quotient exponent (N+1)/p must exceed 1 for the radial truncation; take p < N+1"
        )
    lhs = _weak_lhs(field, p, (n + 1.0) / p, budgets)
    rhs = field.sup_norm ** (1.0 - 1.0 / p) * gradient_lp_norm(field, 1.0).value ** (1.0 / p)
    return CorollaryReport(lhs, rhs, field.label, {"p": p, "alpha": (n + 1.0) / p})


def check_weak_seminorm_interpolation(field, params: GNParams, budgets=None):
    """Weak quasinorm at exponent N/p + s against seminorm^theta ||grad u||_1^(1-theta).

    Only the s1 p1 >= 1 regime belongs here; below it the strong inequality
    holds and `check_strong_interpolation` applies.
    """
    if params.s1 * params.p1 < 1.0:
        raise InvalidParameterError(
            "s1 p1 < 1 is the strong regime; use check_strong_interpolation"
        )
    n = field.dim
    s, p = params.s, params.p
    if n / p + s <= 1.0:
        raise InvalidParameterError(
            "quotient exponent N/p + s must exceed 1 for the radial truncation"
        )
    lhs = _weak_lhs(field, p, n / p + s, budgets)
    semi = gagliardo(SeminormQuery(field, params.s1, params.p1)).value ** (1.0 / params.p1)
    rhs = semi ** params.theta * gradient_lp_norm(field, 1.0).value ** (1.0 - params.theta)
    return CorollaryReport(
        lhs, rhs, field.label,
        {"theta": params.theta, "p1": params.p1, "s1": params.s1, "s": s, "p": p},
    )


def check_strong_interpolation(field, theta, p1, budgets=None):
    """Strong seminorm at the interpolated (s, p) against ||u||_{p1}^theta
    ||grad u||_1^(1-theta); valid for finite p1 and refused at p1 = infinity
    where the inequality fails."""
    if not math.isfinite(p1):
        raise InvalidParameterError(
            "the strong inequality fails at p1 = infinity; use the weak variant"
        )
    (gag,) = split_budgets(field.dim, budgets, "gagliardo")
    params = GNParams(theta, p1)
    s, p = params.s, params.p
    lhs = gagliardo(SeminormQuery(field, s, p), **gag).value ** (1.0 / p)
    rhs = lp_norm(field, p1).value ** (theta / p1) * gradient_lp_norm(field, 1.0).value ** (
        1.0 - theta
    )
    return CorollaryReport(lhs, rhs, field.label, {"theta": theta, "p1": p1, "s": s, "p": p})


def check_strong_embedding(field, s, budgets=None):
    """Strong seminorm at (s, p) with 1/p = 1 - (1-s)/N against ||grad u||_1.

    Holds for N >= 2; the N = 1 case fails and is what the divergence probe
    witnesses, so it is refused here.
    """
    if field.dim < 2:
        raise InvalidParameterError(
            "the strong embedding fails for N = 1; see strong_norm_divergence_probe"
        )
    if not 0.0 < s < 1.0:
        raise InvalidParameterError("s must lie in (0, 1)")
    (gag,) = split_budgets(field.dim, budgets, "gagliardo")
    n = field.dim
    p = 1.0 / (1.0 - (1.0 - s) / n)
    lhs = gagliardo(SeminormQuery(field, s, p), **gag).value ** (1.0 / p)
    rhs = gradient_lp_norm(field, 1.0).value
    return CorollaryReport(lhs, rhs, field.label, {"s": s, "p": p})


def strong_norm_divergence_probe(p, eps_ladder, delta_in=None, box=(0.0, 1.0), weak_p=None, budgets=None):
    """Strong integral of |u(x)-u(y)|^p / |x-y|^2 along a mollified-indicator
    ladder, with the bounded weak counterpart recorded for contrast.

    For p = 1 the untruncated integral is infinite for every nonconstant
    field, so an inner cutoff delta_in is required there.  Values must grow
    along the ladder consistently with logarithmic divergence.  The weak
    counterpart runs at `weak_p` (any exponent in (1, 2)).
    """
    eps_ladder = np.asarray(eps_ladder, dtype=float)
    if np.any(eps_ladder <= 0) or np.any(np.diff(eps_ladder) >= 0):
        raise InvalidParameterError("epsilon ladder must be positive and decreasing")
    s = 1.0 / p          # makes the kernel exponent N + s p = 2 in 1-D
    if p == 1.0 and (delta_in is None or delta_in <= 0.0):
        raise InvalidParameterError(
            "at p = 1 the integral is infinite for any nonconstant field; "
            "pass a positive delta_in truncation"
        )
    if weak_p is None:
        weak_p = p if 1.0 < p < 2.0 else 1.5
    # the ladder is 1-D; `x_nodes` goes to gagliardo, as it is listed first
    gag, weak_grid, polar = split_budgets(1, budgets, "gagliardo", "weak", "polar")
    values = []
    weak = []
    for eps in eps_ladder:
        u = make_mollified_indicator([list(box)], eps)
        q = SeminormQuery(u, s, p, delta_in if s == 1.0 else 0.0)
        values.append(gagliardo(q, **gag).value)
        weak.append(check_weak_gradient_1d(u, weak_p, budgets=weak_grid | polar).ratio)
    values = np.array(values)
    increments = np.diff(values)
    if increments.size >= 2 and increments[-2] > 0:
        increment_drift = float(abs(increments[-1] / increments[-2] - 1.0))
    else:
        increment_drift = math.inf
    # against log(1/eps): fitted rate per halving
    rate = float(np.polyfit(np.log(1.0 / eps_ladder), values, 1)[0])
    return {
        "p": p,
        "eps": eps_ladder.tolist(),
        "values": values.tolist(),
        "increments": increments.tolist(),
        "increments_positive": bool(np.all(increments > 0)),
        "increment_drift": increment_drift,
        "log_rate": rate,
        "weak_ratios": weak,
    }
