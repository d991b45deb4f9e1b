"""Centered Hardy-Littlewood maximal function on grids and the pointwise
difference bound it yields.

The sup over radii is approximated by a geometric radius ladder (ratio
2^(1/4)) from half a cell width to the domain diameter.  Averages use exact
cell overlaps in 1-D and exact polygon clipping of a 16-gon disk in 2-D,
with the function extended by zero outside the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import fftconvolve

from .errors import InvalidParameterError, PreconditionError
from .quadrature import unit_ball_volume

__all__ = [
    "GriddedFunction",
    "gridded_gradient_norm",
    "hl_maximal",
    "lusin_lipschitz_check",
    "maximal_route_bound",
    "radius_ladder",
]

_LADDER_RATIO = 2.0 ** 0.25
_DISK_SIDES = 16


@dataclass(frozen=True)
class GriddedFunction:
    """Non-negative cell values on a uniform grid over a bounded box."""

    box: np.ndarray       # (N, 2)
    values: np.ndarray    # (m,) or (m1, m2)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        box = np.asarray(self.box, dtype=float).reshape(-1, 2)
        if v.ndim != box.shape[0] or v.ndim not in (1, 2):
            raise InvalidParameterError("values must be 1-D or 2-D matching the box")
        if np.any(v < 0):
            raise InvalidParameterError("cell values must be non-negative")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "box", box)

    @property
    def dim(self):
        return self.values.ndim

    @property
    def widths(self):
        return (self.box[:, 1] - self.box[:, 0]) / np.array(self.values.shape)

    @property
    def cell_volume(self):
        return float(np.prod(self.widths))

    def centers(self, axis):
        lo, hi = self.box[axis]
        m = self.values.shape[axis]
        return lo + (hi - lo) * (np.arange(m) + 0.5) / m

    def diameter(self):
        return float(np.linalg.norm(self.box[:, 1] - self.box[:, 0]))

    def integral(self, power=1.0):
        return float(np.sum(self.values ** power)) * self.cell_volume


def radius_ladder(g: GriddedFunction):
    """Geometric radii from half a cell width to the domain diameter."""
    h = float(np.min(g.widths))
    r = 0.5 * h
    out = [r]
    top = g.diameter()
    while out[-1] < top:
        out.append(out[-1] * _LADDER_RATIO)
    return np.array(out)


def _maximal_1d(g: GriddedFunction):
    h = float(g.widths[0])
    vals = g.values
    prefix = np.concatenate([[0.0], np.cumsum(vals)]) * h
    lo = g.box[0, 0]
    hi = g.box[0, 1]
    nodes = np.linspace(lo, hi, vals.size + 1)
    c = g.centers(0)

    def mass(t):
        return np.interp(t, nodes, prefix, left=0.0, right=prefix[-1])

    best = np.array(vals, dtype=float)   # r = h/2 recovers the cell value
    for r in radius_ladder(g)[1:]:
        avg = (mass(c + r) - mass(c - r)) / (2.0 * r)
        best = np.maximum(best, avg)
    return GriddedFunction(g.box, best)


def _clip_polygon_to_cell(poly, cx0, cx1, cy0, cy1):
    """Sutherland-Hodgman clip of a convex polygon against a cell rectangle."""
    def clip(pts, inside, intersect):
        out = []
        m = len(pts)
        for i in range(m):
            a, b = pts[i], pts[(i + 1) % m]
            ia, ib = inside(a), inside(b)
            if ia:
                out.append(a)
                if not ib:
                    out.append(intersect(a, b))
            elif ib:
                out.append(intersect(a, b))
        return out

    def x_cut(a, b, x):
        t = (x - a[0]) / (b[0] - a[0])
        return (x, a[1] + t * (b[1] - a[1]))

    def y_cut(a, b, y):
        t = (y - a[1]) / (b[1] - a[1])
        return (a[0] + t * (b[0] - a[0]), y)

    pts = list(poly)
    for inside, cut in (
        (lambda q: q[0] >= cx0, lambda a, b: x_cut(a, b, cx0)),
        (lambda q: q[0] <= cx1, lambda a, b: x_cut(a, b, cx1)),
        (lambda q: q[1] >= cy0, lambda a, b: y_cut(a, b, cy0)),
        (lambda q: q[1] <= cy1, lambda a, b: y_cut(a, b, cy1)),
    ):
        pts = clip(pts, inside, cut)
        if not pts:
            return 0.0
    area = 0.0
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        area += x0 * y1 - x1 * y0
    return 0.5 * abs(area)


@lru_cache(maxsize=512)
def _disk_kernel(ratio_key):
    """Cell-overlap areas of the 16-gon of radius rho (in cell units) with
    unit cells at integer offsets; cached by the rounded radius ratio."""
    rho = ratio_key / 1024.0
    ang = 2.0 * math.pi * np.arange(_DISK_SIDES) / _DISK_SIDES
    poly = [(rho * math.cos(a), rho * math.sin(a)) for a in ang]
    reach = int(math.ceil(rho)) + 1
    size = 2 * reach + 1
    k = np.zeros((size, size))
    for di in range(-reach, reach + 1):
        for dj in range(0, reach + 1):    # mirror the j < 0 half
            a = _clip_polygon_to_cell(poly, di - 0.5, di + 0.5, dj - 0.5, dj + 0.5)
            k[di + reach, reach + dj] = a
            k[di + reach, reach - dj] = a
    return k


def _maximal_2d(g: GriddedFunction):
    wx, wy = g.widths
    if abs(wx - wy) > 1e-12 * max(wx, wy):
        raise InvalidParameterError("2-D maximal function needs square cells")
    h = float(wx)
    vals = g.values
    best = np.array(vals, dtype=float)
    for r in radius_ladder(g)[1:]:
        k = _disk_kernel(int(round(1024.0 * r / h)))
        area = k.sum()
        if area <= 0:
            continue
        mass = fftconvolve(vals, k[::-1, ::-1], mode="same")
        best = np.maximum(best, np.maximum(mass, 0.0) / area)
    return GriddedFunction(g.box, best)


def hl_maximal(g: GriddedFunction):
    """Centered maximal function over the radius ladder; M g >= g cellwise."""
    if g.dim == 1:
        return _maximal_1d(g)
    return _maximal_2d(g)


def grid_rows(g: GriddedFunction):
    """CSV-friendly rows of cell centers and values."""
    if g.dim == 1:
        return [(float(x), float(v)) for x, v in zip(g.centers(0), g.values)]
    xs, ys = g.centers(0), g.centers(1)
    return [
        (float(xs[i]), float(ys[j]), float(g.values[i, j]))
        for i in range(g.values.shape[0])
        for j in range(g.values.shape[1])
    ]


def gridded_gradient_norm(field, cells):
    """|grad u| sampled at cell centers over the support box."""
    R = field.support_radius
    box = np.array([[-R, R]] * field.dim)
    if field.dim == 1:
        c = np.linspace(-R, R, cells + 1)
        mid = 0.5 * (c[:-1] + c[1:])
        vals = np.abs(field.gradient(mid[:, None])[:, 0])
        return GriddedFunction(box, vals)
    c = np.linspace(-R, R, cells + 1)
    mid = 0.5 * (c[:-1] + c[1:])
    XX, YY = np.meshgrid(mid, mid, indexing="ij")
    pts = np.stack([XX, YY], axis=-1)
    vals = np.sqrt(np.sum(field.gradient(pts) ** 2, axis=-1))
    return GriddedFunction(box, vals)


def _cell_center_points(g: GriddedFunction, idx):
    if g.dim == 1:
        return g.centers(0)[idx][:, None]
    m1 = g.values.shape[1]
    return np.stack([g.centers(0)[idx // m1], g.centers(1)[idx % m1]], axis=-1)


def lusin_lipschitz_check(field, samples, stream, cells=96, maximal=None):
    """Empirical constant in |u(x)-u(y)| <= C |x-y| (M|grad u|(x) + M|grad u|(y)).

    Pairs are sampled from cell centers where M is defined.  Zero-denominator
    pairs are excluded from the ratio but must satisfy u(x) = u(y); a failure
    there marks the record invalid.
    """
    if field.dim not in (1, 2):
        raise InvalidParameterError("check supports N in {1, 2}")
    if maximal is None:
        maximal = hl_maximal(gridded_gradient_norm(field, cells))
    mvals = maximal.values.ravel()
    total = mvals.size
    u = stream.uniform_matrix(0, samples, 2)
    ia = np.minimum((u[:, 0] * total).astype(int), total - 1)
    ib = np.minimum((u[:, 1] * total).astype(int), total - 1)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    xa = _cell_center_points(maximal, ia)
    xb = _cell_center_points(maximal, ib)
    du = np.abs(field.evaluate(xa) - field.evaluate(xb))
    dist = np.linalg.norm(xa - xb, axis=-1)
    denom = dist * (mvals[ia] + mvals[ib])
    pos = denom > 0
    ratios = du[pos] / denom[pos]
    zero_pairs = int(np.count_nonzero(~pos))
    zeros_consistent = bool(np.all(du[~pos] <= 1e-12 * max(field.sup_norm, 1e-300)))
    return {
        "samples": int(ia.size),
        "c_emp": float(np.max(ratios)) if ratios.size else 0.0,
        "zero_denominator_pairs": zero_pairs,
        "zeros_consistent": zeros_consistent,
        "cells": cells,
    }


def maximal_route_bound(field, p, lam_grid, cells=96, profile_budgets=None, stream=None):
    """Upper bound on lambda^p * mu(E_lambda) through the maximal function.

    The pointwise bound confines members to |x-y|^(N/p) <= 2 C / lambda *
    (M|grad u| at an endpoint), whose pair measure is 2 V_N (2C)^p *
    int (M|grad u|)^p, a threshold-independent constant that must dominate
    the direct estimates.  Refused at p = 1 where the maximal-function route
    has no strong bound.
    """
    if p <= 1:
        raise PreconditionError("the maximal route needs p > 1")
    from .levelset import distribution_profile

    n = field.dim
    maximal = hl_maximal(gridded_gradient_norm(field, cells))
    if stream is None:
        from .quadrature import RandomStream

        stream = RandomStream(20_170_401, 0)
    lusin = lusin_lipschitz_check(field, 20_000, stream, cells=cells, maximal=maximal)
    c_emp = lusin["c_emp"]
    m_int = maximal.integral(power=p)
    bound = 2.0 * unit_ball_volume(n) * (2.0 * c_emp) ** p * m_int
    prof = distribution_profile(field, p, n / p + 1.0, lam_grid, budgets=profile_budgets)
    direct = prof.lam_pow_p_mu
    dominated = bool(np.all(direct <= bound * (1.0 + 1e-9)))
    return {
        "p": p,
        "c_emp": c_emp,
        "maximal_lp": m_int,
        "bound": float(bound),
        "direct_max": float(np.max(direct)),
        "dominates": dominated,
        "profile": prof,
        "lusin": lusin,
    }
