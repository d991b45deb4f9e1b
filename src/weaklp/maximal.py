"""Centered Hardy-Littlewood maximal function on grids and the pointwise
difference bound it yields.

The sup over radii is approximated by a geometric radius ladder (ratio
2^(1/4)) from half a cell width to the domain diameter.  Averages use exact
cell overlaps in 1-D and exact disk-cell overlap areas in closed form in
2-D, with the function extended by zero outside the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .levelset import distribution_profile
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
    out = [0.5 * float(np.min(g.widths))]
    top = g.diameter()
    while out[-1] < top:
        out.append(out[-1] * _LADDER_RATIO)
    return np.array(out)


def _maximal_1d(g: GriddedFunction):
    prefix = np.concatenate([[0.0], np.cumsum(g.values)]) * float(g.widths[0])
    nodes = np.linspace(*g.box[0], g.values.size + 1)
    c = g.centers(0)
    best = np.array(g.values, dtype=float)   # r = h/2 recovers the cell value
    for r in radius_ladder(g)[1:]:
        lo, hi = np.interp([c - r, c + r], nodes, prefix, left=0.0, right=prefix[-1])
        best = np.maximum(best, (hi - lo) / (2.0 * r))
    return GriddedFunction(g.box, best)


def _disk_kernel(rho):
    """Overlap areas of the disk of radius rho (in cell units) centred on a
    cell centre with the unit cells at integer offsets, in closed form.

    For x, y >= 0 the disk meets [0, x] x [0, y] in area
    F = y b + H(a) - H(b), a = min(x, rho), b = min(a, sqrt(rho^2 - y^2)^+),
    H(s) = (s sqrt(rho^2 - s^2) + rho^2 arcsin(s / rho)) / 2; F is odd in x
    and in y, and a cell's overlap is the second difference of F over its
    edges.
    """
    reach = int(math.ceil(rho))
    edges = np.arange(-reach - 0.5, reach + 1.0)
    t = np.abs(edges)
    a = np.minimum(t, rho)[:, None]
    b = np.minimum(a, np.sqrt(np.maximum(rho * rho - t * t, 0.0)))

    def h(s):
        return 0.5 * (s * np.sqrt(rho * rho - s * s) + rho * rho * np.arcsin(s / rho))

    area = np.outer(np.sign(edges), np.sign(edges)) * (t * b + h(a) - h(b))
    return np.diff(np.diff(area, axis=0), axis=1)


def _fast_len(n):
    """Least 5-smooth integer >= n, a length the real FFT is fast at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:     # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _disk_mass(vals, rho):
    """Mass of the unit-cell values `vals`, zero outside the grid, in the disk
    of radius rho about each cell centre: the "same" crop of the linear
    convolution with the point-symmetric `_disk_kernel`."""
    k = _disk_kernel(rho)
    reach = k.shape[0] // 2
    shape = [_fast_len(n + 2 * reach) for n in vals.shape]
    full = np.fft.irfft2(np.fft.rfft2(vals, shape) * np.fft.rfft2(k, shape), shape)
    return full[reach:reach + vals.shape[0], reach:reach + vals.shape[1]]


def _maximal_2d(g: GriddedFunction):
    wx, wy = g.widths
    if abs(wx - wy) > 1e-12 * max(wx, wy):
        raise InvalidParameterError("2-D maximal function needs square cells")
    h = float(wx)
    best = np.array(g.values, dtype=float)
    for r in radius_ladder(g)[1:]:
        rho = r / h
        mass = _disk_mass(g.values, rho)
        best = np.maximum(best, np.maximum(mass, 0.0) / (math.pi * rho * rho))
    return GriddedFunction(g.box, best)


def hl_maximal(g: GriddedFunction):
    """Centered maximal function over the radius ladder; M g >= g cellwise."""
    if g.dim == 1:
        return _maximal_1d(g)
    return _maximal_2d(g)


def grid_rows(g: GriddedFunction):
    """CSV-friendly rows of cell centers and values."""
    centers = np.meshgrid(*(g.centers(a) for a in range(g.dim)), indexing="ij")
    return [tuple(map(float, row)) for row in zip(*(c.ravel() for c in centers), g.values.ravel())]


def gridded_gradient_norm(field, cells):
    """|grad u| sampled at cell centers over the support box."""
    R = field.support_radius
    box = np.array([[-R, R]] * field.dim)
    c = np.linspace(-R, R, cells + 1)
    mid = 0.5 * (c[:-1] + c[1:])
    if field.dim == 1:
        return GriddedFunction(box, np.abs(field.gradient(mid[:, None])[:, 0]))
    pts = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1)
    return GriddedFunction(box, np.sqrt(np.sum(field.gradient(pts) ** 2, axis=-1)))


def _cell_center_points(g: GriddedFunction, idx):
    cells = np.unravel_index(idx, g.values.shape)
    return np.stack([g.centers(a)[i] for a, i in enumerate(cells)], axis=-1)


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


def maximal_route_bound(field, p, lam_grid, stream, cells=96, profile_budgets=None):
    """Upper bound on lambda^p * mu(E_lambda) through the maximal function.

    The pointwise bound confines members to |x-y|^(N/p) <= 2 C / lambda *
    (M|grad u| at an endpoint), whose pair measure is 2 V_N (2C)^p *
    int (M|grad u|)^p, a threshold-independent constant that must dominate
    the direct estimates.  C is the empirical Lusin-Lipschitz constant over
    pairs drawn from `stream`, on the grid of M|grad u| at `cells` cells per
    axis, which the record returns as "maximal".  Refused at p = 1 where the
    maximal-function route has no strong bound.
    """
    if p <= 1:
        raise PreconditionError("the maximal route needs p > 1")
    n = field.dim
    maximal = hl_maximal(gridded_gradient_norm(field, cells))
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
        "maximal": maximal,
    }
