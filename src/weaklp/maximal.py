"""Centered Hardy-Littlewood maximal function on grids and the pointwise
difference bound it yields.

The sup over radii is approximated by a geometric radius ladder (ratio
2^(1/4)) from half a cell width to the domain diameter.  At each radius the
ball masses are one `numpy.fft` convolution of the cell values, extended by
zero outside the grid, with the exact ball-cell overlaps in closed form:
clipped cell intervals in 1-D, disk-cell areas in 2-D.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .levelset import distribution_profile
from .quadrature import GriddedFunction, unit_ball_volume

__all__ = [
    "GriddedFunction",
    "gridded_gradient_norm",
    "hl_maximal",
    "lusin_lipschitz_check",
    "maximal_route_bound",
    "radius_ladder",
]

_LADDER_RATIO = 2.0 ** 0.25


def radius_ladder(g: GriddedFunction):
    """Geometric radii from half a cell width to the domain diameter."""
    out = [0.5 * float(np.min(g.widths))]
    top = g.diameter()
    while out[-1] < top:
        out.append(out[-1] * _LADDER_RATIO)
    return np.array(out)


def _ball_kernel(rho, dim):
    """Overlaps of the ball of radius rho (in cell units) centred on a cell
    centre with the unit cells at integer offsets, in closed form.

    In 1-D a cell's overlap is its edge interval clipped to [-rho, rho].  In
    2-D, for x, y >= 0 the disk meets [0, x] x [0, y] in area
    F = y b + H(a) - H(b), a = min(x, rho), b = min(a, sqrt(rho^2 - y^2)^+),
    H(s) = (s sqrt(rho^2 - s^2) + rho^2 arcsin(s / rho)) / 2; F is odd in x
    and in y, and a cell's overlap is the second difference of F over its
    edges.
    """
    reach = int(math.ceil(rho))
    edges = np.arange(-reach - 0.5, reach + 1.0)
    if dim == 1:
        return np.diff(np.clip(edges, -rho, rho))
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


def _ball_mass(vals, rho):
    """Mass of the unit-cell values `vals`, zero outside the grid, in the ball
    of radius rho about each cell centre: the "same" crop of the linear
    convolution with the point-symmetric `_ball_kernel`."""
    k = _ball_kernel(rho, vals.ndim)
    reach = k.shape[0] // 2
    axes = tuple(range(vals.ndim))
    shape = [_fast_len(n + 2 * reach) for n in vals.shape]
    full = np.fft.irfftn(np.fft.rfftn(vals, shape, axes) * np.fft.rfftn(k, shape, axes), shape, axes)
    return full[tuple(slice(reach, reach + n) for n in vals.shape)]


def hl_maximal(g: GriddedFunction):
    """Centered maximal function over the radius ladder; M g >= g cellwise."""
    h = g.h
    if np.ptp(g.widths) > 1e-12 * np.max(g.widths):
        raise InvalidParameterError("the maximal function needs square cells")
    best = np.array(g.values, dtype=float)   # r = h/2 recovers the cell value
    for r in radius_ladder(g)[1:]:
        rho = r / h
        volume = 2.0 * rho if g.dim == 1 else math.pi * rho * rho
        best = np.maximum(best, np.maximum(_ball_mass(g.values, rho), 0.0) / volume)
    return GriddedFunction(g.box, best)


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
