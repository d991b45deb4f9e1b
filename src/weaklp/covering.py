"""Interval families with a mass condition, greedy Vitali selection, weighted
pair energies, and the rotation-based pair-measure bound.

Interval endpoints live on a uniform grid and all set operations are carried
out in integer grid indices, so admissibility, disjointness, and 5J coverage
are exact.  Smooth inputs are projected onto the grid first.  One scan,
`_member_scan`, finds the member node pairs (mass >= length^(gamma+1)) for the
interval family, the 5J check and the rotation bound; the weighted energy
reads them from the family.  The scan compares only the rows whose total
mass reaches the threshold and the node pairs that cover a cell at which the
prefix grows; the rotation Monte Carlo reads F only on the segments that
the field's `segments_meet_support` keeps.  Every pair either leaves out is
a non-member, so both are exact.
"""
from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .fields import _sum_squares, pair_members, pair_region
from .quadrature import (
    GriddedFunction,
    PairSampler,
    QuadratureResult,
    centered_box_grid,
    gauss_nodes_1d,
    monte_carlo,
    sphere_rule,
    surface_area,
)

__all__ = [
    "IntervalFamily",
    "VitaliCover",
    "admissible_intervals",
    "holder_containment_check",
    "pair_energy_bound_factor",
    "rotation_measure",
    "verify_5j_cover",
    "vitali_select",
    "weighted_energy",
]

@dataclass
class IntervalFamily:
    """Grid-aligned intervals satisfying mass(I) >= |I|^(gamma+1), sorted by
    length descending then left endpoint; every covering check reads f and
    gamma from here."""

    f: GriddedFunction
    gamma: float
    starts: np.ndarray       # integer node indices
    ends: np.ndarray

    def __post_init__(self):
        if self.f.dim != 1:
            raise InvalidParameterError("covering needs a 1-D grid function")
        if not self.gamma > 0:
            raise InvalidParameterError("gamma must be positive")

    def __len__(self):
        return self.starts.size


def _member_scan(prefix, h, gamma):
    """Yield (ell, rows, lo, member) for ell = 1, 2, ...: member[j, c] says
    whether the node pair (lo + c, lo + c + ell) of row rows[j] of the
    (rows, m+1) prefix array carries mass >= (ell h)^(gamma+1).  Every pair
    left out is a non-member.

    Rows: prefix sums of non-negative cells are monotone in floating point
    too, so no segment outweighs its row's total.  The rows are sorted by
    total once, descending; each length scans those whose total reaches the
    threshold, and the scan stops when none does.  Columns: P[i + ell] -
    P[i] is exactly 0 unless the pair covers a cell at which P grows, so
    each length scans the pairs that reach the span of such cells of some
    scanned row (all pairs if the threshold underflows to 0).
    """
    m = prefix.shape[-1] - 1
    order = np.argsort(-prefix[:, -1], kind="stable")
    P = prefix[order]
    neg_tops = (-P[:, -1]).tolist()        # ascending
    change = P[:, 1:] != P[:, :-1]         # cell c lies between nodes c and c + 1
    first = np.minimum.accumulate(np.argmax(change, axis=1)).tolist()
    last = np.maximum.accumulate(m - 1 - np.argmax(change[:, ::-1], axis=1)).tolist()
    k_rows = 0
    for ell in range(1, m + 1):
        thresh = (ell * h) ** (gamma + 1.0)
        k = bisect.bisect_right(neg_tops, -thresh)      # rows with total >= thresh
        if k == 0:
            return
        if k != k_rows:     # the span of growing cells, [c0, c1), of the k rows
            k_rows, rows, Pk, c0, c1 = k, order[:k], P[:k], first[k - 1], last[k - 1] + 1
        lo, hi = (max(c0 + 1 - ell, 0), min(c1, m + 1 - ell)) if thresh > 0.0 else (0, m + 1 - ell)
        yield ell, rows, lo, Pk[:, lo + ell : hi + ell] - Pk[:, lo:hi] >= thresh


def _line_energies(prefix, h, gamma):
    """Per row of a (rows, m+1) prefix array, `_block_kernel` summed over its
    member node pairs, one length at a time."""
    energy = np.zeros(prefix.shape[0])
    for ell, rows, _, member in _member_scan(prefix, h, gamma):
        energy[rows] += np.count_nonzero(member, axis=-1) * _block_kernel(ell, h, gamma)
    return energy


def admissible_intervals(f: GriddedFunction, gamma):
    """All grid-aligned intervals with int_I f >= |I|^(gamma+1)."""
    none = np.empty(0, dtype=np.int64)
    family = IntervalFamily(f, float(gamma), none, none)     # checks f and gamma first
    scan = _member_scan(f.prefix[None], f.h, family.gamma)
    hits = [(ell, lo + member[0].nonzero()[0]) for ell, _, lo, member in scan]
    hits.reverse()     # longest first, then leftmost
    family.starts = np.concatenate([none] + [hit for _, hit in hits]).astype(np.int64)
    family.ends = np.concatenate([none] + [hit + ell for ell, hit in hits]).astype(np.int64)
    return family


@dataclass
class VitaliCover:
    """Pairwise disjoint subfamily whose 5-dilates cover every family member."""

    family: IntervalFamily
    starts: np.ndarray
    ends: np.ndarray

    def __len__(self):
        return self.starts.size

    def dilated_index_bounds(self):
        """5J bounds in doubled integer node coordinates (exact arithmetic)."""
        a, b = self.starts, self.ends
        return (a + b) - 5 * (b - a), (a + b) + 5 * (b - a)


def vitali_select(family: IntervalFamily):
    """Greedy longest-first disjoint selection, ties broken leftmost.

    Every family member intersects a selected interval at least as long, so
    it is contained in that interval's 5-dilate.
    """
    starts, ends = family.starts, family.ends
    # closed intervals on integer nodes intersect exactly when they share a
    # node, so one occupancy bit per node (bit i of `taken` for node i)
    # decides disjointness
    taken = 0
    picked = []
    s, e = starts.tolist(), ends.tolist()
    for idx in np.lexsort((starts, -(ends - starts))).tolist():
        span = ((2 << (e[idx] - s[idx])) - 1) << s[idx]
        if not taken & span:
            taken |= span
            picked.append(idx)
    picked = np.array(picked, dtype=np.int64)
    return VitaliCover(family, starts[picked].astype(np.int64), ends[picked].astype(np.int64))


def verify_5j_cover(cover: VitaliCover):
    """Count member node pairs of the family's (f, gamma) not inside any
    selected 5J x 5J (target 0).

    The members are enumerated here, not read from the family's list, so
    the check does not rest on the selection's input.

    The pair (i, i + ell) lies in some selected 5J exactly when the largest
    doubled right bound among the 5J with doubled left bound <= 2i reaches
    2(i + ell); `reach[k]` is that largest bound over the k 5J with the
    least left bounds, and -1 (nothing covered) for k = 0."""
    lo2, hi2 = cover.dilated_index_bounds()
    order = np.argsort(lo2)
    lo2 = lo2[order]
    reach = np.concatenate([[-1], np.maximum.accumulate(hi2[order])])
    violations = 0
    pairs = 0
    f = cover.family.f
    for ell, _, lo, member in _member_scan(f.prefix[None], f.h, cover.family.gamma):
        hit = lo + member[0].nonzero()[0]
        pairs += hit.size
        covered = reach[np.searchsorted(lo2, 2 * hit, side="right")] >= 2 * (hit + ell)
        violations += int(np.count_nonzero(~covered))
    return {"pairs": pairs, "violations": violations}


def _block_kernel(ell, h, gamma):
    """Exact iint |x-y|^(gamma-1) over the cell block owned by a node pair at
    distance ell*h, counting both orderings.  A pair of adjacent nodes owns
    the diagonal cell square (already two-sided); longer pairs own an
    off-diagonal block plus its mirror.  Exact block integrals keep the
    energy chain an exact inequality at grid resolution."""
    g1 = gamma + 1.0
    d = ell * h
    if ell == 1:
        return 2.0 * h ** g1 / (gamma * g1)
    return 2.0 * (d ** g1 - 2.0 * (d - h) ** g1 + (d - 2.0 * h) ** g1) / (gamma * g1)


def pair_energy_bound_factor(gamma):
    """10 * 5^gamma / (gamma (gamma+1)), the 5J x 5J energy of one interval
    divided by |J|^(gamma+1)."""
    return 10.0 * 5.0 ** gamma / (gamma * (gamma + 1.0))


def weighted_energy(cover: VitaliCover):
    """Energy sum over the family's pairs (every member node pair of its
    (f, gamma)) of |x-y|^(gamma-1), and the two bounds of the chain
    energy <= factor * sum |J|^(gamma+1) <= factor * ||f||_1, which holds
    exactly at grid resolution."""
    fam = cover.family
    f, gamma = fam.f, fam.gamma
    energy = 0.0
    for ell, count in enumerate(np.bincount(fam.ends - fam.starts).tolist()):
        if count:
            energy += count * _block_kernel(ell, f.h, gamma)
    factor = pair_energy_bound_factor(gamma)
    mid = factor * float(np.sum(((cover.ends - cover.starts) * f.h) ** (gamma + 1.0)))
    return {"energy": energy, "bound_selected": mid, "bound_mass": factor * float(f.prefix[-1])}


# ---------------------------------------------------------------------------
# segment masses and the rotation bound
# ---------------------------------------------------------------------------

def _segment_masses(func, X, Y, nodes=48):
    """Line integrals int_0^{|Y-X|} func(X + t w) dt for row-paired endpoint
    arrays, by Gauss-Legendre with `nodes` points."""
    t, w = gauss_nodes_1d(nodes)
    mid = X[:, None, :] + (0.5 * (t[None, :, None] + 1.0)) * (Y - X)[:, None, :]
    vals = func(mid)
    dist = np.linalg.norm(Y - X, axis=1)
    return 0.5 * dist * (vals @ w)


def _perp_basis(w):
    """Orthonormal basis of the hyperplane orthogonal to the unit vector w."""
    n = w.shape[0]
    basis = []
    for e in np.eye(n):
        v = e - np.dot(e, w) * w
        for b in basis:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
        if len(basis) == n - 1:
            break
    return np.array(basis)


def _rotation_cap(F):
    """Longest member segment: members need r^(N+1) <= segment mass <= ||F||_inf * 2R."""
    return (max(F.sup_norm, 0.0) * 2.0 * F.support_radius) ** (1.0 / (F.dim + 1.0))


def rotation_measure(F, line_cells, offset_cells, sphere_order=24):
    """Pair measure of the segment-mass superlevel set by line foliation.

    For each direction the space splits into parallel lines; on every line
    the 1-D member-pair energy at gamma = N (halved to account for ordered
    pairs) integrates over the orthogonal offsets and the sphere.  The lines
    of -w are those of w traversed in reverse and the energy does not depend
    on the direction, so one direction of each antipodal pair
    (`SphereRule.half`) counts twice.  Node-pair blocks converge first order
    from below, so the value is one Richardson step across a 2x refinement
    of the line and offset grids.  Prop. 2.2 bounds the measure by
    `bound_factor` times `mass`, ||F||_1; `c_emp_drift` is the change of
    measure / mass across the refinement.  A pass that finds no member pair
    of a field with positive mass has lines too coarse to resolve one: the
    error and the drift are then inf.
    """
    n = F.dim
    if n > 3:
        raise InvalidParameterError("rotation measure supports N <= 3")
    for key, cells in (("line_cells", line_cells), ("offset_cells", offset_cells)):
        if isinstance(cells, bool) or not isinstance(cells, numbers.Integral) or cells < 1:
            raise InvalidParameterError(f"{key} must be an integer >= 1, got {cells!r}")
    R = F.support_radius
    half_t = R + _rotation_cap(F)

    def run(m_line, m_off, order):
        rule = sphere_rule(n, order).half()
        if n == 1:
            offsets, w_off = np.zeros((1, 1)), np.array([1.0])
        else:
            offsets, w_off = centered_box_grid(R, n - 1, m_off).points_weights()
        tgrid = np.linspace(-half_t, half_t, m_line + 1)
        tm = 0.5 * (tgrid[:-1] + tgrid[1:])
        ht = tgrid[1] - tgrid[0]
        total, mass_f, nodes = 0.0, 0.0, 0
        for wvec, wgt in zip(rule.nodes, rule.weights):
            base = (offsets @ _perp_basis(wvec) if n > 1 else offsets).T
            vals = np.maximum(F.along(base, np.broadcast_to(wvec[:, None], base.shape))(tm), 0.0)
            prefix = np.concatenate([np.zeros((offsets.shape[0], 1)), np.cumsum(vals, axis=1)], axis=1) * ht
            line_energy = _line_energies(prefix, ht, float(n))
            # the two-sided pair energy halves onto the one-sided radial integral
            total += 0.5 * wgt * float(np.sum(w_off * line_energy))
            mass_f += wgt * float(np.sum(w_off * prefix[:, -1]))
            nodes += vals.size
        return total, mass_f / surface_area(n), nodes

    v1, m1, n1 = run(line_cells, offset_cells, sphere_order)
    v2, mass, n2 = run(2 * line_cells, 2 * offset_cells, sphere_order)
    unresolved = v1 == 0.0 < m1 or v2 == 0.0 < mass
    err = math.inf if unresolved else abs(v2 - v1)
    value = 2.0 * v2 - v1
    c_coarse = v1 / m1 if m1 > 0 else 0.0
    c_fine = v2 / mass if mass > 0 else 0.0
    drift = math.inf if unresolved else abs(c_fine / c_coarse - 1.0) if c_coarse > 0 else 0.0
    return {
        "measure": QuadratureResult(value, err, n1 + n2, err <= 0.05 * max(value, 1e-300)),
        "mass": mass,
        "c_emp": value / mass if mass > 0 else 0.0,
        "c_emp_drift": drift,
        "bound_factor": 5.0 * 5.0 ** n * surface_area(n) / (n * (n + 1.0)),
    }


def rotation_measure_mc(F, n_samples, stream):
    """Direct pair Monte Carlo cross-check of `rotation_measure`.

    F is read only on the segments x + t w, 0 <= t <= r, that
    `F.segments_meet_support` keeps.  On every other segment F is exactly
    0.0, so its mass is 0.0 and the pair is a member exactly when r^(N+1)
    is 0.0 too.
    """
    n = F.dim
    R = F.support_radius
    r_cap = _rotation_cap(F)
    t, wt = gauss_nodes_1d(64)
    s = 0.5 * (t + 1.0)

    def member(x, w, r):
        thresh = r ** (n + 1.0)
        out = thresh <= 0.0
        live = np.flatnonzero(F.segments_meet_support(x, w, r))
        if live.size:
            xl, wl, rl = x[live], w[live], r[live]
            # int_0^r F(x + t w) dt = r int_0^1 F(x + s r w) ds, by Gauss on [0, 1]
            out[live] = 0.5 * rl * (F.along(xl.T, (rl[:, None] * wl).T)(s) @ wt) >= thresh[live]
        return out

    return monte_carlo(member, PairSampler(n, R + r_cap, r_cap), n_samples, stream)


def holder_containment_check(field, p, lam, samples, stream):
    """The segment condition int |grad u|^p / lam^p >= |x-y|^(N+1) on the
    sampled pairs of the superlevel set: `worst_margin` is the least ratio of
    the segment mass to |x-y|^(N+1) over the members (None without members),
    which the condition puts at 1 or above."""
    if lam <= 0:
        raise InvalidParameterError("lambda must be positive")
    n = field.dim
    alpha = n / p + 1.0
    x, w, r = PairSampler(n, *pair_region(field, lam, alpha)).draw(stream, 0, samples)
    idx = np.nonzero(pair_members(field, lam, alpha, x, w, r))[0]
    if idx.size == 0:
        return {"candidates": samples, "members": 0, "worst_margin": None}

    def grad_pow(ptsq):
        return _sum_squares(field.gradient(ptsq)) ** (p / 2.0) / lam ** p

    masses = _segment_masses(grad_pow, x[idx], x[idx] + r[idx, None] * w[idx], nodes=96)
    margins = masses / np.maximum(r[idx] ** (n + 1.0), 1e-300)
    return {"candidates": samples, "members": int(idx.size), "worst_margin": float(np.min(margins))}
