"""Deterministic quadrature rules, grid functions, sphere constants, and
reproducible Monte Carlo.

Everything here is immutable after construction and safe to share across
workers.  Monte Carlo uniforms are addressed, not streamed: slot j of sample i
is output j * 2^64 + i of the PCG64DXSM sequence of (seed, stream_id), so what
sample i draws never depends on chunking or scheduling, and each slot's lane
comes out as one contiguous column.
"""
from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, InvalidParameterError

__all__ = [
    "GriddedFunction",
    "QuadratureResult",
    "RandomStream",
    "SphereConstants",
    "SphereRule",
    "TensorGrid",
    "PairSampler",
    "composite_gauss",
    "gauss_nodes_1d",
    "lower_bound_constant",
    "monte_carlo",
    "sphere_abs_moment",
    "sphere_rule",
    "surface_area",
    "unit_ball_volume",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral or measure estimate with an error estimate."""

    value: float
    error_estimate: float
    nodes_used: int
    converged: bool

    def __post_init__(self):
        if self.error_estimate < 0:
            raise InvalidParameterError("error_estimate must be >= 0")


# ---------------------------------------------------------------------------
# deterministic rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def gauss_nodes_1d(n):
    """Gauss-Legendre nodes and weights on [-1, 1], exact for degree <= 2n-1;
    cached per n, so the arrays are read-only."""
    if n < 1:
        raise InvalidParameterError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(int(n))
    x.flags.writeable = w.flags.writeable = False
    return x, w


_GAUSS_ORDER = 8    # nodes per panel of every composite Gauss rule


def composite_gauss(lo, hi, panels):
    """Composite Gauss-Legendre rule on [lo, hi] with `panels` equal panels."""
    if panels < 1:
        raise InvalidParameterError("panels must be >= 1")
    xg, wg = gauss_nodes_1d(_GAUSS_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class TensorGrid:
    """Tensor-product composite Gauss grid over an axis-aligned box."""

    box: np.ndarray          # (N, 2)
    panels: int

    @property
    def dim(self):
        return self.box.shape[0]

    def points_weights(self):
        nodes, weights = zip(*(composite_gauss(lo, hi, self.panels) for lo, hi in self.box))
        mesh = np.meshgrid(*nodes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        w = weights[0]
        for wi in weights[1:]:
            w = np.multiply.outer(w, wi)
        return pts, w.ravel()

    def refined(self):
        return TensorGrid(self.box, self.panels * 2)

    def coarsened(self):
        """Half the panels, at least 2 where that is still coarser, else 1."""
        return TensorGrid(self.box, max(2 if self.panels > 2 else 1, self.panels // 2))


@dataclass(frozen=True)
class GriddedFunction:
    """Non-negative cell values on a uniform grid over a bounded box.  A 1-D
    grid also carries the exact prefix masses at its m + 1 cell edges
    (`prefix`, None in 2-D)."""

    box: np.ndarray       # (N, 2)
    values: np.ndarray    # (m,) or (m1, m2)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        box = np.asarray(self.box, dtype=float).reshape(-1, 2)
        if v.ndim != box.shape[0] or v.ndim not in (1, 2) or v.size == 0:
            raise InvalidParameterError("values must be nonempty, 1-D or 2-D, matching the box")
        if not np.all(v >= 0):
            raise InvalidParameterError("cell values must be non-negative")
        if not np.all(np.isfinite(box)) or not np.all(box[:, 1] > box[:, 0]):
            raise InvalidParameterError("each box side must be finite with hi > lo")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "box", box)
        prefix = np.concatenate([[0.0], np.cumsum(v)]) * self.h if v.ndim == 1 else None
        object.__setattr__(self, "prefix", prefix)

    @property
    def dim(self):
        return self.values.ndim

    @property
    def widths(self):
        return (self.box[:, 1] - self.box[:, 0]) / np.array(self.values.shape)

    @property
    def h(self):
        """Cell width along the first axis."""
        return float(self.widths[0])

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


def centered_box_grid(half_width, dim, nodes_per_axis):
    """TensorGrid on [-half_width, half_width]^dim with roughly nodes_per_axis nodes."""
    panels = max(2, int(math.ceil(nodes_per_axis / _GAUSS_ORDER)))
    box = np.array([[-half_width, half_width]] * dim, dtype=float)
    return TensorGrid(box, panels)


# ---------------------------------------------------------------------------
# sphere rules and constants
# ---------------------------------------------------------------------------

def surface_area(n_dim):
    """Surface measure of the unit sphere in R^n (two points for n = 1)."""
    if n_dim < 1:
        raise InvalidParameterError("dimension must be >= 1")
    return 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)


def unit_ball_volume(n_dim):
    return surface_area(n_dim) / n_dim


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes (unit vectors) and positive weights on S^{N-1}."""

    dim: int
    nodes: np.ndarray     # (M, N)
    weights: np.ndarray   # (M,)

    def integrate(self, values):
        return float(np.sum(self.weights * values))

    def half(self):
        """The first M/2 nodes with doubled weights: one node of each
        antipodal pair, for integrands even under w -> -w.  `sphere_rule`
        lists the antipode of each first-half node in the second half, with
        equal weight; a rule of odd size (2-D, odd order) has no such pairs."""
        m = self.weights.shape[0]
        if m % 2:
            raise InvalidParameterError(
                f"sphere_order must be even to pair antipodal directions; this rule has {m} nodes"
            )
        return SphereRule(self.dim, self.nodes[: m // 2], 2.0 * self.weights[: m // 2])


def _lift(c, wc, sub):
    """Rule on S^N from polar cosines c in [0, 1] with weights wc, mirrored to
    [-1, 0] (c < 0 rows first), times the rule `sub` on S^{N-1} scaled by
    sqrt(1 - c^2)."""
    c = np.concatenate([-c[::-1], c])
    wc = np.concatenate([wc[::-1], wc])
    s = np.sqrt(np.clip(1.0 - c ** 2, 0.0, None))
    nodes = np.concatenate(
        [
            (s[:, None, None] * sub.nodes[None, :, :]).reshape(-1, sub.dim),
            np.repeat(c, sub.nodes.shape[0])[:, None],
        ],
        axis=-1,
    )
    return SphereRule(sub.dim + 1, nodes, np.outer(wc, sub.weights).ravel())


@lru_cache(maxsize=64)
def sphere_rule(n_dim, order):
    """Quadrature rule on S^{N-1} for N in {1, 2, 3, 4}.

    N = 1 is the two-point set, N = 2 uses equispaced midpoint angles, and
    N = 3, 4 lift the rule one dimension down over Gauss nodes in the polar
    cosine (`_lift`).  Rules are immutable and cached.  Every rule of even
    size M (all but the 2-D rules of odd order) lists one node of each antipodal
    pair among its first M/2 nodes and the other, with equal weight, among
    the last M/2: node i + M/2 in 2-D, the mirrored polar cosine (c < 0
    first) with an even azimuth count in 3-D and 4-D; `SphereRule.half`
    relies on this.
    """
    if order < 4:
        raise InvalidParameterError("order must be >= 4")
    if n_dim == 1:
        return SphereRule(1, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if n_dim == 2:
        th = 2.0 * math.pi * (np.arange(order) + 0.5) / order
        nodes = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return SphereRule(2, nodes, np.full(order, 2.0 * math.pi / order))
    if n_dim not in (3, 4):
        raise InvalidParameterError(f"unsupported sphere dimension N={n_dim}")
    # Gauss nodes in the polar cosine on [0, 1], mirrored by `_lift`: splitting
    # at the equator keeps |e.w|^p spectrally accurate
    x, w = gauss_nodes_1d(max(2, order // 2))
    if n_dim == 3:
        return _lift(0.5 * (x + 1.0), 0.5 * w, sphere_rule(2, 2 * order))
    # the polar weight of S^3 is (1 - c^2)^(1/2); substituting c = sin(phi)
    # keeps the rule spectrally accurate despite it
    phi = 0.25 * math.pi * (x + 1.0)
    wc = 0.25 * math.pi * w * np.cos(phi) ** 2
    return _lift(np.sin(phi), wc, sphere_rule(3, max(8, order // 4)))


@dataclass(frozen=True)
class SphereConstants:
    """Directional p-th absolute moment of the sphere and its surface area."""

    p: float
    dim: int
    moment: float          # closed form
    moment_quad: float     # independent quadrature value
    sigma: float


def _moment_closed_form(p, n_dim):
    if n_dim == 1:
        return 2.0
    # the Gamma ratio as a difference of lgamma values, so a large p cannot overflow
    return 2.0 * math.pi ** ((n_dim - 1) / 2.0) * math.exp(
        math.lgamma((p + 1.0) / 2.0) - math.lgamma((n_dim + p) / 2.0)
    )


def sphere_abs_moment(p, n_dim, rtol=1e-6):
    """int_{S^{N-1}} |e.w|^p dw, closed form validated against sphere quadrature
    at one rule order per dimension.

    Raises ConsistencyError when the two routes disagree beyond `rtol`
    relative; callers treat that as an abort.
    """
    if p < 1 or n_dim < 1:
        raise InvalidParameterError("need p >= 1 and N >= 1")
    closed = _moment_closed_form(p, n_dim)
    rule = sphere_rule(n_dim, {1: 4, 2: 4096, 3: 192, 4: 192}.get(n_dim, 256))
    e = np.zeros(n_dim)
    e[-1] = 1.0
    quad = rule.integrate(np.abs(rule.nodes @ e) ** p)
    if abs(quad - closed) > rtol * abs(closed):
        raise ConsistencyError(
            f"sphere moment mismatch p={p} N={n_dim}: closed {closed!r} vs quadrature {quad!r}"
        )
    return SphereConstants(p, n_dim, closed, quad, surface_area(n_dim))


def lower_bound_constant(n_dim):
    """moment(1, N) * min(1/N, 1/sigma_{N-1}); equals 1, 2/pi, 1/2 for N = 1, 2, 3."""
    k1 = _moment_closed_form(1.0, n_dim)
    return k1 * min(1.0 / n_dim, 1.0 / surface_area(n_dim))


# ---------------------------------------------------------------------------
# random streams: one PCG64DXSM lane per uniform slot
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomStream:
    """Reproducible stream of uniforms keyed by (seed, stream_id): slot j of
    sample i is output j * 2^64 + i of the PCG64DXSM sequence seeded by both.
    Each slot's lane is 2^64 outputs long, so lanes never overlap, every output
    generated is used, and any partition of the index range across workers
    reproduces identical values."""

    seed: int
    stream_id: int = 0

    def uniform_matrix(self, start, count, k):
        """Uniforms for samples [start, start+count), k per sample: the (count, k)
        transpose of the k lanes' runs, so each column is contiguous."""
        if count < 0 or k < 1:
            raise InvalidParameterError("count must be >= 0 and k >= 1")
        bits = np.random.PCG64DXSM(np.random.SeedSequence([self.seed, self.stream_id]))
        lanes = np.empty((k, count))
        bits.advance(start)
        for lane in lanes:      # lane j starts at output j * 2^64 + start
            np.random.Generator(bits).random(out=lane)
            bits.advance(2 ** 64 - count)
        return lanes.T

    def derived(self, tag):
        """An independent stream tied to this one, for sub-tasks."""
        return RandomStream(self.seed, (self.stream_id * 1_000_003 + 1 + tag) % 2 ** 64)


def _unit_vectors(u, n_dim):
    # uniform on S^{N-1} from N - 1 uniforms a row (1-D: a sign); t = tan(pi (u - 1/2))
    # gives (cos, sin)(2 pi u) = (t^2 - 1, -2t) / (1 + t^2), no cos or sin call; 3-D
    # (Archimedes): z = 2 u - 1 is uniform, times sqrt((1 - z)(1 + z)) (0 at u = 0);
    # rows of an (N, count) array, returned as its (count, N) view
    if n_dim == 1:
        return np.where(u[:, 0] < 0.5, -1.0, 1.0)[:, None]
    out = np.empty((n_dim, u.shape[0]))
    t = np.tan(np.pi * (u[:, 0] - 0.5))
    t2 = t * t
    scale = 1.0 / (1.0 + t2)
    if n_dim == 3:
        out[2] = z = 2.0 * u[:, 1] - 1.0
        scale *= np.sqrt((1.0 - z) * (1.0 + z))
    np.multiply(t2 - 1.0, scale, out=out[0])
    np.multiply(t, -2.0 * scale, out=out[1])
    return out.T


class PairSampler:
    """Uniform samples of pairs (x, x + r w), N <= 3: x uniform on the centered
    ball of radius `half`, w uniform on the sphere, r on (0, r_cap] with density
    proportional to r^{N-1}, all made by `draw`.  Every pair has the scalar
    weight |B_half| * sigma_{N-1} * r_cap^N / N, the pair-coordinate volume."""

    def __init__(self, dim, half, r_cap):
        if dim not in (1, 2, 3):
            raise InvalidParameterError("pair sampling supports N <= 3")
        self.dim = dim
        self.half = half
        self.r_cap = r_cap
        self.weight = unit_ball_volume(dim) * half ** dim * surface_area(dim) * r_cap ** dim / dim

    def draw(self, stream, start, count):
        """(x, w, r), shaped (count, N), (count, N), (count,), of samples [start,
        start + count); each reads only its own 2(N - 1) + 2 uniforms of `stream`
        (4 in 1-D): x's direction and radius, w's direction, r; radii by sqrt, cbrt."""
        n = self.dim
        m = max(n - 1, 1)
        u = stream.uniform_matrix(start, count, 2 * m + 2)
        root = (np.positive, np.sqrt, np.cbrt)[n - 1]
        x = _unit_vectors(u[:, :m], n)
        x *= (self.half * root(u[:, m]))[:, None]
        w = _unit_vectors(u[:, m + 1 : 2 * m + 1], n)
        r = self.r_cap * root(u[:, 2 * m + 1])
        return x, w, r


# every estimator's budget keys and defaults, all counts; a pair is (N = 1, N >= 2)
BUDGETS = {
    "polar": {"x_nodes": (256, 48), "sphere_order": 16, "scan": (768, 224)},
    "mc": {"mc_samples": 200_000},
    "gagliardo": {"x_nodes": (192, 40), "sphere_order": 16},
    "weak": {"lambda_points": 32, "refine": 8},
}


def _budget_value(key, value, even=False):
    """`value` as an int: every budget is a count of at least 1, except
    `refine`, where 0 skips the refinement, and `sphere_order`, at least 4
    (`sphere_rule`'s least order) and even where `even` says so."""
    least = {"refine": 0, "sphere_order": 4}.get(key, 1)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0 \
            or value < least or (even and value % 2):
        raise InvalidParameterError(
            f"budgets.{key} must be an {'even ' if even else ''}integer >= {least}, got {value!r}")
    return int(value)


def split_budgets(dim, budgets, *estimators):
    """One dict per named `BUDGETS` entry: its defaults at dimension `dim`,
    overridden by the keys of `budgets` it is the first listed to take.  A
    key none takes, or a value that is not a whole number of at least 1 (0
    for `refine`, 4 for `sphere_order`), is an error naming it; so is an odd
    2-D polar or gagliardo `sphere_order`, whose rule has no antipodal pairs
    to fold.
    Kept out of __all__, like `ordered_parallel_map`, so the perfbench
    tracer adds no span for it."""
    rest = dict(budgets or {})
    out = [{k: v[dim > 1] if isinstance(v, tuple) else v for k, v in BUDGETS[e].items()}
           for e in estimators]
    for e, b in zip(estimators, out):
        even = e in ("polar", "gagliardo") and dim == 2     # only a 2-D rule can be odd-sized
        b |= {k: _budget_value(k, rest.pop(k), even and k == "sphere_order")
              for k in b if k in rest}
    if rest:
        takes = "; ".join(f"{e} takes {', '.join(BUDGETS[e])}" for e in estimators)
        raise InvalidParameterError(
            f"unknown budget {', '.join(map(repr, rest))}; {takes or 'none are taken here'}"
        )
    return out


def ordered_parallel_map(func, items, workers):
    """[func(item) for item in items] on up to `workers` threads, results in
    item order.  Kept out of __all__, whose functions the perfbench tracer
    wraps: a traced map would hide `monte_carlo`'s own time behind a child span."""
    if workers <= 1 or len(items) <= 1:
        return [func(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))


_MC_CHUNK = 1 << 15


def monte_carlo(integrand, sampler, n, stream, workers=1):
    """Mean of integrand(x, w, r) * sampler.weight over `n` pairs that
    `sampler.draw` takes from `stream`.

    Bit-identical for fixed (seed, stream_id, n) whatever `workers` is:
    chunks own contiguous index ranges, a chunk's pairs do not depend on
    where it starts, and partial sums are reduced in chunk order.
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1 samples")

    def chunk_stats(lo, hi):
        x, w, r = sampler.draw(stream, lo, hi - lo)
        fw = np.asarray(integrand(x, w, r), dtype=float) * sampler.weight
        return float(np.sum(fw)), float(np.sum(fw * fw))

    bounds = [(lo, min(lo + _MC_CHUNK, n)) for lo in range(0, n, _MC_CHUNK)]
    parts = ordered_parallel_map(lambda b: chunk_stats(*b), bounds, workers)

    s1 = 0.0
    s2 = 0.0
    for a, b in parts:   # fixed reduction order
        s1 += a
        s2 += b
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    stderr = math.sqrt(var / max(n - 1, 1))
    return QuadratureResult(mean, stderr, n, True)
