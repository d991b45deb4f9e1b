"""Deterministic quadrature rules, sphere constants, and reproducible Monte Carlo.

Everything here is immutable after construction and safe to share across
workers.  Monte Carlo sampling is counter-based: the value drawn for sample
index i depends only on (seed, stream_id, i), never on chunking or scheduling.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtri

from .errors import ConsistencyError, InvalidParameterError

__all__ = [
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

def gauss_nodes_1d(n):
    """Gauss-Legendre nodes and weights on [-1, 1]; exact for degree <= 2n-1."""
    if n < 1:
        raise InvalidParameterError("need at least one node")
    return np.polynomial.legendre.leggauss(int(n))


def composite_gauss(lo, hi, panels, order=8):
    """Composite Gauss-Legendre rule on [lo, hi] with `panels` equal panels."""
    if panels < 1 or order < 1:
        raise InvalidParameterError("panels and order must be >= 1")
    xg, wg = gauss_nodes_1d(order)
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
    order: int = 8

    @property
    def dim(self):
        return self.box.shape[0]

    def axes(self):
        return [composite_gauss(lo, hi, self.panels, self.order) for lo, hi in self.box]

    def points_weights(self):
        axes = self.axes()
        nodes = [a[0] for a in axes]
        weights = [a[1] for a in axes]
        mesh = np.meshgrid(*nodes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        w = weights[0]
        for wi in weights[1:]:
            w = np.multiply.outer(w, wi)
        return pts, w.ravel()

    def refined(self):
        return TensorGrid(self.box, self.panels * 2, self.order)


def centered_box_grid(half_width, dim, nodes_per_axis, order=8):
    """TensorGrid on [-half_width, half_width]^dim with roughly nodes_per_axis nodes."""
    panels = max(2, int(math.ceil(nodes_per_axis / order)))
    box = np.array([[-half_width, half_width]] * dim, dtype=float)
    return TensorGrid(box, panels, order)


# ---------------------------------------------------------------------------
# sphere rules and constants
# ---------------------------------------------------------------------------

def surface_area(n_dim):
    """Surface measure of the unit sphere in R^n (two points for n = 1)."""
    if n_dim < 1:
        raise InvalidParameterError("dimension must be >= 1")
    return 2.0 * math.pi ** (n_dim / 2.0) / math.exp(gammaln(n_dim / 2.0))


def unit_ball_volume(n_dim):
    return math.pi ** (n_dim / 2.0) / math.exp(gammaln(n_dim / 2.0 + 1.0))


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes (unit vectors) and positive weights on S^{N-1}."""

    dim: int
    nodes: np.ndarray     # (M, N)
    weights: np.ndarray   # (M,)

    def integrate(self, values):
        return float(np.sum(self.weights * values))


def _polar_half_nodes(order):
    # Gauss nodes for the polar cosine on [0, 1]; mirrored for [-1, 0].
    # Splitting at the equator keeps |e.w|^p spectrally accurate.
    n = max(2, order // 2)
    x, w = gauss_nodes_1d(n)
    c = 0.5 * (x + 1.0)
    wc = 0.5 * w
    return np.concatenate([-c[::-1], c]), np.concatenate([wc[::-1], wc])


@lru_cache(maxsize=64)
def sphere_rule(n_dim, order):
    """Quadrature rule on S^{N-1} for N in {1, 2, 3, 4}.

    N = 1 is the two-point set, N = 2 uses equispaced midpoint angles,
    N >= 3 products of Gauss nodes in the polar cosine with equispaced
    azimuths.  Rules are immutable and cached.
    """
    if order < 4:
        raise InvalidParameterError("order must be >= 4")
    if n_dim == 1:
        return SphereRule(1, np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if n_dim == 2:
        th = 2.0 * math.pi * (np.arange(order) + 0.5) / order
        nodes = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return SphereRule(2, nodes, np.full(order, 2.0 * math.pi / order))
    if n_dim == 3:
        c, wc = _polar_half_nodes(order)
        n_az = 2 * order
        th = 2.0 * math.pi * (np.arange(n_az) + 0.5) / n_az
        s = np.sqrt(np.clip(1.0 - c ** 2, 0.0, None))
        nodes = np.stack(
            [
                np.outer(s, np.cos(th)).ravel(),
                np.outer(s, np.sin(th)).ravel(),
                np.repeat(c, n_az),
            ],
            axis=-1,
        )
        w = np.outer(wc, np.full(n_az, 2.0 * math.pi / n_az)).ravel()
        return SphereRule(3, nodes, w)
    if n_dim == 4:
        # polar weight of S^3 is (1 - c^2)^(1/2); substituting c = sin(phi)
        # per half keeps |e.w|^p spectrally accurate despite the kink at 0
        n = max(2, order // 2)
        x, w = gauss_nodes_1d(n)
        phi = 0.25 * math.pi * (x + 1.0)
        ch = np.sin(phi)
        wch = 0.25 * math.pi * w * np.cos(phi) ** 2
        c = np.concatenate([-ch[::-1], ch])
        wc = np.concatenate([wch[::-1], wch])
        sub = sphere_rule(3, max(8, order // 4))
        s = np.sqrt(np.clip(1.0 - c ** 2, 0.0, None))
        nodes = np.concatenate(
            [
                (s[:, None, None] * sub.nodes[None, :, :]).reshape(-1, 3),
                np.repeat(c, sub.nodes.shape[0])[:, None],
            ],
            axis=-1,
        )
        w = np.outer(wc, sub.weights).ravel()
        return SphereRule(4, nodes, w)
    raise InvalidParameterError(f"unsupported sphere dimension N={n_dim}")


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
    return 2.0 * math.pi ** ((n_dim - 1) / 2.0) * math.exp(
        gammaln((p + 1.0) / 2.0) - gammaln((n_dim + p) / 2.0)
    )


def sphere_abs_moment(p, n_dim, order=None, rtol=1e-6):
    """int_{S^{N-1}} |e.w|^p dw, closed form validated against sphere quadrature.

    Raises ConsistencyError when the two routes disagree beyond `rtol`
    relative; callers treat that as an abort.
    """
    if p < 1 or n_dim < 1:
        raise InvalidParameterError("need p >= 1 and N >= 1")
    closed = _moment_closed_form(p, n_dim)
    if order is None:
        order = {1: 4, 2: 4096, 3: 192, 4: 192}.get(n_dim, 256)
    rule = sphere_rule(n_dim, order)
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
# counter-based random streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomStream:
    """Reproducible stream of uniforms keyed by (seed, stream_id).

    Sample index i owns a fixed block of uniform slots, so any partition of
    the index range across workers reproduces identical values.  Slots per
    sample are padded to a multiple of 4 because the underlying Philox
    counter advances in blocks of four 64-bit outputs.
    """

    seed: int
    stream_id: int = 0

    def _bit_generator(self, counter_offset):
        key = np.array([self.seed % 2 ** 64, self.stream_id % 2 ** 64], dtype=np.uint64)
        return np.random.Philox(key=key).advance(int(counter_offset))

    def uniform_matrix(self, start, count, k):
        """Uniforms for samples [start, start+count), k per sample; shape (count, k)."""
        if count < 0 or k < 1:
            raise InvalidParameterError("count must be >= 0 and k >= 1")
        k_pad = 4 * ((k + 3) // 4)
        if count == 0:
            return np.empty((0, k))
        gen = np.random.Generator(self._bit_generator(start * (k_pad // 4)))
        u = gen.random(count * k_pad).reshape(count, k_pad)
        return u[:, :k]

    def derived(self, tag):
        """An independent stream tied to this one, for sub-tasks."""
        return RandomStream(self.seed, (self.stream_id * 1_000_003 + 1 + tag) % 2 ** 64)


def _gaussians(u):
    # inverse-CDF transform: exactly one uniform per gaussian, which keeps
    # the per-sample slot count fixed (ziggurat would consume a variable
    # number of draws and break counter alignment)
    return ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))


def _unit_vectors(u, n_dim):
    if n_dim == 1:
        return np.where(u[:, 0] < 0.5, -1.0, 1.0)[:, None]
    g = _gaussians(u)
    norm = np.sqrt(np.sum(g ** 2, axis=1))
    norm = np.where(norm < 1e-300, 1.0, norm)
    return g / norm[:, None]


class PairSampler:
    """Uniform samples of pairs (x, x + r w): x uniform on the centered ball of
    radius `half`, w uniform on the sphere, r on (0, r_cap] with density
    proportional to r^{N-1}.  Points are rows (x, w, r); the weight is the
    pair-coordinate volume |B_half| * sigma_{N-1} * r_cap^N / N."""

    def __init__(self, dim, half, r_cap):
        self.dim = dim
        self.half = half
        self.r_cap = r_cap
        self.draws = 2 * dim + 2
        self.weight = unit_ball_volume(dim) * half ** dim * surface_area(dim) * r_cap ** dim / dim

    def map(self, u):
        n = self.dim
        xdir = _unit_vectors(u[:, :n], n)
        x = (self.half * u[:, n] ** (1.0 / n))[:, None] * xdir
        w = _unit_vectors(u[:, n + 1 : 2 * n + 1], n)
        r = self.r_cap * u[:, 2 * n + 1] ** (1.0 / n)
        pts = np.concatenate([x, w, r[:, None]], axis=1)
        return pts, np.full(pts.shape[0], self.weight)


# every estimator's budget keys and defaults; a pair is (N = 1, N >= 2)
BUDGETS = {
    "polar": {"x_nodes": (256, 48), "sphere_order": 16, "scan": (768, 224), "bisect_tol": 1e-10},
    "mc": {"mc_samples": 200_000},
    "gagliardo": {"x_nodes": (192, 40), "sphere_order": 16, "v_order": 8, "panels_per_decade": 3},
    "weak": {"lambda_points": 32, "lambda_lo": 0.1, "lambda_hi": 1e3, "refine": 8},
}


def split_budgets(dim, budgets, *estimators):
    """One dict per named `BUDGETS` entry: its defaults at dimension `dim`,
    overridden by the keys of `budgets` it is the first listed to take.  A
    key none takes is an error naming it.  Kept out of __all__, like
    `ordered_parallel_map`, so the perfbench tracer adds no span for it."""
    rest = dict(budgets or {})
    out = [{k: v[dim > 1] if isinstance(v, tuple) else v for k, v in BUDGETS[e].items()}
           | {k: rest.pop(k) for k in BUDGETS[e] if k in rest} for e in estimators]
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
    """Mean of integrand(points) * weight over `n` samples of `sampler`.

    Bit-identical for fixed (seed, stream_id, n) whatever `workers` is:
    chunks own contiguous index ranges and partial sums are reduced in
    chunk order.
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1 samples")

    def chunk_stats(lo, hi):
        u = stream.uniform_matrix(lo, hi - lo, sampler.draws)
        pts, w = sampler.map(u)
        fw = np.asarray(integrand(pts), dtype=float) * w
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
