import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft, integrate

import weaklp
from weaklp import fields as F
from weaklp import maximal as M
from weaklp import quadrature as Q
from weaklp.errors import InvalidParameterError, PreconditionError


def _scipy_modules_after(code):
    # the scipy modules a fresh interpreter holds after running code
    src = str(Path(weaklp.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def test_importing_the_package_leaves_scipy_signal_unloaded():
    # the package needs numpy only, so no scipy module (scipy.signal
    # included) is loaded by importing it
    assert _scipy_modules_after("import sys, weaklp, weaklp.cli, weaklp.experiments") == "[]"


def test_2d_maximal_leaves_scipy_signal_unloaded():
    # the 2-D maximal function convolves through numpy.fft, so running it
    # loads neither scipy.fft nor scipy.signal
    code = ("import sys, numpy as np, weaklp, weaklp.cli, weaklp.experiments; "
            "from weaklp import maximal as M; "
            "M.hl_maximal(M.GriddedFunction(np.array([[0.0, 1.0], [0.0, 1.0]]), np.ones((8, 8))))")
    assert _scipy_modules_after(code) == "[]"


def test_fast_len_matches_scipy():
    n = range(1, 5001)
    assert [M._fast_len(k) for k in n] == [fft.next_fast_len(k, real=True) for k in n]


@pytest.mark.parametrize("rho", [0.3, 0.7, 1.3, 5.0, 40.2])
def test_disk_kernel_sums_to_the_disk_area(rho):
    assert M._ball_kernel(rho, 2).sum() == pytest.approx(np.pi * rho ** 2, rel=1e-12, abs=0)


def _chord_overlap(rho, i, j):
    """Area of the disk of radius rho at 0 inside the unit cell at offset (i, j):
    the integral over the cell's x-range of its y-range met with the chord."""
    y0, y1 = j - 0.5, j + 0.5

    def chord(x):
        c = np.sqrt(max(rho * rho - x * x, 0.0))
        return max(min(y1, c) - max(y0, -c), 0.0)

    kinks = [s * np.sqrt(rho * rho - y * y) for y in (y0, y1) if abs(y) < rho for s in (-1, 1)]
    return integrate.quad(chord, i - 0.5, i + 0.5, points=[x for x in kinks + [-rho, rho]
                                                        if i - 0.5 < x < i + 0.5] or None,
                          epsabs=1e-14, epsrel=1e-13)[0]


@pytest.mark.parametrize("rho, i, j", [
    (5.0, 1, 2),       # inside the disk
    (5.0, 4, 2),       # cut by the circle
    (5.3, 0, -5),      # cut, across the axis
    (0.7, 0, 0),       # the centre cell, cut on all four sides
    (0.3, 0, 0),       # the whole disk
])
def test_disk_kernel_cells_match_chord_quadrature(rho, i, j):
    k = M._ball_kernel(rho, 2)
    reach = k.shape[0] // 2
    assert k[reach + i, reach + j] == pytest.approx(_chord_overlap(rho, i, j), abs=1e-12)


# Rounding bound of |_ball_mass - direct| on a 2-D grid of at most 63 cells:
# C_MASS eps S L V, S = sum |v|, L = log2 of the FFT length n1 n2 and V = pi
# rho^2 >= 16.6 (rho >= 2.3).  The argument of C_FFT below: the 2-D
# transform is row FFTs then column FFTs, so it errs by at most (log2 n1 +
# log2 n2) eta = L eta of its 2-norm, eta <= 7 eps; the kernel has ||k||_1 =
# V and ||k||_inf <= 1 (a cell's overlap), so ||k||_2 <= sqrt V.  The
# forward transforms of v and k, the complex product (sqrt 2 gamma_2), the
# inverse and its 1/n scaling move the masses by at most
# L eta (2 V + sqrt V) S + 4 eps V S.  The direct sum of at most 63
# products with the same kernel array errs by at most gamma_64 S ||k||_inf
# <= 64 eps S.  With V >= 16.6 and L >= log2 225 the sum is below 16.7 eps S
# L V; C_MASS = 20 covers the second-order terms.
C_MASS = 20.0


def _disk_mass_deviation(vals, rho, k):
    """(max |_ball_mass - direct double sum over the kernel k|, C_MASS bound)."""
    reach = k.shape[0] // 2
    direct = np.zeros_like(vals)
    for i, j in np.ndindex(vals.shape):
        for l, m in np.ndindex(vals.shape):
            if abs(l - i) <= reach and abs(m - j) <= reach:
                direct[i, j] += vals[l, m] * k[reach + l - i, reach + m - j]
    log2_n = math.log2(math.prod(M._fast_len(n + 2 * reach) for n in vals.shape))
    bound = C_MASS * np.finfo(float).eps * np.sum(np.abs(vals)) * log2_n * math.pi * rho * rho
    return np.abs(M._ball_mass(vals, rho) - direct).max(), bound


@pytest.mark.parametrize("rho", [2.3, 8.2])
def test_disk_mass_matches_a_direct_double_sum(rng, rho):
    # the second kernel reaches past the grid on every side and still cuts
    # cells inside it
    dev, bound = _disk_mass_deviation(rng.uniform(0, 1, (7, 9)), rho, M._ball_kernel(rho, 2))
    assert dev <= bound


@pytest.mark.parametrize("rho", [2.3, 8.2])
def test_the_disk_mass_bound_catches_a_kernel_shifted_by_one_cell(rng, monkeypatch, rho):
    k = M._ball_kernel(rho, 2)
    monkeypatch.setattr(M, "_ball_kernel", lambda rho, dim: np.roll(k, 1))
    dev, bound = _disk_mass_deviation(rng.uniform(0, 1, (7, 9)), rho, k)
    assert dev > bound


def box1(lo, hi):
    return np.array([[lo, hi]], dtype=float)


def test_gridded_function_rejects_negative():
    with pytest.raises(InvalidParameterError):
        M.GriddedFunction(box1(0, 1), np.array([1.0, -0.1]))


@pytest.mark.parametrize("box, values", [
    ([[1.0, 0.0]], np.ones(4)),                   # gave a negative first radius
    ([[0.5, 0.5]], np.ones(4)),
    ([[0.0, 1.0], [1.0, 1.0]], np.ones((3, 3))),  # one side of zero length
    (box1(0, 1), np.ones(0)),
    ([[0.0, 1.0], [0.0, 1.0]], np.ones((0, 3))),
])
def test_maximal_rejects_empty_grids_and_inverted_boxes(box, values):
    # an inverted box used to start the radius ladder below zero, and the
    # ladder then never reached the diameter
    with pytest.raises(InvalidParameterError):
        M.hl_maximal(M.GriddedFunction(box, values))


def _maximal_1d_reference(g):
    """The 1-D maximal function by interpolating the exact prefix masses at
    c - r and c + r: the path the FFT convolution replaced.  It works in cell
    units, centre i + 1/2 and radius rho = r / h as `hl_maximal` takes them,
    on correctly rounded prefix sums, so its rounding grows neither with the
    cell count nor with the box's distance from 0."""
    v = np.asarray(g.values, dtype=float)
    m = v.size
    prefix = np.array([math.fsum(v[:j]) for j in range(m + 1)])
    cells = np.arange(m)
    best = v.copy()
    for r in M.radius_ladder(g)[1:]:
        rho = r / g.h
        ends = []
        for off in (0.5 - rho, 0.5 + rho):
            whole = math.floor(off)
            j = cells + whole          # the cell holding the end, off - whole into it (exact)
            inner = prefix[np.clip(j, 0, m)] + (off - whole) * v[np.clip(j, 0, m - 1)]
            ends.append(np.where(j < 0, 0.0, np.where(j >= m, prefix[m], inner)))
        best = np.maximum(best, (ends[1] - ends[0]) / (2.0 * rho))
    return best


# Rounding bound of |hl_maximal - reference| on a 1-D grid: C_FFT eps S L,
# S = sum |v| over the cells and L = log2 of the ladder's longest FFT.  Per
# rung the ball has volume V = 2 rho >= 2^(1/4) (cell units) and the kernel
# k has ||k||_1 = V, ||k||_inf <= 1.  A length-n FFT errs by at most L eta
# of its 2-norm, eta = mu + gamma_4 (sqrt 2 + mu) <= 7 eps (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed., Thm 24.2, taken for numpy's
# mixed-radix FFT with twiddles accurate to mu <= eps).  Through Parseval and
# Young, the forward transforms of v and k, the product and the inverse move
# the masses by at most L eta (2 V + sqrt V) S + 2.3 eps V S in the 2-norm,
# and so in the max norm; the ball means, after the division by V, by at
# most (2.92 L eta + 2.8 eps) S.  The reference reads correctly rounded
# prefixes at exactly split offsets and errs by at most 5 eps S.  With
# L >= log2 3 the sum is below 25.3 eps S L; C_FFT = 32 covers the
# second-order terms.
C_FFT = 32.0


def _ladder_log2_fft(g):
    """log2 of the length of the ladder's longest FFT, over all axes."""
    reach = math.ceil(M.radius_ladder(g)[-1] / g.h)
    return math.log2(math.prod(M._fast_len(n + 2 * reach) for n in g.values.shape))


def _fft_rounding_bound(g):
    return C_FFT * np.finfo(float).eps * np.sum(np.abs(g.values)) * _ladder_log2_fft(g)


def _random_grid_deviations(rng):
    """(max |hl_maximal - reference|, `_fft_rounding_bound`, nonzero cells) on
    20 random 1-D grids."""
    out = []
    for _ in range(20):
        m = int(rng.integers(1, 300))
        lo = rng.uniform(-3, 1)
        g = M.GriddedFunction(box1(lo, lo + rng.uniform(0.1, 5)),
                              rng.uniform(0, 4, m) * (rng.random(m) < 0.6))
        dev = np.abs(M.hl_maximal(g).values - _maximal_1d_reference(g)).max()
        out.append((dev, _fft_rounding_bound(g), np.count_nonzero(g.values)))
    return out


@pytest.mark.parametrize("cells", [96, 192])
@pytest.mark.parametrize("name", ["bump1", "bump1_wide", "bumps1_pair", "plateau1"])
def test_maximal_1d_matches_prefix_interpolation_on_the_catalogue(cat, name, cells):
    g = M.gridded_gradient_norm(cat[name], cells)
    ref = _maximal_1d_reference(g)
    assert np.abs(M.hl_maximal(g).values - ref).max() <= 1e-13 * ref.max()


def test_maximal_1d_matches_prefix_interpolation_on_random_grids(rng):
    for dev, bound, _ in _random_grid_deviations(rng):
        assert dev <= bound


def test_the_random_grid_bound_catches_a_kernel_shifted_by_one_cell(rng, monkeypatch):
    # a kernel one cell off centre moves every grid with four nonzero cells
    # past the bound (on two or three cells each value can still be its own
    # maximum, and the shift then moves nothing)
    kernel = M._ball_kernel
    monkeypatch.setattr(M, "_ball_kernel", lambda rho, dim: np.roll(kernel(rho, dim), 1))
    devs = _random_grid_deviations(rng)
    assert sum(nonzero >= 4 for *_, nonzero in devs) >= 10
    assert all(dev > bound for dev, bound, nonzero in devs if nonzero >= 4)


def test_maximal_constant_1d():
    g = M.GriddedFunction(box1(0, 1), np.full(64, 3.0))
    assert np.abs(M.hl_maximal(g).values - 3.0).max() < 1e-12


def test_maximal_constant_2d():
    g = M.GriddedFunction(np.array([[0.0, 1.0], [0.0, 1.0]]), np.full((24, 24), 2.0))
    mg = M.hl_maximal(g).values
    assert mg.max() == pytest.approx(2.0, rel=1e-12)
    assert mg.min() == pytest.approx(2.0, rel=1e-12)


def test_maximal_indicator_point_value():
    # M(1_[0,1])(2) = 1/4, attained at radius 2; the geometric radius ladder
    # approximates the sup from below within its rung spacing
    m = 500
    c = np.linspace(-1, 4, m, endpoint=False) + 2.5 / m
    g = M.GriddedFunction(box1(-1, 4), ((c >= 0) & (c <= 1)).astype(float))
    mg = M.hl_maximal(g)
    i2 = int(np.argmin(np.abs(g.centers(0) - 2.0)))
    assert mg.values[i2] == pytest.approx(0.25, rel=0.08)
    assert mg.values[i2] <= 0.25 + 1e-12


def test_maximal_dominates_function(rng):
    g = M.GriddedFunction(box1(0, 2), rng.uniform(0, 5, 128))
    assert np.all(M.hl_maximal(g).values >= g.values - 1e-15)


# Rounding bound of M(a + b) - (M a + M b) on a 2-D grid: C_SUBLINEAR eps
# (S_a + S_b) L, S = sum |v| and L = log2 of the ladder's longest FFT.  By
# the argument of C_MASS each computed ball mean errs by at most
# eps S (7 L (2 + V^-1/2) + 4) plus eps of itself for the division by V;
# every rung past the cell value has V >= pi (2^(1/4) / 2)^2 = 1.11, so the
# error is below C_MEAN eps S L with C_MEAN = 22 (L >= 5).  In exact
# arithmetic M(a + b) <= M a + M b on the same ladder; rounding a + b moves
# a ball mean by at most eps max(a + b), and the sum M a + M b rounds by eps
# of itself, so lhs - rhs <= C_MEAN eps L (S_s + S_a + S_b) + 2 eps (S_a +
# S_b) <= (2 C_MEAN + 1) eps (S_a + S_b) L.
C_SUBLINEAR = 45.0


def test_maximal_sublinear(rng):
    box = np.array([[0.0, 1.0], [0.0, 1.0]])
    a = M.GriddedFunction(box, rng.uniform(0, 1, (24, 24)))
    b = M.GriddedFunction(box, rng.uniform(0, 1, (24, 24)))
    s = M.GriddedFunction(box, a.values + b.values)
    lhs = M.hl_maximal(s).values
    rhs = M.hl_maximal(a).values + M.hl_maximal(b).values
    mass = np.sum(np.abs(a.values)) + np.sum(np.abs(b.values))
    assert np.all(lhs <= rhs + C_SUBLINEAR * np.finfo(float).eps * mass * _ladder_log2_fft(s))


def test_maximal_commutes_with_dilation(rng):
    vals = rng.uniform(0, 2, 96)
    g1 = M.GriddedFunction(box1(0, 1), vals)
    g2 = M.GriddedFunction(box1(0, 3), vals)      # same data on a 3x dilated grid
    m1 = M.hl_maximal(g1).values
    m2 = M.hl_maximal(g2).values
    assert np.abs(m1 - m2).max() <= 0.02 * max(m1.max(), 1e-300)


def test_lusin_linear_ramp_ratio_half():
    class Ramp:
        dim = 1
        support_radius = 1.0
        sup_norm = 1.0

        def evaluate(self, pts):
            return 0.7 * np.asarray(pts)[..., 0]

        def gradient(self, pts):
            return np.full_like(np.asarray(pts), 0.7)

    rec = M.lusin_lipschitz_check(Ramp(), 4000, Q.RandomStream(3, 1), cells=128)
    assert rec["c_emp"] == pytest.approx(0.5, rel=1e-6)


def test_lusin_constant_field_all_zero_denominator():
    z = F.make_bump([0.0], 1.0, 0.0)
    rec = M.lusin_lipschitz_check(z, 2000, Q.RandomStream(4, 1), cells=64)
    assert rec["c_emp"] == 0.0
    assert rec["zero_denominator_pairs"] == rec["samples"]
    assert rec["zeros_consistent"]


@pytest.mark.parametrize("name", ["bump1", "bump2"])
def test_lusin_stable_under_refinement(cat, name):
    f = cat[name]
    cells = 96 if f.dim == 1 else 48
    a = M.lusin_lipschitz_check(f, 10_000, Q.RandomStream(5, 0), cells=cells)
    b = M.lusin_lipschitz_check(f, 10_000, Q.RandomStream(5, 0), cells=2 * cells)
    assert 0.5 <= b["c_emp"] / a["c_emp"] <= 2.0


def test_lusin_amplitude_invariance(bump2):
    a = M.lusin_lipschitz_check(bump2, 5000, Q.RandomStream(9, 0), cells=48)
    b = M.lusin_lipschitz_check(F.scale_field(bump2, 3.0), 5000, Q.RandomStream(9, 0), cells=48)
    assert abs(b["c_emp"] / a["c_emp"] - 1.0) <= 1e-2


# a fixed stream for the Lusin-Lipschitz pairs of maximal_route_bound
ROUTE_STREAM = Q.RandomStream(20_170_401, 0)


def test_route_bound_refuses_p_one(bump1):
    with pytest.raises(PreconditionError):
        M.maximal_route_bound(bump1, 1.0, np.array([1.0, 2.0]), ROUTE_STREAM)


def test_route_bound_zero_field_trivial():
    z = F.make_bump([0.0], 1.0, 0.0)
    grid = np.array([0.5, 1.0, 2.0])
    rec = M.maximal_route_bound(z, 2.0, grid, ROUTE_STREAM, cells=64)
    assert rec["bound"] == 0.0 and rec["direct_max"] == 0.0


def test_route_bound_dominates_direct_1d(bump1):
    grid = np.geomspace(0.5 * bump1.lip_bound, 100 * bump1.lip_bound, 10)
    rec = M.maximal_route_bound(bump1, 2.0, grid, ROUTE_STREAM, cells=192)
    # rmk2.3:domination's relative slack of 1e-9
    assert np.all(rec["profile"].lam_pow_p_mu <= rec["bound"] * (1.0 + 1e-9))
    assert rec["direct_max"] == np.max(rec["profile"].lam_pow_p_mu)


def test_route_bound_returns_its_maximal_grid(bump2):
    # run_maximal writes maximal_grid.csv from this grid instead of rebuilding it
    grid = np.geomspace(bump2.lip_bound, 10 * bump2.lip_bound, 2)
    rec = M.maximal_route_bound(bump2, 2.0, grid, ROUTE_STREAM, cells=24,
                                profile_budgets={"x_nodes": 16, "scan": 64, "sphere_order": 8})
    direct = M.hl_maximal(M.gridded_gradient_norm(bump2, 24))
    assert rec["maximal"].values.tobytes() == direct.values.tobytes()
    assert np.array_equal(rec["maximal"].box, direct.box)


def test_route_bound_grows_toward_p_one(bump1):
    grid = np.geomspace(bump1.lip_bound, 10 * bump1.lip_bound, 4)
    bounds = [
        M.maximal_route_bound(bump1, p, grid, ROUTE_STREAM, cells=96)["bound"]
        for p in (2.0, 1.5, 1.25)
    ]
    # recorded, not asserted quantitatively: the constant should not collapse
    assert all(b > 0 for b in bounds)


def test_grid_rows_export_shapes():
    g1 = M.GriddedFunction(box1(0, 1), np.arange(4, dtype=float))
    assert M.grid_rows(g1)[1] == (0.375, 1.0)
    g2 = M.GriddedFunction(np.array([[0.0, 1.0], [0.0, 2.0]]), np.ones((2, 3)))
    rows = M.grid_rows(g2)
    assert len(rows) == 6 and len(rows[0]) == 3
