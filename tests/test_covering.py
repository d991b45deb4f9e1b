import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaklp import covering as C
from weaklp import fields as F
from weaklp import quadrature as Q
from weaklp.errors import InvalidParameterError
from weaklp.experiments import HOLDER_TOL


def pc(values, lo=-1.0, hi=1.5):
    return Q.GriddedFunction([[lo, hi]], np.asarray(values, dtype=float))


def node(f, i):
    """Grid node i of the 1-D grid function f."""
    return f.box[0, 0] + i * f.h


def energy(f, gamma):
    """weighted_energy with the greedy cover of f's own admissible family."""
    return C.weighted_energy(C.vitali_select(C.admissible_intervals(f, gamma)))


def assert_energy_chain(rec):
    """energy <= bound_selected <= bound_mass, at prop2.1:energy's slack of
    1e-9 max(bound_mass, 1)."""
    slack = 1e-9 * max(rec["bound_mass"], 1.0)
    assert rec["energy"] <= rec["bound_selected"] + slack
    assert rec["bound_selected"] <= rec["bound_mass"] + slack


def assert_mass_bound(rec):
    """The rotation measure within bound_factor * mass, at prop2.2:mass_bound's
    relative slack of 1e-9."""
    assert rec["measure"].value <= rec["bound_factor"] * rec["mass"] * (1.0 + 1e-9)


def test_pc_field_rejects_negative_values():
    with pytest.raises(InvalidParameterError):
        pc([1.0, -0.5])


@pytest.mark.parametrize("entry", ["admissible_intervals", "verify_5j_cover", "weighted_energy"])
def test_covering_entry_points_reject_a_2d_grid_function(entry):
    # verify_5j_cover and weighted_energy read (f, gamma) from the cover's
    # family, so a 2-D grid function reaches them only through a family
    none = np.empty(0, dtype=np.int64)
    g = Q.GriddedFunction([[0.0, 1.0], [0.0, 1.0]], np.ones((4, 4)))
    with pytest.raises(InvalidParameterError, match="1-D"):
        if entry == "admissible_intervals":
            C.admissible_intervals(g, 1.0)
        else:
            getattr(C, entry)(C.vitali_select(C.IntervalFamily(g, 1.0, none, none)))


def test_interval_family_rejects_a_2d_grid_function_and_nonpositive_gamma():
    # every covering check reads (f, gamma) from a family, so the family's
    # own check is the one every entry point passes through
    none = np.empty(0, dtype=np.int64)
    g = Q.GriddedFunction([[0.0, 1.0], [0.0, 1.0]], np.ones((4, 4)))
    with pytest.raises(InvalidParameterError, match="1-D"):
        C.IntervalFamily(g, 1.0, none, none)
    with pytest.raises(InvalidParameterError, match="1-D"):
        C.admissible_intervals(g, 1.0)
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParameterError, match="gamma"):
            C.IntervalFamily(pc(np.ones(4)), gamma, none, none)
        with pytest.raises(InvalidParameterError, match="gamma"):
            C.admissible_intervals(pc(np.ones(4)), gamma)


def test_admissible_empty_for_zero_field():
    fam = C.admissible_intervals(pc(np.zeros(16)), 1.0)
    assert len(fam) == 0


def test_admissible_single_cell_condition():
    # one cell of width 1 and mass 1: the cell itself satisfies m >= |I|^2
    f = pc([1.0], 0.0, 1.0)
    fam = C.admissible_intervals(f, 1.0)
    assert len(fam) == 1
    assert (node(f, fam.starts[0]), node(f, fam.ends[0])) == (0.0, 1.0)


def test_admissible_lengths_bounded_by_mass_power():
    rng = np.random.default_rng(7)
    f = pc(rng.uniform(0, 2, 64))
    for gamma in (0.5, 1.0, 2.0):
        fam = C.admissible_intervals(f, gamma)
        bound = f.prefix[-1] ** (1.0 / (gamma + 1.0))
        assert np.all((fam.ends - fam.starts) * f.h <= bound + 1e-12)


def test_vitali_greedy_hand_trace():
    # family {[0,1], [0.5,1.5], [3,4]} on the h = 0.5 grid over [0, 4]
    f = pc(np.ones(8), 0.0, 4.0)
    fam = C.IntervalFamily(f, 1.0, np.array([0, 1, 6]), np.array([2, 3, 8]))
    cov = C.vitali_select(fam)
    picks = [(node(f, a), node(f, b)) for a, b in zip(cov.starts, cov.ends)]
    assert picks == [(0.0, 1.0), (3.0, 4.0)]


def test_vitali_empty_and_singleton():
    f = pc(np.ones(4), 0.0, 1.0)
    empty = C.IntervalFamily(f, 1.0, np.array([], dtype=int), np.array([], dtype=int))
    assert len(C.vitali_select(empty)) == 0
    single = C.IntervalFamily(f, 1.0, np.array([1]), np.array([3]))
    cov = C.vitali_select(single)
    assert len(cov) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 3.0), min_size=8, max_size=48),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_vitali_disjoint_and_5j_cover_property(values, gamma):
    f = pc(values, 0.0, 1.0 + 0.1 * len(values))
    fam = C.admissible_intervals(f, gamma)
    cov = C.vitali_select(fam)
    order = np.argsort(cov.starts)
    s, e = cov.starts[order], cov.ends[order]
    assert np.all(s[1:] > e[:-1])          # exact disjointness, closed intervals
    assert C.verify_5j_cover(cov)["violations"] == 0


def vitali_select_reference(family):
    """Greedy selection by one boolean occupancy flag per node, tested per
    member by a slice: the loop `vitali_select` replaced."""
    starts, ends = family.starts, family.ends
    taken = np.zeros(family.f.values.size + 1, dtype=bool)
    picked = []
    for idx in np.lexsort((starts, -(ends - starts))):
        a, b = starts[idx], ends[idx]
        if not taken[a : b + 1].any():
            taken[a : b + 1] = True
            picked.append(idx)
    return starts[picked], ends[picked]


def verify_5j_cover_reference(cover):
    """5J coverage of the all-pairs member list by one pass over the selected
    intervals: the loop `verify_5j_cover` replaced."""
    f, gamma = cover.family.f, cover.family.gamma
    lo2, hi2 = cover.dilated_index_bounds()
    i, j = member_pairs_reference(f.prefix, f.h, gamma)
    covered = np.zeros(i.size, dtype=bool)
    for a2, b2 in zip(lo2, hi2):
        covered |= (2 * i >= a2) & (2 * j <= b2)
    return {"pairs": int(i.size), "violations": int(np.count_nonzero(~covered))}


def random_fields(rng, count):
    # run_covering's generator: 16..128 cells on [-1, 1.5], 30% empty cells
    for _ in range(count):
        m = int(rng.integers(16, 129))
        yield pc(rng.uniform(0, 3, m) * (rng.random(m) < 0.7))


def test_vitali_select_matches_the_occupancy_loop():
    rng = np.random.default_rng(2024)
    for f in random_fields(rng, 30):
        m = f.values.size
        # admissible families, and arbitrary ones with many ties and overlaps
        a = rng.integers(0, m, 60)
        b = np.minimum(a + rng.integers(1, m // 2, 60), m)
        families = [C.admissible_intervals(f, g) for g in (0.5, 1.0, 2.0)]
        families.append(C.IntervalFamily(f, 1.0, a.astype(np.int64), b.astype(np.int64)))
        for fam in families:
            cov = C.vitali_select(fam)
            want = vitali_select_reference(fam)
            assert np.array_equal(cov.starts, want[0]) and np.array_equal(cov.ends, want[1])


def test_verify_5j_cover_matches_the_interval_loop():
    rng = np.random.default_rng(2025)
    for f in random_fields(rng, 30):
        for gamma in (0.5, 1.0, 2.0):
            fam = C.admissible_intervals(f, gamma)
            sel = C.vitali_select(fam)
            # the greedy cover, the empty cover and random subfamilies, which
            # leave some members uncovered
            covers = [sel, C.VitaliCover(fam, sel.starts[:0], sel.ends[:0])]
            for k in (1, 2, 5):
                pick = rng.permutation(len(fam))[:k]
                covers.append(C.VitaliCover(fam, fam.starts[pick], fam.ends[pick]))
            for cov in covers:
                assert C.verify_5j_cover(cov) == verify_5j_cover_reference(cov)
            empty = C.verify_5j_cover(covers[1])
            assert empty["violations"] == empty["pairs"]


def member_pairs_reference(prefix, h, gamma):
    """(i, j) of every node pair i < j of the 1-D prefix array whose mass
    reaches ((j - i) h)^(gamma+1), by comparing all O(m^2) pairs: no length
    scan, no pruning and no early stop.  The thresholds are the scan's own
    scalar expression, so a mass equal to one compares alike."""
    i, j = np.triu_indices(prefix.size, 1)
    thresh = np.array([(ell * h) ** (gamma + 1.0) for ell in range(prefix.size)])
    member = prefix[j] - prefix[i] >= thresh[j - i]
    return i[member], j[member]


def member_energy_reference(prefix, h, gamma):
    """Per row of a (rows, m+1) prefix array, `_block_kernel` summed over the
    all-pairs member list, one length at a time, shortest first."""
    energy = np.zeros(prefix.shape[0])
    for row, p in enumerate(prefix):
        i, j = member_pairs_reference(p, h, gamma)
        for ell, count in enumerate(np.bincount(j - i).tolist()):
            if count:
                energy[row] += count * C._block_kernel(ell, h, gamma)
    return energy


def test_family_is_every_member_pair():
    rng = np.random.default_rng(2026)
    for f in random_fields(rng, 30):
        for gamma in (0.5, 1.0, 2.0):
            fam = C.admissible_intervals(f, gamma)
            got = list(zip(fam.starts.tolist(), fam.ends.tolist()))
            assert len(got) == len(set(got))
            i, j = member_pairs_reference(f.prefix, f.h, gamma)
            assert set(got) == set(zip(i.tolist(), j.tolist()))
            cov = C.vitali_select(fam)
            assert C.verify_5j_cover(cov)["pairs"] == len(fam)
            want = member_energy_reference(f.prefix[None], f.h, gamma)[0]
            assert C.weighted_energy(cov)["energy"].hex() == float(want).hex()


def test_weighted_energy_unit_square_identities():
    # gamma = 1: kernel 1 over the unit square; gamma = 2: iint |x-y| = 1/3
    full = pc(np.full(64, 10.0), 0.0, 1.0)
    assert energy(full, 1.0)["energy"] == pytest.approx(1.0, rel=1e-12)
    assert energy(full, 2.0)["energy"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_weighted_energy_zero_field_chain():
    rec = energy(pc(np.zeros(32)), 1.0)
    assert rec["energy"] == 0.0
    assert_energy_chain(rec)


def test_weighted_energy_chain_random_suite(rng):
    for _ in range(25):
        m = int(rng.integers(16, 129))
        f = pc(rng.uniform(0, 3, m) * (rng.random(m) < 0.7))
        for gamma in (0.5, 1.0, 2.0):
            cov = C.vitali_select(C.admissible_intervals(f, gamma))
            assert C.verify_5j_cover(cov)["violations"] == 0
            assert_energy_chain(C.weighted_energy(cov))


def one_sided_radial_energy(f, gamma, scan):
    """int_s int_{r in E(f,s)} r^(gamma-1) dr ds, where E(f,s) is the set of
    radii r with int_s^{s+r} f >= r^(gamma+1): a reference for
    `weighted_energy` independent of `covering._member_scan`.

    Uses the continuous prefix interpolant (exact for piecewise-constant f)
    with a fine radial scan; equals half the two-sided energy in the limit.
    """
    (lo, hi), = f.box
    nodes = np.linspace(lo, hi, f.values.size + 1)

    def prefix_at(t):
        return np.interp(t, nodes, f.prefix)

    r_max = hi - lo
    r = np.linspace(r_max / scan, r_max, scan)
    dr_pow = np.diff(np.concatenate([[0.0], r]) ** gamma) / gamma
    total = 0.0
    for i in range(f.values.size):
        s = node(f, i) + 0.5 * f.h
        member = prefix_at(s + r) - prefix_at(s) >= r ** (gamma + 1.0)
        total += float(np.sum(dr_pow[member])) * f.h
    return total


def test_one_sided_matches_half_two_sided(bump1):
    # midpoint projection onto 2048 cells of [-2, 2]
    h = 4.0 / 2048
    mid = -2.0 + h * (np.arange(2048) + 0.5)
    f = pc(np.maximum(bump1.evaluate(mid[:, None]), 0.0), -2.0, 2.0)
    two = energy(f, 1.0)["energy"]
    one = one_sided_radial_energy(f, 1.0, scan=8192)
    assert one == pytest.approx(two / 2.0, rel=0.01)


def pruned_scan_rows(rng, rows, m, h, gamma, scale=1.0):
    """(rows, m) non-negative cells: zero runs at both ends of every row and
    some rows all zero; row 0's one nonzero cell, times `scale` (a power of
    two), carries exactly the threshold (ell h)^(gamma+1) of some length."""
    vals = rng.uniform(0, 3, (rows, m)) * (rng.random((rows, m)) < 0.7)
    for row in vals:
        a, b = np.sort(rng.integers(0, m + 1, 2))
        row[:a] = 0.0
        row[b:] = 0.0
    vals[rng.random(rows) < 0.2] = 0.0
    vals[0] = 0.0
    vals[0, rng.integers(m)] = (int(rng.integers(1, m + 1)) * h) ** (gamma + 1.0) / scale
    return vals


def assert_total_is_a_threshold(prefix_row, h, gamma):
    m = prefix_row.size - 1
    assert prefix_row[-1] in [(ell * h) ** (gamma + 1.0) for ell in range(1, m + 1)]


def test_line_energies_match_the_all_pairs_reference():
    # the row prefix, the column window and the stop of the pruned scan leave
    # every row's energy as the all-pairs one, bit for bit
    rng = np.random.default_rng(2030)
    for _ in range(40):
        rows, m = int(rng.integers(1, 13)), int(rng.integers(4, 81))
        h, gamma = float(rng.uniform(0.005, 0.1)), float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        vals = pruned_scan_rows(rng, rows, m, h, gamma)
        prefix = np.concatenate([np.zeros((rows, 1)), np.cumsum(vals, axis=1)], axis=1)
        assert_total_is_a_threshold(prefix[0], h, gamma)
        got = C._line_energies(prefix, h, gamma)
        want = member_energy_reference(prefix, h, gamma)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_family_with_zero_runs_at_both_ends_is_every_member_pair():
    rng = np.random.default_rng(2031)
    for _ in range(30):
        # 2.5 / m is a power of two, so the prefix (cumsum times h) is exact
        m = int(rng.choice([5, 10, 20, 40, 80]))
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        f = pc(pruned_scan_rows(rng, 1, m, 2.5 / m, gamma, scale=2.5 / m)[0])
        assert_total_is_a_threshold(f.prefix, f.h, gamma)
        fam = C.admissible_intervals(f, gamma)
        i, j = member_pairs_reference(f.prefix, f.h, gamma)
        assert len(fam) > 0
        assert set(zip(fam.starts.tolist(), fam.ends.tolist())) == set(zip(i.tolist(), j.tolist()))
        cov = C.vitali_select(fam)
        assert C.verify_5j_cover(cov) == verify_5j_cover_reference(cov)


# ---------------------------------------------------------------------------
# segment masses, rotation bound, containment
# ---------------------------------------------------------------------------

def test_segment_masses_zero_and_constant():
    z = F.make_bump([0.0, 0.0], 1.0, 0.0)
    X = np.array([[0.0, 0.0], [-0.2, 0.3]])
    Y = np.array([[0.5, 0.5], [0.1, -0.1]])
    assert np.all(C._segment_masses(z.evaluate, X, Y) == 0.0)
    ones = C._segment_masses(lambda p: np.ones(p.shape[:-1]), X, Y)
    assert ones == pytest.approx([math.sqrt(0.5), 0.5], rel=1e-14)


def test_segment_masses_reversal_symmetry(bump2):
    X = np.array([[-0.4, 0.1], [0.2, 0.2]])
    Y = np.array([[0.5, -0.3], [-0.6, 0.1]])
    a = C._segment_masses(bump2.evaluate, X, Y)
    b = C._segment_masses(bump2.evaluate, Y, X)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), 1.0))


def test_rotation_measure_zero_field():
    z = F.make_bump([0.0, 0.0], 1.0, 0.0)
    rec = C.rotation_measure(z, line_cells=64, offset_cells=32, sphere_order=8)
    assert rec["measure"].value == 0.0
    assert_mass_bound(rec)


def test_rotation_measure_monotone_in_amplitude(bump2):
    lo = C.rotation_measure(bump2, line_cells=96, offset_cells=48, sphere_order=12)
    hi = C.rotation_measure(F.scale_field(bump2, 2.0), line_cells=96, offset_cells=48,
                            sphere_order=12)
    assert hi["measure"].value >= lo["measure"].value * (1 - 1e-9)


def test_rotation_measure_agrees_with_pair_mc(bump2):
    rec = C.rotation_measure(bump2, line_cells=160, offset_cells=64, sphere_order=24)
    mc = C.rotation_measure_mc(bump2, 150_000, Q.RandomStream(11, 3))
    sig = math.hypot(rec["measure"].error_estimate, mc.error_estimate)
    assert abs(rec["measure"].value - mc.value) <= 3 * sig
    assert_mass_bound(rec)


@pytest.mark.parametrize("name", ["bump1", "bump2", "bump3"])
def test_rotation_measure_reports_its_node_budget(cat, name):
    # offsets x line cells x half-rule directions, summed over both passes;
    # the offsets are composite Gauss panels of order 8 on each of N - 1 axes
    f = cat[name]
    n = f.dim
    line_cells, offset_cells, sphere_order = 32, 16, 8
    nw = Q.sphere_rule(n, sphere_order).nodes.shape[0] // 2

    def nodes(m_line, m_off):
        return (max(2, m_off // 8) * 8) ** (n - 1) * m_line * nw

    rec = C.rotation_measure(f, line_cells, offset_cells, sphere_order)
    assert rec["measure"].nodes_used == nodes(32, 16) + nodes(64, 32)


def test_holder_containment_zero_field_vacuous():
    z = F.make_bump([0.0], 1.0, 0.0)
    rec = C.holder_containment_check(z, 1.0, 1.0, 500, Q.RandomStream(2, 2))
    assert rec["members"] == 0 and rec["worst_margin"] is None


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("name", ["bump1", "plateau1", "bump2"])
def test_holder_containment_no_violations(cat, name, p):
    f = cat[name]
    rec = C.holder_containment_check(f, p, f.lip_bound, 10_000, Q.RandomStream(21, int(p)))
    assert rec["members"] > 0
    assert 1.0 - rec["worst_margin"] <= HOLDER_TOL


# ---------------------------------------------------------------------------
# goldens: covering machinery and rotation bound, recorded before the member
# scan and the pair sampler were shared
# ---------------------------------------------------------------------------

# float.hex of rotation_measure's measure, error, mass, c_emp and c_emp_drift
# at line_cells=48, offset_cells=24, sphere_order=8
# (bump3: 24, 16, 4); bump1, bump3 and product2 recorded before the offset
# grid became one TensorGrid per pass
ROTATION_BUDGETS = {"bump3": (24, 16, 4)}
ROTATION_GOLDENS = {
    "bump1": ("0x1.cc2beaf064dbfp-1", "0x1.32c7f1f59892cp-3", "0x1.c6a65f463ead9p-2",
              "0x1.031bed0da8033p+1", "0x1.00041b2665e78p-2"),
    # re-recorded when surface_area(3) became exactly 4 pi (math.gamma in place
    # of exp(gammaln)), and again, with bump2, plateau2 and product2, when the
    # foliation folded onto one direction of each antipodal pair and read the
    # lines through `along` (every entry moved 1.9e-15 relative at most)
    "bump3": ("0x1.85486b78ff7fcp+0", "0x1.9b2a06f78bbcep-2", "0x1.c3acf30df0bddp-2",
              "0x1.b9463a5a4f1f9p+1", "0x1.1e9bc6968da5ep-1"),
    # re-recorded when product2's sup_norm became the exact e^-2 (measure
    # 0.45280054 -> 0.45280056, against an error estimate of 0.10)
    "product2": ("0x1.cfaaf367d6a41p-2", "0x1.a2d2116e02ff0p-4", "0x1.42fa88293ef02p-3",
                 "0x1.6f8368a11a7f7p+1", "0x1.a5aa242d785acp-2"),
    "bump2": ("0x1.5ed3ceebbdb30p+0", "0x1.8987a357f2eb8p-3", "0x1.ddb567fee95d1p-2",
              "0x1.7802c61bd88c0p+1", "0x1.8f1078f936f00p-3"),
    "plateau2": ("0x1.57fd8114440acp+1", "0x1.066588e13dbc0p-2", "0x1.ffffa49f71731p-1",
                 "0x1.57fdbe78bcbf0p+1", "0x1.e32b314ad9930p-4"),
}

# (trial, gamma) -> family size, sha256 prefix of the family's (starts, ends)
# in family order, selected count, verify_5j_cover pairs and violations, and
# float.hex of weighted_energy's energy, bound_selected and bound_mass
COVER_GOLDENS = {
    (0, 0.5): (975, "4a3c800a218be675", 3, 975, 0, "0x1.06d58914d5f1ep+3",
               "0x1.1022b98e79344p+6", "0x1.3bb3d54cec996p+6"),
    (0, 1.0): (938, "0a71a4bc6950e84c", 3, 938, 0, "0x1.05967705ec806p+2",
               "0x1.b4fcfe160e091p+5", "0x1.08b97d88a4341p+6"),
    (0, 2.0): (915, "465389219f57c40b", 2, 915, 0, "0x1.dd5e9508ebeb2p+0",
               "0x1.ac10dead9ce16p+6", "0x1.b935268e67016p+6"),
    (1, 0.5): (2022, "7429cb0f615e3bc0", 3, 2022, 0, "0x1.abd3c5ff914d6p+2",
               "0x1.1bea12c47b4ddp+6", "0x1.237bfad01b3f3p+6"),
    (1, 1.0): (2350, "728d425f33d86971", 3, 2350, 0, "0x1.ca781948b0fdcp+1",
               "0x1.d435ba781948ap+5", "0x1.e8d582a848578p+5"),
    (1, 2.0): (2467, "7a0dac876a225dc5", 3, 2467, 0, "0x1.a68445c3d564dp+0",
               "0x1.80cf33db02b12p+6", "0x1.975c978c3c48ep+6"),
    (2, 0.5): (322, "9d2e3680ba2b9975", 2, 322, 0, "0x1.9a6ddc2b120f5p+2",
               "0x1.32ea93e6b4278p+6", "0x1.4060646151289p+6"),
    (2, 1.0): (347, "425500fe6b9f0f4f", 3, 347, 0, "0x1.b6db6db6db6cap+1",
               "0x1.efeb1a1f58d0dp+5", "0x1.0ca4d5e3fe7c8p+6"),
    (2, 2.0): (369, "73e4a0574c7a57db", 2, 369, 0, "0x1.a1ed97033bf3bp+0",
               "0x1.935d6b39f78a8p+6", "0x1.bfbd647bfd7a2p+6"),
    (3, 0.5): (65, "1f302cca6dafb563", 2, 65, 0, "0x1.5b8ed5699abd2p+2",
               "0x1.00c785a7e04b8p+6", "0x1.2925bdc619479p+6"),
    (3, 1.0): (75, "5d70a44c6690bc8b", 2, 75, 0, "0x1.80c66c11b75d5p+1",
               "0x1.b086a4c2e0ff2p+5", "0x1.f254d59ddac97p+5"),
    (3, 2.0): (76, "96f2c8bcf08d8760", 3, 76, 0, "0x1.4223779e98652p+0",
               "0x1.2c8abbe587a24p+6", "0x1.9f46b2038ba7ep+6"),
}

# holder_containment_check(f, p, lip_bound, 4000, RandomStream(21, 2)):
# members and float.hex of worst_margin; re-recorded when the uniforms moved
# to per-slot PCG64DXSM lanes (717 and 110 members before)
HOLDER_GOLDENS = {
    ("bump1", 1.0): (777, "0x1.00064f8ec1af7p+0"),
    ("bump2", 2.0): (145, "0x1.26a54b22969d2p+0"),
}

# rotation_measure_mc(f, 40_000, RandomStream(11, 3)): member count; re-recorded
# with the per-slot lanes, each within 3 sqrt(count) of the old count (bump2
# 1938, plateau2 1693)
ROTATION_MC_MEMBERS = {"bump2": 1908, "plateau2": 1702}

# rotation_measure_mc(f, 40_000, RandomStream(11, 3)) on the acceptance A5
# fields, bump1, bump3 and a 1-D mollified indicator: float.hex of the value
# and the standard error, recorded before the estimate read F only on the
# segments that meet the support ball
ROTATION_MC_GOLDENS = {
    "bump1": ("0x1.c4a6fa0a8abf5p-1", "0x1.68f5c303b9181p-7"),
    "bump3": ("0x1.bb10afbcb01f0p+0", "0x1.0a8f4a4ec0edep-4"),
    "indicator1": ("0x1.d508beb3d92c4p+1", "0x1.01f07065f5965p-5"),
    "bump2": ("0x1.639f500dd15f9p+0", "0x1.fc7a5a2dfcc45p-6"),
    "bump2_off": ("0x1.9b2e13bad2cb3p+0", "0x1.8c12a9ade2f38p-5"),
    "plateau2": ("0x1.5312bb20224e4p+1", "0x1.015a0b774fedfp-4"),
    "bumps2_pair": ("0x1.0eb4c81a0da07p+0", "0x1.a9194e7e272fdp-5"),
    "product2": ("0x1.e42cbba6d9d71p-2", "0x1.015d083c700b1p-6"),
}

# rotation_measure(bump2, 256, 128, 24), the rotation experiment's default
# budget (the benchmark's), where the pruned member scan skips most pairs:
# measure, error, mass, c_emp and c_emp_drift, recorded before the pruning
ROTATION_GOLDEN_DEFAULT_BUDGET = (
    "0x1.6a209c6b0a70fp+0", "0x1.77c4067deb500p-5", "0x1.ddb56cbf895e6p-2",
    "0x1.841f37389c2dfp+1", "0x1.1c1065f60a720p-5",
)


@pytest.mark.parametrize("name", sorted(ROTATION_GOLDENS))
def test_rotation_measure_goldens(cat, name):
    line_cells, offset_cells, sphere_order = ROTATION_BUDGETS.get(name, (48, 24, 8))
    rec = C.rotation_measure(cat[name], line_cells, offset_cells, sphere_order)
    got = (rec["measure"].value, rec["measure"].error_estimate, rec["mass"], rec["c_emp"],
           rec["c_emp_drift"])
    assert tuple(v.hex() for v in got) == ROTATION_GOLDENS[name]


def test_rotation_measure_golden_at_the_default_budget(bump2):
    rec = C.rotation_measure(bump2, 256, 128, 24)
    got = (rec["measure"].value, rec["measure"].error_estimate, rec["mass"], rec["c_emp"],
           rec["c_emp_drift"])
    assert tuple(v.hex() for v in got) == ROTATION_GOLDEN_DEFAULT_BUDGET


def test_covering_goldens():
    rng = np.random.default_rng(314)
    for trial in range(4):
        m = int(rng.integers(16, 97))
        f = pc(rng.uniform(0, 3, m) * (rng.random(m) < 0.7))
        for gamma in (0.5, 1.0, 2.0):
            fam = C.admissible_intervals(f, gamma)
            cov = C.vitali_select(fam)
            ver = C.verify_5j_cover(cov)
            en = C.weighted_energy(cov)
            digest = hashlib.sha256(np.stack([fam.starts, fam.ends]).tobytes()).hexdigest()[:16]
            got = (len(fam), digest, len(cov), ver["pairs"], ver["violations"],
                   en["energy"].hex(), en["bound_selected"].hex(), en["bound_mass"].hex())
            assert got == COVER_GOLDENS[trial, gamma]


@pytest.mark.parametrize("name, p", sorted(HOLDER_GOLDENS))
def test_holder_containment_goldens(cat, name, p):
    f = cat[name]
    rec = C.holder_containment_check(f, p, f.lip_bound, 4000, Q.RandomStream(21, 2))
    assert (rec["members"], rec["worst_margin"].hex()) == HOLDER_GOLDENS[name, p]


@pytest.mark.parametrize("name", sorted(ROTATION_MC_MEMBERS))
def test_rotation_measure_mc_member_count(cat, name):
    f = cat[name]
    n = 40_000
    mc = C.rotation_measure_mc(f, n, Q.RandomStream(11, 3))
    R = f.support_radius
    r_cap = (f.sup_norm * 2.0 * R) ** (1.0 / (f.dim + 1.0))
    weight = Q.PairSampler(f.dim, R + r_cap, r_cap).weight
    assert round(mc.value * n / weight) == ROTATION_MC_MEMBERS[name]
    assert mc.nodes_used == n


@pytest.mark.parametrize("name", sorted(ROTATION_MC_GOLDENS))
def test_rotation_measure_mc_goldens(cat, name):
    # the indicator is near 1 up to the edge of its support ball, so a support
    # test that cut the ball short would move its estimate
    f = F.make_mollified_indicator([[-1.0, 1.0]], 0.05) if name == "indicator1" else cat[name]
    mc = C.rotation_measure_mc(f, 40_000, Q.RandomStream(11, 3))
    assert (mc.value.hex(), mc.error_estimate.hex()) == ROTATION_MC_GOLDENS[name]


def test_rotation_measure_mc_reads_only_segments_near_the_support(cat, monkeypatch):
    # F is read on no segment farther than the margin from the bump's own
    # ball, and on these bumps most sampled segments are farther; off the
    # origin the bump's ball drops segments that the centred ball keeps,
    # with the estimate's bits unchanged
    for name in ("bump2", "bump2_off"):
        with monkeypatch.context() as mp:
            _assert_rotation_mc_reads_near_the_support(cat[name], mp)


def _assert_rotation_mc_reads_near_the_support(f, monkeypatch):
    n = 20_000
    want = C.rotation_measure_mc(f, n, Q.RandomStream(11, 3))
    read, tested = [], []
    along, meets = type(f).along, type(f).segments_meet_support

    def spy_along(self, xs, ws):
        read.append(np.concatenate([xs, ws]).T)
        return along(self, xs, ws)

    def spy_meets(self, x, w, r):
        tested.append((x, w, r))
        return meets(self, x, w, r)

    monkeypatch.setattr(type(f), "along", spy_along)
    monkeypatch.setattr(type(f), "segments_meet_support", spy_meets)
    got = C.rotation_measure_mc(f, n, Q.RandomStream(11, 3))
    assert (got.value, got.error_estimate) == (want.value, want.error_estimate)
    x, rw = np.split(np.concatenate(read), 2, axis=1)     # segments x + s (r w), 0 <= s <= 1
    s = np.clip(-np.sum((x - f.center) * rw, axis=1) / np.sum(rw * rw, axis=1), 0.0, 1.0)
    assert np.all(np.linalg.norm(x + s[:, None] * rw - f.center, axis=1) <= f.radius * (1 + 1e-6))
    assert x.shape[0] < 0.6 * n
    centred = sum(np.count_nonzero(F.ScalarField.segments_meet_support(f, *t)) for t in tested)
    assert sum(t[0].shape[0] for t in tested) == n
    if f.support_radius == f.radius:
        assert x.shape[0] == centred
    else:
        assert x.shape[0] < 0.8 * centred


@pytest.mark.parametrize("cells", [1, 2, 3])
def test_rotation_measure_unresolved_foliation_is_not_converged(bump2, cells):
    # lines too coarse to hold a member pair of a field with positive mass:
    # a measure of 0 would read as a bound met and a drift of 0 as stable
    rec = C.rotation_measure(bump2, line_cells=cells, offset_cells=max(1, cells // 2),
                             sphere_order=8)
    assert rec["mass"] > 0
    assert rec["measure"].error_estimate == math.inf and not rec["measure"].converged
    assert rec["c_emp_drift"] == math.inf


@pytest.mark.parametrize("key", ["line_cells", "offset_cells"])
@pytest.mark.parametrize("cells", [0, -4, 2.5, True, "8", None])
def test_rotation_measure_rejects_cell_counts_below_one_or_not_integers(bump2, key, cells):
    budget = {"line_cells": 16, "offset_cells": 8} | {key: cells}
    with pytest.raises(InvalidParameterError, match=key):
        C.rotation_measure(bump2, sphere_order=8, **budget)
