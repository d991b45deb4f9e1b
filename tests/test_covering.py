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


def pc(values, lo=-1.0, hi=1.5):
    return Q.GriddedFunction([[lo, hi]], np.asarray(values, dtype=float))


def node(f, i):
    """Grid node i of the 1-D grid function f."""
    return f.box[0, 0] + i * f.h


def energy(f, gamma):
    """weighted_energy with the greedy cover of f's own admissible family."""
    return C.weighted_energy(f, gamma, C.vitali_select(C.admissible_intervals(f, gamma)))


def test_pc_field_rejects_negative_values():
    with pytest.raises(InvalidParameterError):
        pc([1.0, -0.5])


@pytest.mark.parametrize("entry", ["admissible_intervals", "verify_5j_cover", "weighted_energy"])
def test_covering_entry_points_reject_a_2d_grid_function(entry):
    g = Q.GriddedFunction([[0.0, 1.0], [0.0, 1.0]], np.ones((4, 4)))
    cover = C.vitali_select(C.admissible_intervals(pc(np.ones(4)), 1.0))
    args = (g, 1.0) if entry == "admissible_intervals" else (g, 1.0, cover)
    with pytest.raises(InvalidParameterError):
        getattr(C, entry)(*args)


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
    assert C.verify_5j_cover(f, gamma, cov)["violations"] == 0


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


def verify_5j_cover_reference(f, gamma, cover):
    """5J coverage by one pass over the selected intervals per length: the
    loop `verify_5j_cover` replaced."""
    lo2, hi2 = cover.dilated_index_bounds()
    violations = pairs = 0
    for ell, member in C._member_scan(f.prefix, f.h, gamma):
        hit = np.flatnonzero(member)
        pairs += hit.size
        covered = np.zeros(hit.size, dtype=bool)
        for a2, b2 in zip(lo2, hi2):
            covered |= (2 * hit >= a2) & (2 * (hit + ell) <= b2)
        violations += int(np.count_nonzero(~covered))
    return {"pairs": pairs, "violations": violations}


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
                assert C.verify_5j_cover(f, gamma, cov) == verify_5j_cover_reference(f, gamma, cov)
            empty = C.verify_5j_cover(f, gamma, covers[1])
            assert empty["violations"] == empty["pairs"]


def test_weighted_energy_unit_square_identities():
    # gamma = 1: kernel 1 over the unit square; gamma = 2: iint |x-y| = 1/3
    full = pc(np.full(64, 10.0), 0.0, 1.0)
    assert energy(full, 1.0)["energy"] == pytest.approx(1.0, rel=1e-12)
    assert energy(full, 2.0)["energy"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_weighted_energy_zero_field_chain():
    rec = energy(pc(np.zeros(32)), 1.0)
    assert rec["energy"] == 0.0
    assert rec["holds_selected"] and rec["holds_mass"]


def test_weighted_energy_chain_random_suite(rng):
    for _ in range(25):
        m = int(rng.integers(16, 129))
        f = pc(rng.uniform(0, 3, m) * (rng.random(m) < 0.7))
        for gamma in (0.5, 1.0, 2.0):
            cov = C.vitali_select(C.admissible_intervals(f, gamma))
            assert C.verify_5j_cover(f, gamma, cov)["violations"] == 0
            rec = C.weighted_energy(f, gamma, cov)
            assert rec["holds_selected"] and rec["holds_mass"]


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
    assert rec["holds"]


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
    assert rec["holds"]


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
    assert rec["members"] == 0 and rec["violations"] == 0


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("name", ["bump1", "plateau1", "bump2"])
def test_holder_containment_no_violations(cat, name, p):
    f = cat[name]
    rec = C.holder_containment_check(f, p, f.lip_bound, 10_000, Q.RandomStream(21, int(p)))
    assert rec["members"] > 0
    assert rec["violations"] == 0


# ---------------------------------------------------------------------------
# goldens: covering machinery and rotation bound, recorded before the member
# scan and the pair sampler were shared
# ---------------------------------------------------------------------------

# float.hex of rotation_measure's measure, error, mass, c_emp, c_emp_coarse,
# c_emp_fine and c_emp_drift at line_cells=48, offset_cells=24, sphere_order=8
# (bump3: 24, 16, 4); bump1, bump3 and product2 recorded before the offset
# grid became one TensorGrid per pass
ROTATION_BUDGETS = {"bump3": (24, 16, 4)}
ROTATION_GOLDENS = {
    "bump1": ("0x1.cc2beaf064dbfp-1", "0x1.32c7f1f59892cp-3", "0x1.c6a65f463ead9p-2",
              "0x1.031bed0da8033p+1", "0x1.597975b272bbap+0", "0x1.afd935c16d5aap+0",
              "0x1.00041b2665e78p-2"),
    # re-recorded when surface_area(3) became exactly 4 pi (math.gamma in place
    # of exp(gammaln)), and again, with bump2, plateau2 and product2, when the
    # foliation folded onto one direction of each antipodal pair and read the
    # lines through `along` (every entry moved 1.9e-15 relative at most)
    "bump3": ("0x1.85486b78ff7fcp+0", "0x1.9b2a06f78bbcep-2", "0x1.c3acf30df0bddp-2",
              "0x1.b9463a5a4f1f9p+1", "0x1.a06914c1fc998p+0", "0x1.44c13c569b389p+1",
              "0x1.1e9bc6968da5ep-1"),
    # re-recorded when product2's sup_norm became the exact e^-2 (measure
    # 0.45280054 -> 0.45280056, against an error estimate of 0.10)
    "product2": ("0x1.cfaaf367d6a41p-2", "0x1.a2d2116e02ff0p-4", "0x1.42fa88293ef02p-3",
                 "0x1.6f8368a11a7f7p+1", "0x1.9311492622bd0p+0", "0x1.1c858e8a9b674p+1",
                 "0x1.a5aa242d785acp-2"),
    "bump2": ("0x1.5ed3ceebbdb30p+0", "0x1.8987a357f2eb8p-3", "0x1.ddb567fee95d1p-2",
              "0x1.7802c61bd88c0p+1", "0x1.0e9127225122bp+1", "0x1.4349dbbfdce8ep+1",
              "0x1.8f1078f936f00p-3"),
    "plateau2": ("0x1.57fd8114440acp+1", "0x1.066588e13dbc0p-2", "0x1.ffffa49f71731p-1",
                 "0x1.57fdbe78bcbf0p+1", "0x1.165b3693c5e53p+1", "0x1.3731078202fe8p+1",
                 "0x1.e32b314ad9930p-4"),
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
# members, violations, float.hex of worst_margin; re-recorded when the uniforms
# moved to per-slot PCG64DXSM lanes (717 and 110 members before, 0 violations)
HOLDER_GOLDENS = {
    ("bump1", 1.0): (777, 0, "0x1.00064f8ec1af7p+0"),
    ("bump2", 2.0): (145, 0, "0x1.26a54b22969d2p+0"),
}

# rotation_measure_mc(f, 40_000, RandomStream(11, 3)): member count; re-recorded
# with the per-slot lanes, each within 3 sqrt(count) of the old count (bump2
# 1938, plateau2 1693)
ROTATION_MC_MEMBERS = {"bump2": 1908, "plateau2": 1702}


@pytest.mark.parametrize("name", sorted(ROTATION_GOLDENS))
def test_rotation_measure_goldens(cat, name):
    line_cells, offset_cells, sphere_order = ROTATION_BUDGETS.get(name, (48, 24, 8))
    rec = C.rotation_measure(cat[name], line_cells, offset_cells, sphere_order)
    got = (rec["measure"].value, rec["measure"].error_estimate, rec["mass"], rec["c_emp"],
           rec["c_emp_coarse"], rec["c_emp_fine"], rec["c_emp_drift"])
    assert tuple(v.hex() for v in got) == ROTATION_GOLDENS[name]


def test_covering_goldens():
    rng = np.random.default_rng(314)
    for trial in range(4):
        m = int(rng.integers(16, 97))
        f = pc(rng.uniform(0, 3, m) * (rng.random(m) < 0.7))
        for gamma in (0.5, 1.0, 2.0):
            fam = C.admissible_intervals(f, gamma)
            cov = C.vitali_select(fam)
            ver = C.verify_5j_cover(f, gamma, cov)
            en = C.weighted_energy(f, gamma, cov)
            digest = hashlib.sha256(np.stack([fam.starts, fam.ends]).tobytes()).hexdigest()[:16]
            got = (len(fam), digest, len(cov), ver["pairs"], ver["violations"],
                   en["energy"].hex(), en["bound_selected"].hex(), en["bound_mass"].hex())
            assert got == COVER_GOLDENS[trial, gamma]


@pytest.mark.parametrize("name, p", sorted(HOLDER_GOLDENS))
def test_holder_containment_goldens(cat, name, p):
    f = cat[name]
    rec = C.holder_containment_check(f, p, f.lip_bound, 4000, Q.RandomStream(21, 2))
    assert (rec["members"], rec["violations"], rec["worst_margin"].hex()) == \
        HOLDER_GOLDENS[name, p]


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
