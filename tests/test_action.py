import random

import pytest

from twistedcubic import action as act
from twistedcubic import pg3, twisted as tw


def test_lift_identity(field):
    f = field(7)
    assert act.lift(f, act.identity(f)) == (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_lift_swap_maps_p0_to_pinf(field):
    f = field(5)
    g = act.group_element(f, 0, 1, 1, 0)
    assert act.act_point(f, g, tw.cubic_point(f, 0)) == tw.cubic_point(f, tw.INF)
    assert act.act_point(f, g, tw.cubic_point(f, tw.INF)) == tw.cubic_point(f, 0)
    assert act.act_point(f, g, tw.cubic_point(f, 2)) == tw.cubic_point(f, f.inv(2))


def test_lift_respects_scaling(field):
    f = field(7)
    raw = (2, 3, 1, 6)
    scaled = tuple(f.mul(3, x) for x in raw)
    assert act.group_element(f, *raw) == act.group_element(f, *scaled)


def test_lift_always_invertible(field):
    f = field(5)
    for g in act.all_elements(f):
        assert pg3._nullspace(f, act.lift(f, g), 4) == []


def test_singular_tuple_rejected(field):
    with pytest.raises(ValueError):
        act.group_element(field(5), 1, 2, 2, 4)


def test_group_enumeration_and_closure(field):
    for q, want in ((2, 6), (3, 24), (4, 60), (5, 120), (7, 336)):
        f = field(q)
        els = act.all_elements(f)
        assert len(els) == want == act.group_order(q)
        assert sorted(act.closure(f, act.generators(f))) == els


def test_compose_convention(field):
    # compose(g, h) applies g first; lifting reverses into a matrix product
    f = field(5)
    rng = random.Random(0)
    els = act.all_elements(f)
    pts = pg3.all_points(f)
    for _ in range(40):
        g, h = rng.choice(els), rng.choice(els)
        p = rng.choice(pts)
        assert act.act_point(f, act.compose(f, g, h), p) == \
            act.act_point(f, h, act.act_point(f, g, p))
        assert act.compose(f, g, act.inverse(f, g)) == act.identity(f)


def test_action_is_homomorphism_on_lines(field):
    f = field(5)
    rng = random.Random(1)
    els = act.all_elements(f)
    lines = pg3.all_lines(f)
    for _ in range(25):
        g, h = rng.choice(els), rng.choice(els)
        ln = rng.choice(lines)
        assert act.act_line(f, act.compose(f, g, h), ln) == \
            act.act_line(f, h, act.act_line(f, g, ln))


def test_cubic_is_invariant(field, model):
    f = field(5)
    pts = model(5).cubic_point_set
    rng = random.Random(2)
    els = act.all_elements(f)
    for _ in range(50):
        g = rng.choice(els)
        assert {act.act_point(f, g, p) for p in pts} == pts


def test_diagonal_elements_fix_the_frame(field):
    f = field(7)
    for d in f.units():
        g = act.group_element(f, 1, 0, 0, d)
        assert act.act_point(f, g, (0, 0, 0, 1)) == (0, 0, 0, 1)
        assert act.act_point(f, g, (1, 0, 0, 0)) == (1, 0, 0, 0)


def test_action_preserves_incidence(field):
    f = field(5)
    rng = random.Random(3)
    els = act.all_elements(f)
    pts = pg3.all_points(f)
    planes = pg3.all_planes(f)
    for _ in range(60):
        g = rng.choice(els)
        p = rng.choice(pts)
        pl = rng.choice(planes)
        assert pg3.incident(f, p, pl) == pg3.incident(
            f, act.act_point(f, g, p), act.act_plane(f, g, pl))


def test_act_plane_is_inverse_transpose_action(field):
    # M times its inverse lift is the identity, projectively
    f = field(7)
    rng = random.Random(4)
    for _ in range(20):
        g = act.all_elements(f)[rng.randrange(act.group_order(7))]
        m = act.lift(f, g)
        minv = act.lift(f, act.inverse(f, g))
        prod = tuple(act.mat_vec(f, row, minv) for row in m)
        flat = [x for row in prod for x in row]
        assert pg3.normalize(f, tuple(flat)) == pg3.normalize(
            f, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))


def test_class_is_action_invariant(field, model):
    f = field(5)
    m = model(5)
    rng = random.Random(5)
    els = act.all_elements(f)
    lines = pg3.all_lines(f)
    for _ in range(40):
        g = rng.choice(els)
        ln = rng.choice(lines)
        assert tw.classify_line(act.act_line(f, g, ln), m) == tw.classify_line(ln, m)


def test_orbit_examples(field, model):
    f5 = field(5)
    orbit = act.orbit_of(f5, model(5).tangent_of[tw.INF])
    assert orbit == set(model(5).tangent_of.values())

    f8 = field(8)
    p0 = (0, 0, 0, 1)
    l1 = pg3.line_through(f8, p0, (0, 1, 0, 0))
    l2 = pg3.line_through(f8, p0, (0, 1, 1, 0))
    assert len(act.orbit_of(f8, l1)) == 9
    assert len(act.orbit_of(f8, l2)) == 63

    f9 = field(9)
    assert act.orbit_of(f9, model(9).axis) == {model(9).axis}


def test_orbit_partition_examples(field, model):
    f = field(5)
    m = model(5)
    ung = [l for l in pg3.all_lines(f) if tw.classify_line(l, m) == tw.UNG]
    recs = act.orbit_partition(f, ung, tw.UNG)
    assert [(r.size, r.stabilizer_order) for r in recs] == [(60, 2), (60, 2)]
    assert all(r.line_class == tw.UNG for r in recs)
    assert recs[0].representative.plucker < recs[1].representative.plucker

    f7 = field(7)
    m7 = model(7)
    rc = [l for l in pg3.all_lines(f7) if tw.classify_line(l, m7) == tw.RC]
    assert [(r.size, r.stabilizer_order) for r in act.orbit_partition(f7, rc)] \
        == [(28, 12)]


def test_orbit_partition_rejects_unclosed_input(field, model):
    f = field(5)
    m = model(5)
    ung = sorted(l for l in pg3.all_lines(f) if tw.classify_line(l, m) == tw.UNG)
    with pytest.raises(ValueError):
        act.orbit_partition(f, ung[:30])


def test_stabilizer_orders(field, model):
    f = field(5)
    m = model(5)
    assert len(act.stabilizer(f, m.tangent_of[tw.INF])) == 20  # q(q-1)
    chord = pg3.line_through(f, (0, 0, 0, 1), (1, 0, 0, 0))
    assert len(act.stabilizer(f, chord)) == 8  # 2(q-1)
    rho = f.min_nonsquare
    ic = pg3.line_through(f, (1, 0, rho, 0), (0, 1, 0, rho))
    assert len(act.stabilizer(f, ic)) == 12  # 2(q+1)
    f8 = field(8)
    ung8 = pg3.line_through(f8, (0, 0, 0, 1), (1, 0, 1, 0))
    assert act.stabilizer(f8, ung8) == [act.identity(f8)]


def test_stabilizer_is_subgroup(field, model):
    f = field(5)
    stab = act.stabilizer(f, model(5).tangent_of[tw.INF])
    group = set(stab)
    assert act.identity(f) in group
    for g in stab:
        assert act.inverse(f, g) in group
        for h in stab:
            assert act.compose(f, g, h) in group


def test_stab_family_counts(field):
    f5, f7, f8, f9 = field(5), field(7), field(8), field(9)
    assert len(act.stab_family(f5, act.TANGENT)) == 20
    assert len(act.stab_family(f5, act.CHORD_2BRANCH)) == 8
    assert len(act.stab_family(f5, act.IC_ODD)) == 12
    assert len(act.stab_family(f8, act.IC_EVEN)) == 18
    assert len(act.stab_family(f5, act.UG_ODD)) == 4
    assert len(act.stab_family(f8, act.UG_EVEN_L1)) == 56
    assert len(act.stab_family(f8, act.UG_EVEN_L2)) == 8
    assert len(act.stab_family(f7, act.UNG_ODD)) == 2
    assert len(act.stab_family(f9, act.EA_23)) == 18


def test_stab_family_parity_guard(field):
    with pytest.raises(ValueError):
        act.stab_family(field(8), act.IC_ODD)
    with pytest.raises(ValueError):
        act.stab_family(field(5), act.UG_EVEN_L1)
    with pytest.raises(ValueError):
        act.stab_family(field(5), act.EA_23)
    with pytest.raises(ValueError):
        act.stab_family(field(5), "NO_SUCH_FAMILY")


@pytest.mark.parametrize("q", (5, 7, 8, 9))
def test_families_equal_brute_stabilizers(field, q):
    f = field(q)
    for form in act.FAMILY_IDS:
        if not act.family_applicable(f, form):
            continue
        fam = act.stab_family(f, form)
        for rep in act.family_representatives(f, form):
            assert act.stabilizer(f, rep) == fam, (q, form)


def test_ung_odd_reps_in_distinct_orbits(field):
    for q in (5, 7, 9):
        f = field(q)
        reps = act.family_representatives(f, act.UNG_ODD)[:2]
        assert reps[1] not in act.orbit_of(f, reps[0])


def test_ea_reps_in_distinct_orbits(field):
    f = field(9)
    l2, l3 = act.family_representatives(f, act.EA_23)
    assert l3 not in act.orbit_of(f, l2)


def test_ung_orbit_polar_image_is_eg_orbit(field):
    f = field(7)
    p0 = (0, 0, 0, 1)
    ung_rep = pg3.line_through(f, p0, (1, 0, 1, 0))
    eg_rep = pg3.meet_planes(f, tw.osculating_plane(f, 0),
                             pg3.normalize(f, (0, f.neg(3), 0, f.neg(1))))
    image = {tw.null_polarity_line(f, l) for l in act.orbit_of(f, ung_rep)}
    assert image == act.orbit_of(f, eg_rep)


def test_polar_line_shares_stabilizer(field):
    f = field(5)
    chord = pg3.line_through(f, (0, 0, 0, 1), (1, 0, 0, 0))
    axis = tw.null_polarity_line(f, chord)
    assert act.stabilizer(f, chord) == act.stabilizer(f, axis)
    ung = pg3.line_through(f, (0, 0, 0, 1), (1, 0, 1, 0))
    assert act.stabilizer(f, ung) == act.stabilizer(f, tw.null_polarity_line(f, ung))
