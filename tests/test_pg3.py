import random

import pytest
from hypothesis import given, strategies as st

from twistedcubic import census, pg3, twisted


def test_point_and_plane_counts(field):
    for q in (2, 3, 5):
        f = field(q)
        pts = pg3.all_points(f)
        assert len(pts) == pg3.point_count(q)
        assert len(set(pts)) == len(pts)
        assert pts == sorted(pts)
        assert all(p[next(i for i in range(4) if p[i])] == 1 for p in pts)


def test_normalize(field):
    f = field(5)
    assert pg3.normalize(f, (2, 4, 0, 1)) == (1, 2, 0, 3)
    assert pg3.normalize(f, pg3.normalize(f, (0, 3, 1, 2))) == pg3.normalize(f, (0, 3, 1, 2))
    with pytest.raises(ValueError):
        pg3.normalize(f, (0, 0, 0, 0))


@pytest.mark.parametrize("q,count", [(2, 35), (5, 806), (9, 7462)])
def test_all_lines_counts(field, q, count):
    f = field(q)
    lines = pg3.all_lines(f)
    assert len(lines) == count == pg3.line_count(q)
    keys = [l.plucker for l in lines]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_klein_relation_exhaustive(field):
    for q in (2, 3, 5):
        f = field(q)
        assert all(pg3.klein_value(f, l.plucker) == 0 for l in pg3.all_lines(f))


def test_line_through_coordinate_axis(field):
    f = field(5)
    line = pg3.line_through(f, (0, 0, 0, 1), (1, 0, 0, 0))
    assert line.plucker == (0, 0, 1, 0, 0, 0)
    pts = pg3.line_points(f, line)
    assert set(pts) == {(0, 0, 0, 1)} | {pg3.normalize(f, (1, 0, 0, t)) for t in f.elements()}


def test_line_through_is_symmetric(field):
    f = field(5)
    rng = random.Random(7)
    pts = pg3.all_points(f)
    for _ in range(25):
        p, q = rng.sample(pts, 2)
        assert pg3.line_through(f, p, q) == pg3.line_through(f, q, p)


def test_line_through_equal_points_raises(field):
    f = field(5)
    with pytest.raises(ValueError):
        pg3.line_through(f, (1, 2, 3, 4), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        # projectively equal
        pg3.line_through(f, (1, 2, 3, 4), (2, 4, 1, 3))


def test_line_x0_x2_zero(field):
    f = field(5)
    line = pg3.line_through(f, (0, 0, 0, 1), (0, 1, 0, 0))
    assert all(p[0] == 0 and p[2] == 0 for p in pg3.line_points(f, line))


@given(st.sampled_from((3, 5, 8)), st.data())
def test_collinear_respanning_gives_same_line(field, q, data):
    f = field(q)
    pts = pg3.all_points(f)
    p = data.draw(st.sampled_from(pts))
    r = data.draw(st.sampled_from(pts))
    if p == r:
        return
    line = pg3.line_through(f, p, r)
    s = data.draw(st.sampled_from(pg3.line_points(f, line)))
    if s == p:
        return
    assert pg3.line_through(f, p, s) == line


def test_meet_planes(field):
    f = field(5)
    line = pg3.meet_planes(f, (0, 0, 0, 1), (1, 0, 0, 0))
    assert pg3.point_on_line(f, (0, 0, 1, 0), line)
    assert pg3.point_on_line(f, (0, 1, 0, 0), line)
    axis = pg3.meet_planes(f, (1, 0, 0, 0), (0, 1, 0, 0))
    assert all(p[0] == 0 and p[1] == 0 for p in pg3.line_points(f, axis))
    with pytest.raises(ValueError):
        pg3.meet_planes(f, (1, 0, 0, 0), (1, 0, 0, 0))
    rng = random.Random(3)
    planes = pg3.all_planes(f)
    for _ in range(25):
        p1, p2 = rng.sample(planes, 2)
        met = pg3.meet_planes(f, p1, p2)
        assert pg3.line_in_plane(f, met, p1) and pg3.line_in_plane(f, met, p2)


def test_duality_meet_and_span_agree(field):
    # the pencil of planes through a spanned line meets back in the same line
    f = field(3)
    for line in pg3.all_lines(f):
        planes = pg3.planes_through_line(f, line)
        assert len(planes) == f.q + 1
        assert pg3.meet_planes(f, planes[0], planes[1]) == line


def test_incidence_examples(field):
    f = field(5)
    assert pg3.incident(f, (0, 0, 0, 1), (1, 0, 0, 0))
    assert not pg3.incident(f, (1, 1, 1, 1), (1, 0, 0, 0))
    t_inf = pg3.line_through(f, (1, 0, 0, 0), (0, 1, 0, 0))
    assert pg3.line_in_plane(f, t_inf, (0, 0, 0, 1))


def test_point_on_line_matches_point_enumeration(field):
    f = field(3)
    lines = pg3.all_lines(f)
    pts = pg3.all_points(f)
    for line in lines[::7]:
        members = set(pg3.line_points(f, line))
        assert len(members) == f.q + 1
        for p in pts:
            assert pg3.point_on_line(f, p, line) == (p in members)


def test_lines_meet_matches_common_point(field):
    f = field(3)
    lines = pg3.all_lines(f)
    rng = random.Random(11)
    for _ in range(300):
        la, lb = rng.sample(lines, 2)
        shared = set(pg3.line_points(f, la)) & set(pg3.line_points(f, lb))
        assert pg3.lines_meet(f, la, lb) == bool(shared)


def test_lines_in_plane(field):
    for q in (3, 5):
        f = field(q)
        plane = (1, 2 % q, 0, 1)
        lines = pg3.lines_in_plane(f, plane)
        assert len(lines) == q * q + q + 1 == len(set(lines))
        assert all(pg3.line_in_plane(f, l, plane) for l in lines)


def test_every_plane_carries_expected_line_count(field):
    f = field(3)
    universe = set(pg3.all_lines(f))
    for plane in pg3.all_planes(f)[::5]:
        lines = pg3.lines_in_plane(f, plane)
        assert len(lines) == 13
        assert set(lines) <= universe


def test_line_from_plucker_round_trip(field):
    f = field(5)
    for line in pg3.all_lines(f)[::13]:
        assert pg3.line_from_plucker(f, line.plucker) == line
    with pytest.raises(ValueError):
        pg3.line_from_plucker(f, (1, 0, 0, 0, 0, 1))  # violates Klein relation


def _check_canonical_pair(f, line):
    """The pair is two distinct points of the line, the two smallest of its
    enumeration, and spans it."""
    u, v = line.pair
    assert u != v
    assert pg3.point_on_line(f, u, line) and pg3.point_on_line(f, v, line)
    assert list(line.pair) == pg3.line_points(f, line)[:2]
    assert pg3.normalize(f, pg3.plucker_forms(u, v, f.mul, f.sub)) == line.plucker


def test_canonical_pair_is_minimal(field):
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field(q)
        for line in pg3.all_lines(f):
            _check_canonical_pair(f, line)


@pytest.mark.parametrize("q", (25, 27, 49, 64))
def test_canonical_pair_is_minimal_on_seeded_lines(field, q):
    f = field(q)
    rng = random.Random(q)
    n = 0
    while n < 2000:
        p, r = (tuple(rng.randrange(q) for _ in range(4)) for _ in range(2))
        if not any(pg3.plucker_forms(p, r, f.mul, f.sub)):
            continue  # not two distinct points
        line, back = pg3.line_through(f, p, r), pg3.line_through(f, r, p)
        assert (back.plucker, back.pair) == (line.plucker, line.pair)
        _check_canonical_pair(f, line)
        n += 1


@given(st.sampled_from((4, 5, 9, 49)), st.data())
def test_line_from_plucker_validates_its_input(field, q, data):
    f = field(q)
    elem = st.integers(0, q - 1)
    vec = data.draw(st.one_of(
        st.tuples(*[elem] * 6),                                   # mostly off the quadric
        st.tuples(st.tuples(*[elem] * 4), st.tuples(*[elem] * 4)).map(
            lambda uv: pg3.plucker_forms(*uv, f.mul, f.sub))))    # a line's, or zero
    with pytest.raises(ValueError):
        pg3.line_from_plucker(f, (0,) * 6)
    if not any(vec) or pg3.klein_value(f, vec):
        with pytest.raises(ValueError):
            pg3.line_from_plucker(f, vec)
        return
    line = pg3.line_from_plucker(f, vec)
    assert line.plucker == pg3.normalize(f, vec)
    scaled = pg3.line_from_plucker(f, pg3.vec_scale(f, data.draw(st.integers(1, q - 1)), vec))
    assert (scaled.plucker, scaled.pair) == (line.plucker, line.pair)


def test_census_path_never_enumerates_line_points(field, engine, monkeypatch):
    """The cubic model, the line constructors and a whole census read each
    line's pair off its Pluecker vector; only line_points enumerates."""
    def enumerate_points(*args):
        raise AssertionError("a line's points were enumerated")
    monkeypatch.setattr(pg3, "_span_points", enumerate_points)
    assert twisted.build_cubic(field(64)).axis is None
    f, eng = field(8), engine(8)
    for rank in range(0, pg3.line_count(8), 97):
        line = eng.line_from_rank(rank)
        assert pg3.line_from_plucker(f, line.plucker) == line
        image = twisted.null_polarity_line(f, line)
        assert twisted.null_polarity_line(f, image) == line
    assert census.verify(8)["pass"]
