import os
import random
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scalar_checks
from twistedcubic import action as act
from twistedcubic import bulk, census, cli, pg3, twisted as tw
from twistedcubic.bulk import CODE, Engine, _columns, _pair_blocks, field_ops, sorted_unique

AGREE_Q = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", AGREE_Q)
def test_bulk_classification_matches_scalar(field, model, engine, q):
    f = field(q)
    m = model(q)
    eng = engine(q)
    scalar = {}
    for line in pg3.all_lines(f):
        scalar.setdefault(tw.classify_line(line, m), []).append(
            eng.pack_tuple(line.plucker))
    bulk = eng.class_keys()
    assert set(bulk) == set(tw.valid_line_classes(f))
    for cls, ranks in bulk.items():
        keys = np.sort(eng.pack(eng._unrank(ranks)))
        assert sorted(scalar.get(cls, [])) == keys.tolist(), (q, cls)
    assert eng.klein_violations() == 0


def test_key_pack_round_trip(engine):
    eng = engine(9)
    for ranks in eng.class_keys().values():
        for k in eng.pack(eng._unrank(ranks[:: max(1, len(ranks) // 7)])):
            line = eng.line_from_key(k)
            assert eng.pack_tuple(line.plucker) == int(k)


def test_polar_keys_match_two_plane_definition(field, engine):
    f = field(5)
    eng = engine(5)
    for line in pg3.all_lines(f):
        got = eng.polar_keys(np.array([eng.pack_tuple(line.plucker)], np.int64))
        want = eng.pack_tuple(tw.null_polarity_line(f, line).plucker)
        assert got.tolist() == [want]


def test_orbit_sweep_matches_bfs(field, model, engine):
    for q in (5, 8):
        f = field(q)
        eng = engine(q)
        for seed in (model(q).tangent_of[tw.INF],
                     pg3.line_through(f, (0, 0, 0, 1), (1, 0, 0, 0)),
                     pg3.line_through(f, (0, 0, 0, 1), (1, 0, 1, 0))):
            bfs = sorted(eng.pack_tuple(l.plucker) for l in act.orbit_of(f, seed))
            assert eng.orbit_sweep(seed).tolist() == bfs


def test_orbit_partition_matches_scalar(field, model, engine):
    f = field(5)
    m = model(5)
    eng = engine(5)
    by_cls = {}
    for line in pg3.all_lines(f):
        by_cls.setdefault(tw.classify_line(line, m), []).append(line)
    for cls, lines in by_cls.items():
        scalar = act.orbit_partition(f, lines, cls)
        bulk = eng.orbit_partition_keys(cls)
        assert [(r.size, r.stabilizer_order, eng.pack_tuple(r.representative.plucker))
                for r in scalar] == bulk


def test_orbit_partition_rejects_unclosed_keys(field):
    eng = Engine(field(5))
    eng.class_codes()[eng.class_keys()[tw.UNG][10]] = CODE[tw.ENG]
    with pytest.raises(ValueError):
        eng.orbit_partition_keys(tw.UNG)


def test_a_failed_partition_adds_no_orbit(field):
    """When the second sweep of UnG meets a line coded outside the class, the
    call raises, the orbit of the first sweep stays out of the orbit list,
    and a second call raises again instead of returning part of the class."""
    whole = Engine(field(5))
    whole.orbit_partition_keys(tw.UNG)
    eng = Engine(field(5))
    eng.class_codes()[np.flatnonzero(whole.orbit_labels == 1)[-1]] = CODE[tw.ENG]
    for _ in range(2):
        with pytest.raises(ValueError):
            eng.orbit_partition_keys(tw.UNG)
        assert eng.orbits() == []


def test_bulk_stabilizer_matches_scalar(field, engine):
    f = field(5)
    eng = engine(5)
    reps = [
        pg3.line_through(f, (1, 0, 0, 0), (0, 1, 0, 0)),
        pg3.line_through(f, (0, 0, 0, 1), (1, 0, 0, 0)),
        pg3.line_through(f, (0, 0, 0, 1), (1, 0, 1, 0)),
        pg3.line_through(f, (1, 0, 2, 0), (0, 1, 0, 2)),
    ]
    for line in reps:
        assert eng.stabilizer_abcd(line) == [g.abcd for g in act.stabilizer(f, line)]


def test_plane_counts_closed_forms(engine):
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        eng = engine(q)
        n = q**3 - q
        assert eng.plane_class_counts() == {
            "gamma": q + 1, "2C": q * q + q, "3C": n // 6,
            "1C": n // 2, "0C": n // 3,
        }


@pytest.mark.parametrize("form", ("cubic_point", "osculating_plane"))
def test_engine_rejects_a_repeated_cubic_point_or_plane(field, monkeypatch, form):
    f = field(7)
    real = getattr(tw, form)
    monkeypatch.setattr(tw, form, lambda fld, t: real(fld, 0 if t == 1 else t))
    with pytest.raises(RuntimeError, match="distinct"):
        Engine(f)


def test_plane_counts_reject_an_osculating_plane_with_two_cubic_points(field, monkeypatch):
    """The plane x1 = 0 meets the cubic at t = 0 and t = infinity; put in
    for the osculating plane at t = 1, it leaves every plane distinct."""
    f = field(7)
    real = tw.osculating_plane
    monkeypatch.setattr(tw, "osculating_plane",
                        lambda fld, t: (0, 1, 0, 0) if t == 1 else real(fld, t))
    eng = Engine(f)
    with pytest.raises(RuntimeError, match="osculating plane"):
        eng.plane_class_counts()


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(0)
    cases = [rng.integers(0, 50, n).astype(np.int64) for n in (0, 1, 2, 1000)]
    for vals in cases + [rng.permutation(1000).astype(np.int32)]:  # and no duplicate
        assert sorted_unique(vals).tolist() == np.unique(vals).tolist()


def test_class_counts_match_closed_forms_larger_q(engine):
    for q in (11, 13, 16):
        eng = engine(q)
        assert eng.class_counts() == tw.expected_class_sizes(eng.field)
        assert eng.klein_violations() == 0


def test_tiny_chunks_split_enumeration_consistently(field, engine):
    eng = Engine(field(5), chunk=100)
    assert eng.class_counts() == engine(5).class_counts()
    assert eng.class_codes().tolist() == engine(5).class_codes().tolist()
    for cls, keys in eng.class_keys().items():
        assert keys.tolist() == engine(5).class_keys()[cls].tolist()


@pytest.mark.parametrize("q", (3, 4, 5))
def test_array_forms_match_scalar_forms(field, engine, q):
    """The shared line formulas give the same values on coordinate arrays
    (table lookups) as on single elements (Field methods), for every line."""
    f = field(q)
    eng = engine(q)
    lines = pg3.all_lines(f)
    P = np.array([ln.plucker for ln in lines], np.int16)
    U = np.array([ln.pair[0] for ln in lines], np.int16)
    V = np.array([ln.pair[1] for ln in lines], np.int16)
    assert eng._normalize_rows(eng._plucker(U, V)).tolist() == P.tolist()

    # the Klein form vanishes on lines; random 6-vectors make it non-trivial
    rng = np.random.default_rng(q)
    R = np.concatenate([P, rng.integers(0, q, (200, 6)).astype(np.int16)])
    assert eng._klein(R).tolist() == [pg3.klein_value(f, tuple(r)) for r in R.tolist()]
    assert eng._klein(P).tolist() == [0] * len(P)

    for r in (lines[0], lines[len(lines) // 2], lines[-1]):
        got = (eng._pairing_with(P, r.plucker) == 0).tolist()
        assert got == [pg3.lines_meet(f, ln, r) for ln in lines]
        assert 0 < sum(got) < len(lines)

    pencils = eng.pack(eng._line_points(eng._rank(P))).reshape(q + 1, len(lines)).T
    for ln, keys in zip(lines, pencils):
        want = [eng.pack_tuple(pt) for pt in pg3.line_points(f, ln)]
        assert sorted(keys.tolist()) == want


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32))
def test_chord_code_matches_full_evaluation(field, engine, q):
    """The filtered chord code equals the full evaluation on every line's
    Pluecker row and on its polar image (xi != 0), and keeps those codes
    when each row is scaled by a nonzero element."""
    f, eng = field(q), engine(q)
    P = eng._unrank(np.arange(pg3.line_count(q)))
    rng = np.random.default_rng(q)
    for R in [P] + ([eng._polar(P)] if f.xi != 0 else []):
        want = scalar_checks.chord_code(eng, R)
        assert np.unique(want).tolist() == [0, 1, 2, 3]
        assert np.array_equal(eng._chord_code(R), want)
        scale = rng.integers(1, q, len(R)).astype(np.int16)
        scaled = _columns([eng._mul(scale, R[:, j]) for j in range(6)])
        assert np.array_equal(eng._chord_code(scaled), want)


@pytest.mark.parametrize("q", census.SUPPORTED_Q)
def test_field_ops_match_field_tables(field, q):
    """The Engine's elementwise ops (XOR in characteristic 2, flat-table
    takes otherwise) equal the Field's dense tables on the whole q x q grid,
    with two array operands and with a scalar on either side."""
    f = field(q)
    mul, add, sub, neg = field_ops(f)
    elems = np.arange(q, dtype=np.int16)
    x, y = np.repeat(elems, q), np.tile(elems, q)
    for op, table in ((mul, f.mul_table), (add, f.add_table), (sub, f.sub_table)):
        got = op(x, y)
        assert got.dtype == np.int16
        assert got.tolist() == table.ravel().tolist()
        for c in range(q):
            assert op(c, elems).tolist() == table[c].tolist()
            assert op(elems, c).tolist() == table[:, c].tolist()
    assert neg(elems).tolist() == f.neg_table.tolist()


@pytest.mark.parametrize("q", (49, 64))
def test_normalize_rows_matches_scalar_normalize(field, engine, q):
    f = field(q)
    eng = engine(q)
    rng = np.random.default_rng(q)
    P = rng.integers(0, q, (500, 6)).astype(np.int16)
    P[::7, :3] = 0  # rows whose pivot is further right
    P[P.sum(axis=1) == 0, 5] = 1
    want = [pg3.normalize(f, tuple(r)) for r in P.tolist()]
    for rows in (P, np.asfortranarray(P)):
        assert [tuple(r) for r in eng._normalize_rows(rows).tolist()] == want


@pytest.mark.parametrize("q", (49, 64))
def test_orbit_sweeps_at_large_q(field, model, engine, q):
    """Orbit size times stabilizer order is the group order, the pair is one
    the closed forms allow for the line's class, and the orbit contains the
    line, for a tangent and three seeded random lines."""
    f, m, eng = field(q), model(q), engine(q)
    allowed = census.expected_orbit_pattern(f)
    rng = random.Random(q)
    lines = [m.tangent_of[tw.INF]]
    while len(lines) < 4:
        u, v = ([rng.randrange(q) for _ in range(4)] for _ in range(2))
        if any(pg3.plucker_forms(u, v, f.mul, f.sub)):
            lines.append(pg3.line_through(f, u, v))
    for line in lines:
        cls = tw.classify_line(line, m)
        orbit = eng.orbit_sweep(line)
        stab = len(eng.stabilizer_abcd(line))
        assert len(orbit) * stab == q**3 - q, (q, cls)
        assert (len(orbit), stab) in allowed[cls], (q, cls)
        assert eng.pack_tuple(line.plucker) in orbit.tolist(), (q, cls)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25))
def test_rank_is_the_enumeration_index(engine, q):
    """The rank of every line is its index in the chunked enumeration, whose
    Pluecker vectors come out normalized; unranking inverts it."""
    eng = engine(q)
    lo = 0
    for task in eng._line_tasks():
        P = eng._task_plucker(task)
        assert eng._normalize_rows(P).tolist() == P.tolist()
        ranks = eng._rank(P)
        assert ranks.tolist() == list(range(lo, lo + len(P)))
        assert task[0] == slice(lo, lo + len(P))
        assert eng._unrank(ranks).tolist() == P.tolist()
        lo += len(P)
    assert lo == pg3.line_count(q)


def test_rank_on_seeded_chunks_at_q64(engine):
    eng = engine(64)
    rng = np.random.default_rng(64)
    for c0, c1, slots, offset, size in _pair_blocks(4, 64):
        start = int(rng.integers(0, size))
        idx = np.arange(start, min(start + 5000, size), dtype=np.int64)
        P = eng._plucker(*eng._pair_rows(4, c0, c1, slots, idx))
        assert eng._rank(P).tolist() == (offset + idx).tolist()
        assert eng._rank(P[::-1]).tolist() == (offset + idx[::-1]).tolist()


def _assert_task_plucker_matches_pair_rows(eng, task):
    _ranks, c0, c1, slots, start, stop = task
    want = eng._plucker(*eng._pair_rows(4, c0, c1, slots, np.arange(start, stop)))
    got = eng._task_plucker(task)
    assert got.dtype == want.dtype == np.int16
    assert np.array_equal(got, want), task


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25))
def test_task_plucker_matches_pair_rows(field, q):
    """The chunk rows built from the RREF digits, with the constant 0s and
    1s folded away, equal the full 2 x 2 minors of the RREF row arrays on
    every chunk, whole or partial, of an engine with 64-line chunks."""
    eng = Engine(field(q), chunk=64)
    tasks = eng._line_tasks()
    assert len(tasks) > len(_pair_blocks(4, q)) or q == 2  # at q = 2 no block has 64 lines
    assert any(stop - start < 64 for *_rest, start, stop in tasks)
    for task in tasks:
        _assert_task_plucker_matches_pair_rows(eng, task)


def test_task_plucker_on_seeded_chunks_at_q64(engine):
    eng = engine(64)
    rng = np.random.default_rng(64)
    for c0, c1, slots, offset, size in _pair_blocks(4, 64):
        start = int(rng.integers(0, size))
        stop = min(start + 5000, size)
        task = (slice(offset + start, offset + stop), c0, c1, slots, start, stop)
        _assert_task_plucker_matches_pair_rows(eng, task)


@pytest.mark.parametrize("q", (2, 4, 5, 7, 8, 16, 25))
def test_chunk_polar_matches_normalize_rows(field, q):
    """The polarity pass's one-scalar normalization of a chunk's polar
    images equals the row-by-row normalization on every chunk of an engine
    with 64-line chunks, and leaves the chunk's rows as they were; for odd
    q the scalar is not 1, so the in-place multiply runs."""
    eng = Engine(field(q), chunk=64)
    scaled = 0
    for task in eng._line_tasks():
        P = eng._task_plucker(task)
        polar = eng._polar(P)
        want = eng._normalize_rows(polar)
        got = eng._chunk_polar(P)
        assert got.dtype == np.int16
        assert np.array_equal(got, want), task
        assert np.array_equal(P, eng._task_plucker(task))
        scaled += not np.array_equal(got, polar)
    assert (scaled > 0) == (q % 2 == 1)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_point_rank_is_the_proj_points_index(engine, q):
    eng = engine(q)
    points = eng._proj_points(4)
    assert eng._point_rank(points).tolist() == list(range(pg3.point_count(q)))
    assert eng._point_rank(points[::-1]).tolist() == list(range(pg3.point_count(q)))[::-1]


def test_rank_of_all_lines_is_a_permutation(field, engine):
    eng = engine(5)
    P = np.array([ln.plucker for ln in pg3.all_lines(field(5))], np.int16)
    assert sorted(eng._rank(P).tolist()) == list(range(pg3.line_count(5)))


@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16, 25, 64)), st.data())
def test_rank_round_trip(engine, q, data):
    eng = engine(q)
    ranks = np.array(data.draw(st.lists(
        st.integers(0, pg3.line_count(q) - 1), min_size=1, max_size=20)), np.int64)
    P = eng._unrank(ranks)
    assert eng._normalize_rows(P).tolist() == P.tolist()
    assert eng._klein(P).tolist() == [0] * len(P)
    assert eng._rank(P).tolist() == ranks.tolist()
    line = eng.line_from_rank(int(ranks[0]))
    assert list(line.plucker) == P[0].tolist()


@pytest.mark.parametrize("rank", (5_999_991, -1))
def test_rank_outside_the_universe_is_rejected(engine, rank):
    eng = engine(49)
    with pytest.raises(ValueError, match=f"line rank {rank} is outside \\[0, 5887302\\)"):
        eng.line_from_rank(rank)
    with pytest.raises(ValueError, match=f"line rank {rank} "):
        eng._pairs_of(np.array([0, rank], np.int64))


@pytest.mark.parametrize("q", (5, 9))
def test_class_keys_partition_the_ranks_by_code(engine, q):
    """The codes of every rank take only populated classes, as many of each
    as the class pass's per-chunk bincounts counted."""
    eng = engine(q)
    codes = eng.class_codes()
    assert codes.dtype == np.int8 and len(codes) == pg3.line_count(q)
    got = np.bincount(codes, minlength=len(CODE))
    assert {cls: int(got[CODE[cls]]) for cls in CODE if got[CODE[cls]]} == eng.class_counts()
    for cls, ranks in eng.class_keys().items():
        assert (np.diff(ranks) > 0).all() and len(ranks) == eng.class_counts()[cls]


def _partitions(eng):
    return {cls: eng.orbit_partition_keys(cls)
            for cls in tw.valid_line_classes(eng.field)}


def _polar_counts(eng):
    """The polarity pass's (onto, counts) over every partitioned class."""
    onto, counts = eng.polar_orbit_counts()
    return onto, counts.tolist()


@pytest.mark.parametrize("q", (8, 9, 13))
def test_results_do_not_depend_on_scheduling(field, engine, q):
    """An engine with 64-line chunks, so that many chunks are in flight on
    the pool at once and the threads switch often, agrees with the default
    engine, which classifies these orders inline."""
    small, whole = Engine(field(q), chunk=64), engine(q)
    assert len(small._line_tasks()) > 10 * len(whole._line_tasks())
    # each sweep, too, runs as one task per torus element
    assert len(small._sweep(small.line_from_rank(0))) == q - 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _partitions(small)
        polar = _polar_counts(small) if field(q).xi != 0 else None
    finally:
        sys.setswitchinterval(interval)
    want = _partitions(whole)
    assert small.class_codes().tolist() == whole.class_codes().tolist()
    assert ({cls: ranks.tolist() for cls, ranks in small.class_keys().items()}
            == {cls: ranks.tolist() for cls, ranks in whole.class_keys().items()})
    assert small.klein_violations() == whole.klein_violations() == 0
    assert got == want
    assert small.orbits() == whole.orbits()
    assert small.orbit_labels.tolist() == whole.orbit_labels.tolist()
    if polar is not None:
        assert polar == _polar_counts(whole)


def test_records_do_not_depend_on_the_class_order(field):
    """Partitioning UG first, then the other classes in reverse report
    order, gives every class the records of the report order; only the
    labels move, each orbit's lines keeping one label between them."""
    moved, whole = Engine(field(7)), Engine(field(7))
    classes = tw.valid_line_classes(moved.field)
    got = {cls: moved.orbit_partition_keys(cls) for cls in (tw.UG, *reversed(classes))}
    assert got == _partitions(whole)
    assert moved.orbits() != whole.orbits()
    pairs = np.unique(np.stack([moved.orbit_labels, whole.orbit_labels]), axis=1)
    m = len(whole.orbits())
    assert pairs.shape[1] == len(set(pairs[0])) == len(set(pairs[1])) == m
    assert [moved.orbits()[i] for i in pairs[0]] == [whole.orbits()[j] for j in pairs[1]]


def test_in_order_keeps_task_order_and_stops_after_a_failure():
    """Results come back in task order however the threads took the tasks;
    a failing task raises in the caller, and no task starts after it."""
    assert bulk._in_order(lambda t: t * t, list(range(200))) == [t * t for t in range(200)]
    started = []

    def fail_at_3(t):
        started.append(t)
        if t == 3:
            raise ValueError("task 3")
        time.sleep(0.01)
    with pytest.raises(ValueError, match="task 3"):
        bulk._in_order(fail_at_3, list(range(100)))
    assert 3 in started and len(started) < 10


def test_split_sweeps_match_one_pass_over_the_group(engine):
    """At q = 49 the stabilizer filter cuts the group into slices and the
    sweep cuts the torus into slices; the sweep, its image ranks (one per
    element, so its fixer count is the stabilizer order the partition
    records) and the stabilizer equal their one-pass forms over the group."""
    eng = engine(49)
    n = eng.group_order
    parts = eng._over_group(lambda sel: (sel.start, sel.stop))
    assert len(parts) == (2 * bulk.WORKERS if bulk.WORKERS > 1 else 1)
    assert parts[0][0] == 0 and parts[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
    abcd = eng.group_abcd()
    rng = random.Random(49)
    for rank in rng.sample(range(pg3.line_count(49)), 3):
        line = eng.line_from_rank(rank)
        u, v = line.pair
        P = eng._normalize_rows(eng._plucker(eng._act_all(u), eng._act_all(v)))
        assert eng.orbit_sweep(line).tolist() == sorted_unique(eng.pack(P)).tolist()
        slices = eng._sweep(line)
        assert len(slices) > 1
        ranks = np.concatenate([r for pieces, _key in slices for r in pieces])
        assert np.sort(ranks).tolist() == np.sort(eng._rank(P)).tolist()
        fixed = np.flatnonzero(eng._rank(P) == rank)
        stab = eng.stabilizer_abcd(line)
        assert stab == sorted(map(tuple, abcd[fixed].tolist()))
        assert np.count_nonzero(ranks == rank) == len(stab)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_torus_split_meets_every_group_element_once(field, q):
    """The sweeps' split: every lift in R (the coset representatives whose
    rows (a, b) and (c, d) start with 1) times every lift of the torus
    (1, 0, 0, d) is, up to a scalar, one group lift, each met once.  The
    (a, b, c, d) whose columns (a, c) and (b, d) start with 1 are as many,
    so only the products can tell that they are no transversal (q > 2; at
    q = 2 the torus is trivial and both sets are the group)."""
    f = field(q)
    eng = Engine(f)
    abcd, mats = eng._group_arrays()
    reps = eng._split[0]
    torus = [act.lift_rows(f, 1, 0, 0, d, f.mul, f.add) for d in f.units()]
    assert len(reps) * len(torus) == eng.group_order

    def met(lifts):
        return Counter(pg3.normalize(f, tuple(x for r in lift for x in act.mat_vec(f, r, t)))
                       for lift in lifts.tolist() for t in torus)
    group = Counter(pg3.normalize(f, tuple(np.ravel(m).tolist())) for m in mats)
    assert len(group) == eng.group_order
    assert met(reps) == group
    a, b, c, d = abcd.T
    cols = mats[((a == 1) | ((a == 0) & (c == 1))) & ((b == 1) | ((b == 0) & (d == 1)))]
    assert len(cols) == len(reps)
    assert (met(cols) == group) == (q == 2)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 27))
def test_sweep_ranks_read_off_the_tables_match_the_images(engine, q):
    """The ranks a sweep reads off the split tables are, as a multiset, the
    ranks of the line's images under every group element, and its minimal
    key is the least packed image.  The seeds are the first line of each
    pivot block, which the identity representative keeps, and random lines,
    so the representative images reach every block."""
    eng = engine(q)
    seeds = [offset for *_pivots, offset, _size in _pair_blocks(4, q)]
    seeds += random.Random(q).sample(range(pg3.line_count(q)), 4)
    reached = set()
    for rank in seeds:
        line = eng.line_from_rank(rank)
        reached |= set(eng._rep_images(line)[0].tolist())
        u, v = line.pair
        P = eng._normalize_rows(eng._plucker(eng._act_all(u), eng._act_all(v)))
        parts = eng._sweep(line)
        ranks = np.concatenate([r for pieces, _key in parts for r in pieces])
        assert np.sort(ranks).tolist() == np.sort(eng._rank(P)).tolist()
        assert min(key for _pieces, key in parts) == eng._pack(P).min()
    assert reached == set(range(len(pg3.PAIR_IDX)))


def test_tail_tasks_write_disjoint_rank_ranges(field, monkeypatch):
    """At q = 49 a sweep runs as several torus slices, and each cuts its
    ranks into the two rank ranges of the tail tasks, which are disjoint and
    cover [0, line_count).  A sweep patched to meet a line of another class,
    or a line of an orbit already found, raises ValueError, adds no orbit and
    leaves every line unlabelled, so the unpatched partition then succeeds."""
    eng = Engine(field(49))
    n = pg3.line_count(49)
    slices, cuts = eng._torus_slices()
    assert len(slices) > 1 and cuts == [0, n // 2, n]
    codes = eng.class_codes()
    members = np.flatnonzero(codes == CODE[tw.UNG])
    parts = eng._sweep(eng.line_from_rank(members[0]))
    assert len(parts) == len(slices)
    for pieces, _key in parts:
        assert len(pieces) == 2
        for lo, hi, ranks in zip(cuts, cuts[1:], pieces):
            assert ((ranks >= lo) & (ranks < hi)).all()
    sweep = Engine._sweep

    def meeting(rank):
        def patched(eng, line):
            (pieces, key), *rest = sweep(eng, line)
            at = int(rank >= cuts[1])
            pieces[at] = np.append(pieces[at], np.int32(rank))
            return [(pieces, key), *rest]
        return patched
    other = np.flatnonzero(codes == CODE[tw.RC])[0]
    for rank, error in ((other, "not closed"), (members[0], "already found")):
        monkeypatch.setattr(Engine, "_sweep", meeting(rank))
        with pytest.raises(ValueError, match=error):
            eng.orbit_partition_keys(tw.UNG)
        assert eng.orbits() == []
        assert (eng.orbit_labels == -1).all()
    monkeypatch.undo()
    assert [size for size, _stab, _rep in eng.orbit_partition_keys(tw.UNG)] == [58800, 58800]


@pytest.mark.parametrize("q", (5, 8))
def test_sweeps_leave_the_arrays_they_read_unchanged(field, monkeypatch, q):
    """_lincomb hands back an input column itself when its only nonzero
    scalar is 1: the sweeps, the stabilizer filter, the partition, the
    triple images and the plane census leave the group arrays, the sweeps'
    split tables and the points of PG(3,q) as they were."""
    eng = Engine(field(q))
    points = eng._proj_points(4)
    real = eng._proj_points
    monkeypatch.setattr(eng, "_proj_points", lambda n: points if n == 4 else real(n))
    arrays = (points, *eng._group_arrays(), *eng._split)
    before = [a.copy() for a in arrays]
    for rank in (0, pg3.line_count(q) // 2):  # rank 0 joins two unit points
        line = eng.line_from_rank(rank)
        eng.orbit_sweep(line)
        eng.stabilizer_abcd(line)
    eng.orbit_partition_keys(tw.ENG)
    eng.triple_images(eng.cubic_points[:3])
    eng.plane_class_counts()
    assert all(x is y for x, y in zip((*eng._group_arrays(), *eng._split), arrays[1:]))
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


def test_pool_is_shared_and_has_no_setting(engine, capsys):
    """Repeated verifies and a large sweep reuse one pool of at most two
    threads, and the CLI offers no thread or worker option."""
    census.verify(8)
    census.verify(8)
    for eng in (engine(49), Engine(engine(49).field)):
        eng.orbit_sweep(eng.line_from_rank(0))
    assert threading.active_count() <= 1 + bulk._worker_count()
    with pytest.raises(SystemExit):
        cli.main(["census", "--help"])
    text = capsys.readouterr().out.lower()
    assert "--q" in text
    assert "thread" not in text and "worker" not in text


@pytest.mark.parametrize("q", (81, max(census.SUPPORTED_Q)))
def test_integer_headroom(q):
    """The fixed-width integers of the engine hold their largest values at
    q = 81 (the next order to support) and at every supported order."""
    xi = {0: 0, 1: 1, 2: -1}[q % 3]
    assert (q - 1) * q + (q - 1) < 2**15  # int16 index into a flat field table
    assert q**6 < 2**63  # int64 packed key of a Pluecker vector
    assert census.expected_total_orbit_count(q, xi) < 2**15  # int16 orbit labels
    assert (q + 1) ** 3 < 2**63  # int64 code of a triple of cubic points
    assert q**4 < 2**31  # int32 free entries of a chunk's lines
    assert pg3.line_count(q) < 2**31  # int32 line ranks sorted in a sweep


def test_worker_count_falls_back_to_the_cpu_count(monkeypatch):
    """Where os.sched_getaffinity is missing (macOS, Windows) the cores are
    os.cpu_count(), still capped at two, and one when it is unknown."""
    assert bulk.WORKERS == bulk._worker_count()
    monkeypatch.delattr(os, "sched_getaffinity")
    for cores, workers in ((7, 2), (2, 2), (1, 1), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert bulk._worker_count() == workers
