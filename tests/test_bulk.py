import os
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twistedcubic import action as act
from twistedcubic import bulk, census, cli, pg3, twisted as tw
from twistedcubic.bulk import CODE, Engine, _pair_blocks, field_ops, sorted_unique

AGREE_Q = (2, 3, 4, 5, 7, 8, 9)


def class_counts(eng):
    return {cls: len(ranks) for cls, ranks in eng.class_keys().items()}


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
                for r in scalar] == bulk.records


def test_orbit_partition_rejects_unclosed_keys(field, model):
    eng = Engine(field(5), model(5))
    eng.class_codes()[eng.class_keys()[tw.UNG][10]] = CODE[tw.ENG]
    with pytest.raises(ValueError):
        eng.orbit_partition_keys(tw.UNG)


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


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(0)
    for n in (0, 1, 2, 1000):
        vals = rng.integers(0, 50, n).astype(np.int64)
        assert sorted_unique(vals).tolist() == np.unique(vals).tolist()


def test_class_counts_match_closed_forms_larger_q(engine):
    for q in (11, 13, 16):
        eng = engine(q)
        assert class_counts(eng) == tw.expected_class_sizes(eng.field)
        assert eng.klein_violations() == 0


def test_tiny_chunks_split_enumeration_consistently(field, model, engine):
    eng = Engine(field(5), model(5), chunk=100)
    assert class_counts(eng) == class_counts(engine(5))
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


@pytest.mark.parametrize("q", (5, 9))
def test_class_keys_partition_the_ranks_by_code(engine, q):
    eng = engine(q)
    keys = eng.class_keys()
    assert np.sort(np.concatenate(list(keys.values()))).tolist() == \
        list(range(pg3.line_count(q)))
    for cls, ranks in keys.items():
        assert ranks.dtype == np.int32 and (np.diff(ranks) > 0).all()
        assert (eng.class_codes()[ranks] == CODE[cls]).all(), cls


def _partitions(eng):
    return {cls: eng.orbit_partition_keys(cls)
            for cls in tw.valid_line_classes(eng.field)}


def _polar_counts(eng, partitions):
    """The polarity pass's (exchange, counts), with its arguments built as
    CensusRun.polarity_images builds them."""
    polar_code = np.zeros(len(CODE), np.int8)
    orbit_id = np.zeros(len(CODE), np.int64)
    m = 0
    for src, dst in census.POLAR_CLASS.items():
        polar_code[CODE[src]] = CODE[dst]
        orbit_id[CODE[src]] = m
        m += len(partitions[src].records)
    exchange, counts = eng.polar_orbit_counts(polar_code, orbit_id, m)
    return exchange, counts.tolist()


@pytest.mark.parametrize("q", (8, 9, 13))
def test_results_do_not_depend_on_scheduling(field, model, engine, q):
    """An engine with 64-line chunks, so that many chunks are in flight on
    the pool at once and the threads switch often, agrees with the default
    engine, which classifies these orders inline."""
    small, whole = Engine(field(q), model(q), chunk=64), engine(q)
    assert len(small._line_tasks()) > 10 * len(whole._line_tasks())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _partitions(small)
        polar = _polar_counts(small, got) if field(q).xi != 0 else None
    finally:
        sys.setswitchinterval(interval)
    want = _partitions(whole)
    assert small.class_codes().tolist() == whole.class_codes().tolist()
    assert ({cls: ranks.tolist() for cls, ranks in small.class_keys().items()}
            == {cls: ranks.tolist() for cls, ranks in whole.class_keys().items()})
    assert small.klein_violations() == whole.klein_violations() == 0
    assert got == want
    assert small.orbit_labels.tolist() == whole.orbit_labels.tolist()
    if polar is not None:
        assert polar == _polar_counts(whole, want)


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
    """At q = 49 the group is cut into slices; the sweep and the stabilizer
    equal their one-pass forms over the whole group."""
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
        fixed = np.flatnonzero(eng._rank(P) == rank)
        assert eng.stabilizer_abcd(line) == sorted(map(tuple, abcd[fixed].tolist()))


def test_pool_is_shared_and_has_no_setting(engine, capsys):
    """Repeated verifies and a large sweep reuse one pool of at most two
    threads, and the CLI offers no thread or worker option."""
    census.verify(8)
    census.verify(8)
    for eng in (engine(49), Engine(engine(49).field, engine(49).model)):
        eng.orbit_sweep(eng.line_from_rank(0))
    assert threading.active_count() <= 1 + min(2, len(os.sched_getaffinity(0)))
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
    assert pg3.line_count(q) < 2**31  # int32 class ranks
