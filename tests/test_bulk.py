import pathlib
import random
import threading
import tokenize
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scalar_checks
from twistedcubic import action as act
from twistedcubic import bulk, census, cli, gfq, pg3, twisted as tw
from twistedcubic.bulk import CODE, Engine, _columns, _layout, field_ops, sorted_unique

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
    eng.line_cells()[scalar_checks.cell_of_rank(eng, eng.class_keys()[tw.UNG][10])] = ~CODE[tw.ENG]
    with pytest.raises(RuntimeError):
        eng.orbit_partition_keys(tw.UNG)


def test_a_failed_partition_adds_no_orbit(field):
    """When the second sweep of UnG meets a line coded outside the class, the
    call raises, the orbit of the first sweep stays out of the orbit list,
    and a second call raises again instead of returning part of the class."""
    whole = Engine(field(5))
    whole.orbit_partition_keys(tw.UNG)
    eng = Engine(field(5))
    eng.line_cells()[np.flatnonzero(whole.line_cells() == 1)[-1]] = ~CODE[tw.ENG]
    for _ in range(2):
        with pytest.raises(RuntimeError):
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
        assert eng.stabilizer_abcd(line) == act.stabilizer(f, line)


def test_plane_counts_closed_forms(engine):
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        eng = engine(q)
        n = q**3 - q
        assert eng.plane_class_counts() == {
            "gamma": q + 1, "2C": q * q + q, "3C": n // 6,
            "1C": n // 2, "0C": n // 3,
        }


@pytest.mark.parametrize("q", [q for q in census.SUPPORTED_Q if q <= 32] + [49, 64])
def test_plane_counts_match_the_whole_space_scan(engine, q):
    eng = engine(q)
    assert eng.plane_class_counts() == scalar_checks.plane_class_counts(eng)


def test_plane_counts_hold_no_per_plane_array_but_the_counts(engine):
    """The plane census ranks the planes through each cubic point, the span
    of one plane basis, into one int16 count per plane: at q = 32 a warm
    call's tracemalloc peak stays under 8 bytes per plane (37 when every
    plane was built and tested against every cubic point)."""
    eng = engine(32)
    eng.plane_class_counts()
    tracemalloc.start()
    try:
        eng.plane_class_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * pg3.point_count(32)


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
        assert sorted_unique(vals.copy()).tolist() == np.unique(vals).tolist()
    vals = rng.permutation(1000)
    assert sorted_unique(vals) is vals and (np.diff(vals) == 1).all()  # sorted in place


def test_class_counts_match_closed_forms_larger_q(engine):
    for q in (11, 13, 16):
        eng = engine(q)
        assert eng.class_counts() == tw.expected_class_sizes(eng.field)
        assert eng.klein_violations() == 0


def test_tiny_chunks_split_enumeration_consistently(field, engine):
    eng = Engine(field(5), chunk=100)
    assert eng.class_counts() == engine(5).class_counts()
    assert eng.line_cells().tolist() == Engine(field(5)).line_cells().tolist()
    for cls, keys in eng.class_keys().items():
        assert keys.tolist() == engine(5).class_keys()[cls].tolist()


def _assert_cells_match_the_per_line_pass(eng):
    cells, sizes, bad = scalar_checks.line_cells(Engine(eng.field))
    got = eng.line_cells()
    assert all(scalar_checks.over_lines(
        eng, lambda ranks, P: np.array_equal(got[eng._cell_of(P)[0]], cells[ranks])))
    assert eng._class_sizes.tolist() == sizes.tolist()
    assert eng.class_counts() == {cls: int(sizes[CODE[cls]])
                                  for cls in tw.valid_line_classes(eng.field)}
    assert eng.klein_violations() == bad == 0


@pytest.mark.parametrize("q", [q for q in census.SUPPORTED_Q if q <= 32] + [49, 64])
def test_line_cells_match_the_per_line_pass(field, q):
    """The class pass, which classifies one line per cell, gives each line
    the ~code, in its cell, and the class sizes and Klein count of the pass
    that classifies every line over the flags of the star and pair
    reference."""
    _assert_cells_match_the_per_line_pass(Engine(field(q)))


@pytest.mark.parametrize("q", (7, 8, 9, 13))
def test_class_pass_shares_out_only_small_chunks(field, q):
    """Cells that fit in one chunk are classified in one slice; with 64-cell
    chunks the pass runs over many slices of 64 cells, and the cells still
    match."""
    assert len(Engine(field(q))._tasks()) == 1
    small = Engine(field(q), chunk=64)
    _assert_cells_match_the_per_line_pass(small)
    assert len(small._tasks()) > 12


@pytest.mark.parametrize("q", (7, 8, 9))
def test_klein_count_covers_every_line(field, monkeypatch, q):
    """With a Klein form that no line satisfies, every line counts as a
    violation, a generic cell's q - 1 lines through its one row."""
    monkeypatch.setattr(Engine, "_klein", lambda self, P: np.ones(len(P), np.int16))
    assert Engine(field(q)).klein_violations() == pg3.line_count(q)


@pytest.mark.parametrize("q", [q for q in census.SUPPORTED_Q if q <= 32] + [49, 64])
def test_model_flags_match_the_star_and_pair_reference(field, q):
    """The flags from one plane construction and its dual, one per cell,
    equal those from the joins of each cubic point and the RREF 2 x 3
    matrices mapped into each osculating plane, bit for bit, in the cell of
    every line."""
    eng = Engine(field(q))
    flags, want = eng._model_flags(), scalar_checks.model_flags(eng)
    assert all(scalar_checks.over_lines(
        eng, lambda ranks, P: np.array_equal(flags[eng._cell_of(P)[0]], want[ranks])))


@pytest.mark.parametrize("q", (3, 9, 27))
def test_the_a_cell_is_the_axis(field, q):
    """With no AXIS flag, the class pass finds class A by comparing each
    normalized row with the axis: its one cell is the axis's, a special
    cell of one line."""
    eng = Engine(field(q))
    axis = eng._cell_of(np.array([eng.axis_plucker], np.int16))[0]
    assert np.flatnonzero(eng.line_cells() == ~CODE[tw.A]).tolist() == axis.tolist()
    assert eng.class_counts()[tw.A] == 1


def test_every_module_stays_below_the_parser_token_step():
    """CPython's parser doubles its token array past 8,192 tokens, raising
    the peak of compiling a module, which every process that compiles the
    package from source pays at import."""
    modules = sorted(pathlib.Path(bulk.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        with open(path, "rb") as src:
            tokens = [tok for tok in tokenize.tokenize(src.readline)
                      if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
        assert len(tokens) < 8192, path.name


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
    for task in scalar_checks.line_tasks(eng):
        P = eng._task_plucker(task, eng._blocks)
        assert eng._normalize_rows(P).tolist() == P.tolist()
        ranks = eng._rank(P)
        assert ranks.tolist() == list(range(lo, lo + len(P)))
        assert task == slice(lo, lo + len(P))
        assert eng._unrank(ranks).tolist() == P.tolist()
        lo += len(P)
    assert lo == pg3.line_count(q)


def test_rank_on_seeded_chunks_at_q64(engine):
    eng = engine(64)
    rng = np.random.default_rng(64)
    for _c0, _c1, _slots, offset, size, _exps in _layout(64)[0]:
        start = int(rng.integers(0, size))
        idx = np.arange(start, min(start + 5000, size), dtype=np.int64)
        P = eng._unrank(offset + idx)
        assert eng._rank(P).tolist() == (offset + idx).tolist()
        assert eng._rank(P[::-1]).tolist() == (offset + idx[::-1]).tolist()


@pytest.mark.parametrize("q", census.SUPPORTED_Q)
def test_layout_blocks_tile_the_ranks_in_pair_order(q):
    """Block i of the rank layout holds the RREF matrices led by coordinate
    i of PAIR_IDX, each block starting where the last ends, from 0 to
    line_count(q)."""
    blocks = _layout(q)[0]
    assert [(c0, c1) for c0, c1, *_rest in blocks] == list(pg3.PAIR_IDX)
    ends = [0]
    for c0, c1, slots, offset, size, exps in blocks:
        assert slots == pg3.rref_slots(c0, c1, 4) and size == q ** len(slots)
        assert offset == ends[-1] and len(exps) == len(slots)
        ends.append(offset + size)
    assert ends[-1] == pg3.line_count(q)
    assert blocks[0][5] == [2, 3, 1, 2]  # (1, 0, 0, d) maps (a, b, c, d) to (d^2 a, d^3 b, d c, d^2 d)


@pytest.mark.parametrize("q", census.SUPPORTED_Q)
def test_cell_sub_blocks_tile_the_cells_in_block_order(q):
    """The cells' sub-blocks follow the blocks in order, each starting where
    the last ends, from 0 to 2q^3 + q^2 + 6q + 3 cells; a generic sub-block
    fixes a block's exponent-1 digits to 0s, then a 1, and holds q - 1 lines
    per cell, a special one fixes them all to 0 and holds one; the lines sum
    to line_count(q), as the lines of each cell do; the starts table names
    each sub-block's offset by its block and the digit it fixes to 1 (4 for
    the special one)."""
    blocks, cells, starts, lines = _layout(q)
    assert [(c0, c1) for c0, c1, *_rest in cells] == [
        pair for pair, n in zip(pg3.PAIR_IDX, (2, 3, 2, 2, 2, 1)) for _ in range(n)]
    end = 0
    for c0, c1, slots, offset, size, n in cells:
        assert offset == end
        end += size
        lead = pg3.PAIR_IDX.index((c0, c1))
        ones = [k for k, e in enumerate(blocks[lead][5]) if e == 1]
        fixed = [slots[k] for k in ones]
        if 1 in fixed:
            k = fixed.index(1)
            assert fixed[:k] == [0] * k and n == q - 1 and starts[lead, ones[k]] == offset
        else:
            assert fixed == [0] * len(ones) and n == 1 and starts[lead, 4] == offset
        assert size == q ** sum(isinstance(x, tuple) for x in slots)
    assert end == 2 * q**3 + q**2 + 6 * q + 3
    assert sum(size * n for *_rest, size, n in cells) == lines.sum() == pg3.line_count(q)
    assert lines.tolist() == [n for *_rest, size, n in cells for _ in range(size)]


@pytest.mark.parametrize("q", (2, 3, 8, 9, 64))
def test_block_view_entry_is_the_cell_at_the_rank_of_its_digits(engine, q):
    """In pivot block (0, 1), viewed by its digits (a, b, c, d), the line
    spanned by the RREF rows (1, 0, a, b), (0, 1, c, d) has its cell at the
    index of its canonical digits, read base q in its sub-block: (a s^2,
    b s^3, d s^2), s = 1 / c, in the cells of c = 1 when c != 0, (a, b, d) in
    those of c = 0, which follow them; the cell's canonical line is the one
    with those digits, for seeded digits."""
    eng = engine(q)
    f = eng.field
    digits = np.random.default_rng(q).integers(0, q, (50, 4)).tolist() + [[0] * 4, [q - 1] * 4]
    for a, b, c, d in digits:
        U, V = (np.array([row], np.int16) for row in ((1, 0, a, b), (0, 1, c, d)))
        cell = eng._cell_of(eng._normalize_rows(eng._plucker(U, V)))[0]
        if c:
            s = f.inv(c)
            a, b, d = (f.mul(x, f.power(s, e)) for x, e in ((a, 2), (b, 3), (d, 2)))
        assert cell.tolist() == [(0 if c else q**3) + (a * q + b) * q + d]
        U, V = (np.array([row], np.int16) for row in ((1, 0, a, b), (0, 1, int(c != 0), d)))
        assert scalar_checks.canonical_lines(eng, cell).tolist() == eng._plucker(U, V).tolist()


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9, 64))
def test_every_line_has_the_cell_of_its_canonical_torus_image(engine, q):
    """Each line's cell is that of its canonical torus image (the images
    are scalar_checks.torus_images): a generic line, with a nonzero unit,
    has its cell in a generic sub-block, shared by its q - 1 distinct torus
    images, one of which, with unit 1, is the cell's canonical line; a
    special line, with unit 0, is its own cell's line, one line per cell.
    At q = 2 the torus is trivial and every line its own image.  Every
    line, or at q = 64 seeded lines."""
    eng = engine(q)
    n = pg3.line_count(q)
    ranks = np.arange(n) if q < 64 else np.random.default_rng(q).integers(0, n, 4000)
    P = eng._unrank(ranks)
    cells, units = eng._cell_of(P)
    sub = np.searchsorted([s[3] for s in eng._subs], cells, "right") - 1
    generic = np.array([1 in s[2] for s in eng._subs])[sub]
    lines = np.array([s[5] for s in eng._subs])[sub]
    assert np.array_equal(units != 0, generic) and generic.any() and (~generic).any()
    assert (lines[generic] == q - 1).all() and (lines[~generic] == 1).all()
    images = scalar_checks.torus_images(eng, P)
    for image in images:
        assert np.array_equal(eng._cell_of(image)[0][generic], cells[generic])
    image_ranks = eng._rank(images.reshape(-1, 6)).reshape(q - 1, len(P))
    assert [len(set(col)) for col in image_ranks[:, generic].T.tolist()] == [q - 1] * generic.sum()
    canon = scalar_checks.canonical_lines(eng, cells)
    assert (image_ranks == eng._rank(canon)).any(axis=0).all()
    assert np.array_equal(canon[~generic], P[~generic])
    assert np.array_equal(eng._cell_of(canon)[1], generic.astype(np.int16))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9, 64))
def test_partition_matches_the_per_line_reference(engine, q):
    """Each orbit record's size is the number of distinct lines among its
    representative's images under every group element, and its stabilizer
    order the number of elements that keep both of its points on it
    (scalar_checks, one lift per element); at q = 64 for the classes other
    than EnG."""
    eng = engine(q)
    group = scalar_checks.whole_group(eng)
    classes = [c for c in tw.valid_line_classes(eng.field) if q < 64 or c != tw.ENG]
    for cls in classes:
        for size, stab, rep in eng.orbit_partition_keys(cls):
            line = eng.line_from_key(rep)
            images = scalar_checks.line_images(eng, group[1], line)
            assert size == len(np.unique(eng._rank(images))), (cls, rep)
            assert stab == len(scalar_checks.stabilizer_abcd(eng, group, line)), (cls, rep)


def test_sweep_digit_tables_are_the_scaled_rank_weights(engine):
    """The split's keyed tables, through which orbit_sweep reads its keys,
    and its digit tables, through which triple_images reads its point
    ranks, are the transposed torus scale table times the weights q^4, ...,
    1 and q^3, ..., 1, as int32 and without a wrapped entry up to q = 64."""
    for q in (8, 49, 64):
        eng = engine(q)
        scale, keyed, digit = (eng._group_arrays()[k] for k in (2, 3, 4))
        assert keyed.dtype == digit.dtype == np.int32
        for table, top in ((keyed, 4), (digit, 3)):
            weights = q ** np.arange(top, -1, -1)
            assert np.array_equal(table, weights[:, None, None] * scale.T.astype(np.int64))


def _assert_task_plucker_matches_unrank(eng, task, blocks):
    want = eng._plucker(*eng._pairs_of(np.arange(task.start, task.stop), blocks))
    got = eng._task_plucker(task, blocks)
    assert got.dtype == want.dtype == np.int16
    assert np.array_equal(got, want), task


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25))
def test_task_plucker_matches_pair_rows(field, q):
    """The chunk rows built from the RREF digits, with the constant 0s and
    1s folded away, equal the full 2 x 2 minors (_unrank) of their ranks on
    every chunk of 64 ranks, across blocks and in the last partial one, and
    of their cells on every chunk of 64 cells, across the sub-blocks, whose
    fixed digits are Python ints; there the canonical lines of pivot block
    (0, 1) with c fixed to 1 or 0 are its lines of that c, ranked by (a, b,
    d)."""
    eng = Engine(field(q), chunk=64)
    tasks = scalar_checks.line_tasks(eng)
    assert len(tasks) == -(-pg3.line_count(q) // 64) and tasks[-1].stop - tasks[-1].start < 64
    for task in tasks:
        _assert_task_plucker_matches_unrank(eng, task, eng._blocks)
    for task in eng._tasks():
        _assert_task_plucker_matches_unrank(eng, slice(task.start, min(task.stop, len(eng._lines))),
                                            eng._subs)
    ranks = np.arange(q**4).reshape((q,) * 4)  # block (0, 1) by its digits (a, b, c, d)
    for c, sub in zip((1, 0), eng._subs):
        got = eng._task_plucker(slice(sub[3], sub[3] + q**3), eng._subs)
        assert np.array_equal(got, eng._unrank(ranks[:, :, c].ravel()))


def test_task_plucker_on_seeded_chunks_at_q64(engine):
    eng = engine(64)
    rng = np.random.default_rng(64)
    for block in _layout(64)[0]:
        offset, size = block[3:5]
        start = int(rng.integers(0, size))
        _assert_task_plucker_matches_unrank(
            eng, slice(offset + start, offset + min(start + 5000, size)), eng._blocks)


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
def test_class_keys_partition_the_ranks_by_code(field, q):
    """The codes the class pass writes, as ~code, into the cell of every
    torus orbit take only populated classes, with as many lines of each,
    q - 1 per generic cell, as its per-chunk bincounts counted; the class
    keys are the ranks of the lines whose cells hold each code, read off the
    ~codes before the partition and off the orbit labels after it."""
    eng = Engine(field(q))
    codes = ~eng.line_cells()
    assert codes.dtype == np.int16 and len(codes) == 2 * q**3 + q**2 + 6 * q + 3
    got = np.bincount(codes, weights=eng._lines, minlength=len(CODE)).astype(int)
    assert {cls: int(got[CODE[cls]]) for cls in CODE if got[CODE[cls]]} == eng.class_counts()
    keys = eng.class_keys()
    for cls, ranks in keys.items():
        assert (np.diff(ranks) > 0).all() and len(ranks) == eng.class_counts()[cls]
        assert (codes[scalar_checks.cell_of_rank(eng, ranks)] == CODE[cls]).all()
    _partitions(eng)
    assert (eng.line_cells() >= 0).all()
    assert {cls: r.tolist() for cls, r in eng.class_keys().items()} == {
        cls: r.tolist() for cls, r in keys.items()}


def _partitions(eng):
    return {cls: eng.orbit_partition_keys(cls)
            for cls in tw.valid_line_classes(eng.field)}


def _polar_counts(eng, polarize=Engine.polar_orbit_counts):
    """The polarity pass's (onto, counts) over every partitioned class, or
    those of another pass with its signature."""
    onto, counts = polarize(eng)
    return onto, counts.tolist()


@pytest.mark.parametrize("q", [q for q in census.SUPPORTED_Q if q <= 32 and q % 3])
def test_polar_pass_matches_the_row_by_row_pass(field, engine, q):
    """The pass that maps one canonical line per cell gives the (onto,
    counts) of the pass that ranks every line's polar image, on the default
    engine and on one with 64-cell chunks, which reads the same partition in
    many more slices."""
    whole = engine(q)
    _partitions(whole)
    want = _polar_counts(whole, scalar_checks.polar_orbit_counts)
    assert want[0]
    small = Engine(field(q), chunk=64)
    small._cells, small._class_sizes, small._orbits = (
        whole.line_cells(), whole._class_sizes, whole._orbits)
    assert _polar_counts(whole) == _polar_counts(small) == want


def test_polar_pass_rejects_a_polarity_that_does_not_permute_the_digits(field, monkeypatch):
    """With a unit other than 3 on l02 in the polar map, the image of a
    pivot-(0, 1) line no longer keeps its c digit: the pass still counts
    what the row-by-row pass counts, and the census's class exchange and
    orbit image verdicts read false."""
    run = census.CensusRun(5)
    run.all_orbit_records()
    polar = Engine._polar

    def skewed(self, P):
        img = polar(self, P)
        img[:, 1] = self._mul(2, img[:, 1])  # 3 * 2 = 1 in GF(5)
        return img
    monkeypatch.setattr(Engine, "_polar", skewed)
    assert _polar_counts(run.engine) == _polar_counts(run.engine, scalar_checks.polar_orbit_counts)
    assert run.polarity_images() == (False, False)


def test_polar_pass_holds_no_per_line_array(field):
    """At q = 32 the pass allocates less than one byte per line at its
    peak: it keeps no mask or index over all lines.  The chunks are small
    (4096 lines), so that their temporaries stay well below that."""
    eng = Engine(field(32), chunk=1 << 12)
    _partitions(eng)
    tracemalloc.start()
    try:
        onto, _counts = eng.polar_orbit_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert onto
    assert peak < pg3.line_count(32)


@pytest.mark.parametrize("q", (8, 9, 13))
def test_results_do_not_depend_on_the_chunk_size(field, engine, q):
    """An engine with 64-line chunks, which classifies and polarizes in many
    slices, agrees with the default engine, which takes these orders in
    one slice."""
    small, whole = Engine(field(q), chunk=64), engine(q)
    assert len(small._tasks()) > 2 * len(whole._tasks())
    got = _partitions(small)
    polar = _polar_counts(small) if field(q).xi != 0 else None
    want = _partitions(whole)
    assert ({cls: ranks.tolist() for cls, ranks in small.class_keys().items()}
            == {cls: ranks.tolist() for cls, ranks in whole.class_keys().items()})
    assert small.klein_violations() == whole.klein_violations() == 0
    assert got == want
    assert small.orbits() == whole.orbits()
    # with the orbits, equal labels give every line the same class
    assert small.line_cells().tolist() == whole.line_cells().tolist()
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
    pairs = np.unique(np.stack([moved.line_cells(), whole.line_cells()]), axis=1)
    m = len(whole.orbits())
    assert pairs.shape[1] == len(set(pairs[0])) == len(set(pairs[1])) == m
    assert [moved.orbits()[i] for i in pairs[0]] == [whole.orbits()[j] for j in pairs[1]]


def _assert_sweep_cells_are_the_images_cells(eng, images, P):
    """The cells a sweep reads off the representatives' images, each generic
    one counted for its q - 1 elements, are those of the images P under
    every element, with their multiplicities."""
    met = eng._image_cells(images)[0]
    n = len(eng._lines)
    got = np.bincount(met, eng._lines[met], minlength=n)
    assert np.array_equal(got, np.bincount(eng._cell_of(P)[0], minlength=n))
    return met


def test_split_sweeps_match_one_pass_over_the_group(engine):
    """At q = 49 the keys of orbit_sweep, the cells of a partition sweep
    (whose entries that hold the line's cell count its fixers), the least
    key and the stabilizer equal their one-pass forms over the whole group."""
    eng = engine(49)
    abcd, mats = scalar_checks.whole_group(eng)
    rng = random.Random(49)
    for rank in rng.sample(range(pg3.line_count(49)), 3):
        line = eng.line_from_rank(rank)
        P = scalar_checks.line_images(eng, mats, line)
        assert eng.orbit_sweep(line).tolist() == sorted_unique(eng.pack(P)).tolist()
        images = eng._rep_images(line.pair)
        met = _assert_sweep_cells_are_the_images_cells(eng, images, P)
        assert eng._least_key(*images) == eng.pack(P).min()
        fixed = np.flatnonzero(eng._rank(P) == rank)
        stab = eng.stabilizer_abcd(line)
        assert stab == sorted(map(tuple, abcd[fixed].tolist()))
        assert np.count_nonzero(met == scalar_checks.cell_of_rank(eng, rank)) == len(stab)


@pytest.mark.parametrize("q", (64, 67, 81))
def test_orbit_sweep_keys_are_int32_up_to_q_64(engine, q):
    """A key is below 2q^5, so orbit_sweep returns int32 keys up to q = 64,
    where they come within 2^16 of 2^31, and int64 ones at q = 67 and 81,
    where they pass it: on seeded lines, the keys equal the sorted unique
    int64 keys of the line's images (_torus_rows of _rep_images, packed)."""
    eng = engine(q) if q in census.SUPPORTED_Q else Engine(gfq.make_field(q))
    top = 0
    for rank in random.Random(q).sample(range(pg3.line_count(q)), 2):
        line = eng.line_from_rank(rank)
        keys = eng.orbit_sweep(line)
        want = sorted_unique(eng.pack(eng._torus_rows(eng._rep_images(line.pair)[1])))
        assert keys.dtype == (np.int32 if q <= 64 else np.int64) and want.dtype == np.int64
        assert np.array_equal(keys, want)
        top = max(top, int(keys[-1]))
    assert top > 2**31 - 2**16 if q <= 64 else top >= 2**31


@pytest.mark.parametrize("q", AGREE_Q + (49,))
def test_group_passes_match_one_pass_over_the_whole_group(engine, monkeypatch, q):
    """stabilizer_abcd, read off the sweep, and triple_images and
    polarity_violations, which gather the images under the torus
    from those under the representatives, equal their one-pass forms over
    all |G| lifts: on the first line of each pivot block and seeded lines
    (with, at q = 9, the axis, fixed by all of G, and at q = 8 a
    representative of each orbit), on triples of cubic points and seeded
    points, and for the true polarity and one with 3 replaced by another
    unit."""
    eng = engine(q)
    group = scalar_checks.whole_group(eng)
    rng = random.Random(q)
    seeds = [block[3] for block in _layout(q)[0]]  # the first line of each block
    lines = [eng.line_from_rank(rank) for rank in seeds + rng.sample(range(pg3.line_count(q)), 3)]
    if q == 9:
        axis = pg3.line_from_plucker(eng.field, eng.axis_plucker)
        assert len(eng.stabilizer_abcd(axis)) == eng.group_order
        lines.append(axis)
    if q == 8:
        part = Engine(eng.field)
        lines += [part.line_from_key(rep) for cls in tw.valid_line_classes(eng.field)
                  for _size, _stab, rep in part.orbit_partition_keys(cls)]
    for line in lines:
        assert eng.stabilizer_abcd(line) == scalar_checks.stabilizer_abcd(eng, group, line)
    points = [tuple(pt) for pt in eng._proj_points(4)[
        rng.sample(range(pg3.point_count(q)), 3)].tolist()]
    for triple in (eng.cubic_points[:3], eng.cubic_points[-2:] + points[:1], points):
        assert eng.triple_images(triple) == scalar_checks.triple_images(eng, group, triple)
    assert eng.triple_images(eng.cubic_points[:3]) == eng.group_order
    if eng.field.xi == 0:
        return
    assert eng.polarity_violations() == scalar_checks.polarity_violations(eng, group) == 0
    unit = next(x for x in eng.field.elements() if x != eng.three)
    form = tw.polar_form
    monkeypatch.setattr(tw, "polar_form", lambda x, _three, m, neg: form(x, unit, m, neg))
    assert eng.polarity_violations() == scalar_checks.polarity_violations(eng, group)


def test_orbit_sweep_holds_one_group_sized_array(engine):
    """An orbit sweep sums the keys of every element into one int32 |G|
    array and sorts it in place: at q = 49 its tracemalloc peak stays
    under 3.5 |G| int32 words (3.3 when the stabilizer has order 2, 4.75
    with int64 keys, 10.4 when the images were stacked, then packed), on
    seeded lines and on line 0, whose orbit has q + 1 lines."""
    eng = engine(49)
    lines = [eng.line_from_rank(r) for r in random.Random(49).sample(range(pg3.line_count(49)), 4)]
    for line in lines + [eng.line_from_rank(0)]:
        eng.orbit_sweep(line)  # the split is built before tracing
        tracemalloc.start()
        try:
            eng.orbit_sweep(line)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 4 * eng.group_order


def test_triple_images_holds_few_group_sized_arrays(engine):
    """triple_images fills one int32 |G| array of point ranks per point
    through the torus kernel and gathers its cubic indices: at q = 49 its
    tracemalloc peak stays under 3.25 |G| words (3.9 when the images were
    gathered as rows, then normalized and ranked), on the cubic triple
    and on seeded points."""
    eng = engine(49)
    points = [tuple(pt) for pt in eng._proj_points(4)[
        random.Random(49).sample(range(pg3.point_count(49)), 3)].tolist()]
    for triple in (eng.cubic_points[:3], points):
        eng.triple_images(triple)  # the split is built before tracing
        tracemalloc.start()
        try:
            eng.triple_images(triple)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.25 * 8 * eng.group_order


def test_group_build_holds_no_full_group(field):
    """The group is built as its q(q + 1) representatives' lifts and the
    torus tables: at q = 64 the build peaks under 2 MB, where the |G| lifts
    alone would take 8 MB."""
    eng = Engine(field(64))
    tracemalloc.start()
    try:
        eng._group_arrays()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_torus_split_meets_every_group_element_once(field, q):
    """The split: every lift in R (the coset representatives whose rows
    (a, b) and (c, d) start with 1, ascending) times every lift of the
    torus (1, 0, 0, d) is, up to a scalar, one group lift, each met once;
    exactly, it is the lift of its row of group_abcd.  The (a, b, c, d)
    whose columns (a, c) and (b, d) start with 1 are as many, so only the
    products can tell that they are no transversal (q > 2; at q = 2 the
    torus is trivial and both sets are the group)."""
    f = field(q)
    eng = Engine(f)
    abcd, mats = scalar_checks.whole_group(eng)
    reps, lifts = eng._group_arrays()[:2]
    lifts = lifts.transpose(2, 0, 1)
    torus = [act.lift_rows(f, 1, 0, 0, d, f.mul, f.add) for d in f.units()]
    assert len(reps) * len(torus) == eng.group_order
    a, b, c, d = abcd.T
    assert reps.tolist() == abcd[(c == 1) | ((c == 0) & (d == 1))].tolist()

    def products(lifts):
        return [tuple(act.mat_vec(f, r, t) for r in lift)
                for t in torus for lift in lifts.tolist()]

    def met(lifts):
        return Counter(pg3.normalize(f, sum(m, ())) for m in products(lifts))
    group = Counter(pg3.normalize(f, tuple(np.ravel(m).tolist())) for m in mats)
    assert len(group) == eng.group_order
    assert met(lifts) == group
    assert products(lifts) == [act.lift(f, g) for g in map(tuple, eng.group_abcd().tolist())]
    cols = mats[((a == 1) | ((a == 0) & (c == 1))) & ((b == 1) | ((b == 0) & (d == 1)))]
    assert len(cols) == len(lifts)
    assert (met(cols) == group) == (q == 2)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 27))
def test_sweep_ranks_read_off_the_tables_match_the_images(engine, q):
    """The cells a sweep reads off the representatives' images and, for a
    special one, off the scale table's torus images are, as a multiset with
    q - 1 for each generic entry, the cells of the line's images under every
    group element, and the key _least_key reads off the representatives'
    images is the least packed image.  The seeds are the first line of each
    pivot block, which the identity representative keeps, and random lines,
    so the representative images reach every block."""
    eng = engine(q)
    mats = scalar_checks.whole_group(eng)[1]
    seeds = [block[3] for block in _layout(q)[0]]  # the first line of each block
    seeds += random.Random(q).sample(range(pg3.line_count(q)), 4)
    reached = set()
    for rank in seeds:
        line = eng.line_from_rank(rank)
        images = eng._rep_images(line.pair)
        reached |= set(images[0].tolist())
        P = scalar_checks.line_images(eng, mats, line)
        _assert_sweep_cells_are_the_images_cells(eng, images, P)
        assert eng._least_key(*images) == eng.pack(P).min()
    assert reached == set(range(len(pg3.PAIR_IDX)))


@pytest.mark.parametrize("q", (5, 8, 9, 49))
def test_sweep_ranks_are_indexed_by_group_element(engine, q):
    """Each entry of a sweep names a group element by its index into
    group_abcd() that maps the line into the entry's cell: for a generic
    entry, onto the line of the cell with the line's own unit, that of its
    image under the identity (element q), when the line is generic, so the
    entries that hold the line's own cell are its stabilizer, as the
    incidence filter over the whole group finds it.  The seeds are the first line of each pivot block
    (line 0 has a stabilizer of order q(q - 1)) and seeded lines."""
    eng = engine(q)
    mats = scalar_checks.lifts(eng, eng.group_abcd())
    group = scalar_checks.whole_group(eng)
    seeds, seen = [block[3] for block in _layout(q)[0]], set()  # the first line of each block
    for rank in seeds + random.Random(q).sample(range(pg3.line_count(q)), 3):
        line = eng.line_from_rank(rank)
        met, index = eng._image_cells(eng._rep_images(line.pair))
        cells, units = eng._cell_of(scalar_checks.line_images(eng, mats, line))
        generic = eng._lines[met] == q - 1
        assert np.array_equal(cells[index], met)
        seen |= {bool(generic.any()), bool(units[q])}
        assert not units[q] or (units[index][generic] == units[q]).all()
        assert not units[index][~generic].any()
        assert eng.stabilizer_abcd(line) == scalar_checks.stabilizer_abcd(eng, group, line)
    assert seen == {True, False}  # generic and special seeds and images


def test_a_stray_sweep_names_its_cell_and_changes_no_cell(field, monkeypatch):
    """A sweep patched to meet a cell of another class, or a cell of an
    orbit already found, raises a RuntimeError that names the cell and its
    class or orbit, adds no orbit and leaves every cell as it was, so the
    unpatched partition then succeeds."""
    eng = Engine(field(13))
    cells = eng.line_cells()
    members = np.flatnonzero(cells == ~CODE[tw.UNG])
    others = np.flatnonzero(cells == ~CODE[tw.RC])
    image_cells = Engine._image_cells
    seed = [row[0] for row in eng._pairs_of(members[:1], eng._subs)]
    first = image_cells(eng, eng._rep_images(seed))[0]
    strays = ((others[0], "class RC"), (others[-1], "class RC"),
              (members[0], "orbit 0"), (first.max(), "orbit 0"))

    def meeting(cell):
        def patched(eng, *args):
            met, index = image_cells(eng, *args)
            return np.append(met, cell), np.append(index, 0)
        return patched
    before = cells.copy()
    for cell, held in strays:
        monkeypatch.setattr(Engine, "_image_cells", meeting(cell))
        with pytest.raises(RuntimeError, match=f"^a UnG sweep met cell {cell} of {held}$"):
            eng.orbit_partition_keys(tw.UNG)
        assert eng.orbits() == []
        assert eng.line_cells().tolist() == before.tolist()
    monkeypatch.setattr(Engine, "_image_cells", image_cells)
    n = 13**3 - 13
    assert [size for size, _stab, _rep in eng.orbit_partition_keys(tw.UNG)] == [n // 2, n // 2]


@pytest.mark.parametrize("q", (5, 8))
def test_sweeps_leave_the_arrays_they_read_unchanged(field, monkeypatch, q):
    """_lincomb hands back an input column itself when its only nonzero
    scalar is 1: the model flags, the sweeps, the stabilizers read off them,
    the partition, the triple images, the polarity identity, group_abcd and
    the plane census leave the group's split (the representatives' rows and
    lifts, the torus tables), the points of PG(1,q) and PG(2,q) they span,
    held fixed here, and the ranks of the cubic points and osculating
    planes as they were."""
    eng = Engine(field(q))
    points = {n: eng._proj_points(n) for n in (2, 3)}
    monkeypatch.setattr(eng, "_proj_points", points.__getitem__)
    arrays = (*points.values(), eng.cubic_point_ranks, eng.gamma_plane_ranks,
              *eng._group_arrays())
    before = [a.copy() for a in arrays]
    for rank in (0, pg3.line_count(q) // 2):  # rank 0 joins two unit points
        line = eng.line_from_rank(rank)
        eng.orbit_sweep(line)
        eng.stabilizer_abcd(line)
    eng.orbit_partition_keys(tw.ENG)
    eng.triple_images(eng.cubic_points[:3])
    eng.polarity_violations()
    eng.group_abcd()
    eng.plane_class_counts()
    assert eng._cells is not None  # the partition built the model flags
    assert all(x is y for x, y in zip(eng._group_arrays(), arrays[4:]))
    for a, b in zip(arrays, before):
        assert np.array_equal(a, b)


def test_engine_starts_no_thread_and_has_no_setting(field, engine, capsys):
    """A census, a class pass in many slices and a sweep at q = 49 run on
    the calling thread, and the CLI offers no thread or worker option."""
    census.verify(8)
    Engine(field(13), chunk=64).line_cells()
    engine(49).orbit_sweep(engine(49).line_from_rank(0))
    assert threading.enumerate() == [threading.main_thread()]
    with pytest.raises(SystemExit):
        cli.main(["census", "--help"])
    text = capsys.readouterr().out.lower()
    assert "--q" in text
    assert "thread" not in text and "worker" not in text


def test_engine_refuses_a_field_past_its_integer_limits():
    """At q = 191, x*q + y reaches 190 * 191 + 190 = 36480, past int16: the
    Engine refuses the field before building anything, naming q."""
    with pytest.raises(ValueError, match="q = 191: .*2\\^15"):
        Engine(gfq.make_field(191))


@pytest.mark.parametrize("q", (81, max(census.SUPPORTED_Q)))
def test_integer_headroom(q):
    """The fixed-width integers of the engine hold their largest values at
    q = 81 (the next order to support) and at every supported order, but
    for the int32 keys of orbit_sweep, below 2q^5, which are int64 at
    q = 81."""
    supported = q <= max(census.SUPPORTED_Q)
    assert (2 * q**5 <= 2**31) == supported  # int32 packed key of a normalized line
    keyed = Engine(gfq.make_field(q))._group_arrays()[3]
    assert keyed.dtype == (np.int32 if supported else np.int64)
    xi = {0: 0, 1: 1, 2: -1}[q % 3]
    assert (q - 1) * q + (q - 1) < 2**15  # int16 index into a flat field table
    assert q**6 < 2**63  # int64 packed key of a Pluecker vector
    assert census.expected_total_orbit_count(q, xi) < 2**15  # int16 orbit labels
    assert (q + 1) ** 3 < 2**31  # int32 code of a triple of cubic points
    assert q**4 < 2**31  # int32 free entries of a chunk's lines
    assert pg3.line_count(q) < 2**31  # the Engine's bound on line ranks

