"""Vectorized structural checks: differential against the scalar loops they
replaced, and non-vacuity (each check fails on a corrupted input)."""

import numpy as np
import pytest

import scalar_checks
from twistedcubic import action as act, census, pg3, twisted as tw
from twistedcubic.bulk import CODE, Engine

DIFF_Q = (4, 5, 7, 8)


def _corrupt(run, cls, mode):
    """Move one line, with the other lines of its cell, out of or into a
    class by rewriting its cell.

    drop: move the first line of the class to EnG, which no chord or axis
    check reads; dup: move the first EnG line into the class, so some
    points (planes) are covered by two of the class's lines.  The moved
    cell takes the ~code of its new class, or, once that class is
    partitioned, the label of its first orbit."""
    eng = run.engine
    src, dst = (cls, tw.ENG) if mode == "drop" else (tw.ENG, cls)
    moved = scalar_checks.cell_of_rank(eng, eng.class_keys()[src][0])
    orbits = [c for c, _size in eng.orbits()]
    eng.line_cells()[moved] = orbits.index(dst) if dst in orbits else ~CODE[dst]
    return run


@pytest.mark.parametrize("q", DIFF_Q)
def test_checks_match_scalar_loops(run, q):
    r = run(q)
    assert census.check_chord_uniqueness(r)["actual"] is scalar_checks.chord_uniqueness(r)
    assert census.check_axis_uniqueness(r)["actual"] is scalar_checks.axis_uniqueness(r)
    assert census.check_triple_transitivity(r)["actual"] == \
        scalar_checks.triple_transitivity(r) == (q + 1) * q * (q - 1)
    assert census.check_stabilizers_brute(r)["actual"] is scalar_checks.stabilizers_brute(r)
    assert census.check_polarity_orbit_images(r)["actual"] is \
        scalar_checks.polarity_orbit_images(r)
    assert r.polarity_images() == (True, True)


@pytest.mark.parametrize("q", (4, 5))
@pytest.mark.parametrize("mode", ("drop", "dup"))
def test_corrupted_key_sets_match_scalar_loops(q, mode):
    chords = _corrupt(census.CensusRun(q), tw.IC, mode)
    assert census.check_chord_uniqueness(chords)["pass"] is False
    assert scalar_checks.chord_uniqueness(chords) is False
    axes = _corrupt(census.CensusRun(q), tw.RA, mode)
    assert census.check_axis_uniqueness(axes)["pass"] is False
    assert scalar_checks.axis_uniqueness(axes) is False


@pytest.mark.parametrize("cls", (tw.RC, tw.T, tw.IC))
@pytest.mark.parametrize("mode", ("drop", "dup"))
def test_chord_uniqueness_fails_on_corrupted_chords(cls, mode):
    run = _corrupt(census.CensusRun(7), cls, mode)
    assert not census.check_chord_uniqueness(run)["pass"]


@pytest.mark.parametrize("cls", (tw.RA, tw.IA, tw.T))
@pytest.mark.parametrize("mode", ("drop", "dup"))
def test_axis_uniqueness_fails_on_corrupted_axes(cls, mode):
    run = _corrupt(census.CensusRun(8), cls, mode)
    assert not census.check_axis_uniqueness(run)["pass"]


def test_triple_transitivity_fails_on_a_repeated_group_element():
    """A representative's lift repeated in place of the next one repeats
    every element of its coset, the q - 1 products with the torus."""
    run = census.CensusRun(7)
    abcd, lifts, *tables = run.engine._group_arrays()
    lifts = lifts.copy()
    lifts[:, :, 1] = lifts[:, :, 0]
    run.engine._split = (abcd, lifts, *tables)
    check = census.check_triple_transitivity(run)
    assert check["actual"] == check["expected"] - (7 - 1)
    assert not check["pass"]


@pytest.mark.parametrize("q", DIFF_Q)
def test_polarity_commutation_matches_scalar_oracle(run, q):
    """The lift identity and act_point/act_plane over every element and a
    projective frame find the same (zero) number of failing elements."""
    r = run(q)
    check = census.check_polarity_commutation(r)
    assert check["actual"] == scalar_checks.polarity_commutation(r) == 0
    assert check["pass"]


@pytest.mark.parametrize("q", DIFF_Q)
def test_polarity_commutation_matches_scalar_oracle_on_a_wrong_polarity(run, monkeypatch, q):
    """With 3 replaced by another unit in the polar form, most elements no
    longer commute; the lift identity and the oracle count the same ones."""
    r = run(q)
    three = r.field.of_int(3)
    unit = next(x for x in r.field.elements() if x not in (0, three))
    form = tw.polar_form
    monkeypatch.setattr(tw, "polar_form", lambda x, _three, m, neg: form(x, unit, m, neg))
    bad = r.engine.polarity_violations()
    assert 0 < bad == scalar_checks.polarity_commutation(r)


@pytest.mark.parametrize("q", DIFF_Q)
@pytest.mark.parametrize("where", ("first", "middle", "last"))
def test_polarity_commutation_fails_on_a_corrupted_lift_entry(q, where):
    """One wrong entry in a representative's lift fails every element of
    its coset, the q - 1 products with the torus."""
    run = census.CensusRun(q)
    abcd, lifts, *tables = run.engine._group_arrays()
    lifts = lifts.copy()
    r = {"first": 0, "middle": len(abcd) // 2, "last": len(abcd) - 1}[where]
    lifts[1, 2, r] = (lifts[1, 2, r] + 1) % q
    run.engine._split = (abcd, lifts, *tables)
    check = census.check_polarity_commutation(run)
    assert check["actual"] == q - 1
    assert not check["pass"]


@pytest.mark.parametrize("q", DIFF_Q)
@pytest.mark.parametrize("where", ("first", "last"))
def test_polarity_commutation_fails_on_a_corrupted_torus_factor(q, where):
    """A wrong d^2 in the torus table, the entry diag(1, d, d^2, d^3) of
    the torus lift reads, fails every element r * (1, 0, 0, d), one per
    representative."""
    run = census.CensusRun(q)
    abcd, lifts, scale, *tables = run.engine._group_arrays()
    scale = scale.copy()
    d = {"first": 0, "last": q - 2}[where]
    scale[d, 2 * q + 1] = (scale[d, 2 * q + 1] + 1) % q
    run.engine._split = (abcd, lifts, scale, *tables)
    check = census.check_polarity_commutation(run)
    assert check["actual"] == q * (q + 1)
    assert not check["pass"]


def test_polarity_commutation_covers_the_group_at_every_order(field):
    for q in census.SUPPORTED_Q:
        eng = Engine(field(q))
        if eng.field.xi == 0:
            with pytest.raises(ValueError):
                eng.polarity_violations()
        else:
            assert eng.polarity_violations() == 0, q


def test_stabilizer_counts_come_from_the_sweep(run):
    """Every record's stabilizer order, and the stabilizer the engine reads
    off its representative's sweep, match the scalar filter of the group."""
    r = run(5)
    for cls in tw.valid_line_classes(r.field):
        for _size, stab, rep in r.orbit_records(cls):
            line = r.engine.line_from_key(rep)
            brute = act.stabilizer(r.field, line)
            assert stab == len(brute)
            assert r.engine.stabilizer_abcd(line) == brute


def test_stabilizer_check_fails_on_a_wrong_count():
    run = census.CensusRun(5)
    run.orbit_records(tw.ENG)
    orbits = run.engine._orbits
    first = [c for c, *_rest in orbits].index(tw.ENG)
    cls, size, stab, rep = orbits[first]
    orbits[first] = (cls, size, stab + 1, rep)
    assert not census.check_stabilizers_brute(run)["pass"]


def test_polarity_stabilizer_equality_fails_on_a_wrong_polar_line(monkeypatch):
    """With every polar line replaced by the tangent at t = 0, whose
    stabilizer differs from those of the chord and the UnG line, the check
    reads false."""
    monkeypatch.setattr(tw, "null_polarity_line", lambda f, _line: pg3.line_through(
        f, (0, 0, 0, 1), (0, 0, 1, 0)))
    assert census.check_polarity_stabilizer_equality(census.CensusRun(7))["pass"] is False


def test_stabilizer_orders_are_counted_in_the_sweep(monkeypatch):
    """A sweep that meets every image twice finds the same orbits and twice
    the fixers: a record's order is that count, not (q^3 - q) // size."""
    image_cells = Engine._image_cells

    def twice(eng, *args):
        return tuple(np.concatenate([x, x]) for x in image_cells(eng, *args))
    monkeypatch.setattr(Engine, "_image_cells", twice)
    run = census.CensusRun(5)
    n = run.engine.group_order
    assert all(stab == 2 * (n // size) for recs in run.all_orbit_records().values()
               for size, stab, _rep in recs)
    assert not census.check_stabilizers_brute(run)["pass"]


def test_orbit_stabilizer_product_fails_on_a_wrong_stabilizer_order(monkeypatch):
    """With the stabilizer order of the first EnG record one too large, the
    three checks that read it fail, and with them the report; the size and
    the order are both measured, so their product can miss q^3 - q."""
    partition = Engine.orbit_partition_keys

    def miscounted(eng, cls):
        (size, stab, rep), *rest = partition(eng, cls)
        return [(size, stab + 1 if cls == tw.ENG else stab, rep)] + rest
    monkeypatch.setattr(Engine, "orbit_partition_keys", miscounted)
    report = census.verify(5)
    assert {c["name"] for c in report["checks"] if not c["pass"]} == {
        "orbit_stabilizer_product", "stabilizer_orders_brute", f"orbit_pattern:{tw.ENG}"}
    assert report["pass"] is False


# the dropped line moves to EnG, whose polar partner is EnG again
@pytest.mark.parametrize("cls", (tw.RA, tw.IC, tw.EG))
def test_polarity_class_exchange_fails_on_a_dropped_key(cls):
    run = census.CensusRun(5)
    run.all_orbit_records()
    _corrupt(run, cls, "drop")
    assert not census.check_polarity_class_exchange(run)["pass"]
    assert not census.check_polarity_orbit_images(run)["pass"]


def _move_to_the_next_eng_orbit(pick):
    """A q = 5 run whose EnG line pick(EnG ranks) has moved to the next EnG
    orbit: each line keeps the class of its label, but two orbits no longer
    count their sizes."""
    run = census.CensusRun(5)
    run.all_orbit_records()
    eng = run.engine
    eng_orbits = [i for i, (c, _size) in enumerate(eng.orbits()) if c == tw.ENG]
    assert len(eng_orbits) > 1
    moved = scalar_checks.cell_of_rank(eng, pick(eng.class_keys()[tw.ENG]))
    labels = eng.line_cells()
    at = eng_orbits.index(labels[moved])
    labels[moved] = eng_orbits[(at + 1) % len(eng_orbits)]
    return run


def test_polarity_orbit_image_fails_on_a_corrupted_label():
    """The first EnG line moves to the next EnG orbit."""
    run = _move_to_the_next_eng_orbit(lambda ranks: ranks[0])
    assert census.check_polarity_class_exchange(run)["pass"]
    assert not census.check_polarity_orbit_images(run)["pass"]


@pytest.mark.parametrize("inside", (True, False))
def test_polarity_orbit_image_fails_on_a_corrupted_label_on_either_path(inside):
    """The last EnG line of pivot block (0, 1), ranks [0, q^4), or the first
    EnG line after it, in the cells of another block, moves with its cell
    to the next EnG orbit."""
    run = _move_to_the_next_eng_orbit(
        lambda ranks: ranks[ranks < 5**4][-1] if inside else ranks[ranks >= 5**4][0])
    assert census.check_polarity_class_exchange(run)["pass"]
    assert not census.check_polarity_orbit_images(run)["pass"]


def test_partition_labels_index_the_records():
    """Labels index orbits(): the orbits of the classes in partition order,
    each class's in the order its sweeps found them, by the first cell of
    the orbit; the class of a cell's orbit is the class pass's code, and
    each label's lines, those of its cells, are one orbit with a record of
    its size and minimal key."""
    r = census.CensusRun(7)
    r.all_orbit_records()  # partitions the classes in report order
    eng = r.engine
    labels = eng.line_cells()
    assert labels.dtype == np.int16
    orbit_codes = np.array([CODE[c] for c, _size in eng.orbits()], np.int8)
    assert labels.min() == 0 and labels.max() == len(orbit_codes) - 1
    assert (orbit_codes[labels] == ~Engine(r.field).line_cells()).all()
    classes, order = [c for c, _size in eng.orbits()], tw.valid_line_classes(r.field)
    assert classes == sorted(classes, key=order.index) and set(classes) == set(order)
    prev = None
    for label, (cls, size) in enumerate(eng.orbits()):
        cells = np.flatnonzero(labels == label)
        members = np.sort(eng.pack(eng._unrank(scalar_checks.cell_lines(eng, cells))))
        assert members.tolist() == eng.orbit_sweep(eng.line_from_key(members[0])).tolist()
        assert len(members) == size
        assert (size, members[0]) in [(s, rep) for s, _stab, rep in r.orbit_records(cls)]
        assert prev is None or prev[0] != cls or prev[1] < cells[0]
        prev = cls, cells[0]


def test_axis_pencil_fails_off_the_axis():
    run = census.CensusRun(9)
    assert census.check_axis_pencil(run)["pass"]
    f = run.field
    tangent = pg3.line_through(f, tw.cubic_point(f, 0), tw.tangent_direction(f, 0))
    run.engine.axis_plucker = tangent.plucker
    assert not census.check_axis_pencil(run)["pass"]


@pytest.mark.parametrize("form", act.FAMILY_IDS)
def test_family_check_fails_on_a_family_missing_an_element(monkeypatch, form):
    """With one element dropped from one parametric family, that family's
    check reads false and every other family's still passes."""
    run = next(r for r in map(census.CensusRun, (5, 8, 9))
               if act.family_applicable(r.field, form))
    family = act.stab_family
    monkeypatch.setattr(act, "stab_family", lambda f, name: (
        family(f, name)[1:] if name == form else family(f, name)))
    verdicts = {c["name"]: c["pass"] for c in census.check_families(run)}
    assert verdicts.pop(f"family:{form}") is False
    assert all(verdicts.values())


def test_external_spectrum_sum_rule_fails_on_a_resized_orbit(monkeypatch):
    records = census.CensusRun.orbit_records

    def resized(run, cls):
        (size, stab, rep), *rest = records(run, cls)
        return [(size + 1 if cls == tw.ENG else size, stab, rep)] + rest
    monkeypatch.setattr(census.CensusRun, "orbit_records", resized)
    check = next(c for c in census.verify(5)["checks"]
                 if c["name"] == "external_spectrum_sum_rule")
    assert check["actual"] == check["expected"] + 1 and not check["pass"]
