"""Vectorized structural checks: differential against the scalar loops they
replaced, and non-vacuity (each check fails on a corrupted input)."""

import numpy as np
import pytest

import scalar_checks
from twistedcubic import action as act, census, pg3, twisted as tw
from twistedcubic.bulk import CODE, Engine

DIFF_Q = (4, 5, 7, 8)


def _corrupt(run, cls, mode):
    """Move one line out of or into a class by rewriting its class code.

    drop: re-code the first line of the class to EnG, which no chord or axis
    check reads; dup: re-code the first EnG line into the class, so some
    points (planes) are covered by two of the class's lines.  Once the
    classes are partitioned, a dropped line also takes the label of the
    first EnG orbit, so that codes and labels agree on its new class."""
    eng = run.engine
    codes = eng.class_codes()
    src, dst = (cls, tw.ENG) if mode == "drop" else (tw.ENG, cls)
    moved = np.flatnonzero(codes == CODE[src])[0]
    codes[moved] = CODE[dst]
    if mode == "drop" and eng.orbit_labels is not None:
        eng.orbit_labels[moved] = [c for c, _size in eng.orbits()].index(tw.ENG)
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
    run = census.CensusRun(7)
    abcd, mats = run.engine._group_arrays()
    mats = mats.copy()
    mats[1] = mats[0]
    run.engine._group = (abcd, mats)
    check = census.check_triple_transitivity(run)
    assert check["actual"] == check["expected"] - 1
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
    run = census.CensusRun(q)
    abcd, mats = run.engine._group_arrays()
    mats = mats.copy()
    g = {"first": 0, "middle": len(abcd) // 2, "last": len(abcd) - 1}[where]
    mats[g, 1, 2] = (mats[g, 1, 2] + 1) % q
    run.engine._group = (abcd, mats)
    check = census.check_polarity_commutation(run)
    assert check["actual"] == 1
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
    r = run(5)
    for cls in tw.valid_line_classes(r.field):
        for _size, stab, rep in r.orbit_records(cls):
            assert stab == len(r.engine.stabilizer_abcd(r.engine.line_from_key(rep)))


def test_stabilizer_check_fails_on_a_wrong_count():
    run = census.CensusRun(5)
    run.orbit_records(tw.ENG)
    orbits = run.engine._orbits
    first = [c for c, *_rest in orbits].index(tw.ENG)
    cls, size, stab, rep = orbits[first]
    orbits[first] = (cls, size, stab + 1, rep)
    assert not census.check_stabilizers_brute(run)["pass"]


def test_stabilizer_orders_are_counted_in_the_sweep(monkeypatch):
    """A sweep that meets every image twice finds the same orbits and twice
    the fixers: a record's order is that count, not (q^3 - q) // size."""
    sweep = Engine._sweep
    monkeypatch.setattr(Engine, "_sweep", lambda eng, line: 2 * sweep(eng, line))
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


def test_polarity_orbit_image_fails_on_a_corrupted_label():
    """The first EnG line moves to the next EnG orbit: each line keeps the
    class of its label, but two orbits no longer count their sizes."""
    run = census.CensusRun(5)
    run.all_orbit_records()
    eng = run.engine
    eng_orbits = [i for i, (c, _size) in enumerate(eng.orbits()) if c == tw.ENG]
    assert len(eng_orbits) > 1
    first = np.flatnonzero(eng.class_codes() == CODE[tw.ENG])[0]
    labels = eng.orbit_labels
    at = eng_orbits.index(labels[first])
    labels[first] = eng_orbits[(at + 1) % len(eng_orbits)]
    assert census.check_polarity_class_exchange(run)["pass"]
    assert not census.check_polarity_orbit_images(run)["pass"]


def test_partition_labels_index_the_records():
    """Labels index orbits(): the orbits of the classes in partition order,
    each class's in the order its sweeps found them, by the first rank of
    the orbit; the class of a line's orbit is its code, and each label's
    lines are one orbit with a record of its size and minimal key."""
    r = census.CensusRun(7)
    r.all_orbit_records()  # partitions the classes in report order
    eng = r.engine
    labels = eng.orbit_labels
    assert labels.dtype == np.int16
    orbit_codes = np.array([CODE[c] for c, _size in eng.orbits()], np.int8)
    assert labels.min() == 0 and labels.max() == len(orbit_codes) - 1
    assert (orbit_codes[labels] == eng.class_codes()).all()
    classes, order = [c for c, _size in eng.orbits()], tw.valid_line_classes(r.field)
    assert classes == sorted(classes, key=order.index) and set(classes) == set(order)
    prev = None
    for label, (cls, size) in enumerate(eng.orbits()):
        ranks = np.flatnonzero(labels == label)
        members = np.sort(eng.pack(eng._unrank(ranks)))
        assert members.tolist() == eng.orbit_sweep(eng.line_from_key(members[0])).tolist()
        assert len(members) == size
        assert (size, members[0]) in [(s, rep) for s, _stab, rep in r.orbit_records(cls)]
        assert prev is None or prev[0] != cls or prev[1] < ranks[0]
        prev = cls, ranks[0]


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
