"""Vectorized structural checks: differential against the scalar loops they
replaced, and non-vacuity (each check fails on a corrupted input)."""

import numpy as np
import pytest

import scalar_checks
from twistedcubic import census, pg3, twisted as tw
from twistedcubic.bulk import CODE, Engine

DIFF_Q = (4, 5, 7, 8)


def _corrupt(run, cls, mode):
    """Drop or duplicate the first line of one class.

    drop: remove the line from the class's ranks and reassign its class code
    to EnG, which no check reads; dup: list the line twice in the class's
    ranks, so every reader of class_keys (the census checks, so covers_once,
    and the scalar oracles) gets it twice."""
    eng = run.engine
    keys = eng.class_keys()
    first = keys[cls][:1]
    if mode == "drop":
        keys[cls] = keys[cls][1:]
        eng.class_codes()[first] = CODE[tw.ENG]
    else:
        keys[cls] = np.append(keys[cls], first)
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
    # the scalar loop tests membership per plane, so it misses a duplicated
    # axis key; the vectorized check counts every key
    assert scalar_checks.axis_uniqueness(axes) is (mode == "dup")


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
        part = r.partition(cls)
        for (_size, _stab, rep), fixed in zip(part.records, part.fixers):
            assert fixed == len(r.engine.stabilizer_abcd(r.engine.line_from_key(rep)))


def test_stabilizer_check_fails_on_a_wrong_count():
    run = census.CensusRun(5)
    run.partition(tw.ENG).fixers[0] += 1
    assert not census.check_stabilizers_brute(run)["pass"]


# the dropped line moves to EnG, whose polar partner is EnG again
@pytest.mark.parametrize("cls", (tw.RA, tw.IC, tw.EG))
def test_polarity_class_exchange_fails_on_a_dropped_key(cls):
    run = census.CensusRun(5)
    run.all_orbit_records()
    _corrupt(run, cls, "drop")
    assert not census.check_polarity_class_exchange(run)["pass"]
    assert not census.check_polarity_orbit_images(run)["pass"]


def test_polarity_orbit_image_fails_on_a_corrupted_label():
    run = census.CensusRun(5)
    part = run.partition(tw.ENG)
    assert len(part.records) > 1
    first = run.engine.class_keys()[tw.ENG][0]
    labels = run.engine.orbit_labels
    labels[first] = (labels[first] + 1) % len(part.records)
    assert census.check_polarity_class_exchange(run)["pass"]
    assert not census.check_polarity_orbit_images(run)["pass"]


def test_partition_labels_index_the_records(run):
    r = run(7)
    eng = r.engine
    for cls in tw.valid_line_classes(r.field):
        ranks = eng.class_keys()[cls]
        part = r.partition(cls)
        assert eng.orbit_labels.dtype == np.int16
        labels = eng.orbit_labels[ranks]
        assert labels.min() == 0 and labels.max() == len(part.records) - 1
        for label, (size, _stab, rep) in enumerate(part.records):
            members = np.sort(eng.pack(eng._unrank(ranks[labels == label])))
            assert members.tolist() == eng.orbit_sweep(eng.line_from_key(rep)).tolist()
            assert len(members) == size and members[0] == rep


def test_axis_pencil_fails_off_the_axis():
    run = census.CensusRun(9)
    assert census.check_axis_pencil(run)["pass"]
    f = run.field
    tangent = pg3.line_through(f, tw.cubic_point(f, 0), tw.tangent_direction(f, 0))
    run.engine.axis_plucker = tangent.plucker
    assert not census.check_axis_pencil(run)["pass"]
