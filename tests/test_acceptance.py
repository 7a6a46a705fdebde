"""Acceptance suite: one test per criterion, each printing a PASS line.

The two heavy orders (q = 37 and q = 64, plus the optional q = 49 verify) sit
behind the TWISTEDCUBIC_LONG_RUN=1 environment variable, mirroring the CLI's
--long-run gate; everything else runs in the default suite.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import os
import time

import pytest

import scalar_checks
from twistedcubic import census, twisted as tw

CORE_Q = (5, 7, 8, 9, 11, 13)
SPECTRUM_FAST_Q = (5, 7, 8, 9, 11, 13, 16)
SPECTRUM_SLOW_Q = (17, 19, 23, 25, 27, 29, 31, 32)
LONG_RUN = os.environ.get("TWISTEDCUBIC_LONG_RUN") == "1"


def _xi(q):
    return {0: 0, 1: 1, 2: -1}[q % 3]


def test_criterion_1_class_sizes():
    for q in CORE_Q:
        started = time.monotonic()
        run = census.CensusRun(q)
        counts = run.engine.class_counts()
        elapsed = time.monotonic() - started
        assert counts == tw.expected_class_sizes(run.field), q
        assert elapsed < 5.0, f"the class counts at q={q} took {elapsed:.1f}s"
    assert census.CensusRun(5).engine.class_counts()["EnG"] == 480
    assert census.CensusRun(9).engine.class_counts()["EA"] == 800
    print("PASS criterion-1 class sizes exact for q in", CORE_Q)


def test_criterion_2_single_orbit_classes(run):
    for q in CORE_Q:
        r = run(q)
        records = r.all_orbit_records()
        odd = q % 2 == 1
        single = {tw.RC, tw.T, tw.IC}
        if r.field.xi != 0:
            single |= {tw.RA, tw.IA}
        if odd:
            single |= {tw.UG}
        else:
            single |= {tw.UNG, tw.EG}
        for cls in single:
            assert len(records[cls]) == 1, (q, cls)
        if r.field.xi == 0:
            (axis_orbit,) = records[tw.A]
            assert axis_orbit[0] == 1  # the axis is a fixed line
    print("PASS criterion-2 single-orbit classes for q in", CORE_Q)


def test_criterion_3_orbit_splits(run):
    records8 = run(8).all_orbit_records()
    assert sorted(s for s, _st, _r in records8[tw.UG]) == [9, 63]
    for q in (5, 7, 11, 13):
        n = q**3 - q
        records = run(q).all_orbit_records()
        assert [s for s, _st, _r in records[tw.UNG]] == [n // 2, n // 2], q
        assert [s for s, _st, _r in records[tw.EG]] == [n // 2, n // 2], q
    for q in (9, 27):
        n = q**3 - q
        half = (q * q - 1) // 2
        records = run(q).all_orbit_records()
        assert sorted(s for s, _st, _r in records[tw.EA]) == [half, half, n], q
    print("PASS criterion-3 orbit splits (q=8 UG; odd UnG/EG; q=9,27 EA)")


def _expected_stab_orders(q, cls):
    odd = q % 2 == 1
    n = q**3 - q
    table = {
        tw.T: [q * (q - 1)],
        tw.RC: [2 * (q - 1)],
        tw.RA: [2 * (q - 1)],
        tw.IC: [2 * (q + 1)],
        tw.IA: [2 * (q + 1)],
        tw.UG: [q - 1] if odd else sorted((q * (q - 1), q)),
        tw.UNG: [2, 2] if odd else [1],
        tw.EG: [2, 2] if odd else [1],
        tw.A: [n],
        tw.EA: sorted((1, 2 * q, 2 * q)),
    }
    return table[cls]


def test_criterion_4_stabilizer_orders(run):
    for q in CORE_Q:
        r = run(q)
        records = r.all_orbit_records()
        for cls in tw.valid_line_classes(r.field):
            if cls == tw.ENG:
                continue
            got = sorted(st for _s, st, _r in records[cls])
            assert got == _expected_stab_orders(q, cls), (q, cls)
        # an incidence filter over the whole group confirms every record's order
        group = scalar_checks.whole_group(r.engine)
        for cls, recs in records.items():
            for _size, stab, rep in recs:
                line = r.engine.line_from_key(rep)
                brute = len(scalar_checks.stabilizer_abcd(r.engine, group, line))
                assert brute == stab, (q, cls)
    print("PASS criterion-4 stabilizer orders (exhaustive) for q in", CORE_Q)


def test_criterion_5_parametric_families(run):
    from twistedcubic import action as act
    for q in (5, 7, 8, 9):
        r = run(q)
        f = r.field
        for form in act.FAMILY_IDS:
            if not act.family_applicable(f, form):
                continue
            fam = act.stab_family(f, form)
            for rep in act.family_representatives(f, form):
                assert r.engine.stabilizer_abcd(rep) == fam, (q, form)
    print("PASS criterion-5 parametric families equal brute stabilizers (q=5,7,8,9)")


def _check_spectrum(q, budget):
    started = time.monotonic()
    run = census.CensusRun(q)
    records = run.orbit_records(tw.ENG)
    elapsed = time.monotonic() - started
    got = {}
    for size, _stab, _rep in records:
        got[size] = got.get(size, 0) + 1
    assert got == census.expected_external_spectrum(q, _xi(q)), q
    assert len(records) == census.expected_external_orbit_count(q, _xi(q)), q
    total = sum(len(run.orbit_records(c)) for c in tw.valid_line_classes(run.field))
    assert total == census.expected_total_orbit_count(q, _xi(q)), q
    assert elapsed < budget, f"EnG census for q={q} took {elapsed:.1f}s (> {budget}s)"
    return elapsed


def test_criterion_6_external_census_fast():
    for q in SPECTRUM_FAST_Q:
        _check_spectrum(q, budget=60.0)
    print("PASS criterion-6a EnG spectra exact within 60s for q in", SPECTRUM_FAST_Q)


def test_criterion_6_external_census_medium():
    for q in SPECTRUM_SLOW_Q:
        _check_spectrum(q, budget=600.0)
    print("PASS criterion-6b EnG spectra exact within 600s for q in", SPECTRUM_SLOW_Q)


# SHA-256 of (report_to_json, report_to_csv) of verify(q) with the default
# modulus, schema version 2: the long-run counterpart of the golden digests
# in test_census.py
LONG_RUN_SHA256 = {
    37: ("54d7fd6ff7b2d02a8358bcf8094f5896ef0782082d79c012386521131b770fb2",
         "4653608bb72fee102b05f5a1d8b5ce4a5b0a16cba5042afa8512d56f99de5b32"),
    41: ("5c75382365c67fc5a7d15537ee992fbb65c437874ef15ca990e7ca150d00fc88",
         "79f94124c383e05f572f9fa1121ad4f8094e0815badde7c11607b690ba459d59"),
    43: ("11d57df685820f31a7f7e0657a2059b1a0d9178be5ccbb462a91537ee4ea4482",
         "f244855cdd374dc5e1366e12e8895bf0a340f44d9f923bcc7055a070c1cf7f9e"),
    47: ("0467281646f0e6b291e28c6248f137d3b24941ef179705824680d3c3aa2654a7",
         "7e972e8ed13edeaae3408da12ec5a9d7b6def97cb2fcccf867856cd249e6fe00"),
    49: ("8856cfc9faa3b469c9d12ca24fdf05c56211c6f5d00fece8ef4d77d0011359b2",
         "cd999bed97e036f5fb5e27b812d86000580151ae7f8d2b072431d4e19924ae02"),
    53: ("59f4b768dc902b38de5665b28a91b064d07b78904cf2c06f43a2c0d432899234",
         "50385cbe5b515653a4f8462f17742fa0f0cb628739a92c6c857103b3b22911f7"),
    59: ("b86e1be628c029e6e4b9dadd7e228cf8ccce8e1dd4bd9afbc25f1771b67d2c29",
         "8cab936c196cbf580b1452ad461e91c039036d6c05c7857bc13def314ebc1d04"),
    61: ("38eec4e3b37c2fc9191a3da06b70c78514cd3fdb859e10995fe2588456ab3574",
         "c2abb3ab884d84b099c32dfca9c5dd55e84219cb014ac11bda7931397e2497e6"),
    64: ("c793d3c17ea2a400b49e6c14a77f4097c6176273f70adad4c81e85debdf724fb",
         "82399a1304bf884270f81c43165066c3b32c204c22f326a8fdffaf66420d6c92"),
}


def test_long_run_digests_pin_every_long_run_order():
    """An order joins LONG_RUN_Q only together with its pinned digests."""
    assert set(LONG_RUN_SHA256) == census.LONG_RUN_Q


@pytest.mark.skipif(not LONG_RUN, reason="set TWISTEDCUBIC_LONG_RUN=1 to run q > 32")
def test_criterion_6_external_census_long_run():
    started = time.monotonic()
    for q in (37, 64):
        _check_spectrum(q, budget=7200.0)
    combined = time.monotonic() - started
    assert combined < 7200.0
    for q in sorted(LONG_RUN_SHA256):
        report = census.verify(q)
        assert report["pass"], [c["name"] for c in report["checks"] if not c["pass"]]
        json_sha, csv_sha = LONG_RUN_SHA256[q]
        assert hashlib.sha256(census.report_to_json(report).encode()).hexdigest() == json_sha
        assert hashlib.sha256(census.report_to_csv(report).encode()).hexdigest() == csv_sha
    print(f"PASS criterion-6c long-run census q=37,64 in {combined:.0f}s; "
          f"verify(q) all green for q in {sorted(LONG_RUN_SHA256)}")


def test_criterion_7_polarity(run):
    for q in CORE_Q:
        r = run(q)
        if r.field.xi == 0:
            continue
        assert census.check_polarity_commutation(r)["pass"], q
        assert census.check_polarity_stabilizer_equality(r)["pass"], q
        assert census.check_polarity_class_exchange(r)["pass"], q
    for q in (5, 7, 8):
        assert census.check_polarity_orbit_images(run(q))["pass"], q
    print("PASS criterion-7 polarity commutation / orbit images / stabilizer equality")


def test_criterion_8_small_q_subgroup_patterns(run):
    for q, xi in ((2, -1), (3, 0), (4, 1)):
        r = run(q)
        assert r.field.xi == xi
        records = r.all_orbit_records()
        pattern = census.expected_orbit_pattern(r.field)
        for cls, expected in pattern.items():
            got = sorted((s, st) for s, st, _rep in records[cls])
            assert got == expected, (q, cls)
    print("PASS criterion-8 q=2,3,4 match the generic patterns for xi=-1,0,+1")


def test_criterion_9_property_suites(run):
    from twistedcubic import pg3
    # Klein relation, exhaustively, for every enumerated line up to q=9
    for q in (2, 3, 4, 5, 7, 8, 9):
        r = run(q)
        assert r.engine.klein_violations() == 0, q
        if q <= 5:
            f = r.field
            assert all(pg3.klein_value(f, l.plucker) == 0 for l in pg3.all_lines(f))
    # orbit-stabilizer product is exact for every record
    for q in CORE_Q:
        r = run(q)
        n = q**3 - q
        for recs in r.all_orbit_records().values():
            for size, stab, _rep in recs:
                assert size * stab == n
    # chord uniqueness, exhaustively, up to q=9
    for q in (5, 7, 8, 9):
        assert census.check_chord_uniqueness(run(q))["pass"], q
    # modulus independence of whole reports for q=8, 9
    for q, alt in ((8, (1, 0, 1, 1)), (9, (1, 0, 1))):
        a, b = census.verify(q), census.verify(q, modulus=alt)
        assert a["pass"] and b["pass"]
        strip = lambda rep: [
            (e["class"], e["actual_size"],
             sorted((o["size"], o["stabilizer_order"]) for o in e["orbits"]))
            for e in rep["classes"]]
        assert strip(a) == strip(b)
        assert a["planes"] == b["planes"]
        assert [(c["name"], c["pass"]) for c in a["checks"]] == \
            [(c["name"], c["pass"]) for c in b["checks"]]
    print("PASS criterion-9 Klein/orbit-stabilizer/chord-uniqueness/modulus-independence")
