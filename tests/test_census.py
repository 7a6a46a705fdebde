import functools
import hashlib
import itertools
import json

import numpy as np
import pytest

from twistedcubic import census, gfq, pg3, twisted
from twistedcubic.bulk import CODE, Engine


def test_classify_all_examples():
    assert census.CensusRun(5).engine.class_counts() == {
        "RC": 15, "T": 6, "IC": 10, "RA": 15, "IA": 10,
        "UG": 30, "UnG": 120, "EG": 120, "EnG": 480,
    }
    assert census.CensusRun(9).engine.class_counts() == {
        "RC": 45, "T": 10, "IC": 36, "UG": 90, "UnG": 720,
        "EnG": 5760, "A": 1, "EA": 800,
    }
    assert census.CensusRun(8).engine.class_counts() == {
        "RC": 36, "T": 9, "IC": 28, "RA": 36, "IA": 28,
        "UG": 72, "UnG": 504, "EG": 504, "EnG": 3528,
    }


def test_classify_planes_examples():
    assert census.CensusRun(5).engine.plane_class_counts() == {
        "gamma": 6, "2C": 30, "3C": 20, "1C": 60, "0C": 40}
    assert census.CensusRun(7).engine.plane_class_counts() == {
        "gamma": 8, "2C": 56, "3C": 56, "1C": 168, "0C": 112}


def test_unsupported_q():
    with pytest.raises(census.UnsupportedQ):
        census.CensusRun(6)
    with pytest.raises(census.UnsupportedQ):
        census.verify(128)
    with pytest.raises(census.UnsupportedQ):
        census.orbit_census(5, line_class="EA")  # not populated at q=5


def _spectrum(report, cls):
    entry = next(e for e in report["classes"] if e["class"] == cls)
    spec = {}
    for orb in entry["orbits"]:
        spec[orb["size"]] = spec.get(orb["size"], 0) + 1
    return spec


def test_external_spectrum_examples(run):
    rep7 = census.orbit_census(7, line_class="EnG")
    assert _spectrum(rep7, "EnG") == {28: 1, 84: 1, 112: 2, 168: 6, 336: 2}
    rep8 = census.orbit_census(8, line_class="EnG")
    assert _spectrum(rep8, "EnG") == {504: 1, 252: 12}
    rep5 = census.orbit_census(5, line_class="EnG")
    assert _spectrum(rep5, "EnG") == {60: 4, 120: 2}


def test_expected_spectrum_self_consistency():
    # sum rule and orbit-count formulas hold for every supported order
    for q in census.SUPPORTED_Q:
        xi = {0: 0, 1: 1, 2: -1}[q % 3]
        spec = census.expected_external_spectrum(q, xi)
        assert sum(l * m for l, m in spec.items()) == (q * q - q) * (q * q - 1)
        assert sum(spec.values()) == census.expected_external_orbit_count(q, xi)
        n = q**3 - q
        assert all(n % length == 0 for length in spec)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
def test_verify_passes(q):
    report = census.verify(q)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert report["pass"], failed


def test_verify_total_orbit_counts():
    rep13 = census.verify(13)
    assert rep13["pass"]
    assert sum(len(e["orbits"]) for e in rep13["classes"]) == 34  # 2q+7+xi
    rep9 = census.verify(9)
    assert sum(len(e["orbits"]) for e in rep9["classes"]) == 25


def test_reports_are_byte_identical_across_runs():
    a = census.report_to_json(census.verify(5))
    b = census.report_to_json(census.verify(5))
    assert a == b
    assert "runtime_seconds\": null" in a  # timing excluded by default


def test_timing_flag_records_runtime():
    report = census.verify(2, timing=True)
    assert isinstance(report["meta"]["runtime_seconds"], float)


def _shape(report):
    """Everything modulus-independent: sizes, orbit patterns, check passes."""
    return {
        "classes": [
            (e["class"], e["expected_size"], e["actual_size"],
             sorted((o["size"], o["stabilizer_order"]) for o in e["orbits"]))
            for e in report["classes"]
        ],
        "planes": report["planes"],
        "checks": [(c["name"], c["pass"]) for c in report["checks"]],
        "pass": report["pass"],
    }


def _moduli(q):
    """Every monic irreducible modulus of GF(q), little-endian."""
    p, e = gfq.factor_prime_power(q)
    return [m + (1,) for m in itertools.product(range(p), repeat=e)
            if gfq._poly_is_irreducible(m + (1,), p)]


# the first two keep their test ids
MODULI = [(8, (1, 0, 1, 1)), (9, (1, 0, 1))]
MODULI += [(q, m) for q in (8, 9, 16, 25, 27) for m in _moduli(q) if (q, m) not in MODULI]


@functools.cache
def _default_report(q):
    return census.verify(q)


def test_every_monic_irreducible_modulus_is_tested():
    assert len(MODULI) == 26 and all(m in MODULI for m in [
        (q, tuple(gfq.DEFAULT_MODULI[q])) for q in (8, 9, 16, 25, 27)])


@pytest.mark.parametrize("q,alt", MODULI)
def test_reports_are_modulus_independent(q, alt):
    default = _default_report(q)
    other = census.verify(q, modulus=alt)
    assert other["meta"]["modulus"] == list(alt)
    assert _shape(default) == _shape(other)
    assert other["pass"]


def test_spectrum_basis_labels():
    assert census._spectrum_basis(13) == "theorem"
    assert census._spectrum_basis(16) == "theorem"
    assert census._spectrum_basis(41) == "conjecture"
    assert census._spectrum_basis(49) == "conjecture"
    report = census.verify(4)
    spec_check = next(c for c in report["checks"] if c["name"] == "external_spectrum")
    assert spec_check["basis"] == "theorem"


def test_small_q_patterns_match_generic(run):
    # the matrix-form subgroup reproduces the generic orbit pattern at q=2,3,4
    for q, xi in ((2, -1), (3, 0), (4, 1)):
        r = run(q)
        records = r.all_orbit_records()
        pattern = census.expected_orbit_pattern(r.field)
        assert r.field.xi == xi
        for cls, expected in pattern.items():
            assert sorted((s, st) for s, st, _ in records[cls]) == expected, (q, cls)


def test_orbit_census_fragment_shape():
    frag = census.orbit_census(5, line_class="RC")
    assert frag["schema_version"] == census.SCHEMA_VERSION
    (entry,) = frag["classes"]
    assert entry["class"] == "RC"
    assert entry["expected_size"] == entry["actual_size"] == 15
    (orbit,) = entry["orbits"]
    assert orbit["size"] == 15 and orbit["stabilizer_order"] == 8
    assert len(orbit["representative"]) == 6
    json.dumps(frag)  # JSON-serializable throughout


def test_report_csv_flattening():
    csv = census.report_to_csv(census.verify(5))
    lines = csv.strip().splitlines()
    assert lines[0] == "q,class,orbit_length,multiplicity,stabilizer_order"
    assert "5,UnG,60,2,2" in lines
    assert "5,EnG,60,4,2" in lines
    assert "5,EnG,120,2,1" in lines


def test_verify_check_composition():
    report = census.verify(5)
    names = {c["name"] for c in report["checks"]}
    assert {"class_size:RC", "line_count_total", "klein_relation_all_lines",
            "orbit_pattern:EnG", "external_spectrum", "total_orbit_count",
            "orbit_stabilizer_product", "stabilizer_orders_brute",
            "family:TANGENT", "polarity_commutation",
            "polarity_class_exchange", "polarity_stabilizer_equality",
            "polarity_orbit_image", "chord_uniqueness", "axis_uniqueness",
            "triple_transitivity"} <= names
    rep9 = census.verify(9)
    names9 = {c["name"] for c in rep9["checks"]}
    assert "axis_pencil" in names9
    assert "family:EA_23" in names9
    assert "polarity_commutation" not in names9


# SHA-256 of report_to_csv(verify(q)) with the default modulus, for every
# supported q outside the long-run gate.  The CSV has no meta block, so
# these digests stay fixed across schema versions.
GOLDEN_CSV_SHA256 = {
    2: "27c466f3ded72f949c1b5b77a285edf00849d324796da63a011258f3b316895e",
    3: "51e2a668016be05945d9f0ea302f3ad85d7889f3f62388b734410b4dfaf3a3e1",
    4: "f73f4c6faf36004fa96fdb78ec5fef739682c0004304343c19fd6d45e4f7a678",
    5: "6bcc7bb422610e862a1a64aa2138c5a004f7ee0704401db34fbe0d594d2c1c6e",
    7: "18f459c3d325a691687e7ce7c0db4a0f1776b9ce5f09408a12dfc2277ea20ebc",
    8: "eb725f02dbbf8bf6b281b872797c5b4e655336ebb9360bf434ec0bdd6640ad62",
    9: "1da3aeb0261d861a67c627a10ecf55f37b41ac4a26af54560aa423434f372f97",
    11: "6e03c8861b45ea0ec48452f3aa089a2d500bafb619b364af871eaae5afc2c5fa",
    13: "808739f5a5f58ae68d54be8e87ad4f1a7633da1ef5e9ac3ad9fecea04811c2f6",
    16: "82c0dfd43ab56f6fa953c51f35cc51a90aa5882968ced964be4d10ca3c82606b",
    17: "02d4613d31c1ff47bf9909f9a3eb411fc2522ccf4adc5f7c049ac5f9eece5004",
    19: "5a98bf990d21515604cbb639e215682f708675aeef0fe9d8a2421f71daacddd9",
    23: "b92f6a5d3083364e43caadb38391d75b74b2b8f36768998bbccc7d8c2576811f",
    25: "08422b87710f1b629b5206b90867bec49b11d2e56ab707c0ceda8b0b15978172",
    27: "56279437c526176b36bf94200e6cba8ec3389a2051b92cb9da023fab3d7923aa",
    29: "5142870008914a67c4f77c66dec11622a314371e1dbe0809cb5826c037128cef",
    31: "efb16af71ad5a62aedb2f66fb128fc694b44ed3fc30cd71d57cd17558f56f52f",
    32: "a037ba9420368b2253e5e14a48f4b791c0a81e6de9d317a0bb166756a0c47d77",
}

# SHA-256 of report_to_json(verify(q)) with the default modulus, schema
# version 2; each report equals its schema version 1 predecessor apart from
# the version number and the dropped meta.threads field
GOLDEN_REPORT_SHA256 = {
    2: "f4e0b5ef52404f960b001512b9080c6bc0d707e34149534cbcc56caf1278389b",
    3: "ec5fdb1ba0be55104019ffce6aae121bc04cfbd8031cbcc16d6641c325463c79",
    4: "933b82c1699d7e5e0ddbae83126270566fa92e5dce518b0f7aaddfea187e4f8a",
    5: "cd7993c5790fbce8840b4524a86fae091d43fb67c67c17cf377f97c334da3231",
    7: "d7182e4b0afda5c8c87e801896807f57f5edad82e2c2a1ebfaa1416da6c08395",
    8: "3c74f06c30d830ba832a14db7a674df9b227ee33b7ba17f751032fc0cd1d18dc",
    9: "de5d803979956797ea9874a99ec2b61a2d282d5a38195b659aa9669dc4cd45e6",
    11: "9a197f443642dc5b7f8127349120af5ff364e17b9539b1a95a12ee17b930adcb",
    13: "0776ef28b3352c5bbbc21617f78edb0df53355fcf216e611500230e01e3356c1",
    16: "2c4edafbdff8a2d7fa04b8a64c7da67bc50941cf4e9d382d4751a25c0e2e9294",
    17: "fcade43320099ba08e5b292eec8009f276974e03f514e2fba1a38cc6c8f99882",
    19: "9966b30a3bb6dc58dabcc1dc879b17d7e7c4a7246d3c010774342ec3abb7e0fc",
    23: "38e30e57bd45f0492551d79debcb27ca6349f209c55e2fda1961116e33de75cb",
    25: "6df5344a7a220f69af6d4adb734e1ef2152a2786dec42c213b832452f3b4ed9b",
    27: "eb843c6b795c4ee8518ef2023cc5a3e231b19cd130c94905f8336573dde55fe3",
    29: "c12bf5ef659019f0dfd2d279843f101da48d8bf4384557ca9cd36b2e4b656463",
    31: "7e24bf0b028b5d441e2eaaf211948cda3fb6778d2473ad54ee4de778c83a6a8b",
    32: "55c73c440f0a6272e371126462afe5c3b9f75210939841e01143d591fef1edcf",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q", [q for q in census.SUPPORTED_Q if q not in census.LONG_RUN_Q])
def test_default_reports_match_golden_digests(q):
    report = census.verify(q)
    assert _sha256(census.report_to_json(report)) == GOLDEN_REPORT_SHA256[q]
    assert _sha256(census.report_to_csv(report)) == GOLDEN_CSV_SHA256[q]


def test_structural_checks_run_at_every_q():
    names = {c["name"] for c in census.verify(16)["checks"]}
    assert {"stabilizer_orders_brute", "polarity_orbit_image", "axis_uniqueness",
            "chord_uniqueness", "triple_transitivity"} <= names
    names = {c["name"] for c in census.verify(3)["checks"]}
    assert {"stabilizer_orders_brute", "axis_pencil", "chord_uniqueness",
            "triple_transitivity"} <= names


@pytest.mark.parametrize("q", (5, 8, 9))
def test_census_path_builds_no_scalar_model(monkeypatch, q):
    """verify, classify and orbits read the Engine's cubic only."""
    def refuse(field):
        raise AssertionError("build_cubic called on the census path")
    monkeypatch.setattr(twisted, "build_cubic", refuse)
    assert census.verify(q)["pass"]
    run = census.CensusRun(q)
    assert run.engine.class_counts() == twisted.expected_class_sizes(run.field)
    assert run.engine.plane_class_counts() == census.expected_plane_class_sizes(q)
    assert len(census.orbit_census(q)["classes"]) == len(
        twisted.valid_line_classes(run.field))


def test_model_is_built_on_first_read():
    run = census.CensusRun(9)
    assert "model" not in vars(run)
    model = run.model
    assert isinstance(model, twisted.CubicModel) and model.field is run.field
    assert run.model is model and model.axis is not None


def _engines(monkeypatch):
    """The Engines that census entry points build from here on."""
    made = []

    def make(*args, **kwargs):
        made.append(Engine(*args, **kwargs))
        return made[-1]
    monkeypatch.setattr(census, "Engine", make)
    return made


def test_census_reads_no_class_rank_arrays(monkeypatch):
    def refuse(self):
        raise AssertionError("class_keys called on the census path")
    monkeypatch.setattr(Engine, "class_keys", refuse)
    assert census.verify(5)["pass"] and census.verify(9)["pass"]
    run = census.CensusRun(8)
    assert run.engine.class_counts() == twisted.expected_class_sizes(run.field)
    orbits = [orb for e in census.orbit_census(7)["classes"] for orb in e["orbits"]]
    assert len(orbits) == census.expected_total_orbit_count(7, 1)


@pytest.mark.parametrize("q", (8, 9))
def test_per_line_state_is_one_int16_cell(monkeypatch, q):
    """After a verify, no Engine array has one entry per line: the state is
    one int16 cell per torus orbit of lines, each holding the global index
    of an orbit of its lines' own class, as a fresh engine's class pass
    codes it."""
    made = _engines(monkeypatch)
    assert census.verify(q)["pass"]
    eng, = made
    arrays = [value for value in vars(eng).values() if isinstance(value, np.ndarray)]
    arrays += [value for value in eng._split if isinstance(value, np.ndarray)]
    assert len(arrays) > 5 and all(len(a) != pg3.line_count(q) for a in arrays)
    assert eng.line_cells().dtype == np.int16
    assert len(eng.line_cells()) == 2 * q**3 + q**2 + 6 * q + 3
    orbit_codes = np.array([CODE[c] for c, _size in eng.orbits()], np.int8)
    assert (orbit_codes[eng.line_cells()] == ~Engine(eng.field).line_cells()).all()


def test_orbits_of_one_class_label_only_its_lines(monkeypatch):
    made = _engines(monkeypatch)
    census.orbit_census(7, line_class=twisted.UG)
    eng, = made
    assert {c for c, _size in eng.orbits()} == {twisted.UG}
    cells, codes = eng.line_cells(), ~Engine(eng.field).line_cells()
    labelled = cells >= 0
    assert (labelled == (codes == CODE[twisted.UG])).all()
    assert (cells[~labelled] == ~codes[~labelled]).all()
