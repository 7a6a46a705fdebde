import hashlib
import json

import pytest

from twistedcubic import census


def test_classify_all_examples():
    assert census.classify_all(5) == {
        "RC": 15, "T": 6, "IC": 10, "RA": 15, "IA": 10,
        "UG": 30, "UnG": 120, "EG": 120, "EnG": 480,
    }
    assert census.classify_all(9) == {
        "RC": 45, "T": 10, "IC": 36, "UG": 90, "UnG": 720,
        "EnG": 5760, "A": 1, "EA": 800,
    }
    assert census.classify_all(8) == {
        "RC": 36, "T": 9, "IC": 28, "RA": 36, "IA": 28,
        "UG": 72, "UnG": 504, "EG": 504, "EnG": 3528,
    }


def test_classify_planes_examples():
    assert census.classify_planes(5) == {
        "gamma": 6, "2C": 30, "3C": 20, "1C": 60, "0C": 40}
    assert census.classify_planes(7) == {
        "gamma": 8, "2C": 56, "3C": 56, "1C": 168, "0C": 112}


def test_unsupported_q():
    with pytest.raises(census.UnsupportedQ):
        census.classify_all(6)
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


@pytest.mark.parametrize("q,alt", [(8, (1, 0, 1, 1)), (9, (1, 0, 1))])
def test_reports_are_modulus_independent(q, alt):
    default = census.verify(q)
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


# SHA-256 of report_to_json(verify(q)) with the default modulus and threads,
# taken before the structural checks were vectorized; at these q the check
# list did not change, so the reports must stay byte-identical
GOLDEN_REPORT_SHA256 = {
    5: "27144d724f2b72939ec6d86be1a0ac7e23c0fdb4e666d414a3eaffcb173a7791",
    7: "a85d133102541a8bb1818a0b5d6cb91b6426e6a481dc10e92c583f6144977622",
    8: "ea8b8e86defd0ac393a3be28aac1ad3b5bb21d64f1fd76793e1cb1097adc2a1b",
}


@pytest.mark.parametrize("q", sorted(GOLDEN_REPORT_SHA256))
def test_default_reports_match_golden_digests(monkeypatch, q):
    monkeypatch.delenv(census.THREADS_ENV, raising=False)
    text = census.report_to_json(census.verify(q))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT_SHA256[q]


def test_structural_checks_run_at_every_q():
    names = {c["name"] for c in census.verify(16)["checks"]}
    assert {"stabilizer_orders_brute", "polarity_orbit_image", "axis_uniqueness",
            "chord_uniqueness", "triple_transitivity"} <= names
    names = {c["name"] for c in census.verify(3)["checks"]}
    assert {"stabilizer_orders_brute", "axis_pencil", "chord_uniqueness",
            "triple_transitivity"} <= names
