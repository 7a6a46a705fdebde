"""Census and verification harness.

Runs the classifier and the orbit engine for one field, compares every
computed quantity against its closed form, and emits a deterministic report
(JSON or CSV).  Reports are byte-identical across runs for a fixed
(q, modulus); wall-clock timing is only included on request.  The census
reads one cubic, the Engine's; the scalar `CubicModel` of a run is built
only when read, for per-line queries through the scalar classifier.
"""

from __future__ import annotations

import json
import time
from functools import cached_property

import numpy as np

from . import __version__
from . import action, gfq, pg3, twisted
from .bulk import Engine

SCHEMA_VERSION = 2

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
               32, 37, 41, 43, 47, 49, 53, 59, 61, 64)

# orders where the verdict of the external-line census rests on an
# exhaustively confirmed result; elsewhere the generic pattern is an
# extrapolation and is labeled conjecture-consistent
CONFIRMED_SPECTRUM_Q = frozenset(
    {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 64})

# orders gated behind --long-run in the CLI: every supported order above 32
LONG_RUN_Q = frozenset(q for q in SUPPORTED_Q if q > 32)


class UnsupportedQ(ValueError):
    pass


def _require_supported(q):
    if q not in SUPPORTED_Q:
        raise UnsupportedQ(
            f"q={q} is not supported (prime powers 2..64); supported: {SUPPORTED_Q}")


# -- closed forms -------------------------------------------------------------

def expected_plane_class_sizes(q: int) -> dict[str, int]:
    n = q**3 - q
    return {"gamma": q + 1, "2C": q * q + q, "3C": n // 6, "1C": n // 2, "0C": n // 3}


def expected_external_spectrum(q: int, xi: int) -> dict[int, int]:
    """Multiset {orbit length: multiplicity} for the EnG class."""
    n = q**3 - q
    spectrum: dict[int, int] = {}

    def put(length, mult):
        if mult:
            spectrum[length] = spectrum.get(length, 0) + mult

    if q % 2:
        n_q = {1: (2 * q - 11) // 3, -1: (2 * q - 10) // 3, 0: (2 * q - 6) // 3}[xi]
        put(n // 4, n_q)
        put(n // 2, q - 1)
        put(n, (q - xi) // 3)
        if xi == 1:
            put(n // 12, 1)
            put(n // 3, 2)
    else:
        put(n // (2 + xi), 2 + xi)
        put(n // 2, 2 * q - 4)
    return spectrum


def expected_external_orbit_count(q: int, xi: int) -> int:
    return 2 * q - 3 + xi if q % 2 else 2 * q - 2 + xi


def expected_total_orbit_count(q: int, xi: int) -> int:
    return 2 * q + 7 + xi


def expected_orbit_pattern(field) -> dict[str, list[tuple[int, int]]]:
    """Expected (size, stabilizer_order) multiset per class, ascending.

    The EnG pattern follows the generic external-line spectrum; for q outside
    CONFIRMED_SPECTRUM_Q it is conjectural and labeled so in reports.
    """
    q, xi = field.q, field.xi
    n = q**3 - q
    odd = q % 2 == 1
    pattern = {
        twisted.RC: [((q * q + q) // 2, 2 * (q - 1))],
        twisted.T: [(q + 1, q * (q - 1))],
        twisted.IC: [((q * q - q) // 2, 2 * (q + 1))],
        twisted.UG: ([(q * q + q, q - 1)] if odd
                     else [(q + 1, q * (q - 1)), (q * q - 1, q)]),
        twisted.UNG: ([(n // 2, 2)] * 2 if odd else [(n, 1)]),
        twisted.ENG: sorted(
            (length, n // length)
            for length, mult in expected_external_spectrum(q, xi).items()
            for _ in range(mult)),
    }
    if xi != 0:
        pattern[twisted.RA] = pattern[twisted.RC]
        pattern[twisted.IA] = pattern[twisted.IC]
        pattern[twisted.EG] = pattern[twisted.UNG]
    else:
        pattern[twisted.A] = [(1, n)]
        pattern[twisted.EA] = [((q * q - 1) // 2, 2 * q)] * 2 + [(n, 1)]
    return {cls: sorted(pattern[cls]) for cls in twisted.valid_line_classes(field)}


# -- run object ---------------------------------------------------------------

POLAR_CLASS = {
    twisted.RC: twisted.RA, twisted.RA: twisted.RC,
    twisted.IC: twisted.IA, twisted.IA: twisted.IC,
    twisted.T: twisted.T, twisted.UG: twisted.UG,
    twisted.UNG: twisted.EG, twisted.EG: twisted.UNG,
    twisted.ENG: twisted.ENG,
}


class CensusRun:
    """One field's worth of census state (engine, orbits, caches)."""

    def __init__(self, q: int, modulus=None):
        _require_supported(q)
        self.q = q
        self.field = gfq.make_field(q, modulus)
        self.engine = Engine(self.field)
        self._polarity: tuple[bool, bool] | None = None

    @cached_property
    def model(self) -> twisted.CubicModel:
        """The checked scalar cubic, built on first read (per-line queries)."""
        return twisted.build_cubic(self.field)

    def orbit_records(self, cls: str) -> list[tuple[int, int, int]]:
        return self.engine.orbit_partition_keys(cls)

    def all_orbit_records(self) -> dict[str, list[tuple[int, int, int]]]:
        return {cls: self.orbit_records(cls)
                for cls in twisted.valid_line_classes(self.field)}

    def polarity_images(self) -> tuple[bool, bool]:
        """(class exchange, orbit image) verdicts of one chunked pass of every
        line through the null polarity (xi != 0).  Class exchange: the polar
        images of each class are exactly its POLAR_CLASS partner.  Orbit
        image: each orbit's labels count its size, and all its lines map into
        one orbit of equal size, so (the map being a bijection) onto it."""
        if self._polarity is None:
            self.all_orbit_records()
            onto, counts = self.engine.polar_orbit_counts()
            classes, sizes = zip(*self.engine.orbits())
            exchange = onto and all(POLAR_CLASS[classes[i]] == classes[j]
                                    for i, j in zip(*np.nonzero(counts)))
            sizes = np.array(sizes)
            orbit_image = exchange and all(np.array_equal(got, sizes) for got in (
                counts.sum(axis=1), counts.max(axis=1), sizes[counts.argmax(axis=1)]))
            self._polarity = (exchange, orbit_image)
        return self._polarity


# -- individual checks ---------------------------------------------------------

def _check(name, expected, actual, basis="theorem"):
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual, "basis": basis}


def _spectrum_pairs(records):
    spectrum: dict[int, int] = {}
    for size, _stab, _rep in records:
        spectrum[size] = spectrum.get(size, 0) + 1
    return sorted(spectrum.items())


def _spectrum_basis(q):
    return "theorem" if q in CONFIRMED_SPECTRUM_Q else "conjecture"


def check_polarity_commutation(run):
    """Every group element commutes with the null polarity: the number of
    elements whose lift does not preserve its alternating form up to a
    scalar, over the whole group."""
    return _check("polarity_commutation", 0, run.engine.polarity_violations())


def check_polarity_class_exchange(run):
    return _check("polarity_class_exchange", True, run.polarity_images()[0])


def check_polarity_orbit_images(run):
    return _check("polarity_orbit_image", True, run.polarity_images()[1])


def check_polarity_stabilizer_equality(run):
    f = run.field
    eng = run.engine
    chord = pg3.line_through(f, (0, 0, 0, 1), (1, 0, 0, 0))
    ung = pg3.line_through(f, (0, 0, 0, 1), (1, 0, 1, 0))
    ok = True
    for ln in (chord, ung):
        polar = twisted.null_polarity_line(f, ln)
        ok &= eng.stabilizer_abcd(ln) == eng.stabilizer_abcd(polar)
    return _check("polarity_stabilizer_equality", True, ok)


def check_stabilizers_brute(run):
    """Exhaustive stabilizer order of every orbit representative (counted in
    its orbit sweep) vs the orbit-stabilizer prediction (q^3 - q) // size."""
    n = run.engine.group_order
    ok = all(stab == n // size for recs in run.all_orbit_records().values()
             for size, stab, _rep in recs)
    return _check("stabilizer_orders_brute", True, ok)


def check_families(run):
    """Each parametric stabilizer family equals the exhaustive stabilizer of
    every line it is proved to fix."""
    f = run.field
    eng = run.engine
    results = {}
    for form in action.FAMILY_IDS:
        if not action.family_applicable(f, form):
            continue
        fam = action.stab_family(f, form)
        results[form] = all(
            eng.stabilizer_abcd(rep) == fam
            for rep in action.family_representatives(f, form))
    return [
        _check(f"family:{form}", True, results[form]) for form in sorted(results)
    ]


def check_chord_uniqueness(run):
    """Every point off the cubic lies on exactly one chord (real, tangent or
    imaginary); exhaustive."""
    eng = run.engine
    return _check("chord_uniqueness", True, eng.covers_once(
        (twisted.RC, twisted.T, twisted.IC), eng.cubic_point_ranks))


def check_axis_uniqueness(run):
    """Every plane off the osculating family carries exactly one axis
    (real, imaginary, or tangent); exhaustive."""
    eng = run.engine
    return _check("axis_uniqueness", True, eng.covers_once(
        (twisted.RA, twisted.IA, twisted.T), eng.gamma_plane_ranks, dual=True))


def check_axis_pencil(run):
    """The axis the class pass classifies A and EA lines with lies in every
    osculating plane (xi = 0)."""
    f, eng = run.field, run.engine
    axis = pg3.line_from_plucker(f, eng.axis_plucker)
    return _check("axis_pencil", True,
                  all(pg3.line_in_plane(f, axis, plane) for plane in eng.gamma_planes))


def check_triple_transitivity(run):
    """Every ordered triple of distinct cubic points is the image of a fixed
    base triple under some group element."""
    f = run.field
    base = (twisted.cubic_point(f, 0), twisted.cubic_point(f, 1),
            twisted.cubic_point(f, twisted.INF))
    want = (f.q + 1) * f.q * (f.q - 1)
    return _check("triple_transitivity", want, run.engine.triple_images(base))


# -- report assembly -----------------------------------------------------------

def _class_entries(run, classes):
    eng = run.engine
    counts = eng.class_counts()
    expected = twisted.expected_class_sizes(run.field)
    entries = []
    for cls in classes:
        orbits = []
        for size, stab, rep in run.orbit_records(cls):
            line = eng.line_from_key(rep)
            orbits.append({
                "size": int(size),
                "stabilizer_order": int(stab),
                "representative": [int(x) for x in line.plucker],
                "representative_pair": [[int(x) for x in p] for p in line.pair],
            })
        entries.append({
            "class": cls,
            "expected_size": int(expected[cls]),
            "actual_size": int(counts[cls]),
            "orbits": orbits,
        })
    return entries


def _meta(run, runtime):
    f = run.field
    return {
        "tool": "twistedcubic",
        "version": __version__,
        "q": f.q,
        "p": f.p,
        "e": f.e,
        "xi": f.xi,
        "modulus": list(f.modulus),
        "runtime_seconds": runtime,
    }


def selected_classes(field, line_class=None):
    """The populated classes at the field's order, or only line_class;
    UnsupportedQ if line_class is not populated there."""
    classes = twisted.valid_line_classes(field)
    if line_class is None:
        return classes
    if line_class not in classes:
        raise UnsupportedQ(
            f"class {line_class!r} is not populated at q={field.q}; one of {classes}")
    return (line_class,)


def orbit_census(q: int, line_class=None, modulus=None) -> dict:
    """Class and orbit records (no checks) for one field."""
    run = CensusRun(q, modulus)
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": _meta(run, None),
        "classes": _class_entries(run, selected_classes(run.field, line_class)),
    }


def verify(q: int, modulus=None, timing: bool = False) -> dict:
    """Full verification: class sizes, orbit spectra, stabilizers, parametric
    families, polarity compatibility, and the structural property suite."""
    started = time.monotonic()
    run = CensusRun(q, modulus)
    f = run.field
    classes = twisted.valid_line_classes(f)
    n = q**3 - q

    checks = []
    counts = run.engine.class_counts()
    expected_sizes = twisted.expected_class_sizes(f)
    for cls in classes:
        checks.append(_check(f"class_size:{cls}", expected_sizes[cls], counts[cls]))
    checks.append(_check("line_count_total", pg3.line_count(q), sum(counts.values())))
    checks.append(_check("klein_relation_all_lines", 0, run.engine.klein_violations()))

    plane_counts = run.engine.plane_class_counts()
    expected_planes = expected_plane_class_sizes(q)
    for cls in ("gamma", "2C", "3C", "1C", "0C"):
        checks.append(_check(f"plane_count:{cls}", expected_planes[cls],
                             plane_counts[cls]))

    records = run.all_orbit_records()
    pattern = expected_orbit_pattern(f)
    for cls in classes:
        basis = _spectrum_basis(q) if cls == twisted.ENG else "theorem"
        got = sorted((size, stab) for size, stab, _rep in records[cls])
        checks.append(_check(
            f"orbit_pattern:{cls}",
            [list(p) for p in pattern[cls]],
            [list(p) for p in got],
            basis=basis))

    checks.append(_check(
        "orbit_stabilizer_product", True,
        all(size * stab == n for recs in records.values()
            for size, stab, _rep in recs)))
    checks.append(_check(
        "external_spectrum",
        [list(p) for p in sorted(expected_external_spectrum(q, f.xi).items())],
        [list(p) for p in _spectrum_pairs(records[twisted.ENG])],
        basis=_spectrum_basis(q)))
    checks.append(_check(
        "external_spectrum_sum_rule", (q * q - q) * (q * q - 1),
        sum(size for size, _stab, _rep in records[twisted.ENG])))
    checks.append(_check(
        "external_orbit_count", expected_external_orbit_count(q, f.xi),
        len(records[twisted.ENG]), basis=_spectrum_basis(q)))
    checks.append(_check(
        "total_orbit_count", expected_total_orbit_count(q, f.xi),
        sum(len(r) for r in records.values()), basis=_spectrum_basis(q)))

    checks.append(check_stabilizers_brute(run))
    checks.extend(check_families(run))

    if f.xi != 0:
        checks.append(check_polarity_commutation(run))
        checks.append(check_polarity_class_exchange(run))
        checks.append(check_polarity_stabilizer_equality(run))
        checks.append(check_polarity_orbit_images(run))
        checks.append(check_axis_uniqueness(run))
    else:
        checks.append(check_axis_pencil(run))

    checks.append(check_chord_uniqueness(run))
    checks.append(check_triple_transitivity(run))

    runtime = round(time.monotonic() - started, 3) if timing else None
    report = {
        "schema_version": SCHEMA_VERSION,
        "meta": _meta(run, runtime),
        "classes": _class_entries(run, classes),
        "planes": [
            {"class": cls, "expected": expected_planes[cls],
             "actual": plane_counts[cls]}
            for cls in ("gamma", "2C", "3C", "1C", "0C")
        ],
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return report


# -- serialization ---------------------------------------------------------------

def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def report_to_csv(report: dict) -> str:
    """Flat orbit table: class, orbit_length, multiplicity, stabilizer_order."""
    q = report["meta"]["q"]
    rows = ["q,class,orbit_length,multiplicity,stabilizer_order"]
    for entry in report["classes"]:
        mult: dict[tuple[int, int], int] = {}
        for orb in entry["orbits"]:
            key = (orb["size"], orb["stabilizer_order"])
            mult[key] = mult.get(key, 0) + 1
        for (size, stab), m in sorted(mult.items()):
            rows.append(f"{q},{entry['class']},{size},{m},{stab}")
    return "\n".join(rows) + "\n"
