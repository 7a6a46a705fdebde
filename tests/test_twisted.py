"""Cubic model tests, including a fully independent brute-force classifier.

The brute classifier works from explicit point/plane sets only: cubic point
membership, containment in each osculating plane, meeting an explicitly
constructed chord list.  Imaginary chords are built the slow, independent
way, as lines through conjugate point pairs over the quadratic extension
GF(q^2), then pulled back through a subfield embedding.
"""

import pytest

from twistedcubic import pg3, twisted as tw
from twistedcubic.gfq import make_field

BRUTE_Q = (2, 3, 4, 5, 7, 8, 9)


def test_build_cubic_counts(model):
    for q in (2, 5, 8, 9):
        m = model(q)
        assert len(m.cubic_point_set) == q + 1
        assert len(m.tangent_set) == q + 1
        assert len(m.gamma_plane_set) == q + 1
        assert len(m.real_chord_set) == (q * q + q) // 2


def test_no_four_cubic_points_coplanar(field, model):
    from itertools import combinations
    for q in (5, 8, 13):
        f = field(q)
        pts = sorted(model(q).cubic_point_set)
        for quad in combinations(pts, 4):
            assert pg3._nullspace(f, quad, 4) == [], quad  # no plane holds all four


def test_tangent_equations(field, model):
    f = field(5)
    m = model(5)
    t0 = m.tangent_of[0]
    assert all(p[0] == 0 and p[1] == 0 for p in pg3.line_points(f, t0))
    t_inf = m.tangent_of[tw.INF]
    assert all(p[2] == 0 and p[3] == 0 for p in pg3.line_points(f, t_inf))
    assert pg3.line_in_plane(f, t_inf, (0, 0, 0, 1))
    # each tangent meets the cubic only at its contact point
    for t in m.params:
        hits = {s for s in m.params
                if pg3.point_on_line(f, m.point_of[s], m.tangent_of[t])}
        assert hits == {t}


def test_osculating_planes_char3_pencil(field, model):
    for q in (3, 9, 27):
        f = field(q)
        m = model(q)
        assert m.axis is not None
        assert all(pg3.line_in_plane(f, m.axis, pl) for pl in m.gamma_plane_set)
        assert all(p[0] == 0 and p[3] == 0 for p in pg3.line_points(f, m.axis))
    assert model(5).axis is None


def test_osculating_plane_at_infinity(field):
    assert tw.osculating_plane(field(7), tw.INF) == (0, 0, 0, 1)


def test_chord_vector_matches_two_point_span(field, model):
    f = field(5)
    assert tw.chord_vector(f, 1, 0) == pg3.line_through(
        f, tw.cubic_point(f, 0), tw.cubic_point(f, 1))
    assert tw.chord_vector(f, 0, 0) == model(5).tangent_of[0]
    # every finite parameter pair: chord vector == spanned chord
    for q in (5, 8):
        ff = field(q)
        for t1 in ff.elements():
            for t2 in ff.elements():
                if t1 == t2:
                    continue
                a1, a2 = ff.add(t1, t2), ff.mul(t1, t2)
                assert tw.chord_vector(ff, a1, a2) == pg3.line_through(
                    ff, tw.cubic_point(ff, t1), tw.cubic_point(ff, t2))


def test_chord_vector_type_follows_root_count(field, model):
    for q in (5, 8, 9):
        f = field(q)
        m = model(q)
        for a1 in f.elements():
            for a2 in f.elements():
                line = tw.chord_vector(f, a1, a2)
                nroots = len(f.quadratic_roots(a1, a2))
                cls = tw.classify_line(line, m)
                assert cls == {2: tw.RC, 1: tw.T, 0: tw.IC}[nroots]
                assert tw.chord_params(f, line) == (a1, a2)


def test_imaginary_chord_example(field, model):
    f = field(5)
    assert tw.classify_line(tw.chord_vector(f, 0, 3), model(5)) == tw.IC
    rho = f.min_nonsquare
    line = pg3.line_through(f, (1, 0, rho, 0), (0, 1, 0, rho))
    assert tw.classify_line(line, model(5)) == tw.IC


def test_null_polarity_point_examples(field):
    f = field(5)
    assert tw.null_polarity_point(f, (0, 0, 0, 1)) == (1, 0, 0, 0)
    # the polar plane of a cubic point is its osculating plane
    for t in list(f.elements()) + [tw.INF]:
        pt = tw.cubic_point(f, t)
        assert tw.null_polarity_point(f, pt) == tw.osculating_plane(f, t)
    # a point always lies on its own polar plane (null polarity)
    for pt in pg3.all_points(f)[::7]:
        assert pg3.incident(f, pt, tw.null_polarity_point(f, pt))


def test_null_polarity_line_examples(field):
    f = field(5)
    chord = pg3.line_through(f, (0, 0, 0, 1), (1, 0, 0, 0))
    polar = tw.null_polarity_line(f, chord)
    assert polar == pg3.line_through(f, (0, 0, 1, 0), (0, 1, 0, 0))
    for line in pg3.all_lines(f)[::11]:
        assert tw.null_polarity_line(f, tw.null_polarity_line(f, line)) == line


def test_null_polarity_rejects_char3(field):
    f = field(9)
    with pytest.raises(ValueError):
        tw.null_polarity_point(f, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        tw.null_polarity_line(f, pg3.line_through(f, (1, 0, 0, 0), (0, 1, 0, 0)))


def test_classify_examples(field, model):
    f = field(5)
    m = model(5)
    assert tw.classify_line(pg3.line_through(f, (0, 0, 0, 1), (0, 1, 0, 0)), m) == tw.UG
    f9 = field(9)
    m9 = model(9)
    assert tw.classify_line(pg3.line_through(f9, (0, 1, 0, 0), (0, 0, 1, 1)), m9) == tw.EA
    assert tw.classify_line(m9.axis, m9) == tw.A


def test_class_sizes_q5(field, model):
    from collections import Counter
    f = field(5)
    m = model(5)
    counts = Counter(tw.classify_line(l, m) for l in pg3.all_lines(f))
    assert dict(counts) == {
        "RC": 15, "T": 6, "IC": 10, "RA": 15, "IA": 10,
        "UG": 30, "UnG": 120, "EG": 120, "EnG": 480,
    }


# -- independent brute-force classifier --------------------------------------

def _subfield_embedding(f, f2):
    """Map GF(q) into GF(q^2) by sending the generator of the polynomial
    encoding to a root of the small field's modulus."""
    if f.e == 1:
        # prime subfield constants share their encoding
        return {x: x for x in f.elements()}
    root = None
    for cand in f2.elements():
        acc = 0
        for i, coeff in enumerate(f.modulus):
            acc = f2.add(acc, f2.mul(coeff % f.p, f2.power(cand, i)))
        if acc == 0:
            root = cand
            break
    assert root is not None, "modulus has no root in the quadratic extension"
    emb = {}
    for x in f.elements():
        digits, v = [], x
        for _ in range(f.e):
            digits.append(v % f.p)
            v //= f.p
        acc = 0
        for i, c in enumerate(digits):
            acc = f2.add(acc, f2.mul(c, f2.power(root, i)))
        emb[x] = acc
    assert len(set(emb.values())) == f.q
    return emb


def _imaginary_chords_via_extension(f):
    """All imaginary chords, independently: lines through conjugate cubic
    point pairs over GF(q^2), pulled back to GF(q) coordinates."""
    f2 = make_field(f.q * f.q)
    emb = _subfield_embedding(f, f2)
    unemb = {v: k for k, v in emb.items()}
    rational = set(emb.values())
    chords = set()
    for s in f2.elements():
        if s in rational:
            continue
        sbar = f2.power(s, f.q)
        if s < sbar:
            line2 = pg3.line_through(f2, tw.cubic_point(f2, s), tw.cubic_point(f2, sbar))
            assert all(c in unemb for c in line2.plucker), "chord is not Frobenius-fixed"
            chords.add(tuple(unemb[c] for c in line2.plucker))
    assert len(chords) == (f.q * f.q - f.q) // 2
    return chords


def _brute_classifier_sets(f, m):
    ic = _imaginary_chords_via_extension(f)
    sets = {"ic": ic}
    if f.xi != 0:
        sets["ra"] = {tw.null_polarity_line(f, rc).plucker for rc in m.real_chord_set}
        sets["ia"] = {tw.null_polarity_line(f, pg3.line_from_plucker(f, p)).plucker
                      for p in ic}
    return sets


def _classify_brute(f, m, line, sets):
    pts = set(pg3.line_points(f, line))
    n_cubic = len(pts & m.cubic_point_set)
    in_gamma = any(pg3.line_in_plane(f, line, pl) for pl in m.gamma_plane_set)
    if n_cubic == 2:
        return tw.RC
    if n_cubic == 1:
        if line in m.tangent_set:
            return tw.T
        return tw.UG if in_gamma else tw.UNG
    if line.plucker in sets["ic"]:
        return tw.IC
    if f.xi != 0:
        if line.plucker in sets["ra"]:
            return tw.RA
        if line.plucker in sets["ia"]:
            return tw.IA
        return tw.EG if in_gamma else tw.ENG
    if line == m.axis:
        return tw.A
    if pts & set(pg3.line_points(f, m.axis)):
        return tw.EA
    return tw.ENG


@pytest.mark.parametrize("q", BRUTE_Q)
def test_classifier_agrees_with_brute_force(field, model, q):
    f = field(q)
    m = model(q)
    sets = _brute_classifier_sets(f, m)
    for line in pg3.all_lines(f):
        assert tw.classify_line(line, m) == _classify_brute(f, m, line, sets), line


@pytest.mark.parametrize("q", BRUTE_Q)
def test_class_sizes_match_closed_forms(field, model, q):
    from collections import Counter
    f = field(q)
    m = model(q)
    counts = Counter(tw.classify_line(l, m) for l in pg3.all_lines(f))
    assert counts == Counter(tw.expected_class_sizes(f))


def test_chord_disjointness(field, model):
    # no two chords meet off the cubic: every point off it is on exactly one
    for q in (5, 8, 9):
        f = field(q)
        m = model(q)
        chords = list(m.real_chord_set) + list(m.tangent_set)
        chords += [pg3.line_from_plucker(f, p)
                   for p in _imaginary_chords_via_extension(f)]
        counts = {}
        for ln in chords:
            for pt in pg3.line_points(f, ln):
                counts[pt] = counts.get(pt, 0) + 1
        for pt in pg3.all_points(f):
            if pt not in m.cubic_point_set:
                assert counts.get(pt, 0) == 1
