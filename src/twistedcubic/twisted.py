"""The twisted cubic in PG(3,q): tangents, osculating planes, the null
polarity, chord coordinates and the full line classifier.

The cubic is taken in canonical form: the point with parameter t is
(t^3, t^2, t, 1) for t in GF(q) and (1, 0, 0, 0) for t = infinity.  Line
classes are the standard eleven types; which are populated depends on
xi = q mod 3 (as -1/0/+1) and on the parity of q:

  RC   real chord                      T    tangent
  IC   imaginary chord                 UG   non-tangent unisecant in an
  RC'= RA  real axis (xi != 0)              osculating plane
  IC'= IA  imaginary axis (xi != 0)    UnG  unisecant in no osculating plane
  EG   external line in an osculating plane (xi != 0)
  EnG  external non-chord line in no osculating plane
  A    the common axis of the osculating-plane pencil (xi = 0)
  EA   external line meeting that axis (xi = 0)
"""

from __future__ import annotations

from . import pg3

INF = float("inf")

RC, T, IC, RA, IA, UG, UNG, EG, ENG, A, EA = (
    "RC", "T", "IC", "RA", "IA", "UG", "UnG", "EG", "EnG", "A", "EA",
)

LINE_CLASSES = (RC, T, IC, RA, IA, UG, UNG, EG, ENG, A, EA)


def valid_line_classes(field):
    """The classes populated for this q, in canonical report order."""
    if field.xi != 0:
        return (RC, T, IC, RA, IA, UG, UNG, EG, ENG)
    return (RC, T, IC, UG, UNG, ENG, A, EA)


class CubicModel:
    """Precomputed cubic data for one field.

    points/tangents/osc_planes are keyed by the parameter t in
    GF(q) + {INF}; the hash sets give O(1) membership for the classifier.
    axis is the common line of the osculating planes (xi = 0 only).
    """

    __slots__ = (
        "field", "params", "point_of", "tangent_of", "osc_plane_of",
        "cubic_point_set", "tangent_set", "gamma_plane_set", "real_chord_set",
        "axis",
    )

    def __init__(self, field, params, point_of, tangent_of, osc_plane_of,
                 real_chord_set, axis):
        self.field = field
        self.params = params
        self.point_of = point_of
        self.tangent_of = tangent_of
        self.osc_plane_of = osc_plane_of
        self.cubic_point_set = frozenset(point_of.values())
        self.tangent_set = frozenset(tangent_of.values())
        self.gamma_plane_set = frozenset(osc_plane_of.values())
        self.real_chord_set = real_chord_set
        self.axis = axis

    def __repr__(self):
        return f"CubicModel(q={self.field.q})"


def cubic_point(field, t):
    if t is INF:
        return (1, 0, 0, 0)
    t = field._chk(t)
    return pg3.normalize(field, (field.power(t, 3), field.mul(t, t), t, 1))


def tangent_direction(field, t):
    """The second spanning point of the tangent at parameter t."""
    if t is INF:
        return (0, 1, 0, 0)
    three, two = field.of_int(3), field.of_int(2)
    return (field.mul(three, field.mul(t, t)), field.mul(two, t), 1, 0)


def osculating_plane(field, t):
    if t is INF:
        return (0, 0, 0, 1)
    three = field.of_int(3)
    return pg3.normalize(field, (
        1,
        field.neg(field.mul(three, t)),
        field.mul(three, field.mul(t, t)),
        field.neg(field.power(t, 3)),
    ))


def chord_pattern(a1, a2, m, s):
    """(l01, l02, l03) / l23 of the chord whose two finite cubic parameters
    have sum a1 and product a2, over the injected field operations m, s
    (multiply, subtract); then l12 / l23 = a2 and l13 / l23 = a1."""
    return m(a2, a2), m(a1, a2), s(m(a1, a1), a2)


def chord_vector(field, a1, a2) -> pg3.ProjLine:
    """The chord whose two cubic parameters have sum a1 and product a2.

    Its type follows the root count of x^2 - a1*x + a2: two roots give a real
    chord, one a tangent, none an imaginary chord.
    """
    raw = chord_pattern(a1, a2, field.mul, field.sub) + (a2, a1, 1)
    return pg3.line_from_plucker(field, raw)


def chord_params(field, line):
    """Recover (a1, a2) when the line matches the finite-parameter chord
    pattern; None otherwise (chords through the t=infinity point never do)."""
    p = line.plucker
    if p[5] == 0:
        return None
    s = field.inv(p[5])
    m = field.mul
    a1 = m(p[4], s)
    a2 = m(p[3], s)
    if chord_pattern(a1, a2, m, field.sub) == (m(p[0], s), m(p[1], s), m(p[2], s)):
        return a1, a2
    return None


def is_imaginary_chord(field, line) -> bool:
    """Algebraic test: chord pattern with a rootless quadratic.

    Imaginary chords never pass through the infinity point of the cubic, so
    the last Pluecker coordinate is nonzero and (a1, a2) is recoverable.
    """
    params = chord_params(field, line)
    return params is not None and not field.quadratic_roots(*params)


def polar_form(x, three, m, neg):
    """The coefficients (x3, -3*x2, 3*x1, -x0) of the polar plane of the
    point x over the injected field operations m, neg (multiply, negate);
    x . polar_form(y) is the alternating form of the null polarity."""
    x0, x1, x2, x3 = x
    return x3, neg(m(three, x2)), m(three, x1), neg(x0)


def null_polarity_point(field, point):
    """Polar plane of a point; undefined in characteristic 3."""
    if field.xi == 0:
        raise ValueError("the null polarity degenerates when q = 0 mod 3")
    return pg3.normalize(field, polar_form(point, field.of_int(3), field.mul, field.neg))


def null_polarity_plane(field, plane):
    """Pole of a plane (inverse direction of the polarity)."""
    if field.xi == 0:
        raise ValueError("the null polarity degenerates when q = 0 mod 3")
    c0, c1, c2, c3 = plane
    inv3 = field.inv(field.of_int(3))
    return pg3.normalize(field, (
        field.neg(c3),
        field.mul(inv3, c2),
        field.neg(field.mul(inv3, c1)),
        c0,
    ))


def null_polarity_line(field, line) -> pg3.ProjLine:
    """Image line: the meet of the polar planes of two of its points."""
    u, v = line.pair
    return pg3.meet_planes(field, null_polarity_point(field, u),
                           null_polarity_point(field, v))


def build_cubic(field) -> CubicModel:
    """Build and sanity-check the full cubic model for one field."""
    q = field.q
    params = list(field.elements()) + [INF]
    point_of = {t: cubic_point(field, t) for t in params}
    if len(set(point_of.values())) != q + 1:
        raise RuntimeError("cubic parametrization is not injective")

    tangent_of = {
        t: pg3.line_through(field, point_of[t], tangent_direction(field, t))
        for t in params
    }
    if len(set(tangent_of.values())) != q + 1:
        raise RuntimeError("tangents are not pairwise distinct")

    osc_plane_of = {t: osculating_plane(field, t) for t in params}
    if len(set(osc_plane_of.values())) != q + 1:
        raise RuntimeError("osculating planes are not pairwise distinct")
    for t in params:
        on = {s for s in params
              if pg3.incident(field, point_of[s], osc_plane_of[t])}
        if on != {t}:
            raise RuntimeError(f"osculating plane at {t} meets the cubic at {on}")

    real_chords = set()
    for i, t1 in enumerate(field.elements()):
        for t2 in list(field.elements())[i + 1:]:
            real_chords.add(pg3.line_through(field, point_of[t1], point_of[t2]))
        real_chords.add(pg3.line_through(field, point_of[t1], point_of[INF]))
    if len(real_chords) != (q * q + q) // 2:
        raise RuntimeError("real chord count is off")

    axis = None
    if field.xi == 0:
        axis = pg3.meet_planes(field, osc_plane_of[0], osc_plane_of[INF])
        for t in params:
            if not pg3.line_in_plane(field, axis, osc_plane_of[t]):
                raise RuntimeError("axis does not lie on every osculating plane")

    return CubicModel(field, params, point_of, tangent_of, osc_plane_of,
                      frozenset(real_chords), axis)


def lies_in_gamma_plane(line, model) -> bool:
    f = model.field
    return any(pg3.line_in_plane(f, line, pl) for pl in model.osc_plane_of.values())


def count_cubic_points(line, model) -> int:
    f = model.field
    return sum(1 for p in model.cubic_point_set if pg3.point_on_line(f, p, line))


def classify_line(line, model) -> str:
    """Assign the line to exactly one class (see the module docstring)."""
    f = model.field
    m = count_cubic_points(line, model)
    if m == 2:
        return RC
    if m == 1:
        if line in model.tangent_set:
            return T
        return UG if lies_in_gamma_plane(line, model) else UNG
    if m != 0:
        raise RuntimeError(f"line meets the cubic in {m} points")
    if is_imaginary_chord(f, line):
        return IC
    if f.xi != 0:
        polar = null_polarity_line(f, line)
        if polar in model.real_chord_set:
            return RA
        if is_imaginary_chord(f, polar):
            return IA
        return EG if lies_in_gamma_plane(line, model) else ENG
    if line == model.axis:
        return A
    if pg3.lines_meet(f, line, model.axis):
        return EA
    return ENG


def expected_class_sizes(field) -> dict[str, int]:
    """Closed-form class sizes; they partition all (q^2+1)(q^2+q+1) lines."""
    q = field.q
    sizes = {
        RC: (q * q + q) // 2,
        T: q + 1,
        IC: (q * q - q) // 2,
        UG: q * q + q,
        UNG: q**3 - q,
        ENG: (q * q - q) * (q * q - 1),
    }
    if field.xi != 0:
        sizes[RA] = sizes[RC]
        sizes[IA] = sizes[IC]
        sizes[EG] = sizes[UNG]
    else:
        sizes[A] = 1
        sizes[EA] = (q + 1) * (q * q - 1)
    return {cls: sizes[cls] for cls in valid_line_classes(field)}
