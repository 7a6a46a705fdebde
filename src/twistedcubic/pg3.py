"""Points, planes and lines of PG(3,q).

Points and planes are normalized 4-tuples of element encodings (first nonzero
coordinate scaled to 1); a plane (c0,c1,c2,c3) is the locus of
c0*x0 + c1*x1 + c2*x2 + c3*x3 = 0.  A line is canonically represented by its
normalized Pluecker 6-vector (l01,l02,l03,l12,l13,l23), l_ij = u_i*v_j - u_j*v_i
for any two spanning points, together with the two lexicographically smallest
points on it.  Those two are its RREF rows, the row with the later pivot
first, read off the normalized Pluecker vector in O(1) (`rref_entries`); no
line-construction path enumerates the q+1 points of a line.

The line formulas (Pluecker vector, incidence forms, Klein relation, its
polarized form, RREF entries) are each written once over injected
field operations: the scalar functions here pass Field methods on one
element, bulk.Engine passes elementwise table lookups on coordinate arrays.

The enumerations (`all_*`, `line_points`, `lines_in_plane`, and the helpers
only they call) and `klein_value` are the tests' oracle; the runtime reads
the rest.
"""

from __future__ import annotations

from itertools import product


def normalize(field, vec):
    """Scale so the first nonzero coordinate is 1; reject the zero vector."""
    for c in vec:
        if c:
            s = field.inv(c)
            return tuple(field.mul(s, x) for x in vec)
    raise ValueError("zero vector has no projective normalization")


def vec_add(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_scale(field, c, u):
    return tuple(field.mul(c, x) for x in u)


def dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def incident(field, point, plane) -> bool:
    return dot(field, point, plane) == 0


def point_count(q: int) -> int:
    return q**3 + q**2 + q + 1


def line_count(q: int) -> int:
    return (q**2 + 1) * (q**2 + q + 1)


def _proj_reps(q, n):
    """Normalized representatives of PG(n-1, q) as n-tuples, ascending."""
    reps = []
    for lead in range(n - 1, -1, -1):
        for tail in product(range(q), repeat=n - 1 - lead):
            reps.append((0,) * lead + (1,) + tail)
    return reps


def all_points(field):
    return _proj_reps(field.q, 4)


def all_planes(field):
    return _proj_reps(field.q, 4)


# the coordinates of a Pluecker vector, in order
PAIR_IDX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class ProjLine:
    """Canonical line value: normalized Pluecker vector plus spanning pair.

    The pair is the two lexicographically smallest points of the line: its
    RREF rows U, V (pivots c0 < c1), the later pivot first.  The other points
    are U + t*V: each has 1 in column c0, where V has 0, and t in column c1,
    where U has 0, so V < U < U + t*V for t != 0.
    """

    __slots__ = ("plucker", "pair")

    def __init__(self, plucker, pair):
        self.plucker = plucker
        self.pair = pair

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.plucker == other.plucker

    def __hash__(self):
        return hash(self.plucker)

    def __lt__(self, other):
        return self.plucker < other.plucker

    def __repr__(self):
        return f"ProjLine{self.plucker}"


def plucker_forms(u, v, m, s):
    """The Pluecker vector (l01,l02,l03,l12,l13,l23) of the points u, v over
    the injected field operations m, s (multiply, subtract)."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (
        s(m(u0, v1), m(u1, v0)),
        s(m(u0, v2), m(u2, v0)),
        s(m(u0, v3), m(u3, v0)),
        s(m(u1, v2), m(u2, v1)),
        s(m(u1, v3), m(u3, v1)),
        s(m(u2, v3), m(u3, v2)),
    )


def _span_points(field, u, v):
    """All q+1 points of the line through distinct points u, v."""
    pts = [normalize(field, v)]
    for t in field.elements():
        pts.append(normalize(field, vec_add(field, u, vec_scale(field, t, v))))
    return pts


def rref_slots(c0, c1, ncols):
    """The free (row, column) entries of the rank-2 RREF 2 x ncols matrices
    with pivots c0 < c1, most significant digit first: row 0 after its pivot
    but column c1, then row 1 after its pivot."""
    return tuple([(0, j) for j in range(c0 + 1, ncols) if j != c1]
                 + [(1, j) for j in range(c1 + 1, ncols)])


def rref_entries(p, c0, c1, neg):
    """The free entries, in rref_slots(c0, c1, 4) order, of the RREF rows
    spanning the line with normalized Pluecker vector p, whose first nonzero
    coordinate is l_{c0 c1} = 1: l_{j c1} (c0 < j < c1) and -l_{c1 j}
    (j > c1) in row 0, l_{c0 j} (j > c1) in row 1; over the injected
    negation."""
    for row, j in rref_slots(c0, c1, 4):
        if row:
            yield p[PAIR_IDX.index((c0, j))]
        elif j < c1:
            yield p[PAIR_IDX.index((j, c1))]
        else:
            yield neg(p[PAIR_IDX.index((c1, j))])


def rref_rows(ncols, c0, c1, entries):
    """The RREF rows (U, V) with pivots c0 < c1 and the given free entries,
    in rref_slots order; the pivot 1s and the other 0s are Python ints,
    whatever the entries are (field elements or columns of them)."""
    rows = ([0] * ncols, [0] * ncols)
    rows[0][c0] = rows[1][c1] = 1
    for (row, j), x in zip(rref_slots(c0, c1, ncols), entries):
        rows[row][j] = x
    return tuple(rows[0]), tuple(rows[1])


def _rref_pair(field, p):
    """The two smallest points of the line with normalized Pluecker vector p:
    its RREF rows (U, V), returned as (V, U)."""
    c0, c1 = PAIR_IDX[next(k for k, x in enumerate(p) if x)]
    u, v = rref_rows(4, c0, c1, rref_entries(p, c0, c1, field.neg))
    return v, u


def line_through(field, p, q) -> ProjLine:
    """The canonical line through two distinct points; symmetric in arguments."""
    raw = plucker_forms(p, q, field.mul, field.sub)
    if not any(raw):
        raise ValueError(f"line_through requires distinct points, got {p} and {q}")
    plucker = normalize(field, raw)
    return ProjLine(plucker, _rref_pair(field, plucker))


def line_points(field, line):
    """The q+1 points of the line, ascending (the enumeration oracle)."""
    return sorted(_span_points(field, line.pair[0], line.pair[1]))


def point_on_line(field, point, line) -> bool:
    """Incidence straight from the Pluecker vector (no point enumeration)."""
    return not any(incidence_forms(point, line.plucker, field.mul, field.sub, field.add))


def incidence_forms(point, plucker, m, s, a):
    """The four linear forms in the point that all vanish iff it lies on the
    line, yielded lazily over the injected field operations m, s, a
    (multiply, subtract, add): scalar Field methods on one point, or
    elementwise table lookups on the coordinate arrays of many points."""
    x0, x1, x2, x3 = point
    l01, l02, l03, l12, l13, l23 = plucker
    yield a(s(m(x0, l12), m(x1, l02)), m(x2, l01))
    yield a(s(m(x0, l13), m(x1, l03)), m(x3, l01))
    yield a(s(m(x0, l23), m(x2, l03)), m(x3, l02))
    yield a(s(m(x1, l23), m(x2, l13)), m(x3, l12))


def line_in_plane(field, line, plane) -> bool:
    u, v = line.pair
    return incident(field, u, plane) and incident(field, v, plane)


def klein_value(field, plucker):
    """The Klein relation of a 6-vector; zero iff it is a line's vector."""
    return klein_form(plucker, field.mul, field.sub, field.add)


def klein_form(p, m, s, a):
    """The quadratic Pluecker relation l01*l23 - l02*l13 + l03*l12 over the
    injected field operations m, s, a (multiply, subtract, add)."""
    l01, l02, l03, l12, l13, l23 = p
    return a(s(m(l01, l23), m(l02, l13)), m(l03, l12))


def lines_meet(field, la, lb) -> bool:
    """Two lines meet iff the polarized Klein form of their vectors vanishes."""
    return pairing_form(la.plucker, lb.plucker, field.mul, field.sub, field.add) == 0


def pairing_form(p, r, m, s, a):
    """The polarized Klein form p01*r23 - p02*r13 + p03*r12 + p12*r03
    - p13*r02 + p23*r01 over the injected field operations m, s, a."""
    acc = s(m(p[0], r[5]), m(p[1], r[4]))
    acc = a(acc, m(p[2], r[3]))
    acc = a(acc, m(p[3], r[2]))
    acc = s(acc, m(p[4], r[1]))
    return a(acc, m(p[5], r[0]))


def line_from_plucker(field, plucker) -> ProjLine:
    """The canonical line with the given Pluecker vector; ValueError for the
    zero vector and for any vector off the Klein quadric."""
    p = normalize(field, plucker)
    pair = _rref_pair(field, p)
    if normalize(field, plucker_forms(*pair, field.mul, field.sub)) != p:
        raise ValueError(f"{plucker} does not satisfy the Klein relation")
    return ProjLine(p, pair)


def _rref_pairs(q, ncols):
    """Spanning row pairs of every rank-2 RREF matrix with ncols columns."""
    for c0 in range(ncols - 1):
        for c1 in range(c0 + 1, ncols):
            for vals in product(range(q), repeat=len(rref_slots(c0, c1, ncols))):
                yield rref_rows(ncols, c0, c1, vals)


def all_lines(field):
    """Every line exactly once, ascending by Pluecker key.  O(q^4) memory."""
    lines = [line_through(field, u, v) for u, v in _rref_pairs(field.q, 4)]
    lines.sort()
    return lines


def _nullspace(field, rows, ncols):
    """Basis of the right null space of the given row vectors."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        s = field.inv(mat[r][c])
        mat[r] = [field.mul(s, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(mat[i][fc])
        basis.append(tuple(vec))
    return basis


def meet_planes(field, pi1, pi2) -> ProjLine:
    """The line common to two distinct planes."""
    basis = _nullspace(field, [pi1, pi2], 4)
    if len(basis) != 2:
        raise ValueError(f"meet_planes requires distinct planes, got {pi1} and {pi2}")
    return line_through(field, basis[0], basis[1])


def plane_basis(field, plane):
    """Three independent points spanning the plane."""
    return _nullspace(field, [plane], 4)


def lines_in_plane(field, plane):
    """The q^2+q+1 lines lying in the plane."""
    b = plane_basis(field, plane)
    out = []
    for rows in _rref_pairs(field.q, 3):
        u, v = (tuple(dot(field, r, col) for col in zip(*b)) for r in rows)
        out.append(line_through(field, u, v))
    return sorted(out)

