"""The stabilizer group of the twisted cubic and its action on PG(3,q).

Group elements are classes (a,b,c,d) with ad - bc != 0 modulo scalars, held
as the normalized tuples, whose first nonzero entry is 1; there are q^3 - q
of them.  Each lifts to a 4x4 matrix acting on points by row-vector times
matrix, realizing the parameter map t -> (a*t + b)/(c*t + d) on the cubic.
Composition is written left to right: compose(g, h) applies g first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import pg3, twisted


def group_element(field, a, b, c, d) -> tuple:
    det = field.sub(field.mul(a, d), field.mul(b, c))
    if det == 0:
        raise ValueError(f"singular tuple {(a, b, c, d)}")
    return pg3.normalize(field, (a, b, c, d))


def identity(field) -> tuple:
    return (1, 0, 0, 1)


def compose(field, g, h) -> tuple:
    """Apply g first, then h."""
    ga, gb, gc, gd = g
    ha, hb, hc, hd = h
    m = field.mul
    ad = field.add
    return group_element(
        field,
        ad(m(ha, ga), m(hb, gc)),
        ad(m(ha, gb), m(hb, gd)),
        ad(m(hc, ga), m(hd, gc)),
        ad(m(hc, gb), m(hd, gd)),
    )


def inverse(field, g) -> tuple:
    a, b, c, d = g
    return group_element(field, d, field.neg(b), field.neg(c), a)


def lift(field, g):
    """The 4x4 matrix of the element, as a tuple of row tuples."""
    return lift_rows(field, *g, field.mul, field.add)


def lift_rows(field, a, b, c, d, m, ad):
    """The rows of the 4x4 lift of (a,b,c,d) over the injected field
    operations m (multiply) and ad (add): scalar Field methods on elements,
    or elementwise table lookups on arrays of elements."""
    two, three = field.of_int(2), field.of_int(3)
    a2, b2, c2, d2 = m(a, a), m(b, b), m(c, c), m(d, d)
    return (
        (m(a2, a), m(a2, c), m(a, c2), m(c2, c)),
        (
            m(three, m(a2, b)),
            ad(m(a2, d), m(two, m(a, m(b, c)))),
            ad(m(b, c2), m(two, m(a, m(c, d)))),
            m(three, m(c2, d)),
        ),
        (
            m(three, m(a, b2)),
            ad(m(b2, c), m(two, m(a, m(b, d)))),
            ad(m(a, d2), m(two, m(b, m(c, d)))),
            m(three, m(c, d2)),
        ),
        (m(b2, b), m(b2, d), m(b, d2), m(d2, d)),
    )


def mat_vec(field, vec, mat):
    """Row vector times matrix."""
    return tuple(pg3.dot(field, vec, col) for col in zip(*mat))


def mat_inverse(field, mat):
    """Inverse of a 4x4 matrix by Gauss-Jordan elimination."""
    n = 4
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        s = field.inv(aug[c][c])
        aug[c] = [field.mul(s, x) for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def act_point(field, g, point):
    return pg3.normalize(field, mat_vec(field, point, lift(field, g)))


def act_plane(field, g, plane):
    """Plane coefficients transform by the inverse matrix times the column."""
    minv = lift(field, inverse(field, g))
    return pg3.normalize(field, tuple(pg3.dot(field, row, plane) for row in minv))


def act_line(field, g, line) -> pg3.ProjLine:
    u, v = line.pair
    return pg3.line_through(field, act_point(field, g, u), act_point(field, g, v))


def line_fixed_by(field, g, line) -> bool:
    """Cheap fixed-line test: both spanning points land back on the line."""
    mat = lift(field, g)
    for pt in line.pair:
        img = mat_vec(field, pt, mat)
        if not pg3.point_on_line(field, img, line):
            return False
    return True


def generators(field) -> list[tuple]:
    """A generating set: t -> t+1, t -> w*t (w primitive), t -> 1/t."""
    gens = [group_element(field, 1, 1, 0, 1), group_element(field, 0, 1, 1, 0)]
    if field.q > 2:
        gens.insert(1, group_element(field, field.generator, 0, 0, 1))
    return gens


def group_order(q: int) -> int:
    return q**3 - q


def all_elements(field) -> list[tuple]:
    """All q^3 - q elements, ascending by normalized (a,b,c,d)."""
    out = [(a, b, c, d) for a, b, c, d in pg3._proj_reps(field.q, 4)
           if field.sub(field.mul(a, d), field.mul(b, c)) != 0]
    if len(out) != group_order(field.q):
        raise RuntimeError("group enumeration size mismatch")
    return out


def closure(field, gens) -> set[tuple]:
    """Multiplicative closure of a generating set (BFS)."""
    seen = set(gens) | {identity(field)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = compose(field, g, h)
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return seen


def orbit_of(field, line, gens=None) -> set[pg3.ProjLine]:
    """Closure of the line under repeated generator action (BFS)."""
    if gens is None:
        gens = generators(field)
    seen = {line}
    frontier = [line]
    while frontier:
        nxt = []
        for ln in frontier:
            for g in gens:
                img = act_line(field, g, ln)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class OrbitRecord:
    line_class: str | None
    representative: pg3.ProjLine
    size: int
    stabilizer_order: int


def orbit_partition(field, lines, line_class=None) -> list[OrbitRecord]:
    """Partition an action-closed line set into orbits.

    Raises ValueError if the BFS escapes the input set.  Records are sorted
    by (size, representative key); representative = minimal Pluecker key.
    """
    pool = {ln.plucker: ln for ln in lines}
    n = group_order(field.q)
    gens = generators(field)
    records = []
    for key in sorted(pool):
        if pool[key] is None:
            continue
        orbit = orbit_of(field, pool[key], gens)
        for ln in orbit:
            if ln.plucker not in pool:
                raise ValueError("input line set is not closed under the action")
            pool[ln.plucker] = None
        size = len(orbit)
        if n % size:
            raise RuntimeError(f"orbit size {size} does not divide the group order {n}")
        rep = min(orbit)
        records.append(OrbitRecord(line_class, rep, size, n // size))
    records.sort(key=lambda r: (r.size, r.representative.plucker))
    return records


def stabilizer(field, line) -> list[tuple]:
    """Exhaustive filter of the whole group; returns a sorted subgroup."""
    return sorted(g for g in all_elements(field) if line_fixed_by(field, g, line))


# -- parametric stabilizer families -----------------------------------------

TANGENT = "TANGENT"
CHORD_2BRANCH = "CHORD_2BRANCH"
IC_ODD = "IC_ODD"
IC_EVEN = "IC_EVEN"
UG_ODD = "UG_ODD"
UG_EVEN_L1 = "UG_EVEN_L1"
UG_EVEN_L2 = "UG_EVEN_L2"
UNG_ODD = "UNG_ODD"
EA_23 = "EA_23"

FAMILY_IDS = (TANGENT, CHORD_2BRANCH, IC_ODD, IC_EVEN, UG_ODD,
              UG_EVEN_L1, UG_EVEN_L2, UNG_ODD, EA_23)


def family_applicable(field, form) -> bool:
    odd = field.q % 2 == 1
    if form in (TANGENT, CHORD_2BRANCH):
        return True
    if form in (IC_ODD, UG_ODD, UNG_ODD):
        return odd
    if form in (IC_EVEN, UG_EVEN_L1, UG_EVEN_L2):
        return not odd
    if form == EA_23:
        return field.xi == 0
    raise ValueError(f"unknown family {form!r}")


def stab_family(field, form) -> list[tuple]:
    """Instantiate a parametric stabilizer family over its parameter range."""
    if not family_applicable(field, form):
        raise ValueError(f"family {form} does not apply at q={field.q}")
    q = field.q
    els = set()
    if form == TANGENT:
        for b in field.elements():
            for d in field.units():
                els.add(group_element(field, 1, b, 0, d))
    elif form == CHORD_2BRANCH:
        for d in field.units():
            els.add(group_element(field, 1, 0, 0, d))
        for b in field.units():
            els.add(group_element(field, 0, b, 1, 0))
    elif form == IC_ODD:
        rho = field.min_nonsquare
        for alpha in (1, field.neg(1)):
            for b, d in product(field.elements(), repeat=2):
                if b == 0 and d == 0:
                    continue
                els.add(group_element(
                    field, field.mul(alpha, d), b,
                    field.mul(alpha, field.mul(rho, b)), d))
    elif form == IC_EVEN:
        eta = field.min_trace_one
        for alpha in (0, 1):
            for c, d in product(field.elements(), repeat=2):
                if c == 0 and d == 0:
                    continue
                a = field.add(field.mul(alpha, c), d)
                b = field.add(field.mul(eta, c), field.mul(field.add(alpha, 1), d))
                els.add(group_element(field, a, b, c, d))
    elif form == UG_ODD:
        for d in field.units():
            els.add(group_element(field, 1, 0, 0, d))
    elif form == UG_EVEN_L1:
        for c in field.elements():
            for d in field.units():
                els.add(group_element(field, 1, 0, c, d))
    elif form == UG_EVEN_L2:
        for c in field.elements():
            els.add(group_element(field, 1, 0, c, 1))
    elif form == UNG_ODD:
        for d in (1, field.neg(1)):
            els.add(group_element(field, 1, 0, 0, d))
    elif form == EA_23:
        for b in field.elements():
            for d in (1, field.neg(1)):
                els.add(group_element(field, 1, b, 0, d))
    return sorted(els)


def family_representatives(field, form) -> list[pg3.ProjLine]:
    """The named lines each family is proved to fix (one list per family)."""
    if not family_applicable(field, form):
        raise ValueError(f"family {form} does not apply at q={field.q}")
    lt = lambda u, v: pg3.line_through(field, u, v)
    p0 = (0, 0, 0, 1)
    if form == TANGENT:
        return [lt((1, 0, 0, 0), (0, 1, 0, 0))]
    if form == CHORD_2BRANCH:
        reps = [lt(p0, (1, 0, 0, 0))]
        if field.xi != 0:
            reps.append(lt((0, 0, 1, 0), (0, 1, 0, 0)))  # the matching real axis
        return reps
    if form == IC_ODD:
        rho = field.min_nonsquare
        reps = [lt((1, 0, rho, 0), (0, 1, 0, rho))]
        if field.xi != 0:
            reps.append(twisted.null_polarity_line(field, reps[0]))
        return reps
    if form == IC_EVEN:
        eta = field.min_trace_one
        reps = [lt((field.add(eta, 1), 1, 1, 0), (eta, eta, 0, 1))]
        if field.xi != 0:
            reps.append(twisted.null_polarity_line(field, reps[0]))
        return reps
    if form == UG_ODD:
        return [lt(p0, (0, 1, 0, 0))]
    if form == UG_EVEN_L1:
        return [lt(p0, (0, 1, 0, 0))]
    if form == UG_EVEN_L2:
        return [lt(p0, (0, 1, 1, 0))]
    if form == UNG_ODD:
        rho = field.min_nonsquare
        reps = [lt(p0, (1, 0, 1, 0)), lt(p0, (1, 0, rho, 0))]
        if field.xi != 0:
            reps += [twisted.null_polarity_line(field, r) for r in reps]
        return reps
    if form == EA_23:
        rho = field.min_nonsquare
        pa = (0, 1, 0, 0)
        return [lt(pa, (1, 0, 1, 0)), lt(pa, (1, 0, rho, 0))]
    raise ValueError(f"unknown family {form!r}")
