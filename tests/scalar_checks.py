"""Scalar reference versions of the structural census checks.

These are the point-by-point loops over `pg3` and `action` that the
vectorized `Engine` checks replaced.  They are slow (seconds at q = 8), so
they only serve as an independent oracle in the differential tests.
`chord_code` is the full-evaluation form of `Engine._chord_code`, kept as
the reference for its filtered form, and `polar_orbit_counts` the pass that
ranks every line's polar image, kept as the reference for the Engine's pass,
which maps one line per cell.  `line_cells` classifies every line, chunk by
chunk (`line_tasks`), the reference for the Engine's class pass, which
classifies one line per cell.  `model_flags` builds the flags of every line
by joining each cubic point to the points of a coordinate plane and by
mapping every RREF 2 x 3 matrix into each osculating plane, the reference
for the Engine's one plane construction.  `cell_of_rank` names the cell of
a line by its rank, for the tests that rewrite one line's cell, and
`torus_images`, which scales Pluecker rows by the lifts of the torus, gives
the lines of cells (`cell_lines`) independently of the Engine's tables.
`plane_class_counts` tests every plane against every cubic point, the
reference for the Engine's census, which ranks the planes through each
cubic point.  `whole_group` is the group as one array of |G| lifts, with
the one-pass forms of the group passes over it, the reference for the
Engine's split into representatives and torus.
"""

from functools import reduce

import numpy as np

from twistedcubic import action, bulk, pg3, twisted


def chord_uniqueness(run):
    f = run.field
    model = run.model
    eng = run.engine
    chords = list(model.real_chord_set) + list(model.tangent_set)
    chords += [eng.line_from_rank(r) for r in eng.class_keys()[twisted.IC].tolist()]
    counts = {}
    for ln in chords:
        for pt in pg3.line_points(f, ln):
            counts[pt] = counts.get(pt, 0) + 1
    return all(
        counts.get(pt, 0) == 1
        for pt in pg3.all_points(f) if pt not in model.cubic_point_set)


def axis_uniqueness(run):
    f = run.field
    eng = run.engine
    keys = eng.class_keys()
    axis_keys = eng.pack(eng._unrank(np.concatenate(
        [keys[twisted.RA], keys[twisted.IA], keys[twisted.T]])))
    ok = True
    for plane in pg3.all_planes(f):
        if plane in run.model.gamma_plane_set:
            continue
        in_plane = np.array(
            [eng.pack_tuple(ln.plucker) for ln in pg3.lines_in_plane(f, plane)],
            dtype=np.int64)
        if int(np.isin(in_plane, axis_keys).sum()) != 1:
            ok = False
    return ok


def triple_transitivity(run):
    """Size of the generator closure of the base triple of cubic points."""
    f = run.field
    base = (twisted.cubic_point(f, 0), twisted.cubic_point(f, 1),
            twisted.cubic_point(f, twisted.INF))
    gens = action.generators(f)
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for tri in frontier:
            for g in gens:
                img = tuple(action.act_point(f, g, p) for p in tri)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen)


def stabilizers_brute(run):
    """Whether every record's stabilizer order is the number of elements of
    the whole group that keep its representative's points on it."""
    eng = run.engine
    group = whole_group(eng)
    return all(
        len(stabilizer_abcd(eng, group, eng.line_from_key(rep))) == stab
        for records in run.all_orbit_records().values()
        for _size, stab, rep in records)


def polarity_orbit_images(run):
    eng = run.engine
    ok = True
    for cls in twisted.valid_line_classes(run.field):
        for _size, _stab, rep in run.orbit_records(cls):
            orbit = eng.orbit_sweep(eng.line_from_key(rep))
            image = np.sort(eng.polar_keys(orbit))
            image_orbit = eng.orbit_sweep(eng.line_from_key(image[0]))
            if not np.array_equal(image, image_orbit):
                ok = False
    return ok


# a projective frame of PG(3,q): two collineations agree iff they agree on it
FRAME = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))


def polarity_commutation(run):
    """Number of group elements g that move the polar plane of some frame
    point x elsewhere than the polar plane of g(x).  Both x -> g(polar(x))
    and x -> polar(g(x)) are induced by linear maps, so they are equal iff
    they agree on the frame."""
    f = run.field
    return sum(
        any(action.act_plane(f, g, twisted.null_polarity_point(f, pt))
            != twisted.null_polarity_point(f, action.act_point(f, g, pt))
            for pt in FRAME)
        for g in action.all_elements(f))


def chord_code(eng, P):
    """Engine._chord_code evaluated on every row: the whole symmetric-function
    pattern and the root count, with no filter first."""
    m = eng._mul
    p0, p1, p2, p3, p4, p5 = P.T
    code = np.zeros(len(P), dtype=np.int8)

    thru_inf = (p3 == 0) & (p4 == 0) & (p5 == 0)
    code[thru_inf & (p1 == 0) & (p2 == 0)] = 1
    code[thru_inf & (p2 != 0) & (m(p0, p2) == m(p1, p1))] = 2

    s = eng.INV[p5]
    a1 = m(p4, s)
    a2 = m(p3, s)
    pattern = twisted.chord_pattern(a1, a2, m, eng._sub)
    match = p5 != 0
    for want, got in zip(pattern, (p0, p1, p2)):
        match &= want == m(got, s)
    cnt = eng._root_count(a1, a2)
    code[match & (cnt == 2)] = 2
    code[match & (cnt == 1)] = 1
    code[match & (cnt == 0)] = 3
    return code


def polar_orbit_counts(eng):
    """Engine.polar_orbit_counts row by row: every line's Pluecker row goes
    through Engine._polar, Engine._normalize_rows and Engine._rank, chunk by
    chunk, and its image is marked in a mask over every rank (xi != 0, every
    class partitioned); each line reads its label in the cell of its row.
    Returns (onto, counts) as the Engine does."""
    labels, m = eng.line_cells(), len(eng.orbits())  # every cell is a label
    hit = np.zeros(pg3.line_count(eng.q), dtype=bool)

    def polarize(_ranks, P):
        img = eng._normalize_rows(eng._polar(P))
        hit[eng._rank(img)] = True
        return np.bincount(labels[eng._cell_of(P)[0]].astype(np.intp) * m
                           + labels[eng._cell_of(img)[0]], minlength=m * m)
    counts = sum(over_lines(eng, polarize))
    return bool(hit.all()), counts.reshape(m, m)


def line_tasks(eng):
    """Every chunk of the line enumeration, a slice of at most eng.chunk
    ranks, in rank order."""
    n = pg3.line_count(eng.q)
    return [slice(lo, min(lo + eng.chunk, n)) for lo in range(0, n, eng.chunk)]


def over_lines(eng, fn):
    """fn(ranks, P) per chunk of all lines, in rank order, with P the
    normalized Pluecker rows of the rank slice `ranks`."""
    return [fn(t, eng._task_plucker(t, eng._blocks)) for t in line_tasks(eng)]


def canonical_lines(eng, cells):
    """The normalized Pluecker rows of the canonical lines of the cells."""
    return eng._plucker(*eng._pairs_of(np.atleast_1d(np.asarray(cells, np.int64)), eng._subs))


def cell_of_rank(eng, ranks):
    """The cells of the lines with the given ranks."""
    return eng._cell_of(eng._unrank(np.atleast_1d(np.asarray(ranks, np.int64))))[0]


def torus_images(eng, P):
    """The (q - 1, n, 6) normalized images of the Pluecker rows P under the
    torus elements (1, 0, 0, d), d ascending, whose lift diag(1, d, d^2,
    d^3) scales l_ij by d^(i + j)."""
    f = eng.field
    return np.stack([eng._normalize_rows(bulk._columns(
        [eng._mul(f.power(d, i + j), P[:, k]) for k, (i, j) in enumerate(pg3.PAIR_IDX)]))
        for d in f.units()])


def cell_lines(eng, cells):
    """The ascending ranks of the lines of the given cells: the torus images
    of their canonical lines."""
    return np.unique(eng._rank(torus_images(eng, canonical_lines(eng, cells)).reshape(-1, 6)))


def model_flags(eng):
    """Engine._model_flags by two constructions: MEETS on the lines that join
    each cubic point to every point of a plane x_j = 0 that misses it, GAMMA
    on the lines of each osculating plane, whose basis maps the row pairs of
    every rank-2 RREF 2 x 3 matrix to the plane's points."""
    flags = np.zeros(pg3.line_count(eng.q), np.int16)

    def mark(U, V, bit):
        flags[eng._rank(eng._normalize_rows(eng._plucker(U, V)))] |= bit
    points = eng._proj_points(4)
    for pt in eng.cubic_points:
        V = points[points[:, next(i for i in range(4) if pt[i])] == 0]
        mark(np.tile(np.asarray(pt, np.int16), (len(V), 1)), V, bulk.MEETS)
    r0, r1 = (np.array(rows, np.int16).T for rows in zip(*pg3._rref_pairs(eng.q, 3)))
    for plane in eng.gamma_planes:
        basis = list(zip(*pg3.plane_basis(eng.field, plane)))  # its 4 columns
        mark(*(bulk._columns([eng._lincomb(col, r) for col in basis]) for r in (r0, r1)),
             bulk.GAMMA)
    return flags


def plane_class_counts(eng):
    """Engine.plane_class_counts by the whole-space scan: every plane of
    PG(3,q) tested against each cubic point, the osculating planes apart."""
    planes = eng._proj_points(4)
    m = np.zeros(len(planes), dtype=np.int16)
    for pt in eng.cubic_points:
        m += eng._lincomb(pt, planes.T) == 0
    m[eng.gamma_plane_ranks] = -1
    return {name: int(np.count_nonzero(m == d))
            for name, d in (("gamma", -1), ("2C", 2), ("3C", 3), ("1C", 1), ("0C", 0))}


def line_cells(eng):
    """Engine.line_cells line by line: every chunk of all lines classified
    over the flags of model_flags.  Returns (the ~code of every line, by
    rank, class sizes, Klein violations)."""
    cells = model_flags(eng)

    def classify(ranks, P):
        codes, klein = eng._classify_chunk(P, cells[ranks])
        cells[ranks] = ~codes
        return np.count_nonzero(klein), np.bincount(codes, minlength=len(bulk.CLASS_ORDER))
    bad, sizes = zip(*over_lines(eng, classify))
    return cells, sum(sizes), sum(bad)


def whole_group(eng):
    """The ascending normalized (a, b, c, d) of every group element, filtered
    from all projective 4-tuples, and their (N, 4, 4) lifts."""
    abcd = eng._proj_points(4)
    a, b, c, d = abcd.T
    abcd = abcd[eng._sub(eng._mul(a, d), eng._mul(b, c)) != 0]
    assert len(abcd) == eng.group_order
    return abcd, lifts(eng, abcd)


def lifts(eng, abcd):
    """The (N, 4, 4) lifts of the (a, b, c, d) rows by action.lift_rows over
    the Engine's field ops."""
    rows = action.lift_rows(eng.field, *abcd.T, eng._mul, eng._add)
    return np.stack([np.stack(r) for r in rows]).transpose(2, 0, 1)


def act(eng, pt, mats):
    """The (N, 4) images of one point under the (N, 4, 4) lifts mats."""
    return np.stack([eng._lincomb(pt, mats[:, :, j].T) for j in range(4)], axis=1)


def line_images(eng, mats, line):
    """The normalized Pluecker rows of the line's images under the lifts."""
    return eng._normalize_rows(eng._plucker(*(act(eng, pt, mats) for pt in line.pair)))


def stabilizer_abcd(eng, group, line):
    """The sorted (a, b, c, d) of the elements of group = whole_group(eng)
    that keep both points of the line on it."""
    abcd, mats = group
    fixed = True
    for pt in line.pair:
        forms = pg3.incidence_forms(act(eng, pt, mats).T, line.plucker,
                                    eng._mul, eng._sub, eng._add)
        fixed &= np.logical_and.reduce([form == 0 for form in forms])
    return sorted(map(tuple, abcd[fixed].tolist()))


def triple_images(eng, group, triple):
    """Number of distinct ordered triples of cubic points among the images
    of the triple of points under every lift of group = whole_group(eng)."""
    m = len(eng.cubic_point_ranks)
    index = np.full(pg3.point_count(eng.q), -1, dtype=np.int64)
    index[eng.cubic_point_ranks] = np.arange(m)
    code, on_cubic = 0, True
    for pt in triple:
        pos = index[eng._point_rank(eng._normalize_rows(act(eng, pt, group[1])))]
        on_cubic &= pos >= 0
        code = code * m + pos
    return len(np.unique(code[on_cubic]))


def polarity_violations(eng, group):
    """Number of lifts M of group = whole_group(eng) with M J M^T != c J for
    every scalar c, J the Gram matrix of the null polarity's alternating
    form w(x, y) = x . twisted.polar_form(y) (xi != 0)."""
    f, mats = eng.field, group[1]
    J = np.array([twisted.polar_form(e, eng.three, f.mul, f.neg)
                  for e in np.eye(4, dtype=int).tolist()]).T
    rows = [mats[:, i, :].T for i in range(4)]
    polars = [twisted.polar_form(r, eng.three, eng._mul, eng._neg) for r in rows]

    def w(i, k):
        return reduce(eng._add, map(eng._mul, rows[i], polars[k]))
    scale = w(0, 3)
    ok = scale != 0
    for i in range(4):
        for k in range(4):
            ok &= w(i, k) == eng._mul(int(J[i, k]), scale)
    return int(np.count_nonzero(~ok))
