"""Vectorized line engine over the torus orbits of lines.

A line's rank is its index in the enumeration of rank-2 RREF 2 x 4 matrices
by pivot block and RREF digits, laid out by one table, `_layout(q)`; a
point's or plane's rank is its index in `_proj_points(4)`.  The diagonal
torus t = (1, 0, 0, d) of the group multiplies each RREF digit by a power of
d, its torus exponent.  A line with a nonzero digit of exponent 1 is
generic: its torus orbit has q - 1 lines and one cell, named by its
canonical line, whose first such digit is 1; every other line is special, a
cell of its own.  Classes and orbits are unions of torus orbits, so the
whole-universe state is one int16 per cell, about 2q^3 of them, laid out by
the same table in sub-blocks of fixed digits: the label of its lines' orbit
once their class is partitioned, else ~code (-1 - their class code).  A
label indexes the engine's list of orbits, in the order the sweeps found
them, each with its class, the size and stabilizer order its sweep
measured, and its representative, the only packed base-q int64 Pluecker key
it keeps.

All field arithmetic goes through four elementwise ops (`_mul`, `_add`,
`_sub`, `_neg`), built once per field by `field_ops`: a 1-D `take` on the
flattened q x q table, or on one table row when an operand is a scalar.  In
characteristic 2 the canonical encoding makes addition XOR, so `_add` and
`_sub` are `np.bitwise_xor` and `_neg` is the identity.

The line formulas are not written here: the Engine calls the shared forms of
pg3 (Pluecker vector, incidence, Klein relation, its polarized form, RREF
entries) and twisted (chord pattern, polar plane of a point) with these ops
on coordinate arrays, the same functions the scalar modules call with Field
methods.  The independent oracles stay separate: the monomial null polarity
on Pluecker vectors (`_polar`) and the root count of the chord quadratic
(`_root_count`).

The universe passes build the Pluecker rows of a slice of cells from their
base-q digits, sub-block by sub-block (`_task_plucker`): the RREF rows are
column lists (pg3.rref_rows) in which the pivot 1s, the other 0s and a
sub-block's fixed digits 0 and 1 stay Python ints, and pg3.plucker_forms
runs with ops that fold away a multiply by 0 or 1 and a subtraction of 0.
The class pass classifies the canonical line of each cell; the polarity
pass finds the cell of its image (`_cell_of`).

The group is stored only as its split: each element is r * t once, r one
of the q(q + 1) coset representatives of the torus, whose lift
diag(1, d, d^2, d^3) scales coordinate j by d^j.  A group pass acts on points
only with the representatives; their images under the torus are gathers
from a table of scaled digits (`_torus_columns`).  A partition sweep or a
stabilizer reads the cells of the R images r(l) (`_image_cells`): the q - 1
images t(r(l)) of a generic one share its cell, and a special one is
expanded into its torus images.  The passes with one entry per element, the
keys of `orbit_sweep` and the point ranks of `triple_images`, fill their
array with one kernel, `_over_torus`, summing gathers from split tables.

Every pass runs on the calling thread.  The class pass and the polarity
pass work in slices of at most chunk cells (`_tasks`), which bound their
temporaries; each |G|-entry pass fills its one array in one call.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations

import numpy as np

from . import action, pg3, twisted

CLASS_ORDER = twisted.LINE_CLASSES
CODE = {cls: i for i, cls in enumerate(CLASS_ORDER)}


def _table_op(table):
    """Elementwise table[x, y] for arrays or scalars x, y, as 1-D takes.

    Two arrays index the flattened table with x*q + y, computed in the
    operands' int16 (below 2^15, as the Engine requires); a scalar operand
    selects a row or a column of q entries instead.  `take` widens its whole
    index to intp, so callers pass one coordinate column at a time.
    """
    q = len(table)
    flat = table.ravel()

    def op(x, y):
        if not isinstance(x, np.ndarray):
            return table[x].take(y)
        if not isinstance(y, np.ndarray):
            return table[:, y].take(x)
        return flat.take(x * q + y)
    return op


def _identity(x):
    return x


def field_ops(field):
    """The elementwise (mul, add, sub, neg) of the field on int16 arrays."""
    mul = _table_op(field.mul_table)
    if field.p == 2:
        # the canonical encoding of GF(2^e) makes addition XOR
        return mul, np.bitwise_xor, np.bitwise_xor, _identity
    return (mul, _table_op(field.add_table), _table_op(field.sub_table),
            field.neg_table.take)


def _folding(mul, sub, neg):
    """mul and sub for operands that may be the Python ints 0 and 1 of an
    RREF row (pg3.rref_rows): a multiply by 0 or 1 and a subtraction of 0
    fold away, so only the minors of two free entries reach the tables."""
    def fmul(x, y):
        for c, col in ((x, y), (y, x)):
            if isinstance(c, int) and c in (0, 1):
                return col if c else 0
        return mul(x, y)

    def fsub(x, y):
        if isinstance(y, int) and y == 0:
            return x
        if isinstance(x, int) and x == 0:
            return neg(y)
        return sub(x, y)
    return fmul, fsub


def _columns(cols):
    """The (n, k) array with the given length-n columns, stored column by
    column: the field ops then read and write contiguous coordinates."""
    return np.stack(cols).T


def sorted_unique(out):
    """The array, which the caller gives up, sorted in place, then without
    adjacent duplicates (an order of magnitude faster than np.unique on large
    int64 arrays), dropped by np.compress, which takes the kept positions: a
    boolean index is several times slower when the duplicates interleave, as
    in the orbit of a line with a nontrivial stabilizer."""
    out.sort()
    keep = out[1:] != out[:-1]
    return out if keep.all() else np.compress(np.r_[True, keep], out)


@cache  # one table per q, shared by every caller, which only reads it
def _layout(q):
    """The line-rank and cell layouts (blocks, cells, starts, lines).
    Block i holds the lines whose first nonzero Pluecker coordinate is
    l_{c0 c1} = 1, the ith of PAIR_IDX: blocks[i] is (c0, c1, slots, offset,
    size, exps), its free (row, column) entries, the digits, most
    significant first, its first rank, its number of lines and the digits'
    torus exponents e: (1, 0, 0, d) scales a digit by d^e, its column's d^j
    over its row pivot's.  A rank is its block's offset plus its digits
    read base q.

    The cells lie in sub-blocks (c0, c1, slots, offset, size, lines), in
    block order, whose slots fix the exponent-1 digits to 1s and 0s: per
    exponent-1 digit k of block i, the canonical lines whose first nonzero
    such digit is k, from cell starts[i, k] on, with q - 1 lines per cell;
    then the special lines, from starts[i, 4] on, one per cell.  A cell is
    its sub-block's offset plus its free digits read base q; lines holds
    the number of lines of each cell."""
    blocks, cells, starts, offset = [], [], np.zeros((6, 5), np.int64), 0
    for i, (c0, c1) in enumerate(pg3.PAIR_IDX):
        slots = pg3.rref_slots(c0, c1, 4)
        exps = [j - (c0, c1)[row] for row, j in slots]
        blocks.append((c0, c1, slots, sum(b[4] for b in blocks), q ** len(slots), exps))
        ones = [k for k, e in enumerate(exps) if e == 1]
        for n, k in enumerate(ones + [4]):
            fixed = tuple(int(j == k) if j in ones[:n + 1] else x for j, x in enumerate(slots))
            size = q ** sum(isinstance(x, tuple) for x in fixed)
            starts[i, k] = offset
            cells.append((c0, c1, fixed, offset, size, q - 1 if k < 4 else 1))
            offset += size
    return blocks, cells, starts, np.repeat(np.array([c[5] for c in cells], np.int16),
                                            [c[4] for c in cells])


# diag(1, d, d^2, d^3) scales l_ij by d^(i + j): weights that never fall
_WEIGHT = np.array([i + j for i, j in pg3.PAIR_IDX])


# bits of the per-cell model flags built by Engine._model_flags: the lines
# meet the cubic (each is the dual of a line in the plane whose coordinates
# are a cubic point) or lie in an osculating plane
MEETS, GAMMA = 1, 2


class Engine:
    """Bulk classification and orbit machinery for one field's cubic.
    Its whole-universe state, the cells (class codes written over the model
    flags, then orbit labels), one per torus orbit of generic lines and one
    per special line, is built on first use, never for queries.
    The results depend only on the field and the cubic's closed forms
    twisted.cubic_point and twisted.osculating_plane, checked to give q + 1
    distinct points and planes, each plane meeting the cubic once."""

    def __init__(self, field, chunk=1 << 16):
        q = field.q  # the limits of the int16 table indices and int32 digits
        if q * q - 1 >= 2**15 or pg3.line_count(q) >= 2**31:
            raise ValueError(f"q = {q}: the engine needs q^2 - 1 < 2^15 and line_count(q) < 2^31")
        self.field = field
        self.chunk = chunk
        self.q = q
        self.INV = field.inv_table
        self._mul, self._add, self._sub, self._neg = field_ops(field)
        self._digit_ops = _folding(self._mul, self._sub, self._neg)
        self.SQ = field.square_mask
        self.TR = field.trace_table
        self.three = field.of_int(3)
        self.nine = field.mul(self.three, self.three)
        self.four = field.of_int(4)
        self.group_order = q**3 - q
        self._blocks, self._subs, self._starts, self._lines = _layout(q)

        params = list(field.elements()) + [twisted.INF]
        self.cubic_points, self.gamma_planes = (
            sorted(form(field, t) for t in params)
            for form in (twisted.cubic_point, twisted.osculating_plane))
        if len({*self.cubic_points}) != q + 1 or len({*self.gamma_planes}) != q + 1:
            raise RuntimeError(f"the cubic points or osculating planes are not {q + 1} distinct")
        self.cubic_point_ranks, self.gamma_plane_ranks = (
            self._point_rank(np.array(pts, np.int16))
            for pts in (self.cubic_points, self.gamma_planes))
        self.axis_plucker = None
        if field.xi == 0:  # the common line of the osculating planes
            self.axis_plucker = pg3.meet_planes(field, *self.gamma_planes[:2]).plucker
        self._cells = self._class_sizes = self._klein_violations = None
        # (class, size, stabilizer order, representative key), by label
        self._orbits: list[tuple[str, int, int, int]] = []
        self._split = None

    # -- packing and ranks ---------------------------------------------------

    def pack(self, P):
        """Packed base-q int64 keys of the rows of P."""
        out = P[:, 0].astype(np.int64)
        for j in range(1, P.shape[1]):
            out = out * self.q + P[:, j]
        return out

    def pack_tuple(self, tup):
        return int(self.pack(np.array([tup], np.int64))[0])

    def _digits(self, values, k):
        """The k base-q int16 digits of each value, least significant first,
        yielded one at a time so a caller can store each before the next.
        The values are nonnegative; the remainder is taken as v - (v // q) * q,
        since numpy's floor division by a scalar is several times faster
        than its %."""
        for _ in range(k):
            high = values // self.q
            yield (values - high * self.q).astype(np.int16)
            values = high

    def unpack(self, keys):
        """(n, 6) int16 Pluecker rows of packed line keys."""
        return _columns(list(self._digits(keys, 6))[::-1])

    def _by_lead(self, P):
        """(rows, lead, n, digits) per block of _layout, for the normalized
        Pluecker rows P: the n rows led by the block's l_{c0 c1} = 1 and
        their free RREF entries (pg3.rref_entries).  Every row is first read
        as if it were in block 0, pivots (0, 1), as all but about 1/q of them
        are, then the rest, so a caller writes each row's result over its
        last."""
        rows, sub = slice(None), P
        for lead, (c0, c1, *_rest) in enumerate(self._blocks):
            if not len(sub):
                return
            yield rows, lead, len(sub), list(pg3.rref_entries(sub.T, c0, c1, self._neg))
            later = np.flatnonzero(sub[:, lead] == 0)
            rows, sub = later if sub is P else rows[later], sub[later]

    def _rank(self, P):
        """Index of each normalized Pluecker row in the enumeration of the
        rank-2 RREF 2 x 4 matrices (_layout): the offset of the block led by
        its first nonzero coordinate plus its free RREF entries read base q."""
        out = np.empty(len(P), np.int64)
        for rows, lead, n, digits in self._by_lead(P):
            rank = np.zeros(n, np.int64)
            for x in digits:
                rank *= self.q
                rank += x
            out[rows] = rank + self._blocks[lead][3]
        return out

    def _cell_of(self, P):
        """(cells, units) of the lines with normalized Pluecker rows P: a
        line's unit is its first nonzero digit of torus exponent 1, 0 for a
        special line, and its cell (_layout) that of its canonical line,
        whose digits of exponent e are its own times unit^-e, read off the
        split's scale table, its free digits read base q."""
        scale = self._group_arrays()[2]
        cells, units = np.empty(len(P), np.int64), np.empty(len(P), np.int16)
        for rows, lead, n, digits in self._by_lead(P):
            exps = self._blocks[lead][5]
            unit, first = 0, 4
            for k in reversed([k for k, e in enumerate(exps) if e == 1]):  # the first last
                hit = digits[k] != 0
                unit, first = np.where(hit, digits[k], unit), np.where(hit, k, first)
            # the torus unit d - 1 of d = unit^-1, and d = 1 for a special line (INV[0] = 0)
            d = np.maximum(self.INV.take(unit), 1) - 1
            cell = np.zeros(n, np.int64)
            for k, (e, x) in enumerate(zip(exps, digits)):
                x = scale[d, e * self.q + x]
                # the digits of exponent 1 up to the first nonzero one are fixed
                cell = cell * self.q + x if e != 1 else np.where(first < k, cell * self.q + x, cell)
            cells[rows], units[rows] = cell + self._starts[lead, first], unit
        return cells, units

    def _pairs_of(self, ranks, blocks=None):
        """The RREF row pairs (U, V) of the lines with the given ranks, or with
        blocks the cells of _layout, of the canonical lines of the given cells;
        ValueError for an index outside the table."""
        blocks = blocks or self._blocks
        n = sum(b[4] for b in blocks)
        bad = ranks[(ranks < 0) | (ranks >= n)]
        if len(bad):
            raise ValueError(f"line rank {bad[0]} is outside [0, {n})")
        U, V = (np.empty((len(ranks), 4), np.int16) for _ in range(2))
        which = np.searchsorted([b[3] for b in blocks], ranks, "right") - 1
        for i in np.unique(which):
            sel = np.flatnonzero(which == i)
            for M, row in zip((U, V), self._digit_rows(blocks[i], ranks[sel] - blocks[i][3])):
                for j, x in enumerate(row):  # a Python int fills its whole column
                    M[sel, j] = x
        return U, V

    def _unrank(self, ranks):
        """(n, 6) int16 normalized Pluecker rows of the lines with the given
        ranks; the inverse of _rank."""
        return self._plucker(*self._pairs_of(ranks))

    def line_from_rank(self, rank) -> pg3.ProjLine:
        U, V = self._pairs_of(np.array([rank], np.int64))
        return pg3.line_through(self.field, tuple(U[0].tolist()), tuple(V[0].tolist()))

    def _point_base(self, k):
        """What a point with k coordinates after its leading 1 adds to its
        packed key to give its rank: its block of _proj_points starts at
        1 + q + ... + q^(k-1), and its leading 1 packs to q^k."""
        qk = self.q ** k
        return (qk - 1) // (self.q - 1) - qk

    def _point_rank(self, X):
        """Index of each normalized row of X in _proj_points(X.shape[1])."""
        return self.pack(X) + self._point_base(X.shape[1] - 1 - (X != 0).argmax(axis=1))

    # -- elementwise geometry -------------------------------------------------

    def _times(self, c, col):
        """c * col for a scalar c; col itself, not a copy, when c is 1."""
        return col if c == 1 else self._mul(int(c), col)

    def _lincomb(self, scalars, cols):
        """Sum of s * col over the scalars s and arrays col, skipping zero
        scalars (all zeros when every scalar is zero) and the multiply by a
        scalar 1.  When the only nonzero scalar is 1, the result is that col
        itself, not a copy: a view into the caller's array (the group lifts,
        the points or the planes), which every caller only reads."""
        acc = None
        for c, col in zip(scalars, cols):
            if c:
                term = self._times(c, col)
                acc = term if acc is None else self._add(acc, term)
        return np.zeros_like(cols[0]) if acc is None else acc

    def _span(self, basis, x):
        """The rows sum x_i * b_i over the basis rows b_i of field elements,
        one per column of x: with x = _proj_points(k).T, one per point of
        PG(k-1,q), which the caller builds once for all its bases."""
        return _columns([self._lincomb(col, x) for col in zip(*basis)])

    def _plucker(self, U, V):
        return _columns(pg3.plucker_forms(U.T, V.T, self._mul, self._sub))

    def _normalize_rows(self, P):
        # the first nonzero entry of each row, found column by column
        piv = P[:, -1].copy()
        for j in range(P.shape[1] - 2, -1, -1):
            np.copyto(piv, P[:, j], where=P[:, j] != 0)
        inv = self.INV.take(piv)
        out = np.empty_like(P)
        for j in range(P.shape[1]):
            out[:, j] = self._mul(inv, P[:, j])
        return out

    def _root_count(self, a1, a2):
        """Number of roots of x^2 - a1*x + a2 (valid elementwise)."""
        m = self._mul
        if self.field.p == 2:
            ia = self.INV[a1]
            c = m(a2, m(ia, ia))
            return np.where(a1 == 0, 1, np.where(self.TR[c] == 0, 2, 0))
        d = self._sub(m(a1, a1), m(self.four, a2))
        return np.where(d == 0, 1, np.where(self.SQ[d], 2, 0))

    def _chord_code(self, P):
        """0 = not a chord, 1 = tangent, 2 = real chord, 3 = imaginary chord.

        Scale invariant, so P need not be normalized.  Chords through the
        t=infinity cubic point have the last three coordinates zero; all other
        chords match the symmetric-function pattern with nonzero l23.  Its
        first coordinate, l01/l23 = (l12/l23)^2, reads l01*l23 = l12^2
        homogeneously; about 1/q of the rows pass that test, and only they
        are matched against the whole pattern and their roots counted.
        """
        m = self._mul
        p0, p1, p2, p3, p4, p5 = P.T
        code = np.zeros(len(P), dtype=np.int8)

        inf = np.flatnonzero((p3 == 0) & (p4 == 0) & (p5 == 0))
        i0, i1, i2 = (p.take(inf) for p in (p0, p1, p2))
        code[inf[(i1 == 0) & (i2 == 0)]] = 1
        code[inf[(i2 != 0) & (m(i0, i2) == m(i1, i1))]] = 2

        rows = np.flatnonzero((p5 != 0) & (m(p0, p5) == m(p3, p3)))
        p0, p1, p2, p3, p4, p5 = (p.take(rows) for p in (p0, p1, p2, p3, p4, p5))
        s = self.INV.take(p5)
        a1 = m(p4, s)
        a2 = m(p3, s)
        pattern = twisted.chord_pattern(a1, a2, m, self._sub)
        match = np.ones(len(rows), dtype=bool)
        for want, got in zip(pattern, (p0, p1, p2)):
            match &= want == m(got, s)
        cnt = self._root_count(a1, a2)
        code[rows[match & (cnt == 2)]] = 2
        code[rows[match & (cnt == 1)]] = 1
        code[rows[match & (cnt == 0)]] = 3
        return code

    def _polar(self, P):
        # image of the null polarity on Pluecker vectors: a fixed monomial map
        # (checked against the two-plane definition in the test suite); its
        # constants 3 and 9 are 1 in characteristic 2, where it only moves
        # columns
        if self.field.xi == 0:
            raise ValueError("the null polarity degenerates when q = 0 mod 3")
        t, n = self.three, self.nine
        return _columns([self._times(c, P[:, j])
                         for c, j in zip((t, t, n, 1, t, t), (0, 1, 3, 2, 4, 5))])

    def _klein(self, P):
        return pg3.klein_form(P.T, self._mul, self._sub, self._add)

    def _pairing_with(self, P, r):
        """Polarized Klein form of every row against the fixed vector r."""
        return pg3.pairing_form(P.T, r, self._mul, self._sub, self._add)

    # -- enumerations -----------------------------------------------------------

    def _proj_points(self, n):
        """Normalized representatives of PG(n-1,q) as (m, n) int16 rows,
        ascending like pg3._proj_reps."""
        blocks = []
        for k in range(n):  # k coordinates after the leading 1
            size = self.q ** k
            lead = [np.zeros(size, np.int16)] * (n - 1 - k) + [np.ones(size, np.int16)]
            blocks.append(_columns(lead + list(self._digits(np.arange(size), k))[::-1]))
        return np.concatenate(blocks)

    def _digit_rows(self, block, idx):
        """The RREF rows (U, V) (pg3.rref_rows, column lists) of the lines of a
        block (c0, c1, slots, ...) of _layout whose digits, read base q in slot
        order, are idx, where a slot that is a Python int is a fixed entry."""
        c0, c1, slots = block[:3]
        cols = list(self._digits(idx, sum(isinstance(x, tuple) for x in slots)))
        return pg3.rref_rows(4, c0, c1, [x if isinstance(x, int) else cols.pop() for x in slots])

    def _task_plucker(self, idx, blocks):
        """Pluecker rows, normalized since l_{c0 c1} = 1, of a slice of the
        indices of a table of _layout (its line ranks or its cells), block by
        block from their RREF rows (_digit_rows), whose constant 0s and 1s
        fold away: the rows (1, 0, a, b), (0, 1, c, d) give (1, c, d, -a, -b,
        ad - bc)."""
        parts = []
        for block in blocks:
            lo, hi = max(idx.start, block[3]), min(idx.stop, block[3] + block[4])
            if lo < hi:
                # int32 digits take half the time of int64 ones; a block holds at most q^4
                u, v = self._digit_rows(block, np.arange(lo - block[3], hi - block[3],
                                                         dtype=np.int32))
                parts.append([np.full(hi - lo, x, np.int16) if isinstance(x, int) else x
                              for x in pg3.plucker_forms(u, v, *self._digit_ops)])
        return _columns([np.concatenate(col) for col in zip(*parts)])

    def _dual(self, P):
        """The dual Pluecker rows (l23, -l13, l12, l03, -l02, l01): the points
        of a line's dual are the planes through it, and dualizing twice gives
        the line back."""
        neg = self._neg
        return _columns([P[:, 5], neg(P[:, 4]), P[:, 3], P[:, 2], neg(P[:, 1]), P[:, 0]])

    def _model_flags(self):
        """Per cell, as int16: MEETS if its lines meet the cubic, GAMMA if
        they lie in an osculating plane (the torus keeps both).  A plane with
        basis rows b0, b1, b2 (pg3.plane_basis) holds the lines sum x_ij
        P(b_i, b_j), P the Pluecker vector (pg3.plucker_forms), one per point
        x = (x01, x02, x12) of PG(2,q): x is the vector of 2 x 2 minors of the
        two rows that span the line in the plane's coordinates (the second
        compound).  The lines through a point y are the duals (_dual) of the
        lines of the plane whose coordinates are y."""
        flags = np.zeros(len(self._lines), np.int16)
        f, x = self.field, self._proj_points(3).T
        step = self.chunk // x.shape[1] + 1  # planes per call
        for bit, planes, image in ((MEETS, self.cubic_points, self._dual),
                                   (GAMMA, self.gamma_planes, _identity)):
            for i in range(0, len(planes), step):
                spans = [self._span([pg3.plucker_forms(u, v, f.mul, f.sub) for u, v in
                                     combinations(pg3.plane_basis(f, plane), 2)], x)
                         for plane in planes[i:i + step]]
                flags[self._cell_of(self._normalize_rows(image(np.concatenate(spans))))[0]] |= bit
        return flags

    # -- classification ----------------------------------------------------------

    def _classify_chunk(self, P, flags):
        """Class codes and Klein form values of the lines with normalized
        Pluecker rows P and model flags `flags`."""

        cc = self._chord_code(P)
        cls = np.full(len(P), CODE[twisted.ENG], np.int8)
        cls[cc == 2] = CODE[twisted.RC]
        cls[cc == 1] = CODE[twisted.T]
        cls[cc == 3] = CODE[twisted.IC]

        rest = cc == 0
        meets = flags & MEETS != 0
        in_gamma = flags & GAMMA != 0
        m1 = rest & meets
        cls[m1 & in_gamma] = CODE[twisted.UG]
        cls[m1 & ~in_gamma] = CODE[twisted.UNG]

        m0 = rest & ~meets
        if self.field.xi != 0:
            pc = self._chord_code(self._polar(P))
            if (m0 & (pc == 1)).any():
                raise RuntimeError("polar image of an external line is a tangent")
            cls[m0 & (pc == 2)] = CODE[twisted.RA]
            cls[m0 & (pc == 3)] = CODE[twisted.IA]
            ext = m0 & (pc == 0)
            cls[ext & in_gamma] = CODE[twisted.EG]
        else:
            is_axis = m0 & (P == self.axis_plucker).all(axis=1)
            cls[is_axis] = CODE[twisted.A]
            hits_axis = m0 & ~is_axis & (self._pairing_with(P, self.axis_plucker) == 0)
            cls[hits_axis] = CODE[twisted.EA]
        return cls, self._klein(P)

    def line_cells(self) -> np.ndarray:
        """The int16 cell of every torus orbit of lines, as laid out by
        _layout: the label of its lines' orbit once their class is
        partitioned, else ~code, for their class code (an index into
        CLASS_ORDER).  The first call classifies the canonical line of each
        cell, in slices of chunk cells (_tasks), each reading its model flags,
        then writing its ~codes over them; a cell counts for its lines in the
        class sizes and the Klein violations."""
        if self._cells is None:
            cells = self._model_flags()
            sizes, bad = np.zeros(len(CLASS_ORDER)), 0
            for task in self._tasks():
                codes, klein = self._classify_chunk(self._task_plucker(task, self._subs),
                                                    cells[task])
                cells[task], lines = ~codes, self._lines[task]
                sizes += np.bincount(codes, lines, len(CLASS_ORDER))
                bad += int(lines[klein != 0].sum())
            self._cells, self._class_sizes, self._klein_violations = cells, sizes, bad
        return self._cells

    def _tasks(self):
        """The slices of at most chunk cells that cover the cells in order."""
        return [slice(lo, lo + self.chunk) for lo in range(0, len(self._lines), self.chunk)]

    def _class_ranks(self, classes):
        """The ascending ranks of the lines of the given classes: the torus
        images of the canonical lines of the cells that hold their ~codes or
        the labels of their orbits."""
        wanted = [~CODE[c] for c in classes] + [
            label for label, (c, *_rest) in enumerate(self._orbits) if c in classes]
        P = self._plucker(*self._pairs_of(np.flatnonzero(np.isin(self.line_cells(), wanted)),
                                          self._subs))
        return np.unique(self._rank(self._torus_rows(self._torus_columns(P, _WEIGHT)[1])))

    def class_counts(self) -> dict[str, int]:
        """The number of lines of each populated class."""
        self.line_cells()
        return {cls: int(self._class_sizes[CODE[cls]])
                for cls in twisted.valid_line_classes(self.field)}

    def class_keys(self) -> dict[str, np.ndarray]:
        """The ascending ranks of the lines of each populated class, read off
        the cells on each call; the census never calls it."""
        return {cls: self._class_ranks([cls]) for cls in twisted.valid_line_classes(self.field)}

    def klein_violations(self) -> int:
        self.line_cells()
        return self._klein_violations

    def polar_keys(self, keys) -> np.ndarray:
        """Sorted keys of the polar images of the given lines (xi != 0)."""
        return np.sort(self.pack(self._normalize_rows(self._polar(self.unpack(keys)))))

    def orbits(self) -> list[tuple[str, int]]:
        """(class, size) of every orbit partitioned so far, by label."""
        return [(cls, size) for cls, size, _stab, _rep in self._orbits]

    def polar_orbit_counts(self):
        """Send every line through the null polarity (xi != 0), once every
        populated class is partitioned, and with it the group's split.  The
        polarity commutes with the group, so it maps the torus orbit of each
        cell's canonical line onto that of its image: each slice of cells
        (_tasks) maps its canonical lines, marks the cells of their normalized
        images in a mask over the cells and counts each pair of labels for
        the lines of its cells.

        Returns (onto, counts): onto is True iff every cell holds an image;
        counts[i, j] counts the lines of orbit i with image in orbit j."""
        if {cls for cls, _size in self.orbits()} != set(twisted.valid_line_classes(self.field)):
            raise ValueError("the polarity pass needs every class partitioned")
        labels, m = self.line_cells(), len(self._orbits)  # every cell is a label
        hit, counts = np.zeros(len(labels), dtype=bool), np.zeros(m * m)
        for task in self._tasks():
            img = self._cell_of(self._normalize_rows(self._polar(
                self._task_plucker(task, self._subs))))[0]
            hit[img] = True
            counts += np.bincount(labels[task].astype(np.intp) * m + labels[img],
                                  self._lines[task], m * m)
        return bool(hit.all()), counts.reshape(m, m).astype(np.int64)

    # -- group sweeps ------------------------------------------------------------

    def _group_arrays(self):
        """The group's split (abcd, lifts, scale, keyed, digit), built on first
        use: the ascending (a, b, c, d) of the R = q(q + 1) representatives,
        the pairs of distinct points (a, b), (c, d) of PG(1,q); their lifts,
        entry (i, j) of each at [i, j]; d^e * x at [d - 1, e * q + x], e <= 4;
        that table times q^(5 - k) for coordinate k of a key, as int64; and
        its last four, times q^3, ..., 1, as int32, for the point ranks of
        triple_images."""
        if self._split is None:
            q, line = self.q, self._proj_points(2)
            abcd = np.hstack([line[i] for i in np.nonzero(~np.eye(q + 1, dtype=bool))])
            lifts = np.array(action.lift_rows(self.field, *abcd.T, self._mul, self._add))
            units = np.arange(1, q, dtype=np.int16)
            powers = [np.ones_like(units)]
            for _ in range(4):  # w(l23) - w(l01)
                powers.append(self._mul(powers[-1], units))
            scale = self.field.mul_table[np.stack(powers, axis=1)].reshape(q - 1, 5 * q)
            keyed = q ** np.arange(5, -1, -1)[:, None, None] * scale
            self._split = (abcd, lifts, scale, keyed, keyed[2:].astype(np.int32))
        return self._split

    def _elements(self, index):
        """The (a, b, c, d) of the elements (d - 1) * R + i: r_i * (1, 0, 0, d)
        is (a, b, d c, d d) for r_i's (a, b, c, d), still normalized."""
        abcd, _lifts, scale = self._group_arrays()[:3]
        units, reps = np.divmod(index, len(abcd))
        rows = abcd[reps]
        rows[:, 2:] = scale[units[:, None], self.q + rows[:, 2:]]
        return rows

    def group_abcd(self):
        """The (a, b, c, d) of every element r * (1, 0, 0, d): d ascending,
        then r ascending, as _over_torus orders its entries."""
        return self._elements(np.arange(self.group_order))

    def _point_at(self, pt):
        """The (R, 4) images x M_r of the point under the representatives r;
        points act as row vectors, so its image under r * t is x M_r D, with
        D = diag(1, d, d^2, d^3) scaling coordinate j by d^j."""
        lifts = self._group_arrays()[1]
        return _columns([self._lincomb(pt, lifts[:, j]) for j in range(4)])

    def _torus_columns(self, X, weight):
        """(lead, at) of the rows X, images under the representatives r: the
        torus t = (1, 0, 0, d) scales coordinate j by d^weight[j], weights that
        never fall, so it keeps each row's lead (first nonzero coordinate) and
        the normalized image under r * t has coordinate j at scale[d - 1, at[j]],
        at[j] = max(weight[j] - weight[lead], 0) * q + x_j, x the row normalized."""
        X = self._normalize_rows(X)
        lead = (X != 0).argmax(axis=1)
        return lead, np.maximum(weight[:, None] - weight[lead], 0) * self.q + X.T

    def _rep_images(self, pair):
        """(lead, at) of the images under the representatives (_torus_columns)
        of the line through the pair of points: t scales l_ij by d^(i + j)."""
        return self._torus_columns(self._plucker(*map(self._point_at, pair)), _WEIGHT)

    def _torus_rows(self, at):
        """The normalized rows of the images under the torus of the rows
        given as (_torus_columns) at: the image of row i under (1, 0, 0, d)
        is row (d - 1) n + i."""
        return self._group_arrays()[2][:, at].transpose(0, 2, 1).reshape(-1, 6)

    def _over_torus(self, tables, cols, base=0):
        """One entry per group element, in the order of group_abcd, of the
        tables' dtype: entry (d - 1) * R + i is base (or base[i]) plus the sum
        over k of tables[k][d - 1, cols[k][i]]."""
        out = np.full((self.q - 1, cols.shape[1]), base, tables.dtype)
        for table, col in zip(tables, cols):
            out += table.take(col, axis=1)
        return out.ravel()

    def orbit_sweep(self, line) -> np.ndarray:
        """Sorted unique keys of the full-group orbit of the line, summed from
        gathers of the split's keyed tables."""
        at = self._rep_images(line.pair)[1]  # builds the split
        return sorted_unique(self._over_torus(self._split[3], at))

    def _image_cells(self, images):
        """(cells, index) of the line's images under the group, read off
        its images (lead, at) under the representatives r (_rep_images): an
        entry per r, then one per torus image t(r(l)), d >= 2, of a special
        r(l), one with no nonzero coordinate of torus weight 1 over its lead.
        A generic r(l) stands for its q - 1 images, one cell: its entry holds
        that cell and the index into group_abcd of the element r * t that
        maps l to the image with l's own unit (_cell_of), read off the
        identity, representative q.  A special r(l) is its own cell, and its
        torus images (_torus_rows) each theirs, with their elements' index.
        Only the distinct special images are expanded: every image of a
        tangent is special."""
        at, q = images[1], self.q
        R, x = at.shape[1], (at % q).astype(np.int16)
        special = np.flatnonzero(~((at > q) & (at < 2 * q)).any(axis=0))
        _keys, first, inv = np.unique(self.pack(x[:, special].T), return_index=True,
                                      return_inverse=True)
        cells, units = self._cell_of(np.concatenate([x.T, self._torus_rows(at[:, special[first]])]))
        # the line's own unit is that of its image under the identity (1, 0, 0, 1),
        # representative q (the points of PG(1,q) run (0, 1), (1, 0), (1, 1), ...);
        # d - 1 is 0 for a special r(l)
        d = np.maximum(self._mul(units[q], self.INV.take(units[:R])), 1) - 1
        return (np.concatenate([cells[:R], cells[R:].reshape(q - 1, -1)[1:, inv].ravel()]),
                np.concatenate([d.astype(np.int64) * R + np.arange(R),
                                (np.arange(1, q - 1)[:, None] * R + special).ravel()]))

    def _least_key(self, lead, at):
        """The least packed key of the line's images, read off its images
        (lead, at) under the representatives (_rep_images): only those with
        the most leading zeros, then the least coordinate after, are packed."""
        scale, last = self._split[2], lead.max()
        top = at[:, lead == last]
        after = scale.take(top[min(last + 1, 5)], axis=1).ravel()
        d, r = np.divmod(np.flatnonzero(after == after.min()), top.shape[1])
        return int(self.pack(_columns([scale[d, col[r]] for col in top])).min())

    def line_from_key(self, key) -> pg3.ProjLine:
        row = self.unpack(np.array([key], np.int64))[0]
        return pg3.line_from_plucker(self.field, tuple(row.tolist()))

    def orbit_partition_keys(self, cls) -> list[tuple[int, int, int]]:
        """The (size, stabilizer_order, representative_key) records of one
        class's orbits, sorted by (size, representative).  The first call
        partitions the class: a sweep (_image_cells) seeded at the canonical
        line of each unlabelled cell of the class writes the index its orbit
        takes in the orbit list into the orbit's cells, and the class's
        orbits join the list once all are found, so a failed call adds none
        and leaves the cells as they were.  The size counts the lines of the
        sweep's distinct cells, the stabilizer order its entries that hold
        the seed's cell, the representative is the minimal key; an image
        whose cell does not hold the class's ~code, of another class or of
        an orbit already found, is a fault of the census: RuntimeError
        naming it."""
        if cls not in {c for c, _size in self.orbits()}:
            # the cell of a line of the class not yet labelled
            cells, unset = self.line_cells(), ~CODE[cls]
            found, left, seed = [], int(self._class_sizes[CODE[cls]]), 0
            try:
                while left > 0:
                    # the cells before the last seed are labelled
                    seed += int((cells[seed:] == unset).argmax())
                    images = self._rep_images(
                        next(zip(*self._pairs_of(np.array([seed]), self._subs))))
                    met = self._image_cells(images)[0]
                    stab = int(np.count_nonzero(met == seed))
                    orbit = sorted_unique(met)
                    if (stray := cells[orbit] != unset).any():
                        cell = int(orbit[stray.argmax()])
                        held = int(cells[cell])
                        held = f"class {CLASS_ORDER[~held]}" if held < 0 else f"orbit {held}"
                        raise RuntimeError(f"a {cls} sweep met cell {cell} of {held}")
                    cells[orbit] = len(self._orbits) + len(found)
                    size = int(self._lines[orbit].sum())
                    left -= size
                    found.append((cls, size, stab, self._least_key(*images)))
            except BaseException:
                cells[cells >= len(self._orbits)] = unset  # unlabel the orbits found
                raise
            self._orbits += found
        return sorted(((size, stab, rep) for c, size, stab, rep in self._orbits if c == cls),
                      key=lambda r: (r[0], r[2]))

    def stabilizer_abcd(self, line) -> list[tuple[int, int, int, int]]:
        """The sorted (a, b, c, d) of the elements that fix the line: those of
        the entries of its sweep (_image_cells) that hold its own cell, the
        identity's, as the partition counts them."""
        met, index = self._image_cells(self._rep_images(line.pair))
        return sorted(map(tuple, self._elements(index[met == met[self.q]]).tolist()))

    # -- structural checks ---------------------------------------------------------

    def _line_points(self, ranks):
        """Normalized points x0 u + x1 v of the lines with the given ranks,
        (u, v) the line's RREF row pair, over the points x of PG(1,q): v,
        then u + t v for t in GF(q)."""
        UV = self._pairs_of(ranks)
        return self._normalize_rows(np.concatenate(
            [self._lincomb(x, UV) for x in self._proj_points(2)]))

    def covers_once(self, classes, excluded, dual=False) -> bool:
        """Whether the points of the lines of the given classes, or with
        dual=True the planes through them, cover every point (plane) of
        PG(3,q) outside the point ranks `excluded` exactly once."""
        ranks = self._class_ranks(classes)
        if dual:
            ranks = self._rank(self._normalize_rows(self._dual(self._unrank(ranks))))
        hits = np.bincount(self._point_rank(self._line_points(ranks)),
                           minlength=pg3.point_count(self.q))
        hits[excluded] = 1
        return bool((hits == 1).all())

    def triple_images(self, triple) -> int:
        """Number of distinct ordered triples of cubic points among the
        images of the given triple of points under every group element.  A
        point's image ranks (_point_rank) pack its _torus_columns under the
        weights j by the digit tables, plus _point_base(3 - lead); codes
        < (q + 1)^3."""
        m = len(self.cubic_point_ranks)
        index = np.full(pg3.point_count(self.q), -1, dtype=np.int32)
        index[self.cubic_point_ranks] = np.arange(m)
        code, on_cubic = 0, True
        for pt in triple:
            lead, at = self._torus_columns(self._point_at(pt), np.arange(4))
            pos = index[self._over_torus(self._split[4], at, self._point_base(3 - lead))]
            on_cubic &= pos >= 0
            code = code * m + pos
        return len(sorted_unique(code[on_cubic]))

    def polarity_violations(self) -> int:
        """Number of group elements whose lift M does not preserve the null
        polarity's alternating form w(x, y) = x . twisted.polar_form(y) up
        to a scalar (xi != 0), i.e. does not commute with the polarity.  With
        K_ik = w(M_i, M_k) over the rows M_i of M, a lift passes iff K_03 !=
        0 and K_ik = K_03 * w(e_i, e_k) for every i < k.  The lift M_r D of
        r * t passes if M_r and D = diag(1, d, d^2, d^3), read off the scale
        table, both do: the elements counted are those whose M_r or D fails."""
        if self.field.xi == 0:
            raise ValueError("the null polarity degenerates when q = 0 mod 3")
        f = self.field
        # w(e_i, e_k) = polar_form(e_k)[i], as J[k][i]; w(e_0, e_3) = 1
        J = [twisted.polar_form(e, self.three, f.mul, f.neg)
             for e in np.eye(4, dtype=int).tolist()]
        lifts, scale = self._group_arrays()[1:3]
        torus = np.eye(4, dtype=np.int16)[:, :, None] * scale[:, 1:4 * self.q:self.q].T

        def passing(mats):
            # mats[i]: row i of every lift, as columns
            polars = [twisted.polar_form(r, self.three, self._mul, self._neg) for r in mats]

            def w(i, k):
                return reduce(self._add, map(self._mul, mats[i], polars[k]))
            k03 = w(0, 3)
            ok = k03 != 0
            for i, k in combinations(range(4), 2):
                ok &= w(i, k) == self._mul(J[k][i], k03)
            return int(np.count_nonzero(ok))
        return self.group_order - passing(lifts) * passing(torus)

    # -- plane census ------------------------------------------------------------

    def plane_class_counts(self) -> dict[str, int]:
        """Counts of osculating / d-point plane types over all planes.  The
        planes through a cubic point y are the points of the plane whose
        coordinates are y, the span of its basis (pg3.plane_basis)."""
        m = np.zeros(pg3.point_count(self.q), dtype=np.int16)
        x = self._proj_points(3).T
        for pt in self.cubic_points:
            span = self._span(pg3.plane_basis(self.field, pt), x)
            m[self._point_rank(self._normalize_rows(span))] += 1
        if int(m.max()) > 3:
            raise RuntimeError("a plane contains four cubic points")
        if (m[self.gamma_plane_ranks] != 1).any():
            raise RuntimeError("an osculating plane does not meet the cubic in one point")
        m[self.gamma_plane_ranks] = -1
        return {name: int(np.count_nonzero(m == d))
                for name, d in (("gamma", -1), ("2C", 2), ("3C", 3), ("1C", 1), ("0C", 0))}
