"""Vectorized line engine over rank-indexed lines.

A line's rank is its index in the enumeration of rank-2 RREF 2 x 4 matrices
(`_pair_blocks(4, q)`), read off its normalized Pluecker vector by `_rank`;
a point's or plane's rank is its index in `_proj_points(4)`.  The whole-
universe state is one int8 class code and one int16 orbit label per rank, so
locating a line is an index, not a search, and the lines of a class are the
ranks its code marks.  A label indexes the engine's list of orbits, in the
order the sweeps found them, each with its class, the size and stabilizer
order its sweep measured, and its representative, the one place packed
base-q int64 keys of Pluecker vectors remain.

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

The universe passes build each chunk's Pluecker rows from the base-q digits
of its RREF free entries: the RREF rows are column lists (pg3.rref_rows) in
which the pivot 1s and the other 0s stay Python ints, and pg3.plucker_forms
runs with ops that fold away a multiply by 0 or 1 and a subtraction of 0.
Every row of a chunk then has l_{c0 c1} = 1 with zeros before it, so the
polarity pass normalizes a chunk's polar images by one scalar.

An orbit sweep acts on the line's two points only with the coset
representatives of the diagonal torus (1, 0, 0, d).  The torus keeps each
image's pivot block and scales each RREF digit of its representative's image
by a power of d, so the ranks of all images are read off small split tables,
four gathers per torus slice, with no per-image index or Pluecker row.

Independent work runs on min(2, cores) threads: the calling thread and the
helpers of one shared pool, started on first use (numpy releases the GIL in
`take`, the ufuncs and the sorts).  They share out the chunks of the line
enumeration (`_line_tasks`) in the class pass and the polarity pass, the
torus slices of about chunk // 8 images of each orbit sweep (`_sweep`,
`orbit_sweep`), then the tail of a partition sweep in tasks of disjoint
rank ranges (dedup, class and label checks, label writes), and contiguous
slices of the group (`_over_group`) in the stabilizer filter
(`stabilizer_abcd`).  The contract:

- a task writes only the disjoint rank slice of its own chunk, or the
  orbit labels of its own rank range (the polarity pass also stores True
  into its hit mask, which no task reads);
- results are merged in task order, so no output depends on scheduling;
- a task calls only private Engine helpers, sorted_unique and the shared
  pg3 and twisted forms, never a public method or entry point: the traced
  benchmark (perfbench/spans.py) wraps those with a span recorder that is
  not thread-safe; the group arrays, with the split tables of the sweeps, are
  built before any task is handed out, and no task hands out tasks of its
  own (a helper would wait forever for itself);
- small work runs inline on the calling thread: a single task, a universe
  that fits in one chunk, a sweep of one torus slice with its tail, a group
  of fewer than SPLIT_SWEEP elements in the stabilizer filter.
"""

from __future__ import annotations

import os
import threading
from functools import cache, reduce
from itertools import combinations

import numpy as np

from . import action, pg3, twisted

CLASS_ORDER = twisted.LINE_CLASSES
CODE = {cls: i for i, cls in enumerate(CLASS_ORDER)}


def _table_op(table):
    """Elementwise table[x, y] for arrays or scalars x, y, as 1-D takes.

    Two arrays index the flattened table with x*q + y, computed in the
    operands' int16 (at most q*q - 1 = 4095 for q <= 64); a scalar operand
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


def sorted_unique(values):
    """Ascending distinct values: sort, then drop adjacent duplicates (an
    order of magnitude faster than np.unique on large int64 arrays).  They
    are dropped by np.compress, which takes the kept positions: a boolean
    index is several times slower when the duplicates interleave, as in the
    orbit of a line with a nontrivial stabilizer."""
    out = np.sort(values)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        if not keep.all():
            out = np.compress(keep, out)
    return out


@cache
def _pair_blocks(ncols, q):
    """(c0, c1, slots, offset, size) per pivot pattern c0 < c1 of the rank-2
    RREF 2 x ncols matrices, in enumeration order; slots are the free
    (row, column) entries, most significant digit first."""
    blocks = []
    offset = 0
    for c0 in range(ncols - 1):
        for c1 in range(c0 + 1, ncols):
            slots = pg3.rref_slots(c0, c1, ncols)
            blocks.append((c0, c1, slots, offset, q ** len(slots)))
            offset += q ** len(slots)
    return tuple(blocks)  # cached: shared by every caller


def _worker_count():
    """Threads that work at once, the calling thread included: numpy releases
    the GIL in take, the ufuncs and the sorts, so each keeps one core busy.
    min(2, cores), counting the process's affinity set where the platform
    reports one (Linux), else the machine's cores."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


WORKERS = _worker_count()

# the stabilizer filter is split over the workers only from this many group
# elements on (q >= 41): below it the thread handoffs cost more than they save
SPLIT_SWEEP = 60_000

# diag(1, d, d^2, d^3) scales l_ij by d^(i + j): weights that never fall
_WEIGHT = np.array([i + j for i, j in pg3.PAIR_IDX])

# per pivot block, in PAIR_IDX order: the coordinate each of four RREF digits
# (pg3.rref_entries) reads, most significant first, + 6 where it is negated;
# 12 pads a block of fewer free entries at the front
_DIGIT_SOURCE = np.array([
    [12] * (4 - len(pg3.rref_slots(c0, c1, 4)))
    + list(pg3.rref_entries(range(6), c0, c1, lambda j: j + 6)) for c0, c1 in pg3.PAIR_IDX])


@cache
def _pool():
    """The helper threads of the process, started on first use.  Their
    module is imported here too: it takes about 7 ms, a few percent of a
    census small enough to run all inline."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="twistedcubic")


def _in_order(fn, tasks):
    """[fn(task) for task in tasks], in task order.  The calling thread and
    the pool's helpers each take the next task until none is left, so a
    helper whose core is busy leaves its share to the calling thread."""
    results = [None] * len(tasks)
    todo = iter(range(len(tasks)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(tasks[i])
            except BaseException:
                with lock:
                    for _ in todo:  # start no further task
                        pass
                raise

    helpers = ([_pool().submit(drain) for _ in range(WORKERS - 1)]
               if len(tasks) > 1 else [])
    try:
        drain()
    finally:
        for helper in helpers:
            if not helper.cancel():  # one that never started took no task
                helper.result()
    return results


# bits of the per-rank model flags built by Engine._model_flags
MEETS, GAMMA, AXIS = 1, 2, 4


class Engine:
    """Bulk classification and orbit machinery for one field's cubic.
    Its only arrays with one entry per line, the class codes (written over
    the model flags) and the orbit labels (indices into its orbit list), are
    built on first use, never for queries.

    Chunks of `chunk` lines, the torus slices of large orbit sweeps, whose
    ranks are read off the split tables, the rank ranges of their tails and
    the group slices of the stabilizer filter are shared out over threads
    under the module's contract: disjoint rank slices or ranges per task,
    results merged in task order, only private helpers in tasks, small work
    inline.  The results depend only on the field and the cubic, the closed
    forms twisted.cubic_point and twisted.osculating_plane, checked to give
    q + 1 distinct points and planes, each plane meeting the cubic once."""

    def __init__(self, field, chunk=1 << 19):
        self.field = field
        self.chunk = chunk
        q = field.q
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
        self._codes = self._class_sizes = self._klein_violations = None
        # (class, size, stabilizer order, representative key), by label
        self._orbits: list[tuple[str, int, int, int]] = []
        self.orbit_labels = None
        self._group = self._split = None

    # -- packing and ranks ---------------------------------------------------

    def _pack(self, P):
        """Packed base-q int64 keys of the rows of P."""
        out = P[:, 0].astype(np.int64)
        for j in range(1, P.shape[1]):
            out = out * self.q + P[:, j]
        return out

    pack = _pack  # the public name; tasks on other threads call _pack

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

    def _rank(self, P):
        """Index of each normalized Pluecker row in the enumeration of the
        rank-2 RREF 2 x 4 matrices (_pair_blocks(4, q)): the offset of its
        pivot pattern (c0, c1), the position of its first nonzero coordinate,
        plus its free RREF entries (pg3.rref_entries) read base q.  Every row
        is first ranked as if its pivot were (0, 1), as all but about 1/q of
        them are, then the rest."""
        out = np.empty(len(P), np.int64)
        rows, sub = slice(None), P
        for c0, c1, _slots, offset, _size in _pair_blocks(4, self.q):
            if not len(sub):
                break
            rank = np.zeros(len(sub), np.int64)
            for entry in pg3.rref_entries(sub.T, c0, c1, self._neg):
                rank *= self.q
                rank += entry
            out[rows] = rank + offset
            later = np.flatnonzero(sub[:, pg3.PAIR_IDX.index((c0, c1))] == 0)
            rows, sub = later if sub is P else rows[later], sub[later]
        return out

    def _pairs_of(self, ranks):
        """The RREF row pairs (U, V) of the lines with the given ranks;
        ValueError for a rank outside [0, line_count(q))."""
        n = pg3.line_count(self.q)
        bad = ranks[(ranks < 0) | (ranks >= n)]
        if len(bad):
            raise ValueError(f"line rank {bad[0]} is outside [0, {n})")
        U, V = (np.empty((len(ranks), 4), np.int16) for _ in range(2))
        for c0, c1, slots, offset, size in _pair_blocks(4, self.q):
            sel = (ranks >= offset) & (ranks < offset + size)
            if sel.any():
                U[sel], V[sel] = self._pair_rows(4, c0, c1, slots, ranks[sel] - offset)
        return U, V

    def _unrank(self, ranks):
        """(n, 6) int16 normalized Pluecker rows of the lines with the given
        ranks; the inverse of _rank."""
        return self._plucker(*self._pairs_of(ranks))

    def line_from_rank(self, rank) -> pg3.ProjLine:
        U, V = self._pairs_of(np.array([rank], np.int64))
        return pg3.line_through(self.field, tuple(U[0].tolist()), tuple(V[0].tolist()))

    def _point_rank(self, X):
        """Index of each normalized row of X in _proj_points(X.shape[1]): a row
        with k coordinates after its leading 1 packs to q^k plus its digits,
        and its block starts at 1 + q + ... + q^(k-1)."""
        n = X.shape[1]
        qk = self.q ** np.arange(n, dtype=np.int64)
        start = (qk - 1) // (self.q - 1)
        k = n - 1 - (X != 0).argmax(axis=1)
        return self.pack(X) - qk[k] + start[k]

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

    def _chunk_polar(self, P):
        """The normalized polar images of the Pluecker rows P of one chunk
        (xi != 0).  Every row has l_{c0 c1} = 1 and zeros before it, and
        _polar is monomial, so every image has its first nonzero coordinate
        in the same place, with the same value (for pivots (0, 3) the Klein
        relation forces l12 = 0): one scalar normalizes them, in place."""
        img = self._polar(P)
        lead = np.flatnonzero(img[0])[0]
        inv = int(self.INV[img[0, lead]])
        if inv != 1:  # it is 1 in characteristic 2, where 3 = 9 = 1
            for col in img.T[lead:]:
                col[:] = self._mul(inv, col)
        return img

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

    def _pair_rows(self, ncols, c0, c1, slots, idx):
        """The row pairs (U, V) of the RREF matrices with pivots c0, c1 whose
        free entries, read base q in slot order, are idx."""
        U = np.zeros((len(idx), ncols), np.int16, order="F")
        V = np.zeros((len(idx), ncols), np.int16, order="F")
        U[:, c0] = 1
        V[:, c1] = 1
        for (row, j), col in zip(reversed(slots), self._digits(idx, len(slots))):
            (U if row == 0 else V)[:, j] = col
        return U, V

    def _line_tasks(self):
        """Chunk descriptors (ranks, c0, c1, slots, start, stop) covering the
        line ranks in order: the lines of the rank slice `ranks` are the RREF
        matrices with pivots c0, c1 whose free entries, read base q, run
        from start to stop."""
        tasks = []
        for c0, c1, slots, offset, size in _pair_blocks(4, self.q):
            for start in range(0, size, self.chunk):
                stop = min(start + self.chunk, size)
                tasks.append((slice(offset + start, offset + stop), c0, c1, slots, start, stop))
        if tasks[-1][0].stop != pg3.line_count(self.q):
            raise RuntimeError(f"enumerated {tasks[-1][0].stop} lines, "
                               f"expected {pg3.line_count(self.q)}")
        return tasks

    def _task_plucker(self, task):
        """Pluecker rows of a chunk's lines, normalized since l_{c0 c1} = 1,
        from the digits of their free RREF entries with the constant 0s and
        1s folded away: for pivots (0, 1), the rows (1, 0, a, b) and
        (0, 1, c, d) give (1, c, d, -a, -b, ad - bc)."""
        _ranks, c0, c1, slots, start, stop = task
        # int32 digits take half the time of int64 ones; stop <= q^4
        idx = np.arange(start, stop, dtype=np.int32)
        u, v = pg3.rref_rows(4, c0, c1, list(self._digits(idx, len(slots)))[::-1])
        return _columns([np.full(len(idx), x, np.int16) if isinstance(x, int) else x
                         for x in pg3.plucker_forms(u, v, *self._digit_ops)])

    def _over_lines(self, fn):
        """fn(ranks, P) per chunk of all lines, in rank order, with P the
        normalized Pluecker rows of the rank slice `ranks`.  The chunks are
        shared out over the threads only when the lines fill more than one."""
        def task(t):
            return fn(t[0], self._task_plucker(t))
        run = map if pg3.line_count(self.q) <= self.chunk else _in_order
        return run(task, self._line_tasks())

    def _model_flags(self):
        """Per line rank, as int8: MEETS if the line meets the cubic, GAMMA
        if it lies in an osculating plane, AXIS for the axis (xi = 0 only)."""
        flags = np.zeros(pg3.line_count(self.q), np.int8)

        # each cubic point joined to every point of a plane x_j = 0 missing it
        points = self._proj_points(4)
        for pt in self.cubic_points:
            V = points[points[:, next(i for i in range(4) if pt[i])] == 0]
            U = np.tile(np.asarray(pt, np.int16), (len(V), 1))
            flags[self._rank(self._normalize_rows(self._plucker(U, V)))] |= MEETS

        # all lines in each osculating plane
        r0, r1 = (np.concatenate(rows).T for rows in zip(*(
            self._pair_rows(3, c0, c1, slots, np.arange(size))
            for c0, c1, slots, _offset, size in _pair_blocks(3, self.q))))
        for plane in self.gamma_planes:
            basis = list(zip(*pg3.plane_basis(self.field, plane)))  # its 4 columns
            U = _columns([self._lincomb(col, r0) for col in basis])
            V = _columns([self._lincomb(col, r1) for col in basis])
            flags[self._rank(self._normalize_rows(self._plucker(U, V)))] |= GAMMA

        if self.axis_plucker is not None:
            flags[self._rank(np.array([self.axis_plucker], np.int16))] |= AXIS
        return flags

    # -- classification ----------------------------------------------------------

    def _classify_chunk(self, P, flags):
        """Class codes and Klein violations of the lines with normalized
        Pluecker rows P and model flags `flags`."""
        klein_bad = int(np.count_nonzero(self._klein(P)))

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
            is_axis = m0 & (flags & AXIS != 0)
            cls[is_axis] = CODE[twisted.A]
            hits_axis = m0 & ~is_axis & (self._pairing_with(P, self.axis_plucker) == 0)
            cls[hits_axis] = CODE[twisted.EA]
        return cls, klein_bad

    def class_codes(self) -> np.ndarray:
        """The class code (index into CLASS_ORDER) of every line, by rank,
        from one chunked pass over the whole universe that also counts the
        lines of each class and the Klein violations.  The codes overwrite
        the model flags in place: each chunk reads its flags first."""
        if self._codes is None:
            codes = self._model_flags()

            def classify(ranks, P):
                codes[ranks], bad = self._classify_chunk(P, codes[ranks])
                return bad, np.bincount(codes[ranks], minlength=len(CLASS_ORDER))
            bad, sizes = zip(*self._over_lines(classify))
            self._codes, self._class_sizes, self._klein_violations = codes, sum(sizes), sum(bad)
        return self._codes

    def class_counts(self) -> dict[str, int]:
        """The number of lines of each populated class."""
        self.class_codes()
        return {cls: int(self._class_sizes[CODE[cls]])
                for cls in twisted.valid_line_classes(self.field)}

    def class_keys(self) -> dict[str, np.ndarray]:
        """The ascending ranks of the lines of each populated class, read off
        the class codes on each call; the census never calls it."""
        codes = self.class_codes()
        return {cls: np.flatnonzero(codes == CODE[cls])
                for cls in twisted.valid_line_classes(self.field)}

    def klein_violations(self) -> int:
        self.class_codes()
        return self._klein_violations

    def polar_keys(self, keys) -> np.ndarray:
        """Sorted keys of the polar images of the given lines (xi != 0)."""
        return np.sort(self.pack(self._normalize_rows(self._polar(self.unpack(keys)))))

    def orbits(self) -> list[tuple[str, int]]:
        """(class, size) of every orbit partitioned so far, by label."""
        return [(cls, size) for cls, size, _stab, _rep in self._orbits]

    def polar_orbit_counts(self):
        """Send every line through the null polarity, chunk by chunk (xi != 0),
        once every populated class is partitioned.

        Returns (onto, counts): onto is True iff every line is an image;
        counts[i, j] counts the lines of orbit i with image in orbit j."""
        if {cls for cls, _size in self.orbits()} != set(twisted.valid_line_classes(self.field)):
            raise ValueError("the polarity pass needs every class partitioned")
        labels, m = self.orbit_labels, len(self.orbits())
        hit = np.zeros(len(labels), dtype=bool)

        def polarize(ranks, P):
            img = self._rank(self._chunk_polar(P))
            hit[img] = True  # chunks only ever store True, so none is lost
            return np.bincount(labels[ranks].astype(np.intp) * m + labels[img],
                               minlength=m * m)
        counts = sum(self._over_lines(polarize))
        return bool(hit.all()), counts.reshape(m, m)

    # -- group sweeps ------------------------------------------------------------

    def _group_arrays(self):
        if self._group is None:
            # the normalized (a, b, c, d) with ad - bc != 0, ascending
            abcd = self._proj_points(4)
            a, b, c, d = abcd.T
            abcd = abcd[self._sub(self._mul(a, d), self._mul(b, c)) != 0]
            if len(abcd) != self.group_order:
                raise RuntimeError("group enumeration size mismatch")

            rows = action.lift_rows(self.field, *abcd.T, self._mul, self._add)
            # (N, 4, 4) lifts, stored so that each entry's N values are contiguous
            lifts = np.stack([np.stack(r) for r in rows])
            self._group = (abcd, lifts.transpose(2, 0, 1))

            # the split of the sweeps: the lifts of the r whose rows (a, b) and
            # (c, d) start with 1; d^e * x at [d - 1, e * q + x] for e <= 4, and
            # that table scaled by q^(3 - k) for the k-th of four RREF digits, as
            # int32, since every rank is below line_count(q) < 2^31 (q <= 81)
            q, c, d = self.q, abcd[:, 2], abcd[:, 3]
            reps = lifts[:, :, (c == 1) | ((c == 0) & (d == 1))].transpose(2, 0, 1)
            if len(reps) * (q - 1) != self.group_order:
                raise RuntimeError("the coset representatives do not split the group")
            units = np.arange(1, q, dtype=np.int16)
            powers = [np.ones_like(units)]
            for _ in range(4):  # w(l23) - w(l01)
                powers.append(self._mul(powers[-1], units))
            scale = self.field.mul_table[np.stack(powers, axis=1)].reshape(q - 1, 5 * q)
            digit = np.stack([scale.astype(np.int32) * q ** (3 - k) for k in range(4)])
            self._split = (reps, scale, digit)
        return self._group

    def group_abcd(self):
        return self._group_arrays()[0]

    def _act(self, pt, mats):
        """Image of one point under each of the (N, 4, 4) lifts mats, as an
        (N, 4) array."""
        return _columns([self._lincomb(pt, mats[:, :, j].T) for j in range(4)])

    def _act_all(self, pt, sel=None):
        """Image of one point under every group element, or under the
        elements sel (an index array or a slice), as an (N,4) array."""
        mats = self._group_arrays()[1]
        return self._act(pt, mats if sel is None else mats[sel])

    def _over_group(self, fn):
        """fn(sel) per contiguous slice sel of the group elements, as a list
        in group order.  A group of SPLIT_SWEEP elements or more is cut into
        two slices per thread, so that a thread whose core is busy leaves
        part of its share to the other."""
        n = len(self._group_arrays()[0])  # built here, never in a task
        parts = 2 * WORKERS if WORKERS > 1 and n >= SPLIT_SWEEP else 1
        cuts = [n * i // parts for i in range(parts + 1)]
        return _in_order(fn, [slice(*c) for c in zip(cuts, cuts[1:])])

    def _torus_slices(self):
        """The slices of the torus units d - 1 that a sweep shares out, of
        about chunk // 8 images each, and the cuts of [0, line_count) into the
        rank ranges of its tail tasks: halves when there is more than one
        slice, else the whole range, for a tail that runs inline."""
        q, n = self.q, pg3.line_count(self.q)
        parts = min(q - 1, -(-self.group_order // max(1, self.chunk // 8)))
        cuts = [(q - 1) * i // parts for i in range(parts + 1)]
        return [slice(*c) for c in zip(cuts, cuts[1:])], [0, n // 2, n] if parts > 1 else [0, n]

    def _rep_images(self, line):
        """(lead, at) of the line's images under the coset representatives r:
        each element is r * t once, t = (1, 0, 0, d) with lift M_r diag(1, d,
        d^2, d^3), and t scales l_ij by d^(i + j), which keeps the first
        nonzero coordinate, at index lead, in place; so the normalized image
        under r * t has coordinate j at split[1][d - 1, at[j]], at[j] = e * q
        + x for the representative's coordinate x and e = w_j - w_lead <= 4
        (e = 0 for the zeros before the lead)."""
        self._group_arrays()  # built here, never in a task
        u, v = line.pair
        reps = self._split[0]
        P = self._normalize_rows(self._plucker(self._act(u, reps), self._act(v, reps)))
        lead = (P != 0).argmax(axis=1)
        return lead, np.maximum(_WEIGHT[:, None] - _WEIGHT[lead], 0) * self.q + P.T

    def orbit_sweep(self, line) -> np.ndarray:
        """Sorted unique keys of the full-group orbit of the line."""
        _lead, at = self._rep_images(line)
        scale = self._split[1]
        rows = _in_order(lambda ts: np.stack([scale[ts].take(col, axis=1).ravel() for col in at]),
                         self._torus_slices()[0])
        return sorted_unique(self.pack(np.concatenate(rows, axis=1).T))

    def _sweep(self, line):
        """Per torus slice, in order: the ranks of the line's images under the
        slice's group elements, cut into the rank ranges of the tail tasks,
        and their minimal key.  The torus keeps each image's pivot block and
        multiplies each RREF digit (pg3.rref_entries) of its representative's
        image by a power of d, so a rank is the block offset plus four
        gathers from the split's digit tables, at e * q + x with x negated
        where the digit is; the minimal key is packed from the images of the
        representatives with the most leading zeros."""
        lead, at = self._rep_images(line)
        q, (_reps, scale, digit) = self.q, self._split
        x = at % q
        # the indices, then those with x negated, then 0s, which read 0
        signed = np.concatenate([at, at - x + self._neg(x), np.zeros_like(at[:1])])
        digits = signed[_DIGIT_SOURCE[lead].T, np.arange(len(lead))]
        base = np.array([b[3] for b in _pair_blocks(4, q)], np.int32)[lead]
        last = lead.max()
        top = at[:, lead == last]
        slices, cuts = self._torus_slices()

        def torus(ts):
            ranks = digit[0, ts].take(digits[0], axis=1)
            ranks += base
            for k in range(1, 4):
                ranks += digit[k, ts].take(digits[k], axis=1)
            ranks = ranks.ravel()
            # only the images with the least coordinate after the lead are packed
            after = scale[ts].take(top[min(last + 1, 5)], axis=1).ravel()
            d, r = np.divmod(np.flatnonzero(after == after.min()), top.shape[1])
            key = int(self._pack(_columns([scale[ts.start + d, col[r]] for col in top])).min())
            if len(cuts) == 2:
                return [ranks], key
            low = ranks < cuts[1]
            return [ranks[low], ranks[~low]], key
        return _in_order(torus, slices)

    def line_from_key(self, key) -> pg3.ProjLine:
        row = self.unpack(np.array([key], np.int64))[0]
        return pg3.line_from_plucker(self.field, tuple(row.tolist()))

    def orbit_partition_keys(self, cls) -> list[tuple[int, int, int]]:
        """The (size, stabilizer_order, representative_key) records of one
        class's orbits, sorted by (size, representative).  The first call
        partitions the class: each sweep writes the index its orbit takes in
        the orbit list into orbit_labels at the orbit's ranks, one tail task
        per rank range of _torus_slices, and the class's orbits join the list
        once all are found, so a failed call adds none and leaves its lines
        unlabelled.  The size counts the distinct ranks of the sweep, the
        stabilizer order the group elements that fix its seed line, the
        representative is the minimal key; an image outside the class or in
        an orbit already found raises ValueError."""
        if cls not in {c for c, _size in self.orbits()}:
            codes, code = self.class_codes(), CODE[cls]
            if self.orbit_labels is None:
                self.orbit_labels = np.full(len(codes), -1, dtype=np.int16)
            labels, found, left = self.orbit_labels, [], int(self._class_sizes[code])

            def tail(task):
                """(distinct ranks, fixers) of a sweep in one rank range, whose
                lines it labels once they are checked."""
                pieces, seed, label = task
                ranks = np.concatenate(pieces)
                # int32 ranks sort in half the int64 time; then intp, which numpy
                # would otherwise convert to on each gather and scatter
                orbit = sorted_unique(ranks).astype(np.intp)
                if (codes[orbit] != code).any():
                    raise ValueError(f"the {cls} lines are not closed under the group action")
                if (labels[orbit] >= 0).any():
                    raise ValueError(f"a {cls} sweep met a line of an orbit already found")
                labels[orbit] = label
                return len(orbit), int(np.count_nonzero(ranks == seed))
            try:
                for lo in range(0, len(codes), self.chunk):
                    hi = min(lo + self.chunk, len(codes))
                    # seed a sweep at each unlabelled line of the class in the
                    # window until the orbits found hold the whole class; the
                    # lines before a seed are labelled, so the scan resumes after it
                    while left and (free := (codes[lo:hi] == code) & (labels[lo:hi] < 0)).any():
                        seed = lo + int(free.argmax())
                        lo = seed + 1
                        parts = self._sweep(self.line_from_rank(seed))
                        label = len(self._orbits) + len(found)
                        sizes, fixers = zip(*_in_order(tail, [
                            (pieces, seed, label) for pieces in zip(*(p for p, _key in parts))]))
                        left -= sum(sizes)
                        found.append((cls, sum(sizes), sum(fixers), min(k for _p, k in parts)))
            except BaseException:
                labels[labels >= len(self._orbits)] = -1  # unlabel the orbits found
                raise
            self._orbits += found
        return sorted(((size, stab, rep) for c, size, stab, rep in self._orbits if c == cls),
                      key=lambda r: (r[0], r[2]))

    def stabilizer_abcd(self, line) -> list[tuple[int, int, int, int]]:
        """Exhaustive stabilizer filter; returns sorted (a,b,c,d) tuples.

        Only the elements that keep the first point on the line act on the
        second point: about 1/q^2 of the group."""
        abcd, _ = self._group_arrays()
        u, v = line.pair

        def keeps_on_line(pt, sel):
            forms = pg3.incidence_forms(self._act_all(pt, sel).T, line.plucker,
                                        self._mul, self._sub, self._add)
            return np.logical_and.reduce([form == 0 for form in forms])
        sel = np.concatenate(self._over_group(
            lambda part: part.start + np.flatnonzero(keeps_on_line(u, part))))
        sel = sel[keeps_on_line(v, sel)]
        return sorted(map(tuple, abcd[sel].tolist()))

    # -- structural checks ---------------------------------------------------------

    def _line_points(self, ranks):
        """Normalized points v, u + t*v (t in GF(q)) of the lines with the
        given ranks, where (u, v) is the line's RREF row pair."""
        U, V = self._pairs_of(ranks)
        pts = [V] + [self._add(U, self._mul(t, V)) for t in range(self.q)]
        return self._normalize_rows(np.concatenate(pts))

    def covers_once(self, classes, excluded, dual=False) -> bool:
        """Whether the points of the lines of the given classes, or with
        dual=True the planes through them, cover every point (plane) of
        PG(3,q) outside the point ranks `excluded` exactly once."""
        codes, wanted = self.class_codes(), [CODE[c] for c in classes]
        # window by window: a mask of every rank at once would set the peak
        # memory of the census
        ranks = np.concatenate([lo + np.flatnonzero(np.isin(codes[lo:lo + self.chunk], wanted))
                                for lo in range(0, len(codes), self.chunk)])
        if dual:
            # the planes through a line are the points of the line with the
            # dual Pluecker vector (l23, -l13, l12, l03, -l02, l01)
            P, neg = self._unrank(ranks), self._neg
            ranks = self._rank(self._normalize_rows(_columns([
                P[:, 5], neg(P[:, 4]), P[:, 3], P[:, 2], neg(P[:, 1]), P[:, 0]])))
        hits = np.bincount(self._point_rank(self._line_points(ranks)),
                           minlength=pg3.point_count(self.q))
        hits[excluded] = 1
        return bool((hits == 1).all())

    def triple_images(self, triple) -> int:
        """Number of distinct ordered triples of cubic points among the
        images of the given triple of points under every group element."""
        m = len(self.cubic_point_ranks)
        index = np.full(pg3.point_count(self.q), -1, dtype=np.int64)
        index[self.cubic_point_ranks] = np.arange(m)
        code = np.zeros(self.group_order, dtype=np.int64)
        on_cubic = np.ones(self.group_order, dtype=bool)
        for pt in triple:
            pos = index[self._point_rank(self._normalize_rows(self._act_all(pt)))]
            on_cubic &= pos >= 0
            code = code * m + pos
        return len(sorted_unique(code[on_cubic]))

    def polarity_violations(self) -> int:
        """Number of group elements whose lift M does not preserve the null
        polarity's alternating form w(x, y) = x . twisted.polar_form(y) up
        to a scalar (xi != 0), i.e. does not commute with the polarity.  With
        K_ik = w(M_i, M_k) over the rows M_i of M, an element passes iff
        K_03 != 0 and K_ik = K_03 * w(e_i, e_k) for every i < k."""
        if self.field.xi == 0:
            raise ValueError("the null polarity degenerates when q = 0 mod 3")
        f = self.field
        # w(e_i, e_k) = polar_form(e_k)[i], as J[k][i]; w(e_0, e_3) = 1
        J = [twisted.polar_form(e, self.three, f.mul, f.neg)
             for e in np.eye(4, dtype=int).tolist()]
        mats = self._group_arrays()[1]
        rows = [mats[:, i, :].T for i in range(4)]  # row i of every lift, as columns
        polars = [twisted.polar_form(r, self.three, self._mul, self._neg) for r in rows]

        def w(i, k):
            return reduce(self._add, map(self._mul, rows[i], polars[k]))
        scale = w(0, 3)
        ok = scale != 0
        for i, k in combinations(range(4), 2):
            ok &= w(i, k) == self._mul(J[k][i], scale)
        return int(np.count_nonzero(~ok))

    # -- plane census ------------------------------------------------------------

    def plane_class_counts(self) -> dict[str, int]:
        """Counts of osculating / d-point plane types over all planes."""
        planes = self._proj_points(4)
        m = np.zeros(len(planes), dtype=np.int16)
        for pt in self.cubic_points:
            m += self._lincomb(pt, planes.T) == 0
        if int(m.max()) > 3:
            raise RuntimeError("a plane contains four cubic points")
        if (m[self.gamma_plane_ranks] != 1).any():
            raise RuntimeError("an osculating plane does not meet the cubic in one point")
        m[self.gamma_plane_ranks] = -1
        return {name: int(np.count_nonzero(m == d))
                for name, d in (("gamma", -1), ("2C", 2), ("3C", 3), ("1C", 1), ("0C", 0))}
