"""Vectorized line engine over rank-indexed lines.

A line's rank is its index in the enumeration of rank-2 RREF 2 x 4 matrices
(`_pair_blocks(4, q)`), read off its normalized Pluecker vector by `_rank`;
a point's or plane's rank is its index in `_proj_points(4)`.  Whole-universe
state (class codes, orbit labels) is one entry per rank, and the lines of a
class are the ascending array of their ranks, so locating a line is an
index, not a search.  Packed base-q int64 keys of Pluecker vectors remain
only as the orbit representatives of the report.

All field arithmetic goes through four elementwise ops (`_mul`, `_add`,
`_sub`, `_neg`), built once per field by `field_ops`: a 1-D `take` on the
flattened q x q table, or on one table row when an operand is a scalar.  In
characteristic 2 the canonical encoding makes addition XOR, so `_add` and
`_sub` are `np.bitwise_xor` and `_neg` is the identity.

The line formulas are not written here: the Engine calls the shared forms of
pg3 (Pluecker vector, incidence, Klein relation, its polarized form, skew
Pluecker matrix) and twisted (chord pattern) with these ops on coordinate
arrays, the same functions the scalar modules call with Field methods.  The
independent oracles stay separate: the monomial null polarity (`_polar`) and
the root count of the chord quadratic (`_root_count`).

Independent work runs on min(2, cores) threads: the calling thread and the
helpers of one shared pool, started on first use (numpy releases the GIL in
`take`, the ufuncs and the sorts).  They share out the chunks of the line
enumeration (`_line_tasks`) in the class pass and the polarity pass, and
contiguous slices of the group (`_over_group`) in the stabilizer filter and
each orbit sweep.  The contract:

- a task writes only the disjoint rank slice of its own chunk (the
  polarity pass also stores True into its hit mask, which no task reads);
- results are merged in task order, so no output depends on scheduling;
- a task calls only private Engine helpers and the shared pg3 and twisted
  forms, never a public method or entry point: the traced benchmark
  (perfbench/spans.py) wraps those with a span recorder that is not
  thread-safe; the group arrays are built before any task is handed out,
  and no task hands out tasks of its own (a helper would wait forever for
  itself);
- small work runs inline on the calling thread: a single task, a universe
  that fits in one chunk, a group of fewer than SPLIT_SWEEP elements.
"""

from __future__ import annotations

import os
import threading
from functools import cache
from typing import NamedTuple

import numpy as np

from . import action, pg3, twisted

PAIR_IDX = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

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


def _columns(cols):
    """The (n, k) array with the given length-n columns, stored column by
    column: the field ops then read and write contiguous coordinates."""
    return np.stack(cols).T


def sorted_unique(values):
    """Ascending distinct values: sort, then mask adjacent duplicates
    (an order of magnitude faster than np.unique on large int64 arrays)."""
    out = np.sort(values)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
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
            slots = tuple([(0, j) for j in range(c0 + 1, ncols) if j != c1]
                          + [(1, j) for j in range(c1 + 1, ncols)])
            blocks.append((c0, c1, slots, offset, q ** len(slots)))
            offset += q ** len(slots)
    return tuple(blocks)  # cached: shared by every caller


# threads that work at once, the calling thread included: numpy releases the
# GIL in take, the ufuncs and the sorts, so each keeps one core busy
WORKERS = min(2, len(os.sched_getaffinity(0)))

# a group sweep is split over the workers only from this many elements on
# (q >= 41): below it the thread handoffs cost more than the split saves
SPLIT_SWEEP = 60_000


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


class OrbitPartition(NamedTuple):
    """Orbits of one line class: (size, stabilizer_order, representative_key)
    records sorted by (size, representative), and per record the number of
    group elements fixing the seed line of its sweep, counted in the sweep."""
    records: list[tuple[int, int, int]]
    fixers: list[int]


class Engine:
    """Bulk classification and orbit machinery for one (field, cubic) pair.
    Arrays with one entry per line are built on first use, never for queries.

    Chunks of `chunk` lines, and large group sweeps, are shared out over
    threads under the module's contract: disjoint rank slices per task,
    results merged in task order, only private helpers in tasks, small work
    inline.  The results depend only on the field and the cubic."""

    def __init__(self, field, model=None, chunk=1 << 19):
        self.field = field
        self.model = model if model is not None else twisted.build_cubic(field)
        self.chunk = chunk
        q = field.q
        self.q = q
        self.INV = field.inv_table
        self._mul, self._add, self._sub, self._neg = field_ops(field)
        self.SQ = field.square_mask
        self.TR = field.trace_table
        self.three = field.of_int(3)
        self.nine = field.mul(self.three, self.three)
        self.four = field.of_int(4)
        self.group_order = q**3 - q

        self.cubic_point_ranks, self.gamma_plane_ranks = (
            self._point_rank(np.array(sorted(pts), np.int16))
            for pts in (self.model.cubic_point_set, self.model.gamma_plane_set))
        self.axis_plucker = self.model.axis.plucker if field.xi == 0 else None
        self._keys = self._codes = self._klein_violations = None
        self.orbit_labels = None  # per rank: index into its class's records
        self._group = None

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
        yielded one at a time so a caller can store each before the next."""
        for _ in range(k):
            yield (values % self.q).astype(np.int16)
            values = values // self.q

    def unpack(self, keys):
        """(n, 6) int16 Pluecker rows of packed line keys."""
        return _columns(list(self._digits(keys, 6))[::-1])

    def _rank(self, P):
        """Index of each normalized Pluecker row in the enumeration of the
        rank-2 RREF 2 x 4 matrices (_pair_blocks(4, q)): the offset of its
        pivot pattern (c0, c1), the position of its first nonzero coordinate,
        plus its free RREF entries read base q.  Those are l_{j c1}
        (c0 < j < c1) and -l_{c1 j} (j > c1) in row 0, and l_{c0 j} (j > c1)
        in row 1.  Every row is first ranked as if its pivot were (0, 1), as
        all but about 1/q of them are, then the rest."""
        out = np.empty(len(P), np.int64)
        rows, sub = slice(None), P
        for c0, c1, slots, offset, _size in _pair_blocks(4, self.q):
            if not len(sub):
                break
            rank = np.zeros(len(sub), np.int64)
            for row, j in slots:
                entry = sub[:, PAIR_IDX.index((c0, j) if row else tuple(sorted((j, c1))))]
                rank *= self.q
                rank += self._neg(entry) if row == 0 and j > c1 else entry
            out[rows] = rank + offset
            later = np.flatnonzero(sub[:, PAIR_IDX.index((c0, c1))] == 0)
            rows, sub = later if sub is P else rows[later], sub[later]
        return out

    def _pairs_of(self, ranks):
        """The RREF row pairs (U, V) of the lines with the given ranks."""
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

    def _lincomb(self, scalars, cols):
        """Sum of s * col over the scalars s and arrays col, skipping zero
        scalars (all zeros when every scalar is zero)."""
        acc = None
        for c, col in zip(scalars, cols):
            if c:
                term = self._mul(int(c), col)
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
        chords match the symmetric-function pattern with nonzero l23.
        """
        m = self._mul
        p0, p1, p2, p3, p4, p5 = P.T
        code = np.zeros(len(P), dtype=np.int8)

        thru_inf = (p3 == 0) & (p4 == 0) & (p5 == 0)
        code[thru_inf & (p1 == 0) & (p2 == 0)] = 1
        code[thru_inf & (p2 != 0) & (m(p0, p2) == m(p1, p1))] = 2

        s = self.INV[p5]
        a1 = m(p4, s)
        a2 = m(p3, s)
        pattern = twisted.chord_pattern(a1, a2, m, self._sub)
        match = p5 != 0
        for want, got in zip(pattern, (p0, p1, p2)):
            match &= want == m(got, s)
        cnt = self._root_count(a1, a2)
        code[match & (cnt == 2)] = 2
        code[match & (cnt == 1)] = 1
        code[match & (cnt == 0)] = 3
        return code

    def _polar(self, P):
        # image of the null polarity on Pluecker vectors: a fixed monomial map
        # (checked against the two-plane definition in the test suite)
        if self.field.xi == 0:
            raise ValueError("the null polarity degenerates when q = 0 mod 3")
        m = self._mul
        t, n = self.three, self.nine
        return _columns([
            m(t, P[:, 0]), m(t, P[:, 1]), m(n, P[:, 3]),
            P[:, 2], m(t, P[:, 4]), m(t, P[:, 5]),
        ])

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
        """Pluecker rows of a chunk's lines, normalized since l_{c0 c1} = 1."""
        _ranks, c0, c1, slots, start, stop = task
        # int32 digits take half the time of int64 ones; stop <= q^4
        idx = np.arange(start, stop, dtype=np.int32)
        return self._plucker(*self._pair_rows(4, c0, c1, slots, idx))

    def _over_lines(self, fn):
        """fn(ranks, P) per chunk of all lines, in rank order, with P the
        normalized Pluecker rows of the rank slice `ranks`.  The chunks are
        shared out over the threads only when the lines fill more than one."""
        def task(t):
            return fn(t[0], self._task_plucker(t))
        run = map if pg3.line_count(self.q) <= self.chunk else _in_order
        return run(task, self._line_tasks())

    def _model_flags(self):
        """Per line rank: MEETS if the line meets the cubic, GAMMA if it lies
        in an osculating plane, AXIS for the axis (xi = 0 only)."""
        flags = np.zeros(pg3.line_count(self.q), np.uint8)

        # each cubic point joined to every point of a plane x_j = 0 missing it
        points = self._proj_points(4)
        for pt in sorted(self.model.cubic_point_set):
            V = points[points[:, next(i for i in range(4) if pt[i])] == 0]
            U = np.tile(np.asarray(pt, np.int16), (len(V), 1))
            flags[self._rank(self._normalize_rows(self._plucker(U, V)))] |= MEETS

        # all lines in each osculating plane
        r0, r1 = (np.concatenate(rows).T for rows in zip(*(
            self._pair_rows(3, c0, c1, slots, np.arange(size))
            for c0, c1, slots, _offset, size in _pair_blocks(3, self.q))))
        for plane in sorted(self.model.gamma_plane_set):
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

    def class_keys(self) -> dict[str, np.ndarray]:
        """The ascending ranks of the lines of each populated class (a line's
        key is its rank; int32, as line_count(q) < 2^31 for q <= 64), from one
        chunked pass over the whole universe that also fills the class codes."""
        if self._keys is None:
            codes = np.empty(pg3.line_count(self.q), np.int8)
            flags = self._model_flags()

            def classify(ranks, P):
                codes[ranks], bad = self._classify_chunk(P, flags[ranks])
                return bad, np.bincount(codes[ranks], minlength=len(CLASS_ORDER))
            bad, sizes = zip(*self._over_lines(classify))
            sizes = sum(sizes)
            keys = {cls: np.empty(sizes[CODE[cls]], np.int32)
                    for cls in twisted.valid_line_classes(self.field)}
            # window by window: an int64 index of every rank at once would set
            # the peak memory of the whole census
            filled = dict.fromkeys(keys, 0)
            for lo in range(0, len(codes), self.chunk):
                window = codes[lo:lo + self.chunk]
                for cls, out in keys.items():
                    found = np.flatnonzero(window == CODE[cls])
                    out[filled[cls]:filled[cls] + len(found)] = found + lo
                    filled[cls] += len(found)
            self._keys, self._codes, self._klein_violations = keys, codes, sum(bad)
        return self._keys

    def class_codes(self) -> np.ndarray:
        """The class code (index into CLASS_ORDER) of every line, by rank."""
        self.class_keys()
        return self._codes

    def klein_violations(self) -> int:
        self.class_keys()
        return self._klein_violations

    def polar_keys(self, keys) -> np.ndarray:
        """Sorted keys of the polar images of the given lines (xi != 0)."""
        return np.sort(self.pack(self._normalize_rows(self._polar(self.unpack(keys)))))

    def polar_orbit_counts(self, polar_code, orbit_id, m):
        """Send every line through the null polarity, chunk by chunk (xi != 0).

        A line of class c with orbit label k is in orbit orbit_id[c] + k of m.
        Returns (exchange, counts): exchange is True iff every line is an
        image and each image has class polar_code[c] (so the map takes each
        class onto its partner); counts[i, j] counts the lines of orbit i
        with image in orbit j."""
        codes, labels = self.class_codes(), self.orbit_labels
        hit = np.zeros(len(codes), dtype=bool)

        def polarize(ranks, P):
            img = self._rank(self._normalize_rows(self._polar(P)))
            src, dst = codes[ranks], codes[img]
            hit[img] = True  # chunks only ever store True, so none is lost
            orbit = orbit_id[src] + labels[ranks]
            return (bool((polar_code[src] == dst).all()),
                    np.bincount(orbit * m + orbit_id[dst] + labels[img], minlength=m * m))
        counts = np.zeros(m * m, np.int64)
        exchange = True
        for same, pairs in self._over_lines(polarize):
            exchange &= same
            counts += pairs
        return exchange and bool(hit.all()), counts.reshape(m, m)

    # -- group sweeps ------------------------------------------------------------

    def _group_arrays(self):
        if self._group is None:
            q = self.q
            cs, ds = np.meshgrid(np.arange(q, dtype=np.int16),
                                 np.arange(q, dtype=np.int16), indexing="ij")
            c0 = cs.ravel()
            d0 = ds.ravel()
            keep = c0 != 0
            blk0 = np.stack([np.zeros(keep.sum(), np.int16),
                             np.ones(keep.sum(), np.int16), c0[keep], d0[keep]], 1)
            b1, c1, d1 = [x.ravel() for x in np.meshgrid(
                np.arange(q, dtype=np.int16), np.arange(q, dtype=np.int16),
                np.arange(q, dtype=np.int16), indexing="ij")]
            keep1 = self._sub(d1, self._mul(b1, c1)) != 0
            blk1 = np.stack([np.ones(keep1.sum(), np.int16), b1[keep1],
                             c1[keep1], d1[keep1]], 1)
            abcd = np.concatenate([blk0, blk1], 0)
            if len(abcd) != self.group_order:
                raise RuntimeError("group enumeration size mismatch")

            rows = action.lift_rows(self.field, *abcd.T, self._mul, self._add)
            # (N, 4, 4) lifts, stored so that each entry's N values are contiguous
            mats = np.stack([np.stack(r) for r in rows]).transpose(2, 0, 1)
            self._group = (abcd, mats)
        return self._group

    def group_abcd(self):
        return self._group_arrays()[0]

    def _act_all(self, pt, sel=None):
        """Image of one point under every group element, or under the
        elements sel (an index array or a slice), as an (N,4) array."""
        mats = self._group_arrays()[1]
        if sel is not None:
            mats = mats[sel]
        return _columns([self._lincomb(pt, mats[:, :, j].T) for j in range(4)])

    def _over_group(self, fn):
        """fn(sel) per contiguous slice sel of the group elements, as a list
        in group order.  A group of SPLIT_SWEEP elements or more is cut into
        two slices per thread, so that a thread whose core is busy leaves
        part of its share to the other."""
        n = len(self._group_arrays()[0])  # built here, never in a task
        parts = 2 * WORKERS if WORKERS > 1 and n >= SPLIT_SWEEP else 1
        cuts = [n * i // parts for i in range(parts + 1)]
        return _in_order(fn, [slice(*c) for c in zip(cuts, cuts[1:])])

    def _images(self, line, fn):
        """fn(P) per slice of _over_group, with P the normalized Pluecker rows
        of the line's images under the slice's elements."""
        u, v = line.pair
        return self._over_group(lambda sel: fn(self._normalize_rows(self._plucker(
            self._act_all(u, sel), self._act_all(v, sel)))))

    def orbit_sweep(self, line) -> np.ndarray:
        """Sorted unique keys of the full-group orbit of the line."""
        return sorted_unique(self.pack(np.concatenate(self._images(line, _identity))))

    def line_from_key(self, key) -> pg3.ProjLine:
        row = self.unpack(np.array([key], np.int64))[0]
        return pg3.line_from_plucker(self.field, tuple(row.tolist()))

    def orbit_partition_keys(self, cls) -> OrbitPartition:
        """Partition the lines of one class into orbits, writing the index of
        each line's orbit record into orbit_labels at its rank.  An orbit's
        size counts the distinct ranks of its sweep, its representative is
        its minimal key; an image outside the class raises ValueError."""
        codes, members = self.class_codes(), self.class_keys()[cls]
        code = CODE[cls]
        if self.orbit_labels is None:
            self.orbit_labels = np.full(len(codes), -1, dtype=np.int16)
        labels = self.orbit_labels
        windows = [members[i:i + self.chunk] for i in range(0, len(members), self.chunk)]
        for window in windows:
            labels[window] = -1  # forget an earlier partition of cls
        records = []
        fixers = []
        for window in windows:
            # seed a sweep at each line of the window that is still unlabelled;
            # the lines before a seed are labelled, so the scan resumes after it
            while (free := labels.take(window) < 0).any():
                at = int(free.argmax())
                seed = int(window[at])
                window = window[at + 1:]
                parts = self._images(self.line_from_rank(seed),
                                     lambda P: (self._rank(P), int(self._pack(P).min())))
                ranks = np.concatenate([r for r, _key in parts])
                orbit = sorted_unique(ranks)
                if (codes[orbit] != code).any():
                    raise ValueError(f"the {cls} lines are not closed under the group action")
                labels[orbit] = len(records)
                size = len(orbit)
                if self.group_order % size:
                    raise RuntimeError(f"orbit size {size} does not divide {self.group_order}")
                records.append((size, self.group_order // size, min(k for _r, k in parts)))
                fixers.append(int(np.count_nonzero(ranks == seed)))
        order = sorted(range(len(records)), key=lambda i: (records[i][0], records[i][2]))
        relabel = np.empty(len(records), dtype=np.int16)
        relabel[order] = np.arange(len(records))
        for window in windows:
            labels[window] = relabel.take(labels[window])
        return OrbitPartition([records[i] for i in order], [fixers[i] for i in order])

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

    def covers_once(self, ranks, excluded, dual=False) -> bool:
        """Whether the points of the lines with the given ranks, or with
        dual=True the planes through them, cover every point (plane) of
        PG(3,q) outside the point ranks `excluded` exactly once."""
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

    # -- plane census ------------------------------------------------------------

    def plane_class_counts(self) -> dict[str, int]:
        """Counts of osculating / d-point plane types over all planes."""
        planes = self._proj_points(4)
        m = np.zeros(len(planes), dtype=np.int16)
        for pt in sorted(self.model.cubic_point_set):
            m += self._lincomb(pt, planes.T) == 0
        if int(m.max()) > 3:
            raise RuntimeError("a plane contains four cubic points")
        m[self.gamma_plane_ranks] = -1
        return {name: int(np.count_nonzero(m == d))
                for name, d in (("gamma", -1), ("2C", 2), ("3C", 3), ("1C", 1), ("0C", 0))}
