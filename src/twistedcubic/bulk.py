"""Vectorized line engine over packed integer keys.

Every line is identified by its normalized Pluecker vector packed base-q into
an int64 key, so whole-universe classification, orbit sweeps with the full
group, and stabilizer filters all run as numpy pipelines over int16
coordinate arrays.

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
"""

from __future__ import annotations

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


def isin_sorted(values, table):
    """Membership of values in an ascending int64 array."""
    if len(table) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(table, values)
    pos[pos == len(table)] = 0
    return table[pos] == values


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


def _first_negative(labels, pos, window):
    """Index of the first negative label at or after pos, or len(labels),
    scanned in windows so that no mask spans the whole remainder."""
    n = len(labels)
    while pos < n:
        free = labels[pos:pos + window] < 0
        off = int(free.argmax())
        if free[off]:
            return pos + off
        pos += len(free)
    return n


class OrbitPartition(NamedTuple):
    """Orbits of an action-closed sorted key array.

    records: (size, stabilizer_order, representative_key) per orbit, sorted
    by (size, representative); labels: int16 index into records per key;
    fixers: per record, the number of group elements mapping the
    representative to itself, counted exhaustively in its orbit sweep.
    """
    records: list[tuple[int, int, int]]
    labels: np.ndarray
    fixers: list[int]


class Engine:
    """Bulk classification and orbit machinery for one (field, cubic) pair."""

    def __init__(self, field, model=None, chunk=1 << 21):
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

        self._build_model_keys()
        self._class_keys = None
        self._klein_violations = None
        self._group = None

    # -- packing -------------------------------------------------------------

    def pack(self, cols):
        out = cols[0].astype(np.int64)
        for c in cols[1:]:
            out = out * self.q + c
        return out

    def pack_tuple(self, tup):
        return int(self.pack(np.array([tup], np.int64).T)[0])

    def _digits(self, values, k):
        """The k base-q int16 digits of each value, least significant first,
        yielded one at a time so a caller can store each before the next."""
        for _ in range(k):
            yield (values % self.q).astype(np.int16)
            values = values // self.q

    def unpack(self, keys):
        """(n, 6) int16 Pluecker rows of packed line keys."""
        return _columns(list(self._digits(keys, 6))[::-1])

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
        q = self.q
        blocks = []
        for lead in range(n - 1, -1, -1):
            k = n - 1 - lead
            block = np.zeros((q**k, n), np.int16)
            block[:, lead] = 1
            for j, col in zip(range(n - 1, lead, -1), self._digits(np.arange(q**k), k)):
                block[:, j] = col
            blocks.append(block)
        return np.concatenate(blocks)

    def _line_pair_chunks(self, ncols):
        """Spanning row pairs of every rank-2 RREF 2 x ncols matrix, chunked."""
        q = self.q
        for c0 in range(ncols - 1):
            for c1 in range(c0 + 1, ncols):
                slots = [(0, j) for j in range(c0 + 1, ncols) if j != c1]
                slots += [(1, j) for j in range(c1 + 1, ncols)]
                total = q ** len(slots)
                for start in range(0, total, self.chunk):
                    idx = np.arange(start, min(start + self.chunk, total), dtype=np.int64)
                    U = np.zeros((len(idx), ncols), np.int16, order="F")
                    V = np.zeros((len(idx), ncols), np.int16, order="F")
                    U[:, c0] = 1
                    V[:, c1] = 1
                    for (row, j), col in zip(reversed(slots), self._digits(idx, len(slots))):
                        (U if row == 0 else V)[:, j] = col
                    yield U, V

    # -- model key sets ---------------------------------------------------------

    def _build_model_keys(self):
        field, model = self.field, self.model
        pg2 = self._proj_points(3)

        # lines meeting the cubic: all lines through each cubic point
        parts = []
        for pt in sorted(model.cubic_point_set):
            j = next(i for i in range(4) if pt[i])
            avoid = [i for i in range(4) if i != j]
            V = np.zeros((len(pg2), 4), np.int16)
            V[:, avoid] = pg2
            U = np.tile(np.asarray(pt, np.int16), (len(pg2), 1))
            parts.append(self.pack(list(self._normalize_rows(self._plucker(U, V)).T)))
        self.meets_cubic_keys = sorted_unique(np.concatenate(parts))

        # lines inside some osculating plane
        r0, r1 = (np.concatenate(rows).T for rows in zip(*self._line_pair_chunks(3)))
        parts = []
        for plane in sorted(model.gamma_plane_set):
            basis = list(zip(*pg3.plane_basis(field, plane)))  # its 4 columns
            U = _columns([self._lincomb(col, r0) for col in basis])
            V = _columns([self._lincomb(col, r1) for col in basis])
            parts.append(self.pack(list(self._normalize_rows(self._plucker(U, V)).T)))
        self.gamma_line_keys = sorted_unique(np.concatenate(parts))

        self.gamma_plane_keys = sorted_unique(np.array(
            [self.pack_tuple(pl) for pl in model.gamma_plane_set], dtype=np.int64))
        self.cubic_point_keys = sorted_unique(np.array(
            [self.pack_tuple(pt) for pt in model.cubic_point_set], dtype=np.int64))

        if field.xi == 0:
            self.axis_plucker = model.axis.plucker
            self.axis_key = self.pack_tuple(model.axis.plucker)
        else:
            self.axis_plucker = None
            self.axis_key = None

    # -- classification ----------------------------------------------------------

    def _classify_chunk(self, U, V):
        P = self._normalize_rows(self._plucker(U, V))
        keys = self.pack(list(P.T))
        klein_bad = int(np.count_nonzero(self._klein(P)))

        cc = self._chord_code(P)
        cls = np.full(len(P), CODE[twisted.ENG], np.int8)
        cls[cc == 2] = CODE[twisted.RC]
        cls[cc == 1] = CODE[twisted.T]
        cls[cc == 3] = CODE[twisted.IC]

        rest = cc == 0
        meets = isin_sorted(keys, self.meets_cubic_keys)
        in_gamma = isin_sorted(keys, self.gamma_line_keys)
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
            is_axis = m0 & (keys == self.axis_key)
            cls[is_axis] = CODE[twisted.A]
            hits_axis = m0 & ~is_axis & (self._pairing_with(P, self.axis_plucker) == 0)
            cls[hits_axis] = CODE[twisted.EA]
        return keys, cls, klein_bad

    def class_keys(self) -> dict[str, np.ndarray]:
        """Sorted key array per populated class, classifying the whole universe."""
        if self._class_keys is None:
            buckets = {cls: [] for cls in twisted.valid_line_classes(self.field)}
            klein_bad = 0
            total = 0
            for U, V in self._line_pair_chunks(4):
                keys, cls, bad = self._classify_chunk(U, V)
                klein_bad += bad
                total += len(keys)
                for name in buckets:
                    sel = cls == CODE[name]
                    if sel.any():
                        buckets[name].append(keys[sel])
            expect = pg3.line_count(self.q)
            if total != expect:
                raise RuntimeError(f"enumerated {total} lines, expected {expect}")
            self._class_keys = {}
            for name, parts in buckets.items():
                # sorted in place: a sorted copy of the 16.5 M EnG keys at
                # q = 64 would add 132 MB to the peak
                keys = np.concatenate(parts) if parts else np.empty(0, np.int64)
                keys.sort()
                self._class_keys[name] = keys
            self._klein_violations = klein_bad
        return self._class_keys

    def klein_violations(self) -> int:
        self.class_keys()
        return self._klein_violations

    def class_counts(self) -> dict[str, int]:
        return {name: len(keys) for name, keys in self.class_keys().items()}

    def _polar_images(self, keys) -> np.ndarray:
        """Keys of the polar images of the given lines, in input order."""
        if self.field.xi == 0:
            raise ValueError("the null polarity degenerates when q = 0 mod 3")
        P = self._polar(self.unpack(keys))
        return self.pack(list(self._normalize_rows(P).T))

    def polar_keys(self, keys) -> np.ndarray:
        """Sorted keys of the polar images of the given lines (xi != 0)."""
        return np.sort(self._polar_images(keys))

    def polar_label_pairs(self, keys, labels, dst_keys, dst_labels):
        """Send a sorted key set through the null polarity, chunk by chunk.

        Each chunk's images are sorted and located in the sorted dst_keys.
        Returns (onto, pairs): onto is True iff the images are exactly
        dst_keys, each hit once; pairs is the ascending (k, 2) array of the
        distinct (label, image label) pairs.
        """
        n = len(dst_keys)
        if len(keys) != n:
            return False, np.empty((0, 2), np.int64)
        hit = np.zeros(n, dtype=bool)
        onto = True
        codes = [np.empty(0, np.int64)]
        for start in range(0, n, self.chunk):
            img = self._polar_images(keys[start:start + self.chunk])
            order = np.argsort(img)
            img = img[order]
            pos = np.minimum(np.searchsorted(dst_keys, img), n - 1)
            found = dst_keys[pos] == img
            onto &= bool(found.all())
            pos = pos[found]
            hit[pos] = True
            src = labels[start:start + self.chunk][order][found]
            codes.append(sorted_unique((src.astype(np.int64) << 16) | dst_labels[pos]))
        codes = sorted_unique(np.concatenate(codes))
        return onto and bool(hit.all()), np.stack([codes >> 16, codes & 0xFFFF], axis=1)

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

    def _act_all(self, pt):
        """Image of one point under every group element, as an (N,4) array."""
        _, mats = self._group_arrays()
        return _columns([self._lincomb(pt, mats[:, :, j].T) for j in range(4)])

    def _image_keys(self, line) -> np.ndarray:
        """Key of the line's image under every group element, in group order."""
        u, v = line.pair
        P = self._normalize_rows(self._plucker(self._act_all(u), self._act_all(v)))
        return self.pack(list(P.T))

    def orbit_sweep(self, line) -> np.ndarray:
        """Sorted unique keys of the full-group orbit of the line."""
        return sorted_unique(self._image_keys(line))

    def line_from_key(self, key) -> pg3.ProjLine:
        row = self.unpack(np.array([key], np.int64))[0]
        return pg3.line_from_plucker(self.field, tuple(row.tolist()))

    def orbit_partition_keys(self, keys_sorted) -> OrbitPartition:
        """Partition an action-closed sorted key array into orbits.

        Records are (size, stabilizer_order, representative_key) sorted by
        (size, representative); representative is the orbit's minimal key.
        """
        n = len(keys_sorted)
        labels = np.full(n, -1, dtype=np.int16)
        records = []
        fixers = []
        pos = 0
        while pos < n:
            seed_key = keys_sorted[pos]
            images = self._image_keys(self.line_from_key(seed_key))
            orbit = sorted_unique(images)
            where = np.searchsorted(keys_sorted, orbit)
            if (where >= n).any() or (keys_sorted[where] != orbit).any():
                raise ValueError("key set is not closed under the group action")
            labels[where] = len(records)
            size = len(orbit)
            if self.group_order % size:
                raise RuntimeError(f"orbit size {size} does not divide {self.group_order}")
            records.append((size, self.group_order // size, int(orbit[0])))
            fixers.append(int(np.count_nonzero(images == seed_key)))
            pos = _first_negative(labels, pos, self.chunk)
        if (labels < 0).any():
            raise RuntimeError("orbit partition missed input lines")
        order = sorted(range(len(records)), key=lambda i: (records[i][0], records[i][2]))
        relabel = np.empty(len(records), dtype=np.int16)
        relabel[order] = np.arange(len(records))
        return OrbitPartition([records[i] for i in order], relabel[labels],
                              [fixers[i] for i in order])

    def stabilizer_abcd(self, line) -> list[tuple[int, int, int, int]]:
        """Exhaustive stabilizer filter; returns sorted (a,b,c,d) tuples."""
        abcd, _ = self._group_arrays()
        mask = np.ones(len(abcd), dtype=bool)
        for pt in line.pair:
            for form in pg3.incidence_forms(self._act_all(pt).T, line.plucker,
                                            self._mul, self._sub, self._add):
                mask &= form == 0
        return sorted(map(tuple, abcd[mask].tolist()))

    # -- structural checks ---------------------------------------------------------

    def _pencil_keys(self, P):
        """Packed normalized points u + t*v (t in GF(q)) and v of every line
        in the Pluecker rows P.  u and v are the rows i and j of the line's
        skew Pluecker matrix, where l_ij is its first nonzero coordinate;
        they span the line because that l_ij is nonzero."""
        n = len(P)
        L = np.empty((n, 4, 4), dtype=np.int16)
        for i, row in enumerate(pg3.skew_rows(P.T, self._neg)):
            for j, entry in enumerate(row):
                L[:, i, j] = entry
        rows = np.arange(n)
        first = (P != 0).argmax(axis=1)
        pivot = np.array(PAIR_IDX, dtype=np.intp)[first]
        U = L[rows, pivot[:, 0]]
        V = L[rows, pivot[:, 1]]
        pts = [V] + [self._add(U, self._mul(t, V)) for t in range(self.q)]
        return self.pack(list(self._normalize_rows(np.concatenate(pts)).T))

    def covers_once(self, keys, excluded, dual=False) -> bool:
        """Whether the points of the given lines, or with dual=True the planes
        through them, cover every point (plane) of PG(3,q) outside the
        sorted key array `excluded` exactly once."""
        P = self.unpack(keys)
        if dual:
            # dual Pluecker vector (l23, -l13, l12, l03, -l02, l01)
            neg = self._neg
            P = _columns([P[:, 5], neg(P[:, 4]), P[:, 3],
                          P[:, 2], neg(P[:, 1]), P[:, 0]])
        got = self._pencil_keys(P)
        got = np.sort(got[~isin_sorted(got, excluded)])
        every = self.pack(list(self._proj_points(4).T))  # ascending
        return np.array_equal(got, every[~isin_sorted(every, excluded)])

    def triple_images(self, triple) -> int:
        """Number of distinct ordered triples of cubic points among the
        images of the given triple of points under every group element."""
        cubic = self.cubic_point_keys
        m = len(cubic)
        code = np.zeros(self.group_order, dtype=np.int64)
        on_cubic = np.ones(self.group_order, dtype=bool)
        for pt in triple:
            k = self.pack(list(self._normalize_rows(self._act_all(pt)).T))
            pos = np.minimum(np.searchsorted(cubic, k), m - 1)
            on_cubic &= cubic[pos] == k
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
        keys = self.pack([planes[:, 0], planes[:, 1], planes[:, 2], planes[:, 3]])
        gamma = isin_sorted(keys, self.gamma_plane_keys)
        return {
            "gamma": int(gamma.sum()),
            "2C": int(((m == 2) & ~gamma).sum()),
            "3C": int(((m == 3) & ~gamma).sum()),
            "1C": int(((m == 1) & ~gamma).sum()),
            "0C": int(((m == 0) & ~gamma).sum()),
        }
