"""Exact arithmetic in GF(q) for q = p^e.

Field elements are plain ints in [0, q): the polynomial c0 + c1*a + c2*a^2 + ...
in the generator a (the class of x modulo the field modulus) is encoded as the
base-p integer c0 + c1*p + c2*p^2 + ...  Index 0 is the additive identity and
index 1 the multiplicative identity.  All arithmetic goes through a Field
instance; there is no element wrapper class.

Dense q x q lookup tables (numpy), built from log/antilog tables of size q,
serve both the scalar operations and the vectorized engine.
"""

from __future__ import annotations

import numpy as np

# default irreducible moduli, little-endian coefficients, monic
# (the standard Conway polynomials for these orders)
DEFAULT_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
    81: (2, 0, 0, 2, 1),
}


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, p prime; raise ValueError otherwise."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1  # q itself is prime
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_trim(u):
    while u and u[-1] == 0:
        u = u[:-1]
    return u


def _poly_rem(u, v, p):
    """Remainder of u mod v over GF(p); coefficients little-endian."""
    u = list(u)
    dv = len(_poly_trim(v)) - 1
    inv_lead = pow(v[dv], p - 2, p)
    for i in range(len(u) - 1, dv - 1, -1):
        if u[i]:
            f = (u[i] * inv_lead) % p
            for j in range(dv + 1):
                u[i - dv + j] = (u[i - dv + j] - f * v[j]) % p
    return _poly_trim(tuple(u[:dv]))


def _poly_mul_rem(u, v, modulus, p):
    out = [0] * (len(u) + len(v) - 1) if u and v else []
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_rem(out, modulus, p)


def _poly_is_irreducible(modulus, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(modulus) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            cand = []
            m = idx
            for _ in range(d):
                cand.append(m % p)
                m //= p
            cand.append(1)
            if not _poly_rem(modulus, cand, p):
                return False
    return True


class Field:
    """GF(q) with canonical integer element encoding and lookup tables.

    Attributes:
      p, e, q      characteristic, extension degree, order
      modulus      monic irreducible coefficients, little-endian, length e+1
      xi           q mod 3 mapped to {-1, 0, 1}
      generator    smallest primitive element
      min_nonsquare   smallest non-square (odd q only, else None)
      min_trace_one   smallest element of absolute trace 1
    """

    def __init__(self, q: int, modulus=None):
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if modulus is None:
            if e == 1:
                modulus = (0, 1)
            elif q in DEFAULT_MODULI:
                modulus = DEFAULT_MODULI[q]
            else:
                raise ValueError(f"no built-in modulus for q={q}; pass one explicitly")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != e + 1:
            raise ValueError(f"modulus must have degree {e}, got degree {len(modulus) - 1}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self.xi = {0: 0, 1: 1, 2: -1}[q % 3]

        # base-p digit matrix of every element, little-endian
        digits = np.zeros((q, e), dtype=np.int64)
        vals = np.arange(q)
        for i in range(e):
            digits[:, i] = vals % p
            vals = vals // p
        self._digits = digits
        self._powers = p ** np.arange(e)

        self.generator = self._find_generator()
        self._build_log_tables()
        self._build_neg_inv()
        self._build_dense_tables()
        self._build_square_trace_tables()

    # -- construction helpers ------------------------------------------------

    def _raw_mul(self, x: int, y: int) -> int:
        u = [int(c) for c in self._digits[x]]
        v = [int(c) for c in self._digits[y]]
        r = _poly_mul_rem(_poly_trim(tuple(u)), _poly_trim(tuple(v)), self.modulus, self.p)
        return sum(c * self.p**i for i, c in enumerate(r))

    def _find_generator(self) -> int:
        for g in range(1, self.q):
            x, order = g, 1
            while x != 1:
                x = self._raw_mul(x, g)
                order += 1
                if order > self.q:
                    raise RuntimeError("order computation ran away")
            if order == self.q - 1:
                return g
        raise RuntimeError("no generator found")

    def _build_log_tables(self):
        q = self.q
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, self.generator)
        if x != 1:
            raise RuntimeError("generator order mismatch")
        self.exp_table = exp
        self.log_table = log

    def _build_neg_inv(self):
        q = self.q
        neg_digits = (self.p - self._digits) % self.p
        self.neg_table = (neg_digits @ self._powers).astype(np.int16)
        inv = np.zeros(q, dtype=np.int64)
        nz = np.arange(1, q)
        inv[nz] = self.exp_table[(-self.log_table[nz]) % (q - 1)]
        self.inv_table = inv.astype(np.int16)

    def _build_dense_tables(self):
        q = self.q
        d = self._digits
        s = (d[:, None, :] + d[None, :, :]) % self.p
        self.add_table = (s @ self._powers).astype(np.int16)
        self.sub_table = self.add_table[:, self.neg_table]
        mul = np.zeros((q, q), dtype=np.int64)
        lg = self.log_table[1:]
        mul[1:, 1:] = self.exp_table[(lg[:, None] + lg[None, :]) % (q - 1)]
        self.mul_table = mul.astype(np.int16)

    def _build_square_trace_tables(self):
        q = self.q
        sqrt = np.full(q, -1, dtype=np.int64)
        for x in range(q):
            s = self.mul(x, x)
            if sqrt[s] < 0:
                sqrt[s] = x
        self.sqrt_table = sqrt
        self.square_mask = sqrt >= 0

        tr = np.zeros(q, dtype=np.int64)
        for x in range(q):
            acc, y = x, x
            for _ in range(self.e - 1):
                y = self.power(y, self.p)
                acc = self.add(acc, y)
            if acc >= self.p:
                raise RuntimeError("trace left the prime subfield")
            tr[x] = acc
        self.trace_table = tr

        if self.p == 2:
            ar = np.full(q, -1, dtype=np.int64)
            for x in range(q):
                s = self.add(self.mul(x, x), x)
                if ar[s] < 0:
                    ar[s] = x
            self._artin_table = ar
        else:
            self._artin_table = None

        if self.q % 2 == 1:
            self.min_nonsquare = int(np.flatnonzero(~self.square_mask)[0])
        else:
            self.min_nonsquare = None
        self.min_trace_one = int(np.flatnonzero(self.trace_table == 1)[0])

    # -- scalar operations ---------------------------------------------------

    def _chk(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise ValueError(f"{x} is not an element encoding of GF({self.q})")
        return x

    def add(self, x: int, y: int) -> int:
        self._chk(x), self._chk(y)
        return int(self.add_table[x, y])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        return int(self.neg_table[self._chk(x)])

    def mul(self, x: int, y: int) -> int:
        self._chk(x), self._chk(y)
        return int(self.mul_table[x, y])

    def inv(self, x: int) -> int:
        if self._chk(x) == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.inv_table[x])

    def power(self, x: int, n: int) -> int:
        self._chk(x)
        if n < 0:
            x, n = self.inv(x), -n
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            n >>= 1
        return out

    def of_int(self, n: int) -> int:
        """Embed a plain integer into the prime subfield."""
        return n % self.p

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # -- quadratic utilities ---------------------------------------------------

    def is_square(self, x: int) -> bool:
        return bool(self.square_mask[self._chk(x)])

    def sqrt(self, x: int) -> int:
        """The smallest square root of x; raises if x is a non-square."""
        s = int(self.sqrt_table[self._chk(x)])
        if s < 0:
            raise ValueError(f"{x} is not a square in GF({self.q})")
        return s

    def abs_trace(self, x: int) -> int:
        """Absolute trace into GF(p), returned as an int in [0, p)."""
        return int(self.trace_table[self._chk(x)])

    def quadratic_roots(self, a1: int, a2: int) -> list[int]:
        """Roots in GF(q) of x^2 - a1*x + a2, multiplicity collapsed, ascending."""
        self._chk(a1), self._chk(a2)
        if self.p == 2:
            if a1 == 0:
                return [self.sqrt(a2)]
            ia = self.inv(a1)
            c = self.mul(a2, self.mul(ia, ia))
            y = int(self._artin_table[c])
            if y < 0:
                return []
            r1 = self.mul(a1, y)
            return sorted((r1, self.add(r1, a1)))
        d = self.sub(self.mul(a1, a1), self.mul(self.of_int(4), a2))
        half = self.inv(self.of_int(2))
        if d == 0:
            return [self.mul(a1, half)]
        if not self.is_square(d):
            return []
        s = self.sqrt(d)
        return sorted((self.mul(self.add(a1, s), half), self.mul(self.sub(a1, s), half)))

    def __repr__(self):
        return f"Field(q={self.q}, p={self.p}, e={self.e}, modulus={self.modulus})"


def make_field(q: int, modulus=None) -> Field:
    """Build GF(q); q must be a prime power.

    When modulus is omitted, prime q uses the prime field and composite q one
    of the built-in default polynomials (fixed, so reports are bit-exact).
    """
    return Field(q, modulus)
