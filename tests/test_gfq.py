import pytest
from hypothesis import given, strategies as st

from twistedcubic import gfq
from twistedcubic.gfq import make_field

SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32)


def test_make_field_basic_attributes(field):
    f5 = field(5)
    assert (f5.p, f5.e, f5.xi) == (5, 1, -1)
    f9 = field(9)
    assert (f9.p, f9.e, f9.xi) == (3, 2, 0)
    f8 = field(8)
    assert (f8.p, f8.e, f8.xi) == (2, 3, -1)


def test_make_field_rejects_non_prime_power():
    for q in (1, 6, 12, 15, 100):
        with pytest.raises(ValueError):
            make_field(q)


def test_make_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        make_field(4, (1, 1))  # wrong degree
    with pytest.raises(ValueError):
        make_field(4, (0, 1, 1))  # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        make_field(4, (1, 1, 2))  # not monic
    with pytest.raises(ValueError):
        make_field(128)  # no built-in modulus


def test_modulus_coefficients_are_reduced_mod_p():
    # every coefficient, the leading one included, is taken mod p
    assert make_field(4, (1, 1, 3)).modulus == (1, 1, 1)
    assert make_field(4, (3, -1, 1)).modulus == (1, 1, 1)
    assert make_field(9, (5, 2, 4)).modulus == (2, 2, 1)


def test_default_moduli_all_irreducible():
    for q in gfq.DEFAULT_MODULI:
        f = make_field(q)
        assert f.q == q


def test_prime_field_ops(field):
    f = field(5)
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 0
    assert f.neg(2) == 3
    assert f.inv(3) == 2


def test_gf8_polynomial_ops(field):
    # modulus x^3 + x + 1: alpha * alpha^2 = alpha^3 = alpha + 1
    f = field(8)
    assert f.modulus == (1, 1, 0, 1)
    assert f.mul(2, 4) == 3
    assert f.add(2, 3) == 1  # alpha + (alpha + 1) = 1


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive_inverses(field, q):
    f = field(q)
    for x in f.elements():
        assert f.add(x, f.neg(x)) == 0
        assert f.power(x, q) == x  # Frobenius fixes GF(q)
        if x:
            assert f.mul(x, f.inv(x)) == 1
            assert f.power(x, q - 1) == 1


@given(st.sampled_from((5, 8, 9, 27)), st.data())
def test_field_axioms_random(field, q, data):
    f = field(q)
    el = st.integers(0, q - 1)
    x, y, z = data.draw(el), data.draw(el), data.draw(el)
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))


def test_inv_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field(5).inv(0)


def test_out_of_range_operand_rejected(field):
    with pytest.raises(ValueError):
        field(5).add(5, 1)
    with pytest.raises(ValueError):
        field(5).mul(-1, 1)


def test_is_square(field):
    f5 = field(5)
    assert {x for x in f5.elements() if f5.is_square(x)} == {0, 1, 4}
    assert not f5.is_square(2)
    f8 = field(8)
    assert all(f8.is_square(x) for x in f8.elements())
    for q in SMALL_Q:
        f = field(q)
        assert f.is_square(1)
        n = sum(1 for x in f.elements() if f.is_square(x))
        assert n == ((q + 1) // 2 if q % 2 else q)


def test_sqrt_char2_is_power(field):
    f = field(8)
    for x in f.elements():
        assert f.sqrt(x) == f.power(x, 4)  # x^(q/2)


def test_abs_trace(field):
    f8 = field(8)
    # brute absolute trace: x + x^2 + x^4
    brute = {x: f8.add(x, f8.add(f8.power(x, 2), f8.power(x, 4)))
             for x in f8.elements()}
    assert all(f8.abs_trace(x) == brute[x] for x in f8.elements())
    assert sum(1 for x in f8.elements() if f8.abs_trace(x) == 1) == 4
    f7 = field(7)
    assert all(f7.abs_trace(x) == x for x in f7.elements())
    for q in SMALL_Q:
        f = field(q)
        assert f.abs_trace(0) == 0
        assert sum(1 for x in f.elements() if f.abs_trace(x) == 0) == q // f.p
        if q <= 9:  # additivity, exhaustively on the small fields
            for x in f.elements():
                for y in f.elements():
                    assert f.abs_trace(f.add(x, y)) == \
                        (f.abs_trace(x) + f.abs_trace(y)) % f.p


def test_quadratic_roots_examples(field):
    f5 = field(5)
    assert f5.quadratic_roots(1, 0) == [0, 1]
    assert f5.quadratic_roots(0, 2) == []
    f8 = field(8)
    for c in f8.elements():
        assert len(f8.quadratic_roots(0, c)) == 1


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23,
                               25, 27, 29, 31, 32))
def test_quadratic_roots_against_brute_force(field, q):
    f = field(q)
    for a1 in f.elements():
        for a2 in f.elements():
            brute = [x for x in f.elements()
                     if f.add(f.sub(f.mul(x, x), f.mul(a1, x)), a2) == 0]
            assert f.quadratic_roots(a1, a2) == brute, (q, a1, a2)


def test_encoding_round_trip(field):
    f = field(27)
    for x in f.elements():
        digits = []
        v = x
        for _ in range(f.e):
            digits.append(v % f.p)
            v //= f.p
        assert sum(c * f.p**i for i, c in enumerate(digits)) == x
        # the encoding agrees with polynomial arithmetic: x = sum c_i alpha^i
        alpha = f.p if f.e > 1 else 1
        acc = 0
        for i, c in enumerate(digits):
            acc = f.add(acc, f.mul(c, f.power(alpha, i)))
        assert acc == x


def test_distinguished_elements(field):
    for q in (5, 7, 9, 11, 13, 27):
        f = field(q)
        rho = f.min_nonsquare
        assert not f.is_square(rho)
        assert all(f.is_square(x) for x in range(rho))
    for q in (2, 4, 8, 16, 32):
        f = field(q)
        eta = f.min_trace_one
        assert f.abs_trace(eta) == 1
        assert all(f.abs_trace(x) != 1 for x in range(eta))


def test_alternate_modulus_gives_isomorphic_arithmetic(field):
    # same element counts of every multiplicative order, different encodings
    f1 = field(8)
    f2 = field(8, (1, 0, 1, 1))  # x^3 + x^2 + 1
    def order_profile(f):
        profile = {}
        for x in f.units():
            n = 1
            y = x
            while y != 1:
                y = f.mul(y, x)
                n += 1
            profile[n] = profile.get(n, 0) + 1
        return profile
    assert order_profile(f1) == order_profile(f2)
