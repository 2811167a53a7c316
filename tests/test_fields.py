"""Truncated field arithmetic, residue towers and valuation combinatorics."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localfields.fields import (DEFAULT_PRECISION, DescriptorMismatch,
                                FieldDescriptor, FieldError,
                                LocalFieldElement, NonUnit,
                                PrecisionExhausted,
                                ResidueRing, binom_valuation,
                                binom_valuation_exponent, carmichael_exponent,
                                digit_sum, format_element, laurent,
                                legendre_lambda, padic, parse_element,
                                project_down)
from localfields.mahler import MahlerSeries, binom_int
from localfields.poly import MultiPoly

D2 = padic(2)
D3 = padic(3)
L2 = laurent(2)
L3 = laurent(3)
L9 = laurent(3, 2)


def e(desc, n, N=32):
    return LocalFieldElement.from_int(desc, n, N)


class TestDescriptors:
    def test_padic_rejects_extension(self):
        with pytest.raises(ValueError):
            FieldDescriptor("padic", 3, 2)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            padic(4)

    def test_residue_cardinality(self):
        assert D3.residue_cardinality(2) == 9
        assert L9.residue_cardinality(2) == 81  # p^(uk)

    def test_uniformizer_norm(self):
        assert D3.uniformizer().norm() == Fraction(1, 3)
        assert L2.uniformizer().norm() == Fraction(1, 2)


class TestArithmetic:
    def test_one_plus_one_val(self):
        assert (e(D2, 1) + e(D2, 1)).valuation == 1

    def test_add_zero_identity(self):
        x = e(D3, 17)
        assert (x + LocalFieldElement.zero(D3)) == x

    def test_char_three(self):
        one = LocalFieldElement.one(L3)
        assert (one + one + one).is_zero()

    def test_exact_zero_distinguished(self):
        z = LocalFieldElement.zero(D2)
        assert z.is_exact_zero and z.valuation == math.inf
        assert (z * e(D2, 5)).is_exact_zero

    def test_apparent_zero_keeps_budget(self):
        x = e(D2, 7, 10)
        d = x - x
        assert d.is_zero() and not d.is_exact_zero
        assert d.precision == 10

    def test_descriptor_mismatch(self):
        with pytest.raises(DescriptorMismatch):
            e(D2, 1) + e(D3, 1)

    def test_precision_propagation_min(self):
        a = e(D2, 3, 10)
        b = e(D2, 5, 20)
        assert (a + b).precision == 10

    def test_mul_precision(self):
        a = e(D2, 6, 10)  # val 1, rel 9
        b = e(D2, 5, 20)
        assert (a * b).precision == 10  # min(10+0, 20+1)

    def test_division_consumes_budget(self):
        x = e(D2, 3, 20)
        # divisor with enough relative precision that only its valuation binds
        q = x / e(D2, 4, 22)
        assert q.valuation == -2
        assert q.precision == 18

    def test_pow(self):
        x = e(D3, 5)
        assert (x ** 4).same(625)
        assert (x ** 0).same(1)

    def test_inv_unit_identity(self):
        one = LocalFieldElement.one(D2)
        assert one.inv_unit().same(1)

    def test_inv_unit_mod_16(self):
        # extended-gcd oracle mod 2^4
        x = e(D2, 3, 4)
        assert x.inv_unit().lift_int() == pow(3, -1, 16) == 11

    def test_inv_unit_geometric_laurent(self):
        u = LocalFieldElement.one(L2) + L2.uniformizer()
        iu = u.inv_unit()
        assert iu.digits()[:5] == (1, 1, 1, 1, 1)
        assert (iu * u).same(1)

    def test_inv_nonunit(self):
        with pytest.raises(NonUnit):
            e(D2, 2).inv_unit()

    def test_gf_extension_field(self):
        one = LocalFieldElement.one(L9)
        t = L9.uniformizer()
        x = one + t * LocalFieldElement.from_laurent_coeffs(L9, 0, (5,))
        assert (x.inv_unit() * x).same(1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([padic(2), padic(3), padic(5), L2, L3, laurent(2, 2),
                        L9, laurent(5, 2), laurent(2, 7)]),
       st.integers(1, 40), st.data())
def test_inv_unit_inverts_at_full_precision(desc, rel, data):
    """Units with leading digit 1 (inside 1 + pi O) and with any nonzero
    leading digit (outside it, where the residue field allows)."""
    q = desc.residue_size
    lead = data.draw(st.one_of(st.just(1), st.integers(1, q - 1)))
    rest = data.draw(st.lists(st.integers(0, q - 1), min_size=rel - 1,
                              max_size=rel - 1))
    digits = (lead, *rest)
    if desc.family == "padic":
        value = sum(d * desc.p ** i for i, d in enumerate(digits))
        x = LocalFieldElement.from_int(desc, value, rel)
    else:
        x = LocalFieldElement.from_laurent_coeffs(desc, 0, digits, rel)
    inv = x.inv_unit()
    assert inv.precision == x.precision == rel
    assert (x * inv).same(1)


@settings(max_examples=150, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.sampled_from([2, 3, 5]))
def test_ultrametric_inequality(a, b, p):
    desc = padic(p)
    x, y = e(desc, a), e(desc, b)
    s = x + y
    bound = max(x.norm(), y.norm())
    assert s.norm() <= bound or s.is_zero()
    if x.norm() != y.norm():
        assert s.norm() == bound


@settings(max_examples=150, deadline=None)
@given(st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4),
       st.sampled_from([2, 3, 5]))
def test_norm_multiplicative(a, b, p):
    desc = padic(p)
    x, y = e(desc, a), e(desc, b)
    prod = x * y
    if not prod.is_zero():
        assert prod.norm() == x.norm() * y.norm()


class TestProjection:
    def test_basic_examples(self):
        assert e(D2, 5).project(1) == 1
        assert e(D2, 4).project(2) == 0

    def test_homomorphism(self):
        for a in range(1, 30, 7):
            for b in range(2, 40, 9):
                x, y = e(D3, a), e(D3, b)
                k = 2
                ring = ResidueRing(D3, k)
                assert (x * y).project(k) == ring.mul(x.project(k),
                                                      y.project(k))
                assert (x + y).project(k) == ring.add(x.project(k),
                                                      y.project(k))

    def test_tower_compatibility_random(self):
        import random
        rng = random.Random(11)
        for _ in range(200):
            x = e(D3, rng.randint(0, 3 ** 6))
            assert project_down(D3, x.project(3), 3, 1) == x.project(1)

    def test_insufficient_precision(self):
        with pytest.raises(PrecisionExhausted):
            e(D2, 5, 2).project(3)

    def test_laurent_projection(self):
        x = LocalFieldElement.from_laurent_coeffs(L3, 1, (2, 1))
        assert x.project(3) == (0, 2, 1)
        assert project_down(L3, x.project(3), 3, 2) == (0, 2)

    def test_residue_ring_units(self):
        ring = ResidueRing(D3, 2)
        units = list(ring.units())
        assert len(units) == 6
        ringl = ResidueRing(L2, 2)
        assert len(list(ringl.elements())) == 4

    def test_residue_ring_axioms(self):
        for ring in (ResidueRing(D3, 2), ResidueRing(L2, 2),
                     ResidueRing(laurent(3, 2), 1)):
            elems = list(ring.elements())[:9]
            for a in elems:
                assert ring.add(a, ring.zero()) == a
                assert ring.mul(a, ring.one()) == a
                assert ring.add(a, ring.neg(a)) == ring.zero()
                for b in elems:
                    assert ring.add(a, b) == ring.add(b, a)
                    assert ring.mul(a, b) == ring.mul(b, a)
                    for c in elems[:4]:
                        assert ring.mul(a, ring.add(b, c)) == \
                            ring.add(ring.mul(a, b), ring.mul(a, c))
                        assert ring.add(a, ring.add(b, c)) == \
                            ring.add(ring.add(a, b), c)


class TestValuationCombinatorics:
    def test_lambda_small(self):
        for p in (2, 3, 5):
            assert legendre_lambda(p, p) == 1
        assert legendre_lambda(0, 2) == 0

    def test_lambda_ten(self):
        # brute-force factorial valuation oracle
        f = math.factorial(10)
        v = 0
        while f % 2 == 0:
            f //= 2
            v += 1
        assert legendre_lambda(10, 2) == v == 8

    def test_lambda_matches_factorial(self):
        for p in (2, 3, 5, 7):
            val = 0
            for n in range(1, 2000):
                m = n
                while m % p == 0:
                    m //= p
                    val += 1
                assert legendre_lambda(n, p) == val

    def test_binom_trivial(self):
        for k in range(10):
            assert binom_valuation(k, 0, 5) == 1

    def test_binom_examples(self):
        assert binom_valuation(2, 1, 2) == Fraction(1, 2)
        # C(9,3) = 84 = 2^2 * 3 * 7
        assert binom_valuation(9, 3, 3) == Fraction(1, 3)

    def test_binom_vs_exact(self):
        for p in (2, 3, 5):
            for k in range(60):
                for q in range(k + 1):
                    c = math.comb(k, q)
                    v = 0
                    while c % p == 0:
                        c //= p
                        v += 1
                    assert binom_valuation_exponent(k, q, p) == v

    def test_digit_sum(self):
        assert digit_sum(10, 2) == 2
        assert digit_sum(0, 7) == 0


class TestCarmichael:
    def test_examples(self):
        assert carmichael_exponent(3, 1) == 2
        assert carmichael_exponent(5, 2) == 20
        assert carmichael_exponent(2, 3) == 2

    def test_exhaustive_up_to_243(self):
        for p, kmax in ((2, 7), (3, 5), (5, 3)):
            for k in range(1, kmax + 1):
                m = p ** k
                if m > 243:
                    continue
                eexp = carmichael_exponent(p, k)
                units = [x for x in range(1, m) if x % p]
                assert all(pow(x, eexp, m) == 1 for x in units)
                # minimality over divisors
                for d in range(1, eexp):
                    if eexp % d == 0:
                        assert not all(pow(x, d, m) == 1 for x in units)


class TestLiterals:
    def test_padic_roundtrip(self):
        x = parse_element("p=3:210")
        assert x.lift_int() == 21
        assert parse_element(format_element(x)).lift_int() == 21

    def test_laurent_roundtrip(self):
        x = parse_element("p=2,u=1:1+1*t+1*t^2")
        assert x.digits()[:3] == (1, 1, 1)
        y = parse_element(format_element(x))
        assert y.same(x)

    def test_precision_override(self):
        assert parse_element("p=2,N=4:11").precision == 4

    def test_bad_digit(self):
        with pytest.raises(ValueError):
            parse_element("p=3:591")


# ---------------------------------------------------------------------------
# Q_p arithmetic against the normalising reference
# ---------------------------------------------------------------------------
#
# The ref_* functions are the arithmetic bodies as they were before the
# element ops built normalised results directly: every result goes through
# the normalising constructor, and a - b allocates -b.  The ops must match
# them by exact ==.

def ref_from_int(desc, n, precision):
    if n == 0:
        return LocalFieldElement(desc, 0, 0, 0, _exact_zero=True)
    v = 0
    while n % desc.p == 0:
        n //= desc.p
        v += 1
    return LocalFieldElement(desc, v, n % desc.p ** (precision - v),
                             precision - v)


def ref_coerce_int(a, n):
    if a.is_exact_zero:
        return ref_from_int(a.desc, n, DEFAULT_PRECISION)
    v = 0
    if n:
        while n % a.desc.p ** (v + 1) == 0:
            v += 1
    return ref_from_int(a.desc, n, max(a._val + a._rel + 1, a._rel) + v)


def ref_add(a, b):
    if isinstance(b, int):
        b = ref_coerce_int(a, b)
    if a.is_exact_zero:
        return b
    if b.is_exact_zero:
        return a
    N = min(a.precision, b.precision)
    v0 = min(a._val, b._val)
    rel = N - v0
    if rel <= 0:
        return LocalFieldElement(a.desc, N, 0, 0)
    p = a.desc.p
    s = (a._mant * p ** (a._val - v0) + b._mant * p ** (b._val - v0)) % p ** rel
    return LocalFieldElement(a.desc, v0, s, rel)


def ref_neg(a):
    if a.is_exact_zero:
        return a
    return LocalFieldElement(a.desc, a._val, (-a._mant) % a.desc.p ** a._rel,
                             a._rel)


def ref_sub(a, b):
    if isinstance(b, int):
        b = ref_coerce_int(a, b)
    return ref_add(a, ref_neg(b))


def ref_mul(a, b):
    if isinstance(b, int):
        b = ref_coerce_int(a, b)
    if a.is_exact_zero or b.is_exact_zero:
        return LocalFieldElement(a.desc, 0, 0, 0, _exact_zero=True)
    v = a._val + b._val
    rel = min(a._rel, b._rel)
    if a.is_zero() or b.is_zero():
        return LocalFieldElement(a.desc, v + rel, 0, 0)
    return LocalFieldElement(a.desc, v, a._mant * b._mant % a.desc.p ** rel, rel)


def ref_inv_unit(a):
    if a.is_zero() or a._val != 0:
        raise NonUnit("inv_unit needs valuation 0")
    return LocalFieldElement(a.desc, 0, pow(a._mant, -1, a.desc.p ** a._rel),
                             a._rel)


def ref_divide(a, b):
    if isinstance(b, int):
        b = ref_coerce_int(a, b)
    if b.is_zero():
        raise NonUnit("division by (apparent) zero")
    if a.is_exact_zero:
        return a
    unit = LocalFieldElement(b.desc, 0, b._mant, b._rel)
    quo = ref_mul(a, ref_inv_unit(unit))
    return LocalFieldElement(a.desc, quo._val - b._val, quo._mant, quo._rel,
                             _exact_zero=quo._exact_zero)


def outcome(fn, *args):
    """The result of fn(*args), or the type of the FieldError it raises."""
    try:
        return fn(*args)
    except FieldError as exc:
        return type(exc)


def assert_normalised(x):
    """The representation invariant every trusted construction relies on:
    exact zero, or an apparent zero (rel 0, mantissa 0), or a unit
    mantissa: over Q_p reduced mod p^rel, over F_q((theta)) rel packed
    codes (`localfields.gf`) with code 0 nonzero, every digit < p, and
    zero padding fields and bits above the rel slots."""
    if isinstance(x, type):  # an expected exception type
        return
    assert type(x._val) is int and type(x._mant) is int and type(x._rel) is int
    if x.is_exact_zero:
        assert (x._val, x._mant, x._rel) == (0, 0, 0)
    elif x._rel == 0:
        assert x._mant == 0
    elif x.desc.family == "padic":
        p = x.desc.p
        assert 0 <= x._mant < p ** x._rel and x._mant % p != 0
    else:
        G = x.desc.gf()
        assert 0 < x._mant and x._mant >> G.slot_bits * x._rel == 0
        data = x._mant.to_bytes(G.slot_bytes * x._rel, "little")
        fields = [int.from_bytes(data[i:i + G.width], "little")
                  for i in range(0, len(data), G.width)]
        slots = [fields[i:i + 2 * G.u - 1]
                 for i in range(0, len(fields), 2 * G.u - 1)]
        assert any(slots[0])
        for slot in slots:
            assert all(d < G.p for d in slot[:G.u]) and not any(slot[G.u:])


QP = [padic(2), padic(3), padic(5), padic(7)]


@st.composite
def qp_elements(draw, desc):
    """Exact zeros, apparent zeros and elements of either sign of valuation
    with relative precision 0..80, built by the normalising constructor."""
    kind = draw(st.sampled_from(["exact", "apparent", "any", "any", "any"]))
    if kind == "exact":
        return LocalFieldElement.zero(desc)
    val = draw(st.integers(-20, 20))
    if kind == "apparent":
        return LocalFieldElement.apparent_zero(desc, val)
    rel = draw(st.integers(0, 80))
    mant = draw(st.integers(0, desc.p ** rel - 1))
    return LocalFieldElement(desc, val, mant, rel)


def int_operands(p):
    return st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                     st.builds(lambda k, e: k * p ** e,
                               st.integers(-50, 50), st.integers(1, 40)))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(QP), st.data())
def test_qp_ops_match_normalising_reference(desc, data):
    a = data.draw(qp_elements(desc))
    b = data.draw(qp_elements(desc))
    pairs = [(a + b, ref_add(a, b)), (a - b, ref_sub(a, b)),
             (b - a, ref_sub(b, a)), (a * b, ref_mul(a, b)), (-a, ref_neg(a)),
             (outcome(a.divide, b), outcome(ref_divide, a, b)),
             (outcome(a.inv_unit), outcome(ref_inv_unit, a))]
    for got, want in pairs:
        assert got == want
        assert_normalised(got)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(QP), st.data())
def test_qp_int_operands_match_normalising_reference(desc, data):
    a = data.draw(qp_elements(desc))
    n = data.draw(int_operands(desc.p))
    pairs = [(a._coerce_int(n), ref_coerce_int(a, n)),
             (a + n, ref_add(a, n)), (n + a, ref_add(a, n)),
             (a - n, ref_sub(a, n)), (n - a, ref_add(ref_neg(a), n)),
             (a * n, ref_mul(a, n)), (n * a, ref_mul(a, n)),
             (outcome(a.divide, n), outcome(ref_divide, a, n)),
             (LocalFieldElement.from_int(desc, n, a._rel),
              ref_from_int(desc, n, a._rel))]
    for got, want in pairs:
        assert got == want
        assert_normalised(got)


# ---------------------------------------------------------------------------
# F_q((theta)) oracle: element ops against schoolbook code-tuple arithmetic
# ---------------------------------------------------------------------------

# u = 1, 2, 5 and 7; laurent(131) and laurent(19, 2) pack their digits in
# two-byte fields, the first for a sum of digits, the second for the fold
# (a^2 = -1 there, so a folded digit reaches 18 + 18 * 18)
LAURENT_FIELDS = [laurent(2), laurent(3), laurent(2, 2), laurent(3, 2),
                  laurent(5, 2), laurent(2, 7), laurent(3, 5), laurent(131),
                  laurent(19, 2)]


def ref_laurent(val, codes):
    """The reference of theta^val * sum codes[i] theta^i known mod
    theta^(val + len(codes)): (valuation, codes) with leading zero codes
    moved into the valuation; (N, ()) is the apparent zero at N and None
    the exact zero."""
    codes = tuple(codes)
    lead = next((i for i, c in enumerate(codes) if c), len(codes))
    return val + lead, codes[lead:]


def ref_l_add(G, a, b):
    if a is None or b is None:
        return b if a is None else a
    (va, ca), (vb, cb) = a, b
    v0, N = min(va, vb), min(va + len(ca), vb + len(cb))
    if N <= v0:
        return N, ()
    out = [0] * (N - v0)
    for v, codes in (a, b):
        for i, c in enumerate(codes[:max(N - v, 0)]):
            out[v - v0 + i] = G.add(out[v - v0 + i], c)
    return ref_laurent(v0, out)


def ref_l_neg(G, a):
    return None if a is None else (a[0], tuple(map(G.neg, a[1])))


def ref_l_mul(G, a, b):
    if a is None or b is None:
        return None
    (va, ca), (vb, cb) = a, b
    rel = min(len(ca), len(cb))
    out = [0] * rel
    for i in range(rel):
        for j in range(rel - i):
            out[i + j] = G.add(out[i + j], G.mul(ca[i], cb[j]))
    return va + vb, tuple(out)


def ref_l_inv_unit(G, a):
    """Back substitution: out[n] = -c_0^-1 sum_{i >= 1} c_i out[n - i]."""
    if a is None or not a[1] or a[0] != 0:
        raise NonUnit("inv_unit needs valuation 0")
    c = a[1]
    inv0 = G.inv(c[0])
    out = [inv0]
    for n in range(1, len(c)):
        s = 0
        for i in range(1, n + 1):
            s = G.add(s, G.mul(c[i], out[n - i]))
        out.append(G.neg(G.mul(inv0, s)))
    return 0, tuple(out)


def ref_l_divide(G, a, b):
    if b is None or not b[1]:
        raise NonUnit("division by (apparent) zero")
    if a is None:
        return None
    v, codes = ref_l_mul(G, a, ref_l_inv_unit(G, (0, b[1])))
    return v - b[0], codes


def ref_l_project(a, k):
    if a is None:
        return (0,) * k
    v, codes = a
    if v + len(codes) < k:
        raise PrecisionExhausted("precision below the level")
    if v < 0:
        raise FieldError("negative valuation")
    out = [0] * k
    for i, c in enumerate(codes[:max(k - v, 0)]):
        out[v + i] = c
    return tuple(out)


def as_ref(x):
    """The element in the reference's terms, read through digits()."""
    if isinstance(x, type):  # an expected exception type
        return x
    if x.is_exact_zero:
        return None
    assert len(x.digits()) == x._rel
    return x._val, x.digits()


@st.composite
def laurent_pairs(draw, desc):
    """Two references and their elements.  Valuations -20..20 (often 0, so
    inv_unit applies), relative precisions 0..64 drawn apart, codes
    uniform or all q - 1 (every digit p - 1: the largest packed fields),
    and in half the pairs b shares a prefix with a or with -a, so that
    a - b or a + b cancels, down to an apparent zero when the prefix covers
    the budget."""
    G = desc.gf()

    def draw_one(prefix=(), val=None):
        kind = draw(st.sampled_from(["exact", "apparent", "any", "any", "max"]))
        codes = st.just(G.q - 1) if kind == "max" else st.integers(0, G.q - 1)
        if kind == "exact" and not prefix:
            return None, LocalFieldElement.zero(desc)
        if val is None:
            val = draw(st.one_of(st.just(0), st.integers(-20, 20)))
        if kind == "apparent" and not prefix:
            return (val, ()), LocalFieldElement.apparent_zero(desc, val)
        rel = draw(st.integers(len(prefix), 64))
        cs = prefix + tuple(draw(st.lists(codes, min_size=rel - len(prefix),
                                          max_size=rel - len(prefix))))
        x = LocalFieldElement.from_laurent_coeffs(desc, val, cs, val + rel)
        return ref_laurent(val, cs), x

    a, x = draw_one()
    if a is not None and a[1] and draw(st.booleans()):
        shared = a[1][:draw(st.integers(1, len(a[1])))]
        if draw(st.booleans()):
            shared = tuple(map(G.neg, shared))
        b, y = draw_one(shared, a[0])
    else:
        b, y = draw_one()
    return (a, x), (b, y)


# 500 examples: each draws one of the nine fields, two elements and a
# level, and checks 10 results and the digits of both operands.
@settings(max_examples=500, deadline=None)
@given(st.sampled_from(LAURENT_FIELDS), st.integers(1, 70), st.data())
def test_laurent_ops_match_code_tuple_reference(desc, k, data):
    G = desc.gf()
    (a, x), (b, y) = data.draw(laurent_pairs(desc))
    assert as_ref(x) == a and as_ref(y) == b
    pairs = [(x + y, ref_l_add(G, a, b)),
             (x - y, ref_l_add(G, a, ref_l_neg(G, b))),
             (y - x, ref_l_add(G, b, ref_l_neg(G, a))),
             (x * y, ref_l_mul(G, a, b)), (-x, ref_l_neg(G, a)),
             (outcome(x.inv_unit), outcome(ref_l_inv_unit, G, a)),
             (outcome(x.divide, y), outcome(ref_l_divide, G, a, b)),
             (outcome(y.divide, x), outcome(ref_l_divide, G, b, a))]
    for got, want in pairs:
        assert as_ref(got) == want
        assert_normalised(got)
    assert outcome(x.project, k) == outcome(ref_l_project, a, k)
    assert outcome(y.project, k) == outcome(ref_l_project, b, k)


@pytest.mark.parametrize("desc", LAURENT_FIELDS, ids=repr)
def test_laurent_largest_digits_match_code_tuple_reference(desc):
    """Every code q - 1 at every relative precision 1..64: the largest field
    each step of the packed product holds, before and after the fold."""
    G = desc.gf()
    for rel in range(1, 65):
        a = (0, (G.q - 1,) * rel)
        x = LocalFieldElement.from_laurent_coeffs(desc, 0, a[1], rel)
        for got, want in ((x * x, ref_l_mul(G, a, a)),
                          (x.inv_unit(), ref_l_inv_unit(G, a))):
            assert as_ref(got) == want
            assert_normalised(got)


# ---------------------------------------------------------------------------
# Fraction oracle: no Q_p result claims a digit it does not know
# ---------------------------------------------------------------------------

def vp(q: Fraction, p: int):
    """p-adic valuation of a rational (infinite at 0)."""
    if q == 0:
        return math.inf
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def value(x) -> Fraction:
    """The rational the element's digits spell out (0 for any zero)."""
    if x.is_zero():
        return Fraction(0)
    return Fraction(x.desc.p) ** x._val * x._mant


def assert_sound(result, exact: Fraction):
    """The result agrees with the exact value to every digit it claims; an
    operation that refuses (NonUnit) claims nothing."""
    if isinstance(result, type):
        return
    assert vp(value(result) - exact, result.desc.p) >= result.precision


@st.composite
def rationals(draw, p):
    num = draw(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6)))
    den = draw(st.integers(1, 10 ** 4))
    return Fraction(num, den) * Fraction(p) ** draw(st.integers(-8, 8))


# 400 examples: each draws p in {2, 3, 5}, two rationals, two precisions in
# 1..64 and an integer operand, and checks 14 results.
@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 64), st.integers(1, 64),
       st.data())
def test_qp_results_agree_with_fraction_oracle(p, n1, n2, data):
    desc = padic(p)
    q1, q2 = data.draw(rationals(p)), data.draw(rationals(p))
    n = data.draw(int_operands(p))
    x = outcome(LocalFieldElement.from_fraction, desc, q1, n1)
    y = outcome(LocalFieldElement.from_fraction, desc, q2, n2)
    assert_sound(x, q1)
    assert_sound(y, q2)
    if isinstance(x, type) or isinstance(y, type):
        return
    assert_sound(x + y, q1 + q2)
    assert_sound(x - y, q1 - q2)
    assert_sound(x * y, q1 * q2)
    assert_sound(x + n, q1 + n)
    assert_sound(x - n, q1 - n)
    assert_sound(n - x, n - q1)
    assert_sound(x * n, q1 * n)
    if q2:
        assert_sound(outcome(x.divide, y), q1 / q2)
    if n:
        assert_sound(outcome(x.divide, n), q1 / n)
    if q1:
        assert_sound(outcome(lambda: n / x), n / q1)
    if not x.is_zero() and x.valuation == 0:
        assert_sound(x.inv_unit(), 1 / q1)


def test_int_operand_keeps_the_relative_precision_at_negative_n():
    # 4 * 3^-5 known mod 3^-3: the integer 3 is coerced to the element's two
    # relative digits, so multiplying or dividing by it loses none
    x = LocalFieldElement(D3, -5, 4, 2)
    exact = Fraction(4, 3 ** 5)
    for got, want, val in ((x * 3, exact * 3, -4), (x.divide(3), exact / 3, -6)):
        assert got == LocalFieldElement(D3, val, 4, 2)
        assert_sound(got, want)


# ---------------------------------------------------------------------------
# Polynomial and Mahler evaluation as one exact integer sum
# ---------------------------------------------------------------------------
#
# ref_eval_cached and ref_evaluate_int are the element loops that
# MultiPoly.eval_cached and MahlerSeries.evaluate ran at Q_p points and at
# integers before those became one integer sum; ref_eval is the naive
# evaluator (x^e as e - 1 products) that MultiPoly.eval was.  The new paths
# must match them by exact ==.

def ref_eval(poly, values, one=1):
    acc = None
    for exp, c in poly.terms.items():
        term = c
        for i, k in enumerate(exp):
            for _ in range(k):
                term = term * values[i]
        acc = term if acc is None else acc + term
    return one * 0 if acc is None else acc


def ref_eval_cached(poly, values, one=1):
    powers = [None] * poly.nvars

    def pw(i, k):
        tab = powers[i]
        if tab is None:
            tab = powers[i] = {1: values[i]}
        if k in tab:
            return tab[k]
        j = max(jj for jj in tab if jj <= k)
        acc = tab[j]
        while j < k:
            acc = acc * values[i]
            j += 1
            tab[j] = acc
        return acc

    acc = None
    for exp, c in poly.terms.items():
        term = c
        for i, k in enumerate(exp):
            if k:
                term = term * pw(i, k)
        acc = term if acc is None else acc + term
    return one * 0 if acc is None else acc


def ref_evaluate_int(series, x):
    acc = None
    for j, c in enumerate(series.coeffs):
        b = binom_int(x, j)
        if b == 0:
            continue
        term = c * int(b)
        acc = term if acc is None else acc + term
    return acc if acc is not None else LocalFieldElement.zero(series.desc)


# 400 examples: each draws p in {2, 3, 5, 7}, 1-3 variables, a polynomial
# of up to 6 terms with exponents 0..4 and coefficients from qp_elements,
# and a point: Q_p elements (exact and apparent zeros included) over the
# same descriptor, or, one in five each, over an equal descriptor that is a
# different object, or ints; the last two take the element loop.
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(QP), st.integers(1, 3), st.data())
def test_eval_cached_matches_element_loop(desc, nvars, data):
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    poly = MultiPoly(nvars, data.draw(st.dictionaries(
        exps, qp_elements(desc), max_size=6)))
    kind = data.draw(st.sampled_from(["same", "same", "same", "twin", "int"]))
    if kind == "int":
        values = [data.draw(int_operands(desc.p)) for _ in range(nvars)]
    else:
        twin = FieldDescriptor(desc.family, desc.p) if kind == "twin" else desc
        values = [data.draw(qp_elements(twin)) for _ in range(nvars)]
    got = poly.eval_cached(values)
    assert got == ref_eval_cached(poly, values)
    assert poly.eval(values) == got
    # element products are associative in val, rel and mantissa, so the
    # naive evaluator agrees; an int operand is coerced to at least the other
    # factor's relative precision, so a product by an int loses no digits
    assert got == ref_eval(poly, values)
    if isinstance(got, LocalFieldElement):
        assert_normalised(got)


def test_eval_cached_of_the_zero_polynomial():
    one = LocalFieldElement.one(D3)
    assert MultiPoly(2).eval_cached([one, one]) == 0
    assert MultiPoly(2).eval_cached([one, one], one) == one * 0


# 400 examples: p in {2, 3, 5, 7}, 0-12 coefficients from qp_elements, and
# an integer point: |x| <= 40, 0 <= x < J (where C(x, j) vanishes for
# j > x), up to 10^6 in size, or a multiple of a power of p.
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(QP), st.data())
def test_evaluate_at_int_matches_element_loop(desc, data):
    coeffs = data.draw(st.lists(qp_elements(desc), max_size=12))
    series = MahlerSeries(desc, coeffs)
    x = data.draw(st.one_of(st.integers(-40, 40),
                            st.integers(0, max(len(coeffs) - 2, 0)),
                            int_operands(desc.p)))
    got = series.evaluate(x)
    assert got == ref_evaluate_int(series, x)
    assert_normalised(got)


@st.composite
def qp_from_rationals(draw, desc):
    """(element, the rational it approximates) at precision 1..64."""
    q = draw(rationals(desc.p))
    x = outcome(LocalFieldElement.from_fraction, desc, q,
                draw(st.integers(1, 64)))
    assume(not isinstance(x, type))
    return x, q


# 200 examples: p in {2, 3, 5, 7}, 1-3 variables, up to 6 terms with
# exponents 0..4, coefficients and point from rationals at precision 1..64.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QP), st.integers(1, 3), st.data())
def test_eval_cached_agrees_with_fraction_oracle(desc, nvars, data):
    point = [data.draw(qp_from_rationals(desc)) for _ in range(nvars)]
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = data.draw(st.dictionaries(exps, qp_from_rationals(desc),
                                      max_size=6))
    poly = MultiPoly(nvars, {k: c for k, (c, _) in terms.items()})
    exact = sum((q * math.prod(qi ** k for (_, qi), k in zip(point, exp))
                 for exp, (_, q) in terms.items()), Fraction(0))
    assert_sound(poly.eval_cached([x for x, _ in point],
                                  LocalFieldElement.one(desc)), exact)


# 200 examples: p in {2, 3, 5, 7}, 0-10 coefficients from rationals at
# precision 1..64, evaluated at an integer in -40..40, at a rational and at
# a field point approximating a rational.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QP), st.data())
def test_evaluate_agrees_with_fraction_oracle(desc, data):
    terms = data.draw(st.lists(qp_from_rationals(desc), max_size=10))
    series = MahlerSeries(desc, [c for c, _ in terms])

    def exact(x):
        return sum((q * binom_int(Fraction(x), j)
                    for j, (_, q) in enumerate(terms)), Fraction(0))

    n = data.draw(st.integers(-40, 40))
    assert_sound(series.evaluate(n), exact(n))
    r = data.draw(rationals(desc.p))
    assert_sound(outcome(series.evaluate, r), exact(r))
    x, qx = data.draw(qp_from_rationals(desc))
    assert_sound(outcome(series.evaluate, x), exact(qx))
