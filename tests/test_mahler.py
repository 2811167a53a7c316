"""Mahler expansion, composition, inversion and the combinatorial tables."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from localfields.fields import DEFAULT_PRECISION, LocalFieldElement, padic
from localfields.linalg import SingularSystem, solve_linear
from localfields.mahler import (MahlerSeries, _delta_at_zero, analytic_compose,
                                admissible_for_inversion, binom_element,
                                binom_int, binom_row,
                                compose, delta_binom_at_zero,
                                delta_binom_nested, delta_power_at_zero,
                                expand, invert,
                                mahler_polynomial, monomial_to_mahler, omega,
                                omega_generating_marginal, parse_series,
                                stirling_tables)

D2 = padic(2)
D3 = padic(3)


class TestExpand:
    def test_identity(self):
        s = expand(lambda x: x, 5, 2)
        vals = [0 if c.is_zero() else c.lift_int() for c in s.coeffs]
        assert vals == [0, 1, 0, 0, 0, 0]

    def test_square(self):
        s = expand(lambda x: x * x, 5, 2, 16)
        vals = [0 if c.is_zero() else c.lift_int() for c in s.coeffs]
        assert vals == [0, 1, 2, 0, 0, 0]

    def test_delta_shifts_basis(self):
        # the forward difference sends C(x, j) to C(x, j-1)
        for j in range(1, 6):
            s = expand(lambda x, j=j: math.comb(x, j), 6, 3, 20)
            vals = [0 if c.is_zero() else c.lift_int() for c in s.coeffs]
            expected = [0] * 7
            expected[j] = 1
            assert vals == expected
            diffs = [math.comb(x + 1, j) - math.comb(x, j) for x in range(7)]
            assert diffs == [math.comb(x, j - 1) for x in range(7)]


class TestEvaluate:
    def test_identity_series(self):
        s = MahlerSeries.from_ints(5, [0, 1])
        assert s.evaluate(7).same(7)

    def test_square_roundtrip(self):
        s = expand(lambda x: x * x, 8, 2, 8)
        assert s.evaluate(3).same(9)

    def test_geometric_coefficients(self):
        p = 3
        s = MahlerSeries(D3, [LocalFieldElement.from_int(D3, p ** j, 24)
                              for j in range(6)])
        assert s.evaluate(1).same(1 + p)

    def test_field_argument_exact_on_integers(self):
        s = expand(lambda x: x ** 3 - 2 * x, 8, 3, 24)
        x = LocalFieldElement.from_int(D3, 11, 24)
        assert s.evaluate(x).same(11 ** 3 - 22, precision=18)

    def test_coefficient_bound_by_sup_norm(self):
        # |f_j| <= max |f(x)| over Z_p for Mahler coefficients
        s = expand(lambda x: 3 * x * x + 6, 8, 3, 24)
        sup = max(s.evaluate(x).norm() for x in range(30))
        assert all(c.is_zero() or c.norm() <= sup for c in s.coeffs)

    def test_literal_roundtrip(self):
        s = parse_series("p=3 N=16 coeffs=[0,1,2]")
        assert s.p == 3 and s.truncation == 2
        assert parse_series(repr(s)).same(s)


class TestCompose:
    def test_id_compose_id(self):
        idseries = MahlerSeries.from_ints(2, [0, 1], 20)
        c = compose(idseries, idseries, 4)
        vals = [0 if x.is_zero() else x.lift_int() for x in c.coeffs]
        assert vals == [0, 1, 0, 0, 0]

    def test_polynomial_composition_oracle(self):
        sq = expand(lambda x: x * x, 8, 3, 24)
        sh = expand(lambda x: x + 1, 8, 3, 24)
        lhs = compose(sq, sh, 8)
        rhs = expand(lambda x: (x + 1) ** 2, 8, 3, 24)
        assert lhs.same(rhs)

    def test_omega_route_agrees(self):
        # compose against the nested-binomial route:
        # (g o f)_k = sum_n g_n Delta^k C(f(x), n)|_0
        for p in (2, 3):
            f = MahlerSeries.from_ints(p, [0, 1, p, 0, 2 * p], 32)
            g = MahlerSeries.from_ints(p, [0, 1, p, p], 32)
            a = compose(g, f, 4)
            for k in range(5):
                b = None
                for n, gn in enumerate(g.coeffs):
                    if not gn.is_exact_zero:
                        term = gn * delta_binom_nested(f, n, k)
                        b = term if b is None else b + term
                assert a.coeffs[k].same(b, precision=20)

    def test_rejects_non_integral_inner(self):
        f = MahlerSeries(D2, [LocalFieldElement.zero(D2),
                              LocalFieldElement.from_fraction(
                                  D2, Fraction(1, 2), 16)])
        g = MahlerSeries.from_ints(2, [0, 1], 16)
        with pytest.raises(ValueError):
            compose(g, f, 2)

    def test_associativity_near_identity(self):
        p = 3
        f = MahlerSeries.from_ints(p, [0, 1, p], 40)
        g = MahlerSeries.from_ints(p, [0, 1, 0, p], 40)
        h = MahlerSeries.from_ints(p, [0, 1, 2 * p], 40)
        K = 6
        lhs = compose(compose(h, g, K), f, K)
        rhs = compose(h, compose(g, f, K), K)
        assert lhs.same(rhs, precision=20)


class TestOmega:
    def test_n1_convention(self):
        assert omega(1, 1, (1,)) == 1
        assert omega(2, 1, (1,)) == 0
        assert omega(3, 1, (3,)) == 1

    def test_generating_marginal(self):
        for k in range(5):
            for n in (2, 3):
                for mn in range(k + 1):
                    left, right = omega_generating_marginal(k, n, mn)
                    assert left == right

    def test_bounds(self):
        from localfields.mahler import BoundExceeded
        with pytest.raises(BoundExceeded):
            omega(9, 2, (1, 1))

    def test_nested_equals_numeric(self):
        # the combinatorial route for Delta^k C(f, n)|_0 against evaluation
        for p in (2, 3):
            f = MahlerSeries.from_ints(p, [0, 1, p, 2], 32)
            for n in range(4):
                for k in range(4):
                    a = delta_binom_nested(f, n, k)
                    b = delta_binom_at_zero(f, n, k)
                    assert a.same(b, precision=20), (p, n, k)

    def test_nested_against_exact_rational_oracle(self):
        # fully independent route over Q: evaluate f at integers from its
        # integer coefficients, form C(f(j), n) as exact fractions, take the
        # alternating sum, and compare with the nested expansion
        import random

        from localfields.fields import LocalFieldElement, padic
        from localfields.mahler import binom_int

        rng = random.Random(42)
        for p in (2, 3, 5):
            desc = padic(p)
            for _ in range(12):
                ints = [rng.randint(-6, 6) for _ in range(rng.randint(2, 6))]
                f = MahlerSeries.from_ints(p, ints, 40)

                def f_exact(j):
                    return sum(c * binom_int(j, m)
                               for m, c in enumerate(ints))

                for n in range(5):
                    for k in range(5):
                        want = sum(
                            Fraction((-1) ** (k - j) * math.comb(k, j))
                            * binom_int(Fraction(f_exact(j)), n)
                            for j in range(k + 1))
                        got = delta_binom_nested(f, n, k)
                        if want == 0:
                            assert got.is_zero() or got.valuation >= 25, \
                                (p, ints, n, k)
                        else:
                            ref = LocalFieldElement.from_fraction(
                                desc, want, 30)
                            assert got.same(ref, precision=25), \
                                (p, ints, n, k, want)


class TestStirling:
    def test_examples(self):
        t = stirling_tables(8)
        assert t.T[1][1] == 1
        assert t.S[2][0] == 0
        assert t.S[2][1] == Fraction(-1, 2)
        assert t.S[2][2] == Fraction(1, 2)

    def test_identity_instances(self):
        t = stirling_tables(8)
        assert sum(t.S[2][l] * t.T[l][2] for l in range(9)) == 1
        assert sum(t.S[2][l] * t.T[l][1] for l in range(9)) == 0

    def test_full_identities(self):
        assert stirling_tables(16).check_identities()

    def test_direct_delta_oracle(self):
        t = stirling_tables(10)
        for n in range(11):
            for k in range(11):
                assert t.T[n][k] == delta_power_at_zero(n, k)

    def test_size_64_spot(self):
        t = stirling_tables(64)
        import random
        rng = random.Random(0)
        for _ in range(40):
            m, j = rng.randint(0, 64), rng.randint(0, 64)
            want = 1 if m == j else 0
            assert sum(t.S[m][l] * t.T[l][j] for l in range(65)) == want
            assert sum(Fraction(t.T[m][l]) * t.S[l][j]
                       for l in range(65)) == want


class TestInvert:
    def test_identity(self):
        idseries = MahlerSeries.from_ints(3, [0, 1], 40)
        inv = invert(idseries, 4)
        assert inv.same(MahlerSeries.from_ints(3, [0, 1], 40), precision=20)

    def test_example_roundtrip(self):
        f = MahlerSeries.from_ints(3, [0, 1, 3], 40)
        inv = invert(f, 6, verify_precision=4)
        rt = compose(inv, f, 6)
        assert rt.same(MahlerSeries.from_ints(3, [0, 1], 40), precision=4)
        assert rt.same(MahlerSeries.from_ints(3, [0, 1], 40), precision=20)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_delta_binom_system(self, p):
        f = MahlerSeries.from_ints(p, [0, 1 + p, p, p * p, 2 * p], 40)
        K = 6
        desc = f.desc
        matrix = [[delta_binom_at_zero(f, n, k) for n in range(K + 1)]
                  for k in range(K + 1)]
        one, zero = LocalFieldElement.one(desc), LocalFieldElement.zero(desc)
        rhs = [one if k == 1 else zero for k in range(K + 1)]
        assert invert(f, K).coeffs == solve_linear(matrix, rhs)

    @pytest.mark.parametrize("K", [0, -1])
    def test_truncation_below_one_is_rejected(self, K):
        idseries = MahlerSeries.from_ints(3, [0, 1], 32)
        with pytest.raises(ValueError, match=f"K = {K}"):
            invert(idseries, K)

    def test_precondition(self):
        bad = MahlerSeries.from_ints(3, [0, 2, 3], 40)  # |f1 - 1| = 1
        assert not admissible_for_inversion(bad)
        with pytest.raises(SingularSystem):
            invert(bad, 4)

    def test_level_bridge(self):
        # composition of series respects level projection (tower bridge)
        from localfields.tower import DiffRepr, level_project
        p = 3
        f = MahlerSeries.from_ints(p, [0, 1, p], 40)
        g = MahlerSeries.from_ints(p, [0, 1, 0, p], 40)
        gf = compose(g, f, 8)
        df = DiffRepr(D3, f)
        dg = DiffRepr(D3, g)
        dgf = DiffRepr(D3, gf)
        for k in (1, 2):
            left = level_project(dgf, k)
            right = level_project(dg, k).compose(level_project(df, k))
            assert left.images == right.images

    def test_inverse_level_is_inverse_permutation(self):
        from localfields.tower import DiffRepr, level_project
        f = MahlerSeries.from_ints(3, [0, 1, 3], 40)
        inv = invert(f, 8)
        for k in (1, 2, 3):
            a = level_project(DiffRepr(D3, inv), k)
            b = level_project(DiffRepr(D3, f), k)
            assert a.compose(b).is_identity()


class TestAnalytic:
    def test_polynomial_algebra(self):
        assert analytic_compose([0, 0, 1], [1, 1]) == [1, 2, 1]

    def test_monomial_delta_bridge(self):
        t = stirling_tables(8)
        for n in range(9):
            for k in range(9):
                assert delta_power_at_zero(n, k) == t.T[n][k]

    def test_base_change_roundtrip(self):
        # monomial_to_mahler (the T table), read back through the S table
        t = stirling_tables(10)
        for n in range(11):
            mono = [Fraction(0)] * 11
            mono[n] = Fraction(1)
            mahl = monomial_to_mahler(mono, t)
            back = [sum(mahl[j] * t.S[j][l] for j in range(11))
                    for l in range(11)]
            assert back == mono

    def test_matches_mahler_compose(self):
        t = stirling_tables(8)
        g = [0, 0, 1]          # x^2
        f = [1, 1]             # x + 1
        comp = analytic_compose(g, f)
        comp_m = monomial_to_mahler(comp + [0] * (9 - len(comp)), t)
        gm = MahlerSeries.from_ints(
            2, [int(c) for c in monomial_to_mahler(g + [0] * 6, t)], 24)
        fm = MahlerSeries.from_ints(
            2, [int(c) for c in monomial_to_mahler(f + [0] * 7, t)], 24)
        got = compose(gm, fm, 8)
        for j in range(9):
            assert got.coeffs[j].same(int(comp_m[j]))

    def test_mahler_polynomial_evaluates(self):
        s = expand(lambda x: x * x + 5, 6, 3, 24)
        poly = mahler_polynomial(s)
        x = LocalFieldElement.from_int(D3, 4, 24)
        assert poly.eval_cached([x]).same(21, precision=18)


def test_binom_element_budget():
    x = LocalFieldElement.from_int(D2, 5, 20)
    c = binom_element(x, 4)  # C(5,4) = 5
    assert c.same(5, precision=16)


def test_exact_zero_binomials_skip_the_factorial():
    # v_2(34!) = 32 exceeds the default precision of an integer coerced
    # against an exact zero, so dividing would hit an apparent-zero divisor
    z = binom_element(LocalFieldElement.zero(D2), 34)
    assert z.is_exact_zero
    f = MahlerSeries(D2, [LocalFieldElement.zero(D2),
                          LocalFieldElement.one(D2, 64)])
    assert delta_binom_nested(f, 34, 0).is_exact_zero
    assert delta_binom_at_zero(f, 34, 0).is_exact_zero


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9),
       st.sampled_from([2, 3, 5]),
       st.integers(-1000, 1000))
def test_roundtrip_property(coeffs, p, x):
    def f(v):
        acc = 0
        for a in reversed(coeffs):
            acc = acc * v + a
        return acc

    series = expand(f, max(len(coeffs) - 1, 1), p, 32)
    want = LocalFieldElement.from_int(padic(p), f(x), 32)
    assert series.evaluate(x).same(want)


@pytest.mark.parametrize("matrix, rhs", [
    ([], []), ([[LocalFieldElement.zero(D3)]], [LocalFieldElement.one(D3)])],
    ids=["empty", "exact-zero"])
def test_solve_linear_without_pivot_is_singular(matrix, rhs):
    with pytest.raises(SingularSystem, match="no nonzero pivot available"):
        solve_linear(matrix, rhs)


# ---------------------------------------------------------------------------
# the exact integer sums against the element-by-element kernels they replace
# ---------------------------------------------------------------------------

def ref_delta_at_zero(values):
    """The forward difference as a chain of element products and sums."""
    k = len(values) - 1
    acc = None
    for i, v in enumerate(values):
        term = v * (math.comb(k, i) if (k - i) % 2 == 0 else -math.comb(k, i))
        acc = term if acc is None else acc + term
    return acc


def ref_binom_element(x, j):
    """C(x, j) from its own running product, divided by j!."""
    acc = LocalFieldElement.one(x.desc, x.precision if x.precision != math.inf
                                else DEFAULT_PRECISION)
    for i in range(j):
        acc = acc * (x - i)
    if j >= 2 and not acc.is_exact_zero:
        acc = acc.divide(math.factorial(j))
    return acc


def ref_binom_row(x, K):
    return [ref_binom_element(x, n) for n in range(K + 1)]


def ref_evaluate(series, x):
    """sum f_j C(x, j) at a field point as a chain of element ops."""
    desc = series.desc
    acc = None
    running = LocalFieldElement.one(
        desc, x.precision if x.precision != math.inf else DEFAULT_PRECISION)
    for j, c in enumerate(series.coeffs):
        if j > 0:
            running = (running * (x - (j - 1))).divide(running._coerce_int(j))
        term = c * running
        acc = term if acc is None else acc + term
    return acc if acc is not None else LocalFieldElement.zero(desc)


def _outcome(fn, *args):
    """The result, or the type of the exception raised.  Elements compare
    `==` on exact-zero flag, valuation, mantissa and relative precision, so
    equal outcomes are the same value known to the same precision, or the
    same exception type."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


@st.composite
def elements(draw, p):
    """Exact zeros, apparent zeros and elements of valuation -20..20 with
    relative precision 1..80 (v < -1 is where an integer operand's budget
    once bound)."""
    desc = padic(p)
    kind = draw(st.sampled_from(["exact", "apparent", "element", "element"]))
    if kind == "exact":
        return LocalFieldElement.zero(desc)
    val = draw(st.integers(-20, 20))
    if kind == "apparent":
        return LocalFieldElement.apparent_zero(desc, val)
    rel = draw(st.integers(1, 80))
    mant = draw(st.integers(1, p ** rel - 1))
    return LocalFieldElement(desc, val, mant, rel)


primes = st.sampled_from([2, 3, 5, 7])


def _value(x):
    """The representative p^val * mantissa as an exact rational."""
    if x.is_exact_zero or x.is_zero():
        return Fraction(0)
    return Fraction(x.desc.p) ** x.valuation * x._mant


def _vp(q: Fraction, p: int):
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


@settings(max_examples=400, deadline=None)
@given(primes.flatmap(lambda p: st.lists(elements(p), min_size=1, max_size=9)))
def test_delta_at_zero_matches_element_chain(values):
    assert (_outcome(_delta_at_zero, values)
            == _outcome(ref_delta_at_zero, values))


@settings(max_examples=300, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(
    st.lists(elements(p), min_size=0, max_size=9), elements(p))))
def test_field_point_evaluate_matches_element_chain(case):
    coeffs, x = case
    series = MahlerSeries(x.desc, coeffs)
    assert (_outcome(series.evaluate, x)
            == _outcome(ref_evaluate, series, x))


@settings(max_examples=300, deadline=None)
@given(primes.flatmap(elements), st.integers(0, 12))
def test_binom_row_matches_per_entry_products(x, K):
    assert _outcome(binom_row, x, K) == _outcome(ref_binom_row, x, K)
    assert _outcome(binom_element, x, K) == _outcome(ref_binom_element, x, K)


@settings(max_examples=200, deadline=None)
@given(primes.flatmap(elements), st.integers(0, 12))
def test_binom_element_against_fraction_oracle(x, j):
    """C(x, j) agrees with the exact binomial of x's representative modulo
    the precision it claims."""
    got = _outcome(binom_element, x, j)
    if isinstance(got, type):
        return
    exact = binom_int(_value(x), j)
    assert _vp(_value(got) - exact, x.desc.p) >= got.precision


@settings(max_examples=200, deadline=None)
@given(primes.flatmap(lambda p: st.lists(elements(p), min_size=1, max_size=9)))
def test_delta_at_zero_against_fraction_oracle(values):
    """The forward difference agrees with the exact alternating sum of the
    representatives modulo the precision it claims."""
    k = len(values) - 1
    got = _delta_at_zero(values)
    exact = sum((Fraction((-1) ** (k - i) * math.comb(k, i)) * _value(v)
                 for i, v in enumerate(values)), Fraction(0))
    assert _vp(_value(got) - exact, values[0].desc.p) >= got.precision
