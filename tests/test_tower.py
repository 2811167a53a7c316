"""Level projections, threads, the flat witness, metric, supports and
commutator decompositions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfields.fields import (LAURENT, FieldError, LocalFieldElement,
                                ResidueRing, format_element, laurent, padic)
from localfields.mahler import MahlerSeries
from localfields.poly import MultiPoly
from localfields.tower import (INTEGRAL, ISOMETRY, UNCERTIFIED, Ball,
                               BallNotPreserved, ConstraintViolated,
                               DiffRepr, Domain, Incompatible,
                               LevelPermutation, NotBijective, NotWellDefined,
                               OddParity, PermThread, TooSmall, TowerError,
                               ball_decompose, commutator_decompose_even,
                               conjugation_thread, functoriality_check,
                               group_metric, level_project, parse_one_line,
                               product_of_commutators,
                               witness_flat_polynomial, _eval_at)

D2, D3 = padic(2), padic(3)


def poly_map(desc, coeffs, domain=None, name="", N=32):
    terms = {(i,): LocalFieldElement.from_int(desc, c, N)
             for i, c in enumerate(coeffs) if c}
    return DiffRepr.from_poly(desc, MultiPoly(1, terms), domain, None, name)


def e(desc, n, N=32):
    return LocalFieldElement.from_int(desc, n, N)


class TestDomains:
    def test_units_domain(self):
        dom = Domain.units(D3)
        assert dom.residues(1) == [1, 2]
        assert dom.residues(2) == [1, 2, 4, 5, 7, 8]
        assert dom.contains(e(D3, 5))
        assert not dom.contains(e(D3, 6))

    def test_overlapping_balls_rejected(self):
        with pytest.raises(ConstraintViolated):
            Domain(D2, (Ball(0, 1), Ball(2, 2)))

    def test_laurent_domain(self):
        L2 = laurent(2)
        dom = Domain.unit_ball(L2)
        assert len(dom.residues(2)) == 4


class TestLevelProject:
    def test_identity_all_levels(self):
        for k in (1, 2, 3):
            assert level_project(DiffRepr.identity(D3), k).is_identity()

    def test_shift_by_two_mod_four(self):
        perm = level_project(poly_map(D2, [2, 1]), 2)
        assert perm.cycle_notation() == "(0 2)(1 3)"

    def test_three_cycle(self):
        perm = level_project(poly_map(D3, [1, 1]), 1)
        assert perm.cycle_notation() == "(0 1 2)"

    def test_not_well_defined(self):
        # x -> x * x is not injective-compatible: class of 1 mod 2 maps to
        # different classes at finer reps?  Use a genuinely bad map: x -> its
        # own square truncates information below level 2 fine; instead use a
        # representative-dependent opaque map
        def bad(x):
            return e(D2, 0 if x.lift_int() % 4 == 0 else 1, 32)

        g = DiffRepr(D2, bad)
        with pytest.raises((NotWellDefined, NotBijective)):
            level_project(g, 1)

    def test_not_bijective(self):
        g = DiffRepr(D2, lambda x: x * x)  # squares collapse units mod 8
        with pytest.raises((NotWellDefined, NotBijective)):
            level_project(g, 3)

    def test_serialization_roundtrip(self):
        perm = level_project(poly_map(D3, [1, 1]), 2)
        again = parse_one_line(perm.one_line())
        assert again.images == perm.images

    def test_isometry_check(self):
        # |g(x) - g(y)| = |x - y| for g = x + 3x^2 on Z_3
        g = poly_map(D3, [0, 1, 3])
        pairs = [(e(D3, a), e(D3, b)) for a, b in ((1, 4), (2, 8), (5, 6))]
        for x, y in pairs:
            assert (g.evaluate(x) - g.evaluate(y)).norm() == (x - y).norm()


class TestFunctoriality:
    def test_identity_case(self):
        i = DiffRepr.identity(D3)
        rep = functoriality_check(i, i, 2)
        assert rep["composition_ok"] and rep["inverse_ok"]

    def test_shift_pair_mod_nine(self):
        rep = functoriality_check(poly_map(D3, [1, 1]), poly_map(D3, [3, 1]),
                                  2)
        assert rep["composition_ok"] and rep["inverse_ok"]

    def test_mahler_inverse_composes_to_identity(self):
        from localfields.mahler import MahlerSeries, invert
        f = MahlerSeries.from_ints(3, [0, 1, 3], 40)
        inv = invert(f, 8)
        df, dinv = DiffRepr(D3, f), DiffRepr(D3, inv)
        for k in (1, 2, 3):
            comp = level_project(dinv.compose(df), k)
            assert comp.is_identity()

    def test_near_identity_random(self):
        rng = random.Random(21)
        for p in (2, 3):
            desc = padic(p)
            for _ in range(10):
                coeffs_f = [p * rng.randint(-2, 2) for _ in range(4)]
                coeffs_g = [p * rng.randint(-2, 2) for _ in range(4)]
                coeffs_f[1] = 1 + coeffs_f[1]
                coeffs_g[1] = 1 + coeffs_g[1]
                f, g = poly_map(desc, coeffs_f), poly_map(desc, coeffs_g)
                for k in (1, 2, 3):
                    rep = functoriality_check(f, g, k)
                    assert rep["composition_ok"] and rep["inverse_ok"]


def fixed_point_inverse(g, y, iterations):
    """The linear fixed point x <- y - (g(x) - x), the polynomial inverse
    that Newton's iteration replaced: one digit per step where
    ||g - id|| <= |pi|, and it never checks that it has converged."""
    x = y
    for _ in range(iterations):
        x = y - (g(x) - x)
    return x


INVERSE_FIELDS = [padic(2), padic(3), padic(5), laurent(2), laurent(2, 2),
                  laurent(3, 2)]


@st.composite
def near_identity_and_point(draw):
    """(g, y, N): g = x + sum_{d <= 5} c_d x^d with c_d in pi*O known mod
    pi^N, and y a representative of a level-1 or level-2 class (the zero
    class included) known mod pi^N, or an exact zero."""
    desc = draw(st.sampled_from(INVERSE_FIELDS))
    N = draw(st.integers(4, 64))
    q = desc.residue_size

    def small():
        digits = draw(st.lists(st.integers(0, q - 1), max_size=N - 1))
        if desc.family == LAURENT:
            return LocalFieldElement.from_laurent_coeffs(desc, 1, digits, N)
        return LocalFieldElement.from_int(
            desc, desc.p * sum(d * q ** i for i, d in enumerate(digits)), N)

    terms = {(d,): small() for d in draw(st.sets(st.integers(0, 5)))}
    terms[(1,)] = LocalFieldElement.one(desc, N) + terms.get(
        (1,), LocalFieldElement.zero(desc))
    g = DiffRepr.from_poly(desc, MultiPoly(1, terms))
    if draw(st.integers(0, 7)) == 0:
        return g, LocalFieldElement.zero(desc), N
    ring = ResidueRing(desc, draw(st.integers(1, 2)))
    code = list(ring.elements())[draw(st.integers(0, ring.cardinality - 1))]
    j = draw(st.integers(0, q - 1))
    return g, ring.representatives(code, j + 1, N)[j], N


def ref_newton_solve(g, dg, y):
    """Newton's iteration x <- x - (g(x) - y)/g'(x) on elements, the loop
    a polynomial inverse runs outside its kernel's guard: the reference the
    kernel must match, value or exception."""
    x = y
    residual = _eval_at(g, x) - y
    if residual.is_exact_zero:
        return x
    steps = residual.precision.bit_length() + 2
    for _ in range(steps):
        slope = _eval_at(dg, x)
        if slope.is_zero() or slope.valuation != 0:
            raise NotWellDefined(f"g'(x) is not a unit at x = "
                                 f"{format_element(x)}")
        x_next = x - residual.divide(slope)
        if x_next == x:
            return x
        x = x_next
        residual = _eval_at(g, x) - y
    raise NotWellDefined(f"Newton inversion at y = {format_element(y)} "
                         f"did not converge in {steps} steps")


def derivative(g: MultiPoly) -> MultiPoly:
    return MultiPoly(1, {(e - 1,): c * e for (e,), c in g.terms.items() if e})


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the kernel must raise what the loop raises
        return type(exc), str(exc)


NEWTON_FIELDS = [padic(2), padic(3), padic(5), laurent(2), laurent(3),
                 laurent(2, 2), laurent(3, 2), laurent(2, 7)]


@st.composite
def newton_case(draw):
    """(g, y) over Q_2, Q_3, Q_5, F_2, F_3, F_4, F_9 and F_128((theta)):
    g = sum_{d <= 4} c_d x^d near the identity (c_1 in 1 + pi*O, the rest
    in pi*O), with integral coefficients (so g' may be a non-unit and
    g(y) - y a unit), or with coefficients of valuation -1 up.  y is
    integral or of valuation -1 up.  y has precision N - 2 .. N and each
    coefficient N - 1 .. N + 3; exact zeros, and apparent zeros (all
    digits drawn 0), occur among them."""
    desc = draw(st.sampled_from(NEWTON_FIELDS))
    N = draw(st.integers(1, 20))
    q = desc.residue_size

    def element(least_val, prec):
        if draw(st.integers(0, 12)) == 0:
            return LocalFieldElement.zero(desc)
        val = draw(st.integers(least_val, max(least_val, min(prec, 2))))
        rel = max(prec - val, 0)
        digits = draw(st.lists(st.integers(0, q - 1), max_size=rel))
        if desc.family == LAURENT:
            return LocalFieldElement.from_laurent_coeffs(desc, val, digits,
                                                         prec)
        return LocalFieldElement(
            desc, val, sum(d * q ** i for i, d in enumerate(digits)), rel)

    def coefficient_precision():
        return N + draw(st.integers(-1, 3))

    least = draw(st.sampled_from([1, 0, -1]))
    terms = {(d,): element(least, coefficient_precision())
             for d in draw(st.sets(st.integers(0, 4), min_size=1))}
    if least == 1:
        one = LocalFieldElement.one(desc, coefficient_precision())
        terms[(1,)] = one + terms.get((1,), LocalFieldElement.zero(desc))
    y = element(draw(st.sampled_from([0, 0, 0, -1])),
                N - draw(st.integers(0, 2)))
    return MultiPoly(1, terms), y


class TestInverse:
    # 600 examples; about a quarter meet the kernel's guard (metadata and
    # Hensel's condition), the rest run the element loop, and about half
    # of all raise
    @settings(max_examples=600, deadline=None)
    @given(newton_case())
    def test_newton_kernel_matches_element_loop(self, case):
        g, y = case
        inverse = DiffRepr.from_poly(y.desc, g).inverse()
        assert outcome(inverse, y) == outcome(ref_newton_solve, g,
                                              derivative(g), y)

    @pytest.mark.parametrize("desc, coeffs, y", [
        (laurent(2), [(0, [0, 1]), (1, [1]), (2, [0, 1])], [1, 0, 1]),
        (laurent(3, 2), [(1, [1]), (3, [0, 5])], [4, 2]),
        (padic(3), [(0, [0, 0, 1]), (1, [1]), (3, [0, 1])], [2, 1]),
        (padic(5), [(0, [0, 3]), (1, [1, 0, 1]), (4, [0, 2])], [2, 4, 1]),
        (padic(2), [(0, [0, 1]), (1, [1]), (2, [0, 1])], [1, 1, 0, 1]),
    ], ids=["F2", "F9", "Q3", "Q5", "Q2"])
    def test_hensel_input_makes_no_element_division(self, monkeypatch,
                                                    desc, coeffs, y):
        # y and every coefficient at precision 16, g(y) = y mod pi and g'(y)
        # a unit: the kernel runs, where the element loop divides
        def element(digits):
            if desc.family == LAURENT:
                return LocalFieldElement.from_laurent_coeffs(desc, 0, digits,
                                                             16)
            return LocalFieldElement.from_int(
                desc, sum(d * desc.p ** i for i, d in enumerate(digits)), 16)

        g = MultiPoly(1, {(d,): element(c) for d, c in coeffs})
        y = element(y)
        divisions = []
        divide = LocalFieldElement.divide

        def counted(self, other):
            divisions.append(other)
            return divide(self, other)

        monkeypatch.setattr(LocalFieldElement, "divide", counted)
        expected = ref_newton_solve(g, derivative(g), y)
        assert divisions

        def no_divide(self, other):
            raise AssertionError("element division under Hensel's condition")

        monkeypatch.setattr(LocalFieldElement, "divide", no_divide)
        assert DiffRepr.from_poly(desc, g).inverse()(y) == expected

    @settings(max_examples=200, deadline=None)
    @given(near_identity_and_point())
    def test_newton_matches_fixed_point(self, case):
        # an exact y has no precision of its own: the map's N sets the count
        g, y, N = case
        assert g.inverse()(y) == fixed_point_inverse(g, y, N + 2)

    def test_unit_multiple_is_inverted(self):
        D5 = padic(5)
        g = poly_map(D5, [0, 3])
        ginv = g.inverse()
        for n in (1, 2, 4, 7, 24, 5 ** 6 + 3):
            y = e(D5, n)
            assert g(ginv(y)).same(y)

    def test_exact_point_converges_beyond_default_precision(self):
        # 3 + 3x contracts by one digit per step: an exact y has no
        # precision to size a step count from, and 32 linear steps would
        # solve 3 + 4x = 0 only mod 3^33 while claiming 64 digits
        g = poly_map(D3, [3, 4], N=64)
        zero = LocalFieldElement.zero(D3)
        residual = g(g.inverse()(zero))
        assert residual.is_zero() and residual.precision == 64

    def test_critical_point_is_not_well_defined(self):
        with pytest.raises(NotWellDefined):
            poly_map(D3, [0, 0, 0, 1]).inverse()(e(D3, 2))

    def test_unsolvable_equation_raises(self):
        # x^2 + x + 1 has no root mod 2, so Newton cycles between 0 and -1
        g = poly_map(D2, [1, 1, 1])
        with pytest.raises(NotWellDefined):
            g.inverse()(LocalFieldElement.zero(D2))

    def test_zero_polynomial_is_the_field_zero(self):
        # 2*x has no terms over F_2((t)); its value and the derivative of a
        # constant map are the field's zero, not the integer 0
        L2 = laurent(2)
        x = LocalFieldElement.one(L2, 8)
        g = DiffRepr.from_poly(L2, MultiPoly(1, {}))
        assert g(x).is_exact_zero
        const = DiffRepr.from_poly(L2, MultiPoly(1, {(0,): x}))
        with pytest.raises(NotWellDefined):
            const.inverse()(x)


class TestWitness:
    def test_p3_k1(self):
        f, rec = witness_flat_polynomial(3, 1)
        assert rec["identity_at_level"] and rec["unit_group_exponent"] == 2
        assert rec["witness_point"] is not None
        # visible displacement at precision 3^-4
        code, val = rec["witness_point"]
        assert val < 4

    def test_degenerate_rejected(self):
        with pytest.raises(ConstraintViolated):
            witness_flat_polynomial(3, 1, coeff_spec=[(0, 1), (0, 2)])

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ConstraintViolated):
            witness_flat_polynomial(3, 1, coeff_spec=[(3, 1), (3, 2)])

    def test_unit_coefficient_rejected(self):
        with pytest.raises(ConstraintViolated):
            witness_flat_polynomial(3, 1, coeff_spec=[(1, 1), (-1, 2)])

    def test_p5_k2_exhaustive(self):
        f, rec = witness_flat_polynomial(5, 2)
        assert rec["identity_at_level"]
        assert rec["checked_classes"] == 20
        assert rec["unit_group_exponent"] == 20

    def test_metric_separation(self):
        f, _ = witness_flat_polynomial(3, 1)
        rho = group_metric(DiffRepr.identity(D3, f.domain), f, order=1)
        assert rho > 0 and rho >= Fraction(1, 3)


class TestGroupMetric:
    def test_self_distance_zero(self):
        g = poly_map(D3, [1, 1], name="x+1")
        assert group_metric(g, g) == 0

    def test_distance_to_shift(self):
        rho = group_metric(DiffRepr.identity(D3), poly_map(D3, [3, 1]))
        assert rho == Fraction(1, 3)

    def test_left_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            def near(scale=3):
                coeffs = [scale * rng.randint(-2, 2) for _ in range(3)]
                coeffs[1] = 1 + coeffs[1]
                return poly_map(D3, coeffs)

            f, g, h = near(), near(), near()
            lhs = group_metric(h.compose(f), h.compose(g))
            rhs = group_metric(f, g)
            assert lhs == rhs


class TestBallDecompose:
    def test_identity(self):
        factors = ball_decompose(DiffRepr.identity(D2),
                                 [Ball(0, 1), Ball(1, 1)])
        x = e(D2, 7)
        assert all(h.evaluate(x).same(x) for h in factors)

    def test_shift_by_two(self):
        g = poly_map(D2, [2, 1])
        factors = ball_decompose(g, [Ball(0, 1), Ball(1, 1)])
        assert len(factors) == 2
        for val in (0, 1, 2, 3, 5, 6):
            x = e(D2, val)
            y = factors[0].evaluate(factors[1].evaluate(x))
            assert y.same(g.evaluate(x))
            # commute
            z = factors[1].evaluate(factors[0].evaluate(x))
            assert z.same(y)

    def test_single_ball(self):
        g = poly_map(D2, [2, 1])
        factors = ball_decompose(g, [Ball(0, 0)])
        assert len(factors) == 1
        x = e(D2, 3)
        assert factors[0].evaluate(x).same(g.evaluate(x))

    def test_ball_not_preserved(self):
        g = poly_map(D2, [1, 1])  # x + 1 swaps the two level-1 balls
        with pytest.raises(BallNotPreserved):
            ball_decompose(g, [Ball(0, 1), Ball(1, 1)])


class TestCommutators:
    def test_identity_empty(self):
        perm = LevelPermutation.identity(1, tuple(range(6)))
        assert commutator_decompose_even(perm) == []

    def test_three_cycle_single_pair(self):
        mapping = {0: 1, 1: 2, 2: 0, 3: 3, 4: 4}
        perm = LevelPermutation.from_mapping(1, mapping)
        pairs = commutator_decompose_even(perm)
        assert len(pairs) == 1
        assert product_of_commutators(pairs, perm).images == perm.images

    def test_random_even_s9(self):
        rng = random.Random(7)
        elements = tuple(range(9))
        done = 0
        while done < 50:
            imgs = list(elements)
            rng.shuffle(imgs)
            perm = LevelPermutation(1, elements, tuple(imgs))
            if perm.parity() != 0:
                continue
            pairs = commutator_decompose_even(perm)
            assert product_of_commutators(pairs, perm).images == perm.images
            done += 1

    def test_odd_rejected(self):
        perm = LevelPermutation.from_mapping(
            1, {0: 1, 1: 0, 2: 2, 3: 3, 4: 4})
        with pytest.raises(OddParity):
            commutator_decompose_even(perm)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            commutator_decompose_even(
                LevelPermutation.identity(1, (0, 1, 2, 3)))


class TestThreads:
    def test_identity_thread_extends(self):
        thread = PermThread(D3, {1: LevelPermutation.identity(1, (0, 1, 2))})
        ext = thread.extend(LevelPermutation.identity(2, tuple(range(9))))
        assert ext.check_compatible()

    def test_shift_thread(self):
        g = poly_map(D2, [1, 1])
        thread = PermThread.from_diff(g, [1, 2, 3, 4])
        assert thread.check_compatible()
        # parity is reported per level, never assumed constant
        profile = thread.parity_profile()
        assert set(profile) == {1, 2, 3, 4}

    def test_incompatible_extension(self):
        g = poly_map(D3, [1, 1])
        thread = PermThread.from_diff(g, [1, 2])
        bad = LevelPermutation.from_mapping(
            3, {c: (c + 2) % 27 for c in range(27)})
        with pytest.raises(Incompatible):
            thread.extend(bad)

    def test_product_is_thread_of_composition(self):
        f, g = poly_map(D3, [1, 1]), poly_map(D3, [3, 1])
        ta = PermThread.from_diff(f, [1, 2])
        tb = PermThread.from_diff(g, [1, 2])
        tc = PermThread.from_diff(f.compose(g), [1, 2])
        prod = ta.compose(tb)
        assert all(prod.levels[k].images == tc.levels[k].images
                   for k in (1, 2))
        assert prod.check_compatible()

    def test_inverse_thread(self):
        g = poly_map(D2, [2, 1])
        t = PermThread.from_diff(g, [1, 2, 3])
        ti = t.inverse()
        for k in (1, 2, 3):
            assert t.levels[k].compose(ti.levels[k]).is_identity()


class TestConjugation:
    def test_identity_conjugator(self):
        g = poly_map(D3, [3, 1])
        h = PermThread(D3, {k: LevelPermutation.identity(
            k, tuple(range(3 ** k))) for k in (1, 2, 3)})
        rep = conjugation_thread(h, g, 3)
        assert rep["compatible"]
        for k in (1, 2, 3):
            assert rep["thread"].levels[k].images == \
                level_project(g, k).images

    def test_shift_conjugator(self):
        h = PermThread.from_diff(poly_map(D3, [1, 1]), [1, 2, 3])
        rep = conjugation_thread(h, poly_map(D3, [3, 1]), 3)
        assert rep["compatible"]

    def test_corrupted_thread_detected(self):
        h = PermThread.from_diff(poly_map(D3, [1, 1]), [1, 2])
        # corrupt level 2 by post-composing a transposition that breaks the
        # projection square
        lv2 = h.levels[2]
        imgs = list(lv2.images)
        imgs[0], imgs[1] = imgs[1], imgs[0]
        h.levels[2] = LevelPermutation(2, lv2.elements, tuple(imgs))
        with pytest.raises(Incompatible):
            conjugation_thread(h, poly_map(D3, [3, 1]), 2)


# ---------------------------------------------------------------------------
# certified level tables
# ---------------------------------------------------------------------------

CERTIFIED_FIELDS = (padic(2), padic(3), laurent(2), laurent(2, 2))


def coefficient(desc, val, digits, N=32):
    """pi^val * sum_i digits[i] pi^i, known mod pi^N."""
    if desc.family == LAURENT:
        return LocalFieldElement.from_laurent_coeffs(desc, val, digits, N)
    n = sum(d * desc.p ** i for i, d in enumerate(digits))
    return LocalFieldElement.from_int(desc, desc.p ** val * n, N)


@st.composite
def integral_poly(draw, desc, near):
    """A polynomial of degree <= 3 over O; x + pi*O[x] when near."""
    least = 1 if near else 0
    digits = st.lists(st.integers(0, desc.residue_size - 1), min_size=1,
                      max_size=3)
    terms = {(d,): coefficient(desc, draw(st.integers(least, least + 1)),
                               draw(digits))
             for d in draw(st.sets(st.integers(0, 3), min_size=1))}
    if near:
        one = LocalFieldElement.one(desc)
        terms[(1,)] = one + terms.get((1,), LocalFieldElement.zero(desc))
    return DiffRepr.from_poly(desc, MultiPoly(1, terms))


@st.composite
def certified_map(draw):
    desc = draw(st.sampled_from(CERTIFIED_FIELDS))
    kind = draw(st.sampled_from(("integral", "isometry", "composite",
                                 "inverse", "composite inverse")))
    if kind in ("integral", "isometry"):
        g = draw(integral_poly(desc, kind == "isometry"))
    elif kind == "composite":
        g = draw(integral_poly(desc, draw(st.booleans()))).compose(
            draw(integral_poly(desc, draw(st.booleans()))))
    elif kind == "inverse":
        g = draw(integral_poly(desc, True)).inverse()
    else:
        g = draw(integral_poly(desc, True)).compose(
            draw(integral_poly(desc, True))).inverse()
    return g, draw(st.integers(1, 3))


def sampled_mapping(g, k):
    """g's level-k images by exhaustive sampling: q^2 representatives per
    class at precision 32, which must all land in one class."""
    ring = ResidueRing(g.desc, k)
    q = g.desc.residue_size
    out = {}
    for code in g.domain.residues(k):
        images = {g(x).project(k)
                  for x in ring.representatives(code, q * q, 32)}
        assert len(images) == 1, (code, images)
        out[code] = images.pop()
    return out


class TestCertifiedTables:
    # 60 examples: each draws one of Q_2, Q_3, F_2((t)), F_4((t)), a level
    # k in 1..3 and an integral or near-identity polynomial of degree <= 3,
    # a composite of two, the inverse of a near-identity one or of a
    # composite of two
    @settings(max_examples=60, deadline=None)
    @given(certified_map())
    def test_matches_exhaustive_sampling(self, case):
        g, k = case
        assert g.certificate != UNCERTIFIED
        opaque = DiffRepr(g.desc, lambda x: g(x))
        assert opaque.certificate == UNCERTIFIED
        sampled = sampled_mapping(opaque, k)
        try:
            table = level_project(g, k)
        except NotBijective:
            # an integral polynomial need not permute the classes
            assert g.certificate == INTEGRAL
            assert set(sampled.values()) != set(sampled)
            with pytest.raises(NotBijective):
                level_project(opaque, k)
            return
        assert table.mapping() == sampled
        assert level_project(opaque, k) == table

    def test_one_representative_per_class_known_mod_pi_k(self, monkeypatch):
        precisions = []
        evaluate = DiffRepr.evaluate

        def spy(self, x):
            precisions.append(x.precision)
            return evaluate(self, x)

        monkeypatch.setattr(DiffRepr, "evaluate", spy)
        level_project(poly_map(D3, [1, 1]), 2)
        # class 0 of Z_3 lifts to the exact zero
        assert precisions == [float("inf")] + [2] * 8
        precisions.clear()
        level_project(DiffRepr(D3, lambda x: x + 1), 2)
        assert precisions == [float("inf")] + [32] * 17


class TestCertificate:
    def test_read_off_the_coefficients(self):
        assert DiffRepr.identity(D3).certificate == ISOMETRY
        assert poly_map(D3, [3, 1, 6]).certificate == ISOMETRY
        assert poly_map(D3, [3, 4]).certificate == ISOMETRY
        assert poly_map(D3, [1, 1]).certificate == INTEGRAL
        assert poly_map(D3, [0, 2]).certificate == INTEGRAL
        assert poly_map(D3, [0, 0, 3]).certificate == INTEGRAL
        assert poly_map(D3, []).certificate == INTEGRAL

    def test_bound_s_is_not_read(self):
        cube = MultiPoly(1, {(3,): e(D3, 1)})
        assert DiffRepr.from_poly(D3, cube, None, 5).certificate == INTEGRAL
        assert DiffRepr(D3, lambda x: x, None, 5).certificate == UNCERTIFIED

    def test_other_backings_are_uncertified(self):
        one = e(D3, 1)
        for desc, backing in (
                (D3, MahlerSeries.from_ints(3, [0, 1], 32)),
                (D3, MultiPoly(1, {(1,): Fraction(1)})),
                (D3, MultiPoly(1, {(1,): e(D2, 1)})),
                (D3, MultiPoly(2, {(1, 0): one})),
                (D3, MultiPoly(1, {
                    (1,): one,
                    (2,): LocalFieldElement.apparent_zero(D3, -1)}))):
            assert DiffRepr(desc, backing).certificate == UNCERTIFIED

    def test_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            DiffRepr(D3, lambda x: x, certificate=ISOMETRY)

    def test_compose_and_inverse_propagate(self):
        maps = {ISOMETRY: poly_map(D3, [3, 1]),
                INTEGRAL: poly_map(D3, [1, 1]),
                UNCERTIFIED: DiffRepr(D3, lambda x: x)}
        for a, f in maps.items():
            for b, g in maps.items():
                assert f.compose(g).certificate == min(a, b)
        iso = maps[ISOMETRY]
        assert iso.inverse().certificate == ISOMETRY
        assert iso.inverse().inverse().certificate == ISOMETRY
        assert iso.compose(iso).inverse().certificate == ISOMETRY
        assert maps[INTEGRAL].inverse().certificate == UNCERTIFIED
        assert maps[UNCERTIFIED].inverse().certificate == UNCERTIFIED
        assert iso.compose(maps[INTEGRAL]).inverse().certificate == \
            UNCERTIFIED

    def test_negative_valuation_is_sampled_and_raises_as_before(self):
        # x + x^2/3: the table is sampled, and projecting an image of
        # negative valuation raises FieldError itself, as it always has
        for k in (1, 2):
            g = DiffRepr.from_poly(D3, MultiPoly(1, {
                (1,): e(D3, 1),
                (2,): LocalFieldElement.from_fraction(D3, Fraction(1, 3))}))
            assert g.certificate == UNCERTIFIED
            with pytest.raises(FieldError) as info:
                level_project(g, k)
            assert info.type is FieldError


class TestTrustedPermutations:
    def test_compose_and_inverse_equal_checked_tables(self):
        a = level_project(poly_map(D3, [1, 1]), 2)
        b = level_project(poly_map(D3, [3, 1, 3]), 2)
        ab = a.compose(b)
        assert ab == LevelPermutation(2, a.elements, ab.images)
        assert ab.images == tuple(a(b(x)) for x in a.elements)
        assert a.inverse() == LevelPermutation(2, a.elements,
                                               a.inverse().images)
        assert a.inverse().compose(a).is_identity()
        with pytest.raises(TowerError):
            a.compose(LevelPermutation.identity(1, (0, 1, 2)))

    def test_tables_from_outside_are_checked(self):
        with pytest.raises(NotBijective):
            LevelPermutation(1, (0, 1, 2), (0, 0, 1))
        with pytest.raises(NotBijective):
            LevelPermutation.from_mapping(1, {0: 1, 1: 1})
        with pytest.raises(NotBijective):
            parse_one_line("# level=1 elements: 0 1 2\n0 0 1")
        with pytest.raises(NotBijective):
            LevelPermutation.identity(1, (0, 0))
