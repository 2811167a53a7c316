"""Difference-quotient evaluation and the operator identities."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from localfields.calculus import (CharacteristicObstruction, DomainViolation,
                                  FnRepr, OperatorWord, PhiPoint, SamplerSpec,
                                  ShapeMismatch, TreePoint, ZeroDenominator,
                                  chain_check, cnb_norm, default_sampler,
                                  diff_eval, differential_eval, dump_reports,
                                  embed_phi_point, leibniz_check,
                                  leibniz_multi_check, phi_eval,
                                  product_rule_terms, run_fixture_file,
                                  run_fixture_line, term_words, upsilon_eval)
from localfields.calculus import (_as_poly, chain_rhs_terms, is_zero_scalar,
                                  phi_leibniz_subset_sum, scalar_div,
                                  value_add, value_mul, value_sub)
from localfields.fields import LocalFieldElement, laurent, padic
from localfields.funcspec import parse_poly
from localfields.poly import MultiPoly, quotient_in_new_var

F = Fraction
D2, D3, D5 = padic(2), padic(3), padic(5)


def fn_q(text, nx=1):
    return FnRepr.poly(parse_poly(text, nx).to_fraction_poly())


def fn_p(text, desc, nx=1, N=24):
    return FnRepr.poly(parse_poly(text, nx).to_field_poly(desc, N))


def e(desc, n, N=24):
    return LocalFieldElement.from_int(desc, n, N)


def rand_tree(rng, level, dim=1, lo=-3, hi=3):
    if level == 0:
        return TreePoint.leaf(tuple(F(rng.randint(lo, hi))
                                    for _ in range(dim)))
    return TreePoint(lower=rand_tree(rng, level - 1, dim, lo, hi),
                     direction=rand_tree(rng, level - 1, dim, lo, hi),
                     t=F(rng.choice([1, -1, 2, 3])))


class TestPhiEval:
    def test_square_basic(self):
        pt = PhiPoint((F(1),), ((F(1),),), (F(1),))
        assert phi_eval(fn_q("x^2"), pt) == 3

    def test_constant_vanishes(self):
        pt = PhiPoint((F(1),), ((F(1),),), (F(1),))
        assert phi_eval(fn_q("7"), pt) == 0

    def test_cube_over_q2(self):
        f = fn_p("x^3", D2)
        pt = PhiPoint((e(D2, 1),), ((e(D2, 1),),), (e(D2, 2),))
        assert phi_eval(f, pt).same(13)  # (27 - 1)/2

    def test_t_zero_symbolic(self):
        pt = PhiPoint((F(5),), ((F(1),),), (F(0),))
        assert phi_eval(fn_q("x^2"), pt) == 10

    def test_opaque_needs_nonzero_t(self):
        f = FnRepr(1, lambda v: v[0] * v[0])
        pt = PhiPoint((F(5),), ((F(1),),), (F(0),))
        with pytest.raises(ZeroDenominator):
            phi_eval(f, pt)

    def test_opaque_small_t_surrogate(self):
        # an opaque evaluator has no quotient at t = 0; a small nonzero t
        # stands in for it, at the cost of digits of precision
        f = FnRepr(1, lambda v: v[0] * v[0])
        zero = LocalFieldElement.zero(D3)
        with pytest.raises(ZeroDenominator, match="opaque evaluator"):
            phi_eval(f, PhiPoint((e(D3, 5),), ((e(D3, 1),),), (zero,)))
        small = D3.uniformizer(24) ** 12
        got = phi_eval(f, PhiPoint((e(D3, 5),), ((e(D3, 1),),), (small,)))
        # ((x + t)^2 - x^2) / t = 2x + t = 10 up to the reduced budget
        assert got.same(10, precision=int(got.precision))
        assert got.precision <= 24 - 24 // 2 + 2

    def test_domain_violation(self):
        f = FnRepr.poly(parse_poly("x^2").to_fraction_poly(),
                        domain=lambda v: abs(v[0]) <= 2)
        pt = PhiPoint((F(1),), ((F(5),),), (F(1),))
        with pytest.raises(DomainViolation):
            phi_eval(f, pt)

    def test_linearity(self):
        rng = random.Random(2)
        f, g = fn_q("x^2+x"), fn_q("x^3")
        for _ in range(25):
            n = rng.randint(1, 3)
            x = (F(rng.randint(-3, 3)),)
            vs = tuple((F(rng.randint(-3, 3)),) for _ in range(n))
            ts = tuple(F(rng.choice([1, 2, -1])) for _ in range(n))
            pt = PhiPoint(x, vs, ts)
            a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            combo = FnRepr.poly(a * f.backing + b * g.backing)
            assert phi_eval(combo, pt) == \
                a * phi_eval(f, pt) + b * phi_eval(g, pt)


class TestUpsilonEval:
    def test_identity_gives_direction(self):
        tp = TreePoint(lower=TreePoint.leaf((F(2),)),
                       direction=TreePoint.leaf((F(7),)), t=F(3))
        assert upsilon_eval(fn_q("x"), tp) == 7

    def test_slice_property_exact(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(1, 3)
            f = fn_q(_rand_poly_text(rng))
            x = (F(rng.randint(-4, 4)),)
            vs = tuple((F(rng.randint(-3, 3)),) for _ in range(n))
            ts = tuple(F(rng.choice([1, 2, 3, -1])) for _ in range(n))
            flat = PhiPoint(x, vs, ts)
            assert phi_eval(f, flat) == upsilon_eval(f, embed_phi_point(flat))

    def test_slice_property_per_prime(self):
        rng = random.Random(1)
        for desc in (D2, D3):
            for _ in range(100):
                n = rng.randint(1, 3)
                f = fn_p(_rand_poly_text(rng), desc)
                x = (e(desc, rng.randint(-4, 4)),)
                vs = tuple((e(desc, rng.randint(-3, 3)),) for _ in range(n))
                ts = tuple(e(desc, 1 + desc.p * rng.randint(0, 2))
                           for _ in range(n))
                flat = PhiPoint(x, vs, ts)
                a = phi_eval(f, flat)
                b = upsilon_eval(f, embed_phi_point(flat))
                assert a.same(b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            TreePoint(lower=TreePoint.leaf((F(1),)),
                      direction=TreePoint(lower=TreePoint.leaf((F(1),)),
                                          direction=TreePoint.leaf((F(1),)),
                                          t=F(1)),
                      t=F(1))

    def test_double_quotient_oracle(self):
        # independent direct recursion, written from scratch
        def brute(fn, pt):
            if pt.level == 0:
                return fn(pt.vec[0])
            shifted = pt.lower.add_scaled(pt.direction, pt.t)
            return (brute(fn, shifted) - brute(fn, pt.lower)) / pt.t

        rng = random.Random(4)
        f = fn_q("x^2")
        for _ in range(30):
            pt = rand_tree(rng, 2)
            try:
                expect = brute(lambda x: x * x, pt)
            except ZeroDivisionError:
                continue
            assert upsilon_eval(f, pt) == expect


def _rand_poly_text(rng):
    deg = rng.randint(1, 3)
    terms = [f"{rng.randint(-5, 5)}*x^{d}" for d in range(deg + 1)]
    return "+".join(terms).replace("+-", "-")


class TestCnbNorm:
    def test_zero_function(self):
        sampler = default_sampler(D3)
        assert cnb_norm(fn_p("0", D3), 1, sampler) == 0

    def test_identity_on_unit_ball(self):
        sampler = default_sampler(D3)
        assert cnb_norm(fn_p("x", D3), 1, sampler) == 1

    def test_px_order_zero(self):
        sampler = default_sampler(D3)
        assert cnb_norm(fn_p("pi*x", D3), 0, sampler) == Fraction(1, 3)

    def test_empty_sampler(self):
        from localfields.calculus import CalculusError
        with pytest.raises(CalculusError):
            SamplerSpec([], [], [])

    def test_monotone_in_sample(self):
        s1 = default_sampler(D2, span=1)
        s2 = default_sampler(D2, span=2)
        f = fn_p("x^2+pi*x", D2)
        assert cnb_norm(f, 1, s1) <= cnb_norm(f, 1, s2) <= 1


class TestDifferential:
    def test_first_derivative(self):
        f = fn_q("x^2")
        for x in (F(0), F(3), F(-2)):
            assert differential_eval(f, (x,), ((F(1),),)) == 2 * x

    def test_constant(self):
        assert differential_eval(fn_q("9"), (F(1),), ((F(1),),)) == 0

    def test_cube_second_differential(self):
        f = fn_p("x^3", D5)
        x = (e(D5, 1),)
        vs = ((e(D5, 1),), (e(D5, 1),))
        assert differential_eval(f, x, vs).same(6)

    def test_symmetry(self):
        f = fn_q("x^3+2*x^2")
        vs = [(F(2),), (F(3),)]
        assert differential_eval(f, (F(5),), vs) == \
            differential_eval(f, (F(5),), list(reversed(vs)))

    def test_characteristic_obstruction(self):
        L3 = laurent(3)
        one = LocalFieldElement.one(L3, 16)
        f = FnRepr.poly(MultiPoly(1, {(3,): one}))
        x = (LocalFieldElement.one(L3, 16),)
        vs = ((one,),) * 3
        with pytest.raises(CharacteristicObstruction):
            differential_eval(f, x, vs)


class TestLeibniz:
    def test_n1_polynomial_identity(self):
        # v(2x + vt) = v(x + vt) + xv for f = g = x
        f = g = fn_q("x")
        pt = PhiPoint((F(4),), ((F(2),),), (F(3),))
        rep = leibniz_check(f, g, pt, "phi")
        assert rep.passed and rep.margin == 0
        assert rep.lhs == F(2) * (2 * F(4) + F(2) * F(3))

    def test_n2_random_over_q3(self):
        rng = random.Random(9)
        f, g = fn_p("x", D3), fn_p("x^2", D3)
        for _ in range(50):
            x = (e(D3, rng.randint(-9, 9)),)
            vs = tuple((e(D3, rng.randint(-6, 6)),) for _ in range(2))
            ts = tuple(e(D3, rng.choice([1, 2, 4, -1])) for _ in range(2))
            rep = leibniz_check(f, g, PhiPoint(x, vs, ts), "phi")
            assert rep.passed and rep.margin == 0

    def test_n3_eight_terms(self):
        rng = random.Random(5)
        f, g = fn_q("x^2"), fn_q("x^3+x")
        while True:
            try:
                pt = rand_tree(rng, 3)
                rep = leibniz_check(f, g, pt, "upsilon", collect_terms=True)
                break
            except ZeroDenominator:
                continue
        # skip the inputs entry that fixture running prepends
        assert rep.passed
        assert len(rep.detail) == 8
        fwords = sorted(d[0] for d in rep.detail)
        assert fwords == sorted([
            "YYY.f", "YYpr.f", "YprY.f", "Yprpr.f",
            "prYY.f", "prYpr.f", "prprY.f", "prprpr.f"])

    def test_flavor_point_mismatch(self):
        with pytest.raises(ShapeMismatch):
            leibniz_check(fn_q("x"), fn_q("x"),
                          PhiPoint((F(1),), ((F(1),),), (F(1),)), "upsilon")

    def test_word_bookkeeping(self):
        words = term_words((0, 1, 0), 2)
        assert words[0].letters == ("D", "pi", "D")
        assert words[1].letters == ("P", "D", "P")
        assert len(list(product_rule_terms(2, 3))) == 8


class TestSliceCorrespondence:
    def test_tree_words_restrict_to_subset_terms(self):
        # at an embedded point, each tree operator word equals the flat
        # subset term indexed by the steps where the first factor took the
        # difference; this is the restriction argument connecting the two
        # flavors of the product rule, verified term by term
        rng = random.Random(33)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = fn_q(_rand_poly_text(rng))
            g = fn_q(_rand_poly_text(rng))
            x = (F(rng.randint(-4, 4)),)
            vs = tuple((F(rng.randint(-3, 3)),) for _ in range(n))
            ts = tuple(F(rng.choice([1, 2, -1, 3])) for _ in range(n))
            tree = embed_phi_point(PhiPoint(x, vs, ts))
            for choices in product_rule_terms(2, n):
                wf, wg = term_words(choices, 2)
                tree_val = wf.apply(f.eval_vec, tree) * \
                    wg.apply(g.eval_vec, tree)
                J = [j for j, c in enumerate(choices) if c == 0]
                S = [j for j, c in enumerate(choices) if c == 1]
                fpt = PhiPoint(x, tuple(vs[j] for j in J),
                               tuple(ts[j] for j in J))
                base = x
                for j in J:
                    base = tuple(b + v * ts[j]
                                 for b, v in zip(base, vs[j]))
                gpt = PhiPoint(base, tuple(vs[s] for s in S),
                               tuple(ts[s] for s in S))
                assert tree_val == phi_eval(f, fpt) * phi_eval(g, gpt)


class TestLeibnizMulti:
    def test_k2_matches_leibniz(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 2)
            f, g = fn_q(_rand_poly_text(rng)), fn_q(_rand_poly_text(rng))
            pt = rand_tree(rng, n)
            try:
                a = leibniz_check(f, g, pt, "upsilon")
                b = leibniz_multi_check([f, g], pt, "upsilon")
            except ZeroDenominator:
                continue
            assert a.passed and b.passed and a.lhs == b.lhs

    def test_k3_linear_factors_q2(self):
        rng = random.Random(13)
        fs = [fn_p("x", D2)] * 3
        for _ in range(20):
            x = (e(D2, rng.randint(-5, 5)),)
            vs = ((e(D2, rng.randint(-4, 4)),),)
            ts = (e(D2, rng.choice([1, 3, -1])),)
            rep = leibniz_multi_check(fs, PhiPoint(x, vs, ts), "phi")
            assert rep.passed and rep.margin == 0

    def test_scalar_times_vector_valued(self):
        # the algebra-valued case: scalar f against a two-slot g
        f = fn_q("x")
        g = FnRepr(1, [parse_poly("x^2", 1).to_fraction_poly(),
                       parse_poly("1+2*x", 1).to_fraction_poly()], codim=2)
        rng = random.Random(17)
        done = 0
        while done < 10:
            pt = rand_tree(rng, rng.randint(1, 2))
            try:
                rep = leibniz_check(f, g, pt, "upsilon")
            except ZeroDenominator:
                continue
            assert rep.passed and rep.margin == 0
            done += 1

    def test_unit_factor_absorption(self):
        rng = random.Random(14)
        one = fn_q("1")
        f, g = fn_q("x^2"), fn_q("x+1")
        for _ in range(10):
            pt = rand_tree(rng, 2)
            try:
                with_unit = leibniz_multi_check([f, one, g], pt, "upsilon")
                without = leibniz_multi_check([f, g], pt, "upsilon")
            except ZeroDenominator:
                continue
            assert with_unit.passed and without.passed
            assert with_unit.lhs == without.lhs

    def test_no_factors_is_a_shape_error(self):
        pt = PhiPoint((e(D3, 1),), ((e(D3, 1),),), (e(D3, 1),))
        for flavor, point in (("phi", pt), ("upsilon", embed_phi_point(pt))):
            with pytest.raises(ShapeMismatch):
                leibniz_multi_check([], point, flavor)


class TestChain:
    def test_n1_two_coordinates(self):
        # the single-step expansion over coordinate quotients
        f = fn_q("x1*x2+x2", 2)
        u = [parse_poly("x^2", 1).to_fraction_poly(),
             parse_poly("x+1", 1).to_fraction_poly()]
        pt = PhiPoint((F(2),), ((F(1),),), (F(3),))
        rep = chain_check(f, u, pt, "phi")
        assert rep.passed and rep.margin == 0

    def test_f_identity_degenerates(self):
        f = fn_q("x1", 1)
        u = [parse_poly("x^2+x", 1).to_fraction_poly()]
        rng = random.Random(3)
        for n in (1, 2):
            pt = rand_tree(rng, n)
            rep = chain_check(f, u, pt, "upsilon")
            assert rep.passed
            assert rep.lhs == diff_eval(
                lambda v: u[0].eval_cached(list(v)), pt)

    def test_spec_example_q3(self):
        f = fn_p("x1*x2", D3, 2)
        u = [parse_poly("x", 1).to_field_poly(D3, 24),
             parse_poly("x^2", 1).to_field_poly(D3, 24)]
        x = (e(D3, 2),)
        vs = ((e(D3, 1),), (e(D3, 2),))
        ts = (e(D3, 1), e(D3, 4))
        rep = chain_check(f, u, PhiPoint(x, vs, ts), "phi")
        assert rep.passed and rep.margin == 0
        rep2 = chain_check(f, u, embed_phi_point(PhiPoint(x, vs, ts)),
                           "upsilon")
        assert rep2.passed and rep2.margin == 0

    def test_n3_one_dimensional(self):
        f = fn_q("x^2+x")
        u = [parse_poly("x^2+2*x", 1).to_fraction_poly()]
        rng = random.Random(8)
        done = 0
        while done < 10:
            pt = rand_tree(rng, 3)
            try:
                rep = chain_check(f, u, pt, "upsilon")
            except ZeroDenominator:
                continue
            assert rep.passed and rep.margin == 0
            done += 1

    def test_order_cap(self):
        from localfields.calculus import CalculusError
        f = fn_q("x")
        u = [parse_poly("x", 1).to_fraction_poly()]
        rng = random.Random(1)
        with pytest.raises(CalculusError):
            chain_check(f, u, rand_tree(rng, 4), "upsilon")

    def test_expansion_structure(self):
        # the head coordinate count grows by one per difference step hitting
        # it (m coordinates, then m+1, then m+2) and the step that hits the
        # head splits into one term per coordinate
        for m in (1, 2):
            f = fn_q("x1" if m == 1 else "x1*x2", m)
            u = [parse_poly("x^2", 1).to_fraction_poly() for _ in range(m)]
            terms1 = chain_rhs_terms(f, u, 1)
            assert len(terms1) == m
            assert all(len(head.coords) == m + 1 for head, _ in terms1)
            terms2 = chain_rhs_terms(f, u, 2)
            # per step-1 term: (m+1) head splits + 1 factor hit
            assert len(terms2) == m * (m + 1) + m
            head_sizes = {len(head.coords) for head, _ in terms2}
            assert head_sizes == {m + 1, m + 2}


class TestFixtures:
    def test_line_pass(self):
        rep = run_fixture_line(
            "leibniz upsilon n=1 p=3 f=x g=x x=1 vs=1 ts=1 expect=PASS")
        assert rep.passed

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "checks.txt"
        path.write_text(
            "# sample fixtures\n"
            "leibniz phi n=2 p=3 f=x^2 g=x+1 x=1 vs=1;2 ts=1,1 expect=PASS\n"
            "leibniz_multi upsilon n=1 p=2 fs=x|x+1|x^2 x=1 vs=1 ts=1 "
            "expect=PASS\n"
            "chain phi n=1 p=3 f=x1*x2 u=x|x^2 x=2 vs=1 ts=1 expect=PASS\n")
        reports = run_fixture_file(str(path))
        assert len(reports) == 3 and all(r.passed for r in reports)
        text = dump_reports(reports)
        assert text.count('"status": "PASS"') == 3

    def test_expected_failure_line(self):
        rep = run_fixture_line(
            "leibniz phi n=1 p=3 f=x g=x x=1 vs=1 ts=1 expect=FAIL")
        assert not rep.passed  # identity holds, so expecting FAIL fails

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            run_fixture_line("leibniz phi n=2 p=3 f=x g=x x=1 vs=1 ts=1,1")


class TestOperatorWords:
    def test_pretty_and_depth(self):
        w = OperatorWord(("P", "D", "pi"))
        assert w.pretty("g") == "prYP1.g"

    def test_level_bookkeeping(self):
        w = OperatorWord(("D", "D", "P"))
        assert w.validate()
        with pytest.raises(ShapeMismatch):
            OperatorWord(("D", "Q")).validate()


class TestTreeShapes:
    def test_slot_and_scalar_counts(self):
        rng = random.Random(6)
        for n in (1, 2, 3):
            pt = rand_tree(rng, n)
            assert len(list(pt.slots())) == 2 ** n
            assert len(list(pt.scalars())) == 2 ** n - 1


# ---------------------------------------------------------------------------
# differential tests: the level-step primitive, the symbolic quotient and
# the shared product-rule expansion against the per-case implementations
# they replaced, kept below as ref_* (exact ==, exception types included).
# The reference keeps a separate flat evaluation context, so at flat points
# these tests compare the tree evaluator at the embedding with the direct
# flat recursion.
# ---------------------------------------------------------------------------

class RefPhiContext:
    """Flat flavor: the level step consumes the last (v, t); the shift
    moves the base point only."""

    @staticmethod
    def split(pt):
        return (PhiPoint(pt.x, pt.vs[:-1], pt.ts[:-1]), pt.vs[-1], pt.ts[-1])

    @staticmethod
    def shift(lower, direction, t):
        return PhiPoint(tuple(x + v * t for x, v in zip(lower.x, direction)),
                        lower.vs, lower.ts)

    @staticmethod
    def base_vec(pt):
        return pt.x


class RefTreeContext:
    """Pair-tree flavor."""

    @staticmethod
    def split(pt):
        return (pt.lower, pt.direction, pt.t)

    @staticmethod
    def shift(lower, direction, t):
        return lower.add_scaled(direction, t)

    @staticmethod
    def base_vec(pt):
        while pt.level:
            pt = pt.lower
        return pt.vec


def ref_apply_word(fn, letters, pt, ctx):
    if not letters:
        return fn(ctx.base_vec(pt))
    op = letters[-1]
    lower, direction, t = ctx.split(pt)
    if op == "pi":
        return ref_apply_word(fn, letters[:-1], lower, ctx)
    if op == "P":
        return ref_apply_word(fn, letters[:-1],
                              ctx.shift(lower, direction, t), ctx)
    hi = ref_apply_word(fn, letters[:-1], ctx.shift(lower, direction, t), ctx)
    lo = ref_apply_word(fn, letters[:-1], lower, ctx)
    return scalar_div(value_sub(hi, lo), t)


def ref_diff_eval(fn, pt, ctx):
    return ref_apply_word(fn, ("D",) * pt.level, pt, ctx)


def ref_phi_symbolic(f, n):
    m = f.arity
    nv = m + n * m + n
    xs = [MultiPoly.variable(nv, i, 1) for i in range(m)]
    vs = [[MultiPoly.variable(nv, m + k * m + i, 1) for i in range(m)]
          for k in range(n)]
    ts = [MultiPoly.variable(nv, m + n * m + k, 1) for k in range(n)]
    pt = PhiPoint(tuple(xs), tuple(tuple(v) for v in vs), tuple(ts))
    ext = _as_poly(f).extend(nv)
    return ref_diff_eval(lambda vec: ext.subst({i: vec[i] for i in range(m)}),
                         pt, RefPhiContext)


def ref_upsilon_symbolic(f, n):
    m = f.arity
    nslots = 2 ** n
    nv = nslots * m + 2 ** n - 1
    slot_iter = iter([[MultiPoly.variable(nv, s * m + i, 1)
                       for i in range(m)] for s in range(nslots)])
    scal_iter = iter([MultiPoly.variable(nv, nslots * m + k, 1)
                      for k in range(2 ** n - 1)])

    def build(level):
        if level == 0:
            return TreePoint.leaf(tuple(next(slot_iter)))
        lower = build(level - 1)
        direction = build(level - 1)
        return TreePoint(lower=lower, direction=direction, t=next(scal_iter))

    pt = build(n)
    ext = _as_poly(f).extend(nv)
    return ref_diff_eval(lambda vec: ext.subst({i: vec[i] for i in range(m)}),
                         pt, RefTreeContext)


def ref_phi_eval(f, pt):
    if any(is_zero_scalar(t) for t in pt.ts):
        if not f.is_polynomial():
            raise ZeroDenominator("opaque backing at t = 0")
        values = list(pt.x)
        for v in pt.vs:
            values.extend(v)
        values.extend(pt.ts)
        return ref_phi_symbolic(f, pt.level).eval_cached(values)
    return ref_diff_eval(f.eval_vec, pt, RefPhiContext)


def ref_upsilon_eval(f, pt):
    try:
        return ref_diff_eval(f.eval_vec, pt, RefTreeContext)
    except ZeroDenominator:
        if not f.is_polynomial():
            raise
    values = []
    for slot in pt.slots():
        values.extend(slot)
    values.extend(pt.scalars())
    return ref_upsilon_symbolic(f, pt.level).eval_cached(values)


def ref_wrap_lower(coord, ctx):
    def wrapped(pt):
        return coord(ctx.split(pt)[0])
    return wrapped


def ref_wrap_shift(coord, ctx):
    def wrapped(pt):
        lower, direction, t = ctx.split(pt)
        return coord(ctx.shift(lower, direction, t))
    return wrapped


def ref_increment(coord, ctx):
    def wrapped(pt):
        lower, direction, t = ctx.split(pt)
        return coord(ctx.shift(lower, direction, t)) - coord(lower)
    return wrapped


def ref_coordinate_quotient(coord, ctx):
    def wrapped(pt):
        lower, direction, t = ctx.split(pt)
        num = coord(ctx.shift(lower, direction, t)) - coord(lower)
        return scalar_div(num, t)
    return wrapped


def ref_step_factor(fac, op, ctx):
    if op == "pi":
        return ref_wrap_lower(fac, ctx)
    if op == "P":
        return ref_wrap_shift(fac, ctx)
    return ref_coordinate_quotient(fac, ctx)


def ref_chain_rhs_terms(f, u_polys, n, ctx):
    """(head polynomial, head coordinates, scalar factors) per term."""
    base = [lambda pt, _up=up: _up.eval_cached(list(ctx.base_vec(pt)))
            for up in u_polys]
    terms = [(f.backing, base, [])]
    for _ in range(n):
        new_terms = []
        for poly, coords, factors in terms:
            for j in range(len(coords)):
                new_coords = [ref_wrap_lower(c, ctx) if a <= j
                              else ref_wrap_shift(c, ctx)
                              for a, c in enumerate(coords)]
                new_coords.append(ref_increment(coords[j], ctx))
                new_terms.append(
                    (quotient_in_new_var(poly, j), new_coords,
                     [ref_coordinate_quotient(coords[j], ctx)] +
                     [ref_step_factor(g, "P", ctx) for g in factors]))
            for a in range(len(factors)):
                wrapped = [ref_step_factor(
                    g, "pi" if b < a else ("D" if b == a else "P"), ctx)
                    for b, g in enumerate(factors)]
                new_terms.append(
                    (poly, [ref_wrap_lower(c, ctx) for c in coords], wrapped))
        terms = new_terms
    return terms


def ref_term_value(poly, coords, factors, pt):
    term = poly.eval_cached([c(pt) for c in coords])
    for g in factors:
        term = term * g(pt)
    return term


def ref_leibniz_rhs(f, g, pt, ctx, detail):
    rhs = None
    for choices in product_rule_terms(2, pt.level):
        wf, wg = term_words(choices, 2)
        a = ref_apply_word(f.eval_vec, wf.letters, pt, ctx)
        b = ref_apply_word(g.eval_vec, wg.letters, pt, ctx)
        term = value_mul(a, b)
        detail.append((wf.pretty("f"), wg.pretty("g"), repr(term)))
        rhs = term if rhs is None else value_add(rhs, term)
    return rhs


def ref_leibniz_multi_rhs(fs, pt, ctx, detail):
    rhs = None
    for choices in product_rule_terms(len(fs), pt.level):
        words = term_words(choices, len(fs))
        vals = [ref_apply_word(f.eval_vec, w.letters, pt, ctx)
                for w, f in zip(words, fs)]
        term = vals[0]
        for v in vals[1:]:
            term = value_mul(term, v)
        detail.append(tuple(w.pretty(f"f{i + 1}")
                            for i, w in enumerate(words)) + (repr(term),))
        rhs = term if rhs is None else value_add(rhs, term)
    return rhs


def outcome(thunk):
    """A value, or the type of the exception raised instead."""
    try:
        return ("value", thunk())
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raised", type(exc))


DIFF_FIELDS = [padic(2), padic(3), padic(5), laurent(2)]
DIFF_N = 12


@st.composite
def field_scalars(draw, desc):
    """Exact zeros, apparent zeros, units and small nonunits."""
    kind = draw(st.sampled_from(["zero", "apparent"] + ["int"] * 4))
    if kind == "zero":
        return LocalFieldElement.zero(desc)
    if kind == "apparent":
        return LocalFieldElement.apparent_zero(desc, draw(st.integers(1, 8)))
    if desc.family == "padic":
        return LocalFieldElement.from_int(desc, draw(st.integers(-7, 7)),
                                          DIFF_N)
    val = draw(st.integers(0, 2))
    q = desc.residue_size
    digits = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
    return LocalFieldElement.from_laurent_coeffs(desc, val, digits, DIFF_N)


@st.composite
def field_polys(draw, desc, nvars):
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = draw(st.dictionaries(exps, field_scalars(desc), max_size=3))
    return MultiPoly(nvars, terms)


@st.composite
def field_fns(draw, desc, arity, vector_ok=True):
    if vector_ok and draw(st.booleans()) and draw(st.booleans()):
        return FnRepr(arity, [draw(field_polys(desc, arity))
                              for _ in range(2)], codim=2)
    return FnRepr.poly(draw(field_polys(desc, arity)))


@st.composite
def field_trees(draw, desc, level, dim):
    if level == 0:
        return TreePoint.leaf(tuple(draw(field_scalars(desc))
                                    for _ in range(dim)))
    return TreePoint(lower=draw(field_trees(desc, level - 1, dim)),
                     direction=draw(field_trees(desc, level - 1, dim)),
                     t=draw(field_scalars(desc)))


@st.composite
def field_points(draw, desc, n, dim, flavor):
    """Flat points, or tree points either drawn freely or embedded."""
    def vec():
        return tuple(draw(field_scalars(desc)) for _ in range(dim))
    if flavor == "upsilon" and draw(st.booleans()):
        return draw(field_trees(desc, n, dim))
    flat = PhiPoint(vec(), tuple(vec() for _ in range(n)),
                    tuple(draw(field_scalars(desc)) for _ in range(n)))
    return flat if flavor == "phi" else embed_phi_point(flat)


def _diff_case(data, symbolic=False):
    """Field, level, dimension, flavor, point and context of one example.
    The symbolic tree quotient at n = 3 has 2^3 * m + 7 variables, and at
    m = 2 one build takes minutes, so examples that may reach it keep m = 1
    there."""
    desc = data.draw(st.sampled_from(DIFF_FIELDS))
    n = data.draw(st.integers(1, 3))
    flavor = data.draw(st.sampled_from(["phi", "upsilon"]))
    dim = 1 if symbolic and flavor == "upsilon" and n == 3 \
        else data.draw(st.integers(1, 2))
    pt = data.draw(field_points(desc, n, dim, flavor))
    ctx = RefTreeContext if flavor == "upsilon" else RefPhiContext
    return desc, n, dim, flavor, pt, ctx


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_words_and_quotients_match_reference(data):
    desc, n, dim, flavor, pt, ctx = _diff_case(data, symbolic=True)
    f = data.draw(field_fns(desc, dim))
    letters = tuple(data.draw(st.lists(st.sampled_from(["D", "pi", "P"]),
                                       min_size=n, max_size=n)))
    assert outcome(lambda: OperatorWord(letters).apply(f.eval_vec, pt)) \
        == outcome(lambda: ref_apply_word(f.eval_vec, letters, pt, ctx))
    assert outcome(lambda: diff_eval(f.eval_vec, pt)) \
        == outcome(lambda: ref_diff_eval(f.eval_vec, pt, ctx))
    if flavor == "phi":
        new, ref = (lambda: phi_eval(f, pt)), (lambda: ref_phi_eval(f, pt))
    else:
        new = lambda: upsilon_eval(f, pt)  # noqa: E731
        ref = lambda: ref_upsilon_eval(f, pt)  # noqa: E731
    got = outcome(new)
    event(f"{flavor} quotient: {got[0]} {getattr(got[1], '__name__', '')}")
    assert got == outcome(ref)
    # a second call answers from the cached symbolic quotient
    assert outcome(new) == outcome(ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_rules_match_reference(data):
    desc, n, dim, flavor, pt, ctx = _diff_case(data)
    f = data.draw(field_fns(desc, dim))
    g = data.draw(field_fns(desc, dim, vector_ok=f.codim == 1))

    def ref_two():
        detail = []
        lhs = ref_diff_eval(f.product(g).eval_vec, pt, ctx)
        rhs = (ref_leibniz_rhs(f, g, pt, ctx, detail) if flavor == "upsilon"
               else phi_leibniz_subset_sum(f, g, pt, detail))
        return lhs, rhs, detail

    def new_two():
        rep = leibniz_check(f, g, pt, flavor, collect_terms=True)
        return rep.lhs, rep.rhs, rep.detail

    got = outcome(new_two)
    event(f"{flavor} leibniz: {got[0]} {getattr(got[1], '__name__', '')}")
    assert got == outcome(ref_two)
    fs = [f] + [data.draw(field_fns(desc, dim, vector_ok=False))
                for _ in range(data.draw(st.integers(0, 2)))]

    def ref_multi():
        detail = []
        prod = fs[0]
        for h in fs[1:]:
            prod = prod.product(h)
        lhs = ref_diff_eval(prod.eval_vec, pt, ctx)
        return lhs, ref_leibniz_multi_rhs(fs, pt, ctx, detail), detail

    def new_multi():
        rep = leibniz_multi_check(fs, pt, flavor, collect_terms=True)
        return rep.lhs, rep.rhs, rep.detail

    assert outcome(new_multi) == outcome(ref_multi)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_rule_matches_reference(data):
    desc, n, dim, flavor, pt, ctx = _diff_case(data)
    c = data.draw(st.integers(1, 2))
    f = FnRepr.poly(data.draw(field_polys(desc, c)))
    u = [data.draw(field_polys(desc, dim)) for _ in range(c)]

    def ref_chain():
        lhs = ref_diff_eval(
            lambda vec: f.eval_vec(tuple(up.eval_cached(list(vec))
                                         for up in u)), pt, ctx)
        rhs = None
        for term in ref_chain_rhs_terms(f, u, n, ctx):
            value = ref_term_value(*term, pt)
            rhs = value if rhs is None else rhs + value
        return lhs, rhs

    def new_chain():
        rep = chain_check(f, u, pt, flavor)
        return rep.lhs, rep.rhs

    got = outcome(new_chain)
    event(f"{flavor} chain: {got[0]} {getattr(got[1], '__name__', '')}")
    assert got == outcome(ref_chain)
    tree = pt if flavor == "upsilon" else embed_phi_point(pt)
    new_terms = [outcome(lambda: ref_term_value(h.poly, h.coords, fac, tree))
                 for h, fac in chain_rhs_terms(f, u, n)]
    ref_terms = [outcome(lambda: ref_term_value(*term, pt))
                 for term in ref_chain_rhs_terms(f, u, n, ctx)]
    assert new_terms == ref_terms
