"""Unit-ball groups, eta levels, tower lifts, and the additive obstruction."""

from __future__ import annotations

import itertools
from math import prod

import pytest

from localfields.fields import LocalFieldElement, ResidueRing, laurent
from localfields.oneparam import (DegenerateSample, Incompatible, Infeasible,
                                  LocalSubgroupLevel, additive_obstruction,
                                  ball_group, compose_univariate,
                                  condition_i_check, eta_anchor,
                                  eta_construct, iterate_map, lift_check,
                                  shift_family_check)
from localfields.poly import MultiPoly
from localfields.tower import DiffRepr, Domain, LevelPermutation, level_project

L2 = laurent(2)
L3 = laurent(3)


def poly_map(desc, terms_dict, N=20, name=""):
    return DiffRepr.from_poly(desc, MultiPoly(1, terms_dict), None, 1, name)


def mono(desc, N=20):
    one = LocalFieldElement.one(desc, N)
    theta = desc.uniformizer(N)
    return one, theta


class TestBallGroup:
    def test_order_two(self):
        G = ball_group(1, 2, 2)
        assert G.order == 2
        assert sorted(G.elements()) == [(0,), (1,)]

    def test_inverses(self):
        for G in (ball_group(1, 3, 2), ball_group(1, 3, 3),
                  ball_group(2, 4, 2)):
            for a in G.elements():
                assert G.mul(a, G.inverse(a)) == G.identity()

    def test_order_nine_exponent(self):
        G = ball_group(1, 3, 3)
        assert G.order == 9
        assert G.exponent() == 3  # elementary abelian here

    def test_extension_degree(self):
        G = ball_group(1, 2, 2, u=2)
        assert G.order == 4

    def test_field_roundtrip(self):
        G = ball_group(1, 3, 2)
        for a in G.elements():
            assert G.from_field(G.to_field(a)) == a

    def test_closure_under_mul(self):
        G = ball_group(1, 3, 2)
        elems = set(G.elements())
        for a in elems:
            for b in elems:
                assert G.mul(a, b) in elems

    def test_power_and_projection(self):
        G = ball_group(1, 4, 3)
        H = ball_group(1, 2, 3)
        x0 = (1, 0, 0)
        assert G.power(x0, G.element_order(x0)) == G.identity()
        assert G.power(x0, 2) == G.mul(x0, x0)
        assert G.project_to(x0, H) == (1,)
        # projection is a homomorphism
        for a in list(G.elements())[:9]:
            for b in list(G.elements())[:9]:
                assert G.project_to(G.mul(a, b), H) == \
                    H.mul(G.project_to(a, H), G.project_to(b, H))

    def test_field_norm_condition(self):
        # |x1 x2 - 1| <= max(|x1 - 1|, |x2 - 1|) on ball elements
        G = ball_group(1, 3, 3)
        one = LocalFieldElement.one(G.desc, 8)
        for a in G.elements():
            for b in list(G.elements())[:9]:
                xa, xb = G.to_field(a, 8), G.to_field(b, 8)
                lhs = (xa * xb - one).norm()
                rhs = max((xa - one).norm(), (xb - one).norm())
                assert lhs <= rhs


class TestEta:
    def test_identity_sigma_always_feasible(self):
        G = ball_group(1, 2, 2)
        sigma = LevelPermutation.identity(2, (0, 1, 2, 3))
        level = eta_construct(sigma, (1,), G)
        assert level.verify_conditions()["ok"]
        assert all(p.is_identity() for p in level.table.values())

    def test_order_two_example(self):
        G = ball_group(1, 2, 2)
        sigma = LevelPermutation(2, (0, 1, 2, 3), (2, 3, 0, 1))
        level = eta_construct(sigma, (1,), G)
        checks = level.verify_conditions()
        assert checks["ok"]
        assert level.table[(1,)].images == sigma.images
        assert level.table[(0,)].is_identity()

    def test_three_cycle_in_two_group_infeasible(self):
        G = ball_group(1, 2, 2)
        sigma = LevelPermutation(1, (0, 1, 2, 3, 4), (1, 2, 0, 3, 4))
        with pytest.raises(Infeasible):
            eta_construct(sigma, (1,), G)

    def test_no_complement_reported(self):
        G = ball_group(1, 3, 2)  # cyclic of order 4
        assert G.element_order((0, 1)) == 2
        sigma = LevelPermutation(1, (0, 1, 2, 3), (1, 0, 3, 2))
        with pytest.raises(Infeasible):
            eta_construct(sigma, (0, 1), G)

    def test_extension_field_eta(self):
        # GF(4) coefficients: the width-1 ball group is elementary abelian
        G = ball_group(1, 2, 2, u=2)
        assert G.order == 4 and G.exponent() == 2
        sigma = LevelPermutation(1, (0, 1, 2, 3), (1, 0, 3, 2))
        level = eta_construct(sigma, (1,), G)
        assert level.verify_conditions()["ok"]

    def test_homomorphism_exhaustive_order_27(self):
        G = ball_group(1, 4, 3)
        assert G.order == 27
        x0 = (1, 0, 0)
        assert G.element_order(x0) == 9
        size = 11
        elements = tuple(range(size))
        images = list(elements)
        for i in range(9):
            images[i] = (i + 1) % 9
        sigma = LevelPermutation(1, elements, tuple(images))
        level = eta_construct(sigma, x0, G)
        assert level.verify_conditions()["ok"]


def eta_exists(G, x0, d):
    """Basis-free oracle: eta with eta(x0) = sigma of order d exists iff d
    divides ord(x0) and x0 has order exactly d modulo G^d = {g^d}."""
    ord_x0 = G.element_order(x0)
    if ord_x0 % d:
        return False
    dth_powers = {G.power(g, d) for g in G.elements()}
    return all(a % d == 0 for a in range(ord_x0)
               if G.power(x0, a) in dth_powers)


def small_ball_groups():
    """Every ball group of order <= 16 with s <= 4 over F_2, F_3, F_5, F_4,
    F_9, F_8 and F_16."""
    for p, u in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4)):
        for s in range(1, 5):
            for s_v in itertools.count(s + 1):
                if (p ** u) ** (s_v - s) > 16:
                    break
                yield ball_group(s, s_v, p, u)


class TestEtaOracle:
    def _agrees(self, G, x0, d):
        sigma = eta_anchor(G, d)[0]
        assert sigma.order() == d
        if not eta_exists(G, x0, d):
            with pytest.raises(Infeasible):
                eta_construct(sigma, x0, G)
            return False
        level = eta_construct(sigma, x0, G)
        assert level.verify_conditions()["ok"]
        return True

    def test_every_anchor_of_small_groups(self):
        # 48 groups; every x0, every p-power d dividing the exponent and the
        # non-p-power d = p + 1: 1,300 cases, 795 of them feasible
        cases = feasible = 0
        for G in small_ball_groups():
            assert prod(order for _, order in G.basis()) == G.order
            e = G.exponent()
            assert e == max(map(G.element_order, G.elements()))
            ds = [G.p ** m for m in range(e.bit_length())
                  if e % G.p ** m == 0] + [G.p + 1]
            for x0 in G.elements():
                for d in ds:
                    cases += 1
                    feasible += self._agrees(G, x0, d)
        assert (cases, feasible) == (1300, 795)

    @pytest.mark.parametrize("s, s_v, p", [(1, 3, 5), (1, 4, 3), (1, 6, 2)],
                             ids=["order-25", "order-27", "order-32"])
    def test_every_anchor_at_d_equal_p(self, s, s_v, p):
        G = ball_group(s, s_v, p)
        assert prod(order for _, order in G.basis()) == G.order
        for x0 in G.elements():
            self._agrees(G, x0, p)


def ref_verify_conditions(level):
    """The homomorphism law checked on every pair of elements."""
    G, t = level.group, level.table
    cond1 = t[G.identity()].is_identity()
    cond2 = all(t[G.mul(a, b)].images == t[a].compose(t[b]).images
                for a in G.elements() for b in G.elements())
    cond3 = t[level.anchor].images == level.sigma.images
    return {"unit_maps_to_id": cond1, "homomorphism": cond2,
            "anchor_hits_sigma": cond3, "ok": cond1 and cond2 and cond3}


def corrupted_levels(level):
    """The level itself, then each pair of table entries swapped and each
    entry replaced by the anchor's image under eta."""
    yield level
    keys = list(level.table)
    for i, j in itertools.combinations(range(len(keys)), 2):
        table = dict(level.table)
        table[keys[i]], table[keys[j]] = table[keys[j]], table[keys[i]]
        yield LocalSubgroupLevel(level.q_v, level.group, table, level.anchor,
                                 level.sigma)
    for k in keys:
        yield LocalSubgroupLevel(level.q_v, level.group,
                                 {**level.table, k: level.sigma}, level.anchor,
                                 level.sigma)


class TestVerifyConditions:
    def test_generators_agree_with_every_pair(self):
        # eta with d = p at the anchor (1, 0, ..) of each of the 48 small
        # groups, intact and corrupted: 2,504 tables, 1,402 of them not
        # homomorphisms
        cases = broken = 0
        for G in small_ball_groups():
            level = eta_construct(*eta_anchor(G, G.p), G)
            for lv in corrupted_levels(level):
                got = lv.verify_conditions()
                assert got == ref_verify_conditions(lv)
                cases += 1
                broken += not got["homomorphism"]
        assert (cases, broken) == (2504, 1402)


class TestLift:
    def _levels_for(self, g, x0f, svs, p=2):
        out = []
        for s_v in svs:
            G = ball_group(1, s_v, p)
            sigma = level_project(g, s_v)
            out.append(eta_construct(sigma, G.from_field(x0f), G))
        return out

    def test_identity_towers_compatible(self):
        one, theta = mono(L2)
        gid = poly_map(L2, {(1,): one})
        x0f = one + theta
        levels = self._levels_for(gid, x0f, (2, 3))
        assert lift_check(levels, L2)["compatible"]

    def test_shift_tower(self):
        one, theta = mono(L2)
        g = poly_map(L2, {(1,): one, (0,): theta}, name="x+theta")
        levels = self._levels_for(g, one + theta, (2, 3))
        rep = lift_check(levels, L2)
        assert rep["compatible"] and rep["levels"] == [2, 3]

    def test_corrupted_level_detected(self):
        one, theta = mono(L2)
        g = poly_map(L2, {(1,): one, (0,): theta})
        levels = self._levels_for(g, one + theta, (2, 3))
        hi = levels[1]
        bad_table = dict(hi.table)
        a, b = list(bad_table)[:2]
        bad_table[a], bad_table[b] = bad_table[b], bad_table[a]
        levels[1] = LocalSubgroupLevel(hi.q_v, hi.group, bad_table,
                                       hi.anchor, hi.sigma)
        with pytest.raises(Incompatible):
            lift_check(levels, L2)


class TestObstruction:
    def test_identity_is_vacuous(self):
        one, _ = mono(L2)
        rep = additive_obstruction(poly_map(L2, {(1,): one}), 20)
        assert rep["g_p_is_identity"]

    def test_char2_hand_algebra(self):
        one, theta = mono(L2)
        g = MultiPoly(1, {(1,): one, (2,): theta})
        gp = iterate_map(g, 2, 64)
        # g o g = x + theta^3 x^4 in characteristic 2
        live = {e[0]: c.valuation for e, c in gp.terms.items()
                if not c.is_zero()}
        assert live == {1: 0, 4: 3}

    def test_char3_at_truncation(self):
        one, theta = mono(L3, 16)
        g = poly_map(L3, {(1,): one, (2,): theta}, N=16)
        rep = additive_obstruction(g, 16)
        assert not rep["g_p_is_identity"]
        assert rep["bound_holds"]

    def test_monomial_family(self):
        for p, desc in ((2, L2), (3, L3)):
            one, theta = mono(desc)
            for l in (2, 3, 4):
                g = poly_map(desc, {(1,): one, (l,): theta})
                rep = additive_obstruction(g, 20)
                assert not rep["g_p_is_identity"], (p, l)
                assert rep["bound_holds"], (p, l)

    def test_compose_univariate_truncates(self):
        one, _ = mono(L2)
        big = MultiPoly(1, {(1,): one, (40,): one})
        out = compose_univariate(big, big, 50)
        assert out.degree_in(0) <= 50

    def test_shift_family_positive_control(self):
        one, theta = mono(L3, 16)
        ring = ResidueRing(L3, 2)
        samples = [ring.lift(c, 16) for c in list(ring.elements())[:5]]
        ys = [one, theta, one + theta]
        assert shift_family_check(L3, theta, ys, samples)


class TestConditionI:
    @staticmethod
    def _samples(desc, count=8, N=20):
        ring = ResidueRing(desc, 3)
        return [ring.lift(c, N) for c in list(ring.elements())[:count]]

    def test_generic_map_holds_char2(self):
        one, theta = mono(L2)
        g = poly_map(L2, {(1,): one, (2,): theta})
        rep = condition_i_check(g, self._samples(L2))
        assert rep["holds"] and rep["rank"] == 1

    def test_identity_fails(self):
        one, _ = mono(L2)
        rep = condition_i_check(poly_map(L2, {(1,): one}), self._samples(L2))
        assert rep["rank"] == 0 and not rep["holds"]

    def test_constant_shift_fails(self):
        one, theta = mono(L2)
        g = poly_map(L2, {(1,): one, (0,): theta})
        rep = condition_i_check(g, self._samples(L2))
        assert not rep["holds"]

    def test_char3_rank_two(self):
        one, theta = mono(L3, 24)
        g = poly_map(L3, {(1,): one, (2,): theta}, N=24)
        rep = condition_i_check(g, self._samples(L3, 10, 24))
        assert rep["required"] == 2
        assert rep["holds"]

    def test_degenerate_sample(self):
        one, theta = mono(L3)
        g = poly_map(L3, {(1,): one, (2,): theta})
        with pytest.raises(DegenerateSample):
            condition_i_check(g, self._samples(L3, 1))
