"""Multiplicative local one-parameter structure over positive-characteristic
fields at finite levels: the unit-ball groups 1 + theta^s(...), level
homomorphisms eta with anchor conditions, tower compatibility of the etas,
and the additive obstruction (p-th powers of generic near-identity maps do
not return to the identity when char K = p).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .calculus import FnRepr, cnb_norm, default_sampler
from .fields import (DEFAULT_PRECISION, FieldDescriptor, LocalFieldElement,
                     ResidueRing, laurent)
from .linalg import ultrametric_rank
from .poly import MultiPoly
from .tower import DiffRepr, LevelPermutation, check_square
from .tower import Incompatible as SquareFails


class OneParamError(Exception):
    pass


class Infeasible(OneParamError):
    pass


class Incompatible(OneParamError):
    pass


class DegenerateSample(OneParamError):
    pass


# the groups are enumerated element by element, one permutation per element
# (CPython 3.11, 2-vCPU host: eta takes 0.06 s at order 512; lift takes 0.3 s
# at --levels 9 and 1.5 s at --levels 10, most of it verify_conditions
# composing 2,560 permutations of the 1,024 level points); the largest group
# any suite builds has order 81
MAX_GROUP_ORDER = 512


# ---------------------------------------------------------------------------
# the multiplicative unit-ball groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicativeBallGroup:
    """pi_{s_v} of the multiplicative ball 1 + theta^s O in F_{p^u}((theta)).

    Elements are tuples of s_v - s GF codes: (c_0, ..., c_{w-1}) stands for
    1 + theta^s (c_0 + c_1 theta + ...).  The group is a finite abelian
    p-group of order p^(u*(s_v-s)).
    """

    p: int
    u: int
    s: int
    s_v: int

    def __post_init__(self):
        if not 1 <= self.s < self.s_v:
            raise OneParamError("need s_v > s >= 1")
        # the order is at least 2^(u * width): past the cap's bit length it
        # is over the cap without being computed
        if self.u * self.width >= MAX_GROUP_ORDER.bit_length() \
                or self.order > MAX_GROUP_ORDER:
            raise OneParamError(
                f"group order (p^u)^(s_v - s) exceeds the cap "
                f"{MAX_GROUP_ORDER}")

    @property
    def desc(self) -> FieldDescriptor:
        return laurent(self.p, self.u)

    @property
    def width(self) -> int:
        return self.s_v - self.s

    @property
    def order(self) -> int:
        return (self.p ** self.u) ** self.width

    def identity(self):
        return (0,) * self.width

    def elements(self):
        G = self.desc.gf()
        return itertools.product(range(G.q), repeat=self.width)

    def mul(self, a, b):
        """(1 + A)(1 + B) = 1 + A + B + AB mod theta^{s_v}; AB contributes
        at theta^(2s + i + j), i.e. slot s + i + j."""
        G = self.desc.gf()
        return G.series_mul(a, b, [G.add(x, y) for x, y in zip(a, b)], self.s)

    def inverse(self, a):
        # |G| is a p-power, so a^(order-1) inverts a
        return self.power(a, self.order - 1)

    def power(self, a, e: int):
        acc = self.identity()
        cur = a
        e %= self.order
        while e:
            if e & 1:
                acc = self.mul(acc, cur)
            cur = self.mul(cur, cur)
            e >>= 1
        return acc

    def element_order(self, a) -> int:
        o, cur = 1, a
        while cur != self.identity():
            cur = self.mul(cur, a)
            o += 1
        return o

    def basis(self):
        """[(generator, order)], G the direct sum of their cyclic groups.

        In char p, (1 - b theta^e)^(p^k) = 1 - b^(p^k) theta^(e p^k): with b
        over the F_p-basis p^0..p^(u-1) of GF(q) and e in [s, s_v) prime to p
        or with e/p < s, leading terms of powers fill each theta^j once per b
        (Neukirch, ANT II §5); the order is the least p^m with e p^m >= s_v.
        """
        F = self.desc.gf()
        out = []
        for e in range(self.s, self.s_v):
            if e % self.p or e // self.p < self.s:
                order = 1
                while e * order < self.s_v:
                    order *= self.p
                for i in range(self.u):
                    g = [0] * self.width
                    g[e - self.s] = F.neg(self.p ** i)
                    out.append((tuple(g), order))
        return out

    def coordinates(self) -> dict:
        """{g: (c_1, c_2, ..)} with g = prod g_i^(c_i) over `basis()`."""
        coords = {self.identity(): ()}
        for g, order in self.basis():
            pows = [self.identity()]
            for _ in range(order - 1):
                pows.append(self.mul(pows[-1], g))
            coords = {self.mul(h, gc): c + (k,)
                      for h, c in coords.items() for k, gc in enumerate(pows)}
        if len(coords) != self.order:
            raise OneParamError("the basis products miss elements")
        return coords

    def exponent(self) -> int:
        return max(order for _, order in self.basis())

    def to_field(self, a, precision: int | None = None) -> LocalFieldElement:
        precision = precision or max(self.s_v, DEFAULT_PRECISION)
        coeffs = [0] * self.s + list(a)
        coeffs[0] = 1
        return LocalFieldElement.from_laurent_coeffs(self.desc, 0, coeffs,
                                                     precision)

    def from_field(self, x: LocalFieldElement):
        if x.valuation != 0:
            raise OneParamError("ball group elements are units")
        code = x.project(self.s_v)
        if code[0] != 1 or any(code[1:self.s]):
            raise OneParamError("element is not in 1 + theta^s O")
        return tuple(code[self.s:])

    def project_to(self, a, coarser: "MultiplicativeBallGroup"):
        if coarser.s != self.s or coarser.s_v > self.s_v:
            raise OneParamError("projection needs the same s and a smaller s_v")
        return tuple(a[: coarser.width])


def ball_group(s: int, s_v: int, p: int, u: int = 1) -> MultiplicativeBallGroup:
    return MultiplicativeBallGroup(p, u, s, s_v)


# ---------------------------------------------------------------------------
# level homomorphisms
# ---------------------------------------------------------------------------

@dataclass
class LocalSubgroupLevel:
    """eta: ball group -> permutations of the level-q_v residues, with
    eta(anchor) equal to the level image of the underlying map."""

    q_v: int
    group: MultiplicativeBallGroup
    table: dict
    anchor: tuple
    sigma: LevelPermutation

    def verify_conditions(self) -> dict:
        """The homomorphism law is checked on the generators of
        `G.basis()` only: if eta(g b) = eta(g) eta(b) for every generator g
        and every b, eta is a homomorphism.  The generators span G as a
        monoid (`coordinates()` checks it), so a = g_1 ... g_m, and
        induction on m gives eta(a b) = eta(g_1) ... eta(g_m) eta(b) =
        eta(a) eta(b); b = 1 forces eta(1) = id.  That is r |G|
        compositions for r generators instead of |G|^2, exact for any
        table."""
        G, t = self.group, self.table
        cond1 = t[G.identity()].is_identity()
        cond2 = all(t[G.mul(g, b)].images == t[g].compose(t[b]).images
                    for g, _ in G.basis() for b in G.elements())
        cond3 = t[self.anchor].images == self.sigma.images
        return {"unit_maps_to_id": cond1, "homomorphism": cond2,
                "anchor_hits_sigma": cond3,
                "ok": cond1 and cond2 and cond3}


def eta_anchor(G: MultiplicativeBallGroup, cycle: int):
    """The fixture (sigma, x0) for `eta_construct`: sigma is the cycle
    (0 1 .. cycle-1) on max(cycle + 2, 6) level-1 points, x0 = (1, 0, ..)."""
    if cycle < 1:
        raise ValueError(f"anchor cycle length {cycle} must be at least 1")
    elements = tuple(range(max(cycle + 2, 6)))
    images = tuple((i + 1) % cycle if i < cycle else i for i in elements)
    return (LevelPermutation(1, elements, images),
            (1,) + (0,) * (G.width - 1))


def eta_construct(sigma: LevelPermutation, x0,
                  G: MultiplicativeBallGroup) -> LocalSubgroupLevel:
    """eta = sigma^phi for a character phi: G -> Z/d, d = order(sigma),
    with phi(x0) = 1.  In the coordinates of `G.basis()`, x0 = sum a_i g_i;
    such a phi exists exactly when d = 1 or some a_k prime to p sits on a
    generator of order >= d, and then phi(g) = c_k(g) / a_k mod d for the
    first such k.  Infeasible reports the honest obstruction: order
    divisibility, or no character sending x0 to a generator of Z/d.
    """
    d = sigma.order()
    ord_x0 = G.element_order(x0)
    if ord_x0 % d != 0:
        raise Infeasible(
            f"order(sigma) = {d} does not divide order(x0) = {ord_x0}")
    coords = G.coordinates()
    a = coords[x0]
    k = next((i for i, (_, order) in enumerate(G.basis())
              if order >= d and a[i] % G.p), None)
    if k is None and d > 1:
        raise Infeasible(
            f"no homomorphism from the group of order {G.order} to <sigma> "
            f"sends x0 (order {ord_x0}) to sigma (order {d}); the level "
            f"cannot be split at this anchor")
    k = k or 0  # d = 1: every index gives phi = 0
    inv = pow(a[k], -1, d)
    sigma_pows = [LevelPermutation.identity(sigma.level, sigma.elements,
                                            sigma.basepoint)]
    for _ in range(d - 1):
        sigma_pows.append(sigma_pows[-1].compose(sigma))
    table = {g: sigma_pows[c[k] * inv % d] for g, c in coords.items()}
    level = LocalSubgroupLevel(sigma.level, G, table, x0, sigma)
    checks = level.verify_conditions()
    if not checks["ok"]:
        raise Infeasible(f"construction failed its own conditions: {checks}")
    return level


def lift_check(levels: list, desc: FieldDescriptor) -> dict:
    """Compatibility squares of consecutive eta levels: projecting
    eta_{v+1}(x) to the coarser permutation level equals eta_v of the
    projected group element, for every x."""
    for lo, hi in zip(levels, levels[1:]):
        if lo.group.s != hi.group.s:
            raise Incompatible("levels use different ball parameters s")
        for x in hi.group.elements():
            down_x = hi.group.project_to(x, lo.group)
            try:
                check_square(desc, hi.table[x], lo.table[down_x])
            except SquareFails:
                raise Incompatible(
                    f"square fails at group element {x}") from None
    return {"levels": [lv.q_v for lv in levels], "compatible": True}


# ---------------------------------------------------------------------------
# the additive obstruction
# ---------------------------------------------------------------------------

def compose_univariate(P: MultiPoly, Q: MultiPoly, degree_cap: int) -> MultiPoly:
    """P(Q(x)) for univariate polynomials, truncating x-degrees past the cap."""
    result = MultiPoly(1)
    # Horner from the top coefficient down
    top = P.degree_in(0)
    for d in range(top, -1, -1):
        result = result * Q
        result = MultiPoly(1, {e: c for e, c in result.terms.items()
                               if e[0] <= degree_cap})
        c = P.coefficient_of((d,))
        if not (c == 0):
            result = result + MultiPoly.constant(1, c)
    return result


def iterate_map(poly: MultiPoly, times: int, degree_cap: int) -> MultiPoly:
    acc = poly
    for _ in range(times - 1):
        acc = compose_univariate(acc, poly, degree_cap)
    return acc


def additive_obstruction(g: DiffRepr, precision: int = DEFAULT_PRECISION,
                         degree_cap: int = 64, samples: int = 100) -> dict:
    """For char-p fields: computes the p-fold composition of g symbolically
    and reports whether it is the identity; also verifies the contraction
    bound |g^p(x) - x| <= ||h||^2 |x| on sampled points, h = g - id."""
    desc = g.desc
    p = desc.char
    if p == 0:
        raise OneParamError("the additive obstruction lives in char p > 0")
    if not isinstance(g.backing, MultiPoly):
        raise OneParamError("need a polynomial-backed map")
    gp = iterate_map(g.backing, p, degree_cap)
    one = LocalFieldElement.one(desc, precision)
    ident = MultiPoly(1, {(1,): one})
    delta = gp - ident
    nonzero = [(e[0], c) for e, c in delta.terms.items()
               if not (isinstance(c, LocalFieldElement) and c.is_zero())]
    is_identity = not nonzero
    # h-norm via the sampled C^1 norm (attained for the monomial fixtures)
    h_poly = g.backing - ident
    h_fn = FnRepr(1, h_poly)
    sampler = default_sampler(desc, 1, span=2, precision=precision)
    h_norm = cnb_norm(h_fn, 1, sampler)
    bound_ok = True
    bound_records = []
    ring = ResidueRing(desc, 2)
    count = 0
    for code in ring.elements():
        if count >= samples:
            break
        x = ring.lift(code, precision)
        count += 1
        lhs = (gp.eval_cached([x]) - x)
        lhs_norm = Fraction(0) if lhs.is_zero() else lhs.norm()
        rhs = h_norm * h_norm * (Fraction(0) if x.is_exact_zero else x.norm())
        ok = lhs_norm <= rhs
        bound_ok = bound_ok and ok
        bound_records.append((str(code), str(lhs_norm), str(rhs), ok))
    witness = None
    if not is_identity:
        deg, c = min(nonzero)
        witness = {"degree": deg, "coefficient_valuation": c.valuation}
    return {
        "p": p,
        "g_p_is_identity": is_identity,
        "witness": witness,
        "h_norm": h_norm,
        "bound_holds": bound_ok,
        "samples": count,
    }


def shift_family_check(desc: FieldDescriptor, c: LocalFieldElement,
                       ys, samples) -> bool:
    """Positive control: the additive family x -> x + y c satisfies
    g^{y1} o g^{y2} = g^{y1+y2} exactly at truncation."""
    for y1 in ys:
        for y2 in ys:
            for x in samples:
                lhs = (x + y2 * c) + y1 * c
                rhs = x + (y1 + y2) * c
                if not lhs.same(rhs):
                    return False
    return True


# ---------------------------------------------------------------------------
# condition (i): linear independence of the twisted increments
# ---------------------------------------------------------------------------

def condition_i_check(g: DiffRepr, sample_points,
                      precision: int = DEFAULT_PRECISION) -> dict:
    """Evaluates w = h - h o g^{-1} (h = g - id) and its compositions with
    g^2, ..., g^{p-1} on the samples and reports whether the rank of the
    evaluation matrix is p - 1 (valuation-pivoted elimination)."""
    desc = g.desc
    p = desc.char
    if p == 0:
        raise OneParamError("condition (i) lives in char p > 0")
    if len(sample_points) < p - 1:
        raise DegenerateSample(
            f"need at least {p - 1} sample points, got {len(sample_points)}")
    ginv = g.inverse()

    def h(x):
        return g.evaluate(x) - x

    def w(x):
        return h(x) - h(ginv.evaluate(x))

    def g_pow(x, j):
        for _ in range(j):
            x = g.evaluate(x)
        return x

    exponents = [0] + list(range(2, p))
    rows = []
    for j in exponents:
        rows.append([w(g_pow(x, j)) for x in sample_points])
    rank = ultrametric_rank(rows)
    return {
        "p": p,
        "rank": rank,
        "required": p - 1,
        "holds": rank == p - 1,
        "rows": len(rows),
        "samples": len(sample_points),
    }
