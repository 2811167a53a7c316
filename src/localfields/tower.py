"""Projective decomposition of near-identity self-maps: finite-level
permutations of residue sets, functoriality along the tower, compatible
threads, the flat-polynomial witness separating the level topology from the
norm topology, ball-support decomposition, commutator decomposition of even
level permutations, and conjugation threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm

from .calculus import FnRepr, SamplerSpec, cnb_norm
from .fields import (DEFAULT_PRECISION, FieldDescriptor, LocalFieldElement,
                     PADIC, ResidueRing, _residue_ops, carmichael_exponent,
                     format_element, padic, project_down)
from .poly import MultiPoly

MAX_LEVEL_CLASSES = 10 ** 6  # largest residue ring a level enumerates


class TowerError(Exception):
    pass


class NotWellDefined(TowerError):
    pass


class NotBijective(TowerError):
    pass


class ConstraintViolated(TowerError):
    pass


class BallNotPreserved(TowerError):
    pass


class OddParity(TowerError):
    pass


class TooSmall(TowerError):
    pass


class Incompatible(TowerError):
    pass


class LevelTooLarge(TowerError):
    pass


# ---------------------------------------------------------------------------
# domains: finite unions of disjoint balls in K
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """The clopen ball center + pi^r * integers (radius p^-r)."""

    center_code: object  # residue code at level r (int or tuple)
    r: int

    def contains(self, x: LocalFieldElement, desc: FieldDescriptor) -> bool:
        if self.r == 0:
            return x.is_exact_zero or x.valuation >= 0
        if (not x.is_exact_zero and x.valuation < 0) or x.precision < self.r:
            return False
        return x.project(self.r) == self.center_code


@dataclass(frozen=True)
class Domain:
    desc: FieldDescriptor
    balls: tuple

    def __post_init__(self):
        # disjointness: distinct center codes at the finest common level
        for i, b in enumerate(self.balls):
            for c in self.balls[:i]:
                if _codes_overlap(self.desc, b, c):
                    raise ConstraintViolated(f"balls {b} and {c} overlap")

    @classmethod
    def unit_ball(cls, desc: FieldDescriptor) -> "Domain":
        code = 0 if desc.family == PADIC else ()
        return cls(desc, (Ball(code, 0),))

    @classmethod
    def units(cls, desc: FieldDescriptor) -> "Domain":
        """{x : |x| = 1}, a union of p-1 (resp. q-1) level-1 balls."""
        ring = ResidueRing(desc, 1)
        return cls(desc, tuple(Ball(a, 1) for a in ring.units()))

    def contains(self, x: LocalFieldElement) -> bool:
        return any(b.contains(x, self.desc) for b in self.balls)

    def max_radius_level(self) -> int:
        return max((b.r for b in self.balls), default=0)

    def residues(self, k: int):
        """Residue codes at level k covered by the domain (k >= all ball
        levels); enumeration is lexicographic on digit strings."""
        if k < self.max_radius_level():
            raise TowerError(
                f"level {k} is coarser than a ball of the domain")
        if self.desc.residue_cardinality(k) > MAX_LEVEL_CLASSES:
            raise LevelTooLarge(
                f"level {k} has {self.desc.residue_size}^{k} residue classes,"
                f" more than the {MAX_LEVEL_CLASSES} a level enumerates")
        return sorted((code for code in ResidueRing(self.desc, k).elements()
                       if any(b.r == 0 or project_down(self.desc, code, k, b.r)
                              == b.center_code for b in self.balls)),
                      key=_code_key)


def _code_key(code):
    return code if isinstance(code, tuple) else (code,)


def _codes_overlap(desc, b1: Ball, b2: Ball) -> bool:
    r = min(b1.r, b2.r)  # r = 0: one of them is the whole unit ball
    return r == 0 or (project_down(desc, b1.center_code, b1.r, r)
                      == project_down(desc, b2.center_code, b2.r, r))


# ---------------------------------------------------------------------------
# evaluable self-maps
# ---------------------------------------------------------------------------

UNCERTIFIED, INTEGRAL, ISOMETRY = range(3)  # DiffRepr.certificate, ordered


@dataclass
class DiffRepr:
    """Self-map of a clopen domain with a claimed near-identity bound.

    backing: univariate MultiPoly with field coefficients, a Mahler series,
    or an opaque callable on elements.  bound_s is the claimed s with
    ||g - id|| <= |pi|^s (metadata; the isometry regime needs s >= 1).
    certificate is read off a polynomial backing's coefficients, never off
    bound_s, and propagated by compose and inverse.
    """

    desc: FieldDescriptor
    backing: object
    domain: Domain = None
    bound_s: int | None = None
    name: str = ""
    certificate: int = field(init=False)

    def __post_init__(self):
        if self.domain is None:
            self.domain = Domain.unit_ball(self.desc)
        self.certificate = _certificate(self.desc, self.backing)

    def evaluate(self, x: LocalFieldElement) -> LocalFieldElement:
        b = self.backing
        if isinstance(b, MultiPoly):
            return _eval_at(b, x)
        if hasattr(b, "evaluate"):
            return b.evaluate(x)
        return b(x)

    def __call__(self, x):
        return self.evaluate(x)

    @classmethod
    def identity(cls, desc, domain=None):
        one = LocalFieldElement.one(desc)
        return cls(desc, MultiPoly(1, {(1,): one}), domain, None, "id")

    @classmethod
    def from_poly(cls, desc, poly: MultiPoly, domain=None, bound_s=None,
                  name=""):
        return cls(desc, poly, domain, bound_s, name)

    def compose(self, other: "DiffRepr") -> "DiffRepr":
        out = DiffRepr(self.desc,
                       lambda x, f=self, g=other: f.evaluate(g.evaluate(x)),
                       other.domain, None,
                       f"({self.name or 'f'} o {other.name or 'g'})")
        out.certificate = min(self.certificate, other.certificate)
        return out

    def inverse(self) -> "DiffRepr":
        """g^-1, solving g(x) = y from x = y.

        A polynomial backing is inverted by Newton's iteration, valid where
        g'(x) is a unit (`_newton_inverse`, which keeps its prepared
        representatives); Mahler and opaque backings, which have no
        derivative, by the fixed point x = y - h(x) with h = g - id, valid
        in the contraction regime ||g - id|| <= |pi|.  The inverse of an
        isometry of O is one; no weaker certificate survives inversion.
        """
        if isinstance(self.backing, MultiPoly):
            inv = _newton_inverse(self.backing)
        else:
            inv = partial(_fixed_point_solve, self)
        out = DiffRepr(self.desc, inv, self.domain, self.bound_s,
                       f"{self.name or 'g'}^-1")
        if self.certificate == ISOMETRY:
            out.certificate = ISOMETRY
        return out


def _certificate(desc: FieldDescriptor, backing) -> int:
    """INTEGRAL for a univariate polynomial over O, which is 1-Lipschitz on
    O; ISOMETRY when moreover g - x is in pi*O[x]; else UNCERTIFIED."""
    if not (isinstance(backing, MultiPoly) and backing.nvars == 1 and all(
            c.__class__ is LocalFieldElement and c.desc == desc
            and c.valuation >= 0 for c in backing.terms.values())):
        return UNCERTIFIED
    shift = backing - MultiPoly.variable(1, 0, LocalFieldElement.one(desc))
    near = all(c.valuation >= 1 for c in shift.terms.values())
    return ISOMETRY if near else INTEGRAL


def _eval_at(poly: MultiPoly, x: LocalFieldElement) -> LocalFieldElement:
    """poly(x); the zero polynomial (p*x over F_p((t)), or the derivative
    of a constant) is the field's exact zero, not eval_cached's int 0."""
    return poly.eval_cached([x]) if poly.terms else LocalFieldElement.zero(
        x.desc)


def _newton_inverse(g: MultiPoly):
    """y -> the x with g(x) = y.  Where a guard holds (README, "Precision
    model": metadata first, then Hensel's condition on representatives) the
    iteration runs on plain representatives mod pi^N, with g's and g''s
    prepared once per N, and builds one element at the end; elsewhere
    `_newton_solve` runs it on elements.  Both give the same element."""
    dg = MultiPoly(1, {(e - 1,): c * e for (e,), c in g.terms.items() if e})
    coeffs = [*g.terms.values(), *dg.terms.values()]
    desc, floor, prepared = None, 0, {}
    if coeffs and all(c.__class__ is LocalFieldElement and c.valuation >= 0
                      and c.desc is coeffs[0].desc for c in coeffs):
        desc, floor = coeffs[0].desc, min(c.precision for c in coeffs)

    def solve(y):
        if (y.__class__ is not LocalFieldElement or y.desc is not desc
                or y.is_exact_zero or y.valuation < 0
                or not 1 <= y.precision <= floor):
            return _newton_solve(g, dg, y)
        N = y.precision
        if N not in prepared:
            ops = _residue_ops(desc, N)
            zero = LocalFieldElement.zero(desc)
            prepared[N] = ops, *([ops[0](p.terms.get((e,), zero))
                                  for e in range(p.degree(), -1, -1)]
                                 for p in (g, dg))
        (rep, horner, mul, sub, inv, low), gs, dgs = prepared[N]
        x = target = rep(y)
        residual = sub(horner(gs, x), target)
        slope = horner(dgs, x)
        if not low(slope) or low(residual):
            return _newton_solve(g, dg, y)
        # Hensel: the root mod pi^N is unique, the loop cannot raise and
        # each step gains a digit, so g'(x)'s inverse is updated, not
        # recomputed
        v = inv(slope)
        while residual:
            x = sub(x, mul(residual, v))
            residual = sub(horner(gs, x), target)
            if residual:
                v = sub(v, mul(v, sub(mul(horner(dgs, x), v), 1)))
        return LocalFieldElement(desc, 0, x, N)

    return solve


def _newton_solve(g: MultiPoly, dg: MultiPoly, y: LocalFieldElement):
    """The x with g(x) = y by x <- x - (g(x) - y)/g'(x), where dg = g',
    on elements: `_newton_inverse` runs it outside its guard.

    While g'(x) is a unit and |g(x) - y| < 1 (as near the identity), the
    valuation of the residual g(x) - y at least doubles per step, so with
    N the precision of g(y) - y the iterate is stationary (same digits and
    precision) within bit_length(N) + 2 steps.  Reaching that step count,
    or a g'(x) that is not a unit, raises NotWellDefined.
    """
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


def _fixed_point_solve(g: DiffRepr, y: LocalFieldElement):
    """The x with g(x) = y by x <- y - (g(x) - x), precision + 2 steps."""
    iters = (int(y.precision) + 2
             if y.precision != float("inf") else DEFAULT_PRECISION)
    x = y
    for _ in range(iters):
        x = y - (g.evaluate(x) - x)
    return x


# ---------------------------------------------------------------------------
# level permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelPermutation:
    """A bijection of the level-k residue codes of a domain."""

    level: int
    elements: tuple
    images: tuple

    def __post_init__(self):
        if len(set(self.images)) != len(self.images) or \
                set(self.images) != set(self.elements):
            raise NotBijective(f"level-{self.level} table is not a bijection")

    @classmethod
    def identity(cls, level, elements):
        elements = tuple(elements)
        return cls(level, elements, elements)

    @classmethod
    def from_mapping(cls, level, mapping: dict):
        elements = tuple(sorted(mapping, key=_code_key))
        return cls(level, elements, tuple(mapping[e] for e in elements))

    def __call__(self, code):
        return self.images[self.elements.index(code)]

    def mapping(self) -> dict:
        return dict(zip(self.elements, self.images))

    def compose(self, other: "LevelPermutation") -> "LevelPermutation":
        """self after other (apply other first)."""
        if self.elements != other.elements:
            raise TowerError("permutations act on different sets")
        m = self.mapping()
        return _bijection(self.level, self.elements,
                          tuple(map(m.__getitem__, other.images)))

    def inverse(self) -> "LevelPermutation":
        inv = dict(zip(self.images, self.elements))
        return _bijection(self.level, self.elements,
                          tuple(map(inv.__getitem__, self.elements)))

    def is_identity(self) -> bool:
        return self.elements == self.images

    def cycles(self):
        step, seen, out = self.mapping(), set(), []
        for start in self.elements:
            if start in seen:
                continue
            cyc = [start]
            while step[cyc[-1]] != start:
                cyc.append(step[cyc[-1]])
            seen.update(cyc)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def one_line(self) -> str:
        """Serialization: enumeration header then images in that order."""
        head = " ".join(_code_str(e) for e in self.elements)
        body = " ".join(_code_str(i) for i in self.images)
        return f"# level={self.level} elements: {head}\n{body}"

    def cycle_notation(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(_code_str(x) for x in c) + ")"
                       for c in cyc)


def _bijection(level, elements, images) -> LevelPermutation:
    """A table that is a bijection by construction, with no re-check."""
    perm = object.__new__(LevelPermutation)
    perm.__dict__.update(level=level, elements=elements, images=images)
    return perm


def _code_str(code):
    return "".join(map(str, code)) if isinstance(code, tuple) else str(code)


def parse_one_line(text: str) -> LevelPermutation:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0]
    body = lines[1]
    level = int(head.split("level=")[1].split()[0])
    elems = head.split("elements:")[1].split()
    imgs = body.split()
    # padic codes only in the serialized form
    return LevelPermutation(level, tuple(map(int, elems)),
                            tuple(map(int, imgs)))


# ---------------------------------------------------------------------------
# level projection and functoriality
# ---------------------------------------------------------------------------

def level_project(g: DiffRepr, k: int,
                  precision: int = DEFAULT_PRECISION) -> LevelPermutation:
    """The permutation induced by g on the level-k residues of its domain.

    A certified g (`DiffRepr.certificate`) is 1-Lipschitz on O (an integral
    polynomial, a composite of such, or the inverse of an isometry), so
    g(x) mod pi^k depends on x mod pi^k alone: one representative per class,
    known mod pi^k, gives the table.  An uncertified g is sampled: two
    representatives per class at `precision` must land in one class.
    """
    desc = g.desc
    codes = g.domain.residues(k)
    ring = ResidueRing(desc, k)
    count = 2
    if g.certificate:
        count, precision = 1, min(precision, k)
    mapping = {}
    for code in codes:
        images = set()
        for x in ring.representatives(code, count, precision):
            y = g.evaluate(x)
            if y.precision < k:
                raise NotWellDefined(
                    f"image precision {y.precision} below level {k}")
            images.add(y.project(k))
        if len(images) > 1:
            raise NotWellDefined(
                f"class {code} maps to several level-{k} classes: "
                f"{sorted(images, key=_code_key)}")
        mapping[code] = images.pop()
    return LevelPermutation.from_mapping(k, mapping)  # bijectivity enforced


def functoriality_check(f: DiffRepr, g: DiffRepr, k: int,
                        precision: int = DEFAULT_PRECISION) -> dict:
    """Level tables obey (f o g)_k = f_k o g_k and (g^-1)_k = (g_k)^-1."""
    fk = level_project(f, k, precision=precision)
    gk = level_project(g, k, precision=precision)
    fg_k = level_project(f.compose(g), k, precision=precision)
    composed = fk.compose(gk)
    ginv_k = level_project(g.inverse(), k, precision=precision)
    return {
        "level": k,
        "composition_ok": fg_k.images == composed.images,
        "inverse_ok": ginv_k.images == gk.inverse().images,
        "f_k": fk,
        "g_k": gk,
        "fg_k": fg_k,
    }


# ---------------------------------------------------------------------------
# the incomparability witness
# ---------------------------------------------------------------------------

def witness_flat_polynomial(p: int, k: int, coeff_spec=None,
                            precision: int = DEFAULT_PRECISION):
    """A map f != id on the units of Z_p whose level-k table is the identity.

    f = x + sum_i a_i x^(E * l_i) with E the exponent of the unit group
    (Z/p^k)^*, sum_i a_i = 0 and every |a_i| <= 1/p.  On units x^(E*l) is
    1 mod p^k, so the perturbation dies at level k while the map stays a
    genuine displacement at higher precision.

    coeff_spec: list of (a_i, l_i) with integer a_i; defaults to
    [(p, 1), (-p, 2)].
    """
    desc = padic(p)
    E = carmichael_exponent(p, k)
    if coeff_spec is None:
        coeff_spec = [(p, 1), (-p, 2)]
    if not coeff_spec or all(a == 0 for a, _ in coeff_spec):
        raise ConstraintViolated("degenerate witness: all coefficients zero")
    if sum(a for a, _ in coeff_spec) != 0:
        raise ConstraintViolated("coefficients must sum to zero")
    for a, l in coeff_spec:
        if a % p != 0:
            raise ConstraintViolated(f"|{a}| > 1/{p}: not a flat perturbation")
        if l < 1:
            raise ConstraintViolated("exponent multipliers must be >= 1")
    one = LocalFieldElement.one(desc, precision)
    terms = {(1,): one}
    for a, l in coeff_spec:
        e = (E * l,)
        coeff = LocalFieldElement.from_int(desc, a, precision)
        terms[e] = terms[e] + coeff if e in terms else coeff
    f = DiffRepr.from_poly(desc, MultiPoly(1, terms), Domain.units(desc), 1,
                           f"flat-witness(p={p},k={k})")
    # the search level's classes are listed first, so that a level too
    # large to enumerate is rejected before the level-k table is built
    search = min(k + 3, precision - 1)
    codes = f.domain.residues(search)
    # level-k identity check over the units; f is certified (an isometry)
    table = level_project(f, k, precision=precision)
    identity_ok = table.is_identity()
    # a point where f visibly moves: search unit lifts at higher precision
    witness_point = None
    for code in codes:
        x = ResidueRing(desc, search).lift(code, precision)
        d = f.evaluate(x) - x
        if not d.is_zero() and d.valuation < precision - 1:
            witness_point = (code, d.valuation)
            break
    record = {
        "p": p,
        "level": k,
        "unit_group_exponent": E,
        "identity_at_level": identity_ok,
        "witness_point": witness_point,
        "checked_classes": len(table.elements),
    }
    if not identity_ok:
        raise ConstraintViolated(f"level-{k} table is not the identity: "
                                 f"{record}")
    if witness_point is None:
        raise ConstraintViolated("perturbation is invisible at the working "
                                 "precision; degenerate witness")
    return f, record


# ---------------------------------------------------------------------------
# the left-invariant metric
# ---------------------------------------------------------------------------

def group_metric(f: DiffRepr, g: DiffRepr, order: int = 1,
                 precision: int = DEFAULT_PRECISION) -> Fraction:
    """rho(f, g) = sampled norm of id - f^-1 o g (left invariant by
    construction).  A lower bound of the true metric."""
    finv = f.inverse()

    def phi(vec):
        x = vec[0]
        return x - finv.evaluate(g.evaluate(x))

    fn = FnRepr(1, phi, 1,
                domain=lambda vec: f.domain.contains(vec[0]))
    domain = f.domain
    desc = domain.desc
    span = max(domain.max_radius_level() + 1, 2)
    xs = [(ResidueRing(desc, span).lift(c, precision),)
          for c in domain.residues(span)]
    one = LocalFieldElement.one(desc, precision)
    pi = desc.uniformizer(precision)
    return cnb_norm(fn, order, SamplerSpec(xs[:16], [(one,), (-one,)],
                                           [one, pi, pi * pi]))


# ---------------------------------------------------------------------------
# support decomposition over a ball cover
# ---------------------------------------------------------------------------

def ball_decompose(g: DiffRepr, cover, samples_per_ball: int = 8,
                   precision: int = DEFAULT_PRECISION):
    """Factor g into maps supported on the balls of a disjoint cover.

    h_j = g on ball j and id elsewhere; requires g to preserve every ball
    on the sampled points (BallNotPreserved otherwise).  The factors have
    disjoint supports, so they commute and compose to g; both facts are
    verified on the samples before returning.
    """
    desc = g.desc
    Domain(desc, tuple(cover))  # validates disjointness
    factors = []
    all_samples = []
    for b in cover:
        depth = max(b.r, 1) + 1
        ring = ResidueRing(desc, depth)
        sample_codes = Domain(desc, (b,)).residues(depth)[:samples_per_ball]
        samples = [ring.lift(c, precision) for c in sample_codes]
        all_samples.extend(samples)
        for x in samples:
            if not b.contains(g.evaluate(x), desc):
                raise BallNotPreserved(
                    f"g moves a point of ball {b} outside it")

        def h(x, ball=b, g=g):
            return g.evaluate(x) if ball.contains(x, g.desc) else x

        factors.append(DiffRepr(desc, h, g.domain, g.bound_s,
                                f"{g.name or 'g'}|{b.center_code}"))
    for x in all_samples:
        y = x
        for h in reversed(factors):
            y = h.evaluate(y)
        if not y.same(g.evaluate(x)):
            raise TowerError("factors do not compose to g on a sample")
    for h1, h2 in itertools.combinations(factors, 2):
        for x in all_samples:
            if not h1.evaluate(h2.evaluate(x)).same(h2.evaluate(h1.evaluate(x))):
                raise TowerError("disjoint-support factors fail to commute")
    return factors


# ---------------------------------------------------------------------------
# commutator decomposition of even permutations
# ---------------------------------------------------------------------------

def commutator_decompose_even(perm: LevelPermutation):
    """Writes an even permutation of >= 5 points as commutator pairs.

    Returns a list of (a_i, b_i) with the product of a_i^-1 b_i^-1 a_i b_i
    (leftmost applied last) equal to the input.  Route: transpositions from
    the cycle decomposition, paired into 3-cycles, each 3-cycle (a b c)
    being the commutator of (a b) and (a c).
    """
    n = len(perm.elements)
    if n < 5:
        raise TooSmall(f"need at least 5 points, have {n}")
    if perm.parity() != 0:
        raise OddParity("only even permutations are commutator products "
                        "at a fixed level")
    if perm.is_identity():
        return []
    transpositions = []
    for cyc in perm.cycles():
        # (x1 x2 ... xm) = (x1 xm)(x1 x_{m-1})...(x1 x2), rightmost first
        for i in range(len(cyc) - 1, 0, -1):
            transpositions.append((cyc[0], cyc[i]))
    assert len(transpositions) % 2 == 0
    three_cycles = []
    for i in range(0, len(transpositions), 2):
        t1, t2 = transpositions[i], transpositions[i + 1]
        # the product t1 t2 (t2 first) as one or two 3-cycles
        if set(t1) == set(t2):
            continue
        common = set(t1) & set(t2)
        if common:
            c = common.pop()
            a = (set(t1) - {c}).pop()
            b = (set(t2) - {c}).pop()
            three_cycles.append((a, c, b))  # (c a)(c b) = (a c b)
        else:
            (a, b), (c, d) = t1, t2
            # (a b)(c d) = (a b c)(b c d); every case is verified below
            three_cycles += [(a, b, c), (b, c, d)]
    pairs = [(_transposition(perm, (a, b)), _transposition(perm, (a, c)))
             for a, b, c in three_cycles]
    if product_of_commutators(pairs, perm).images != perm.images:
        raise TowerError("commutator product does not reproduce the input")
    return pairs


def _transposition(like: LevelPermutation, pair):
    a, b = pair
    mapping = {e: e for e in like.elements}
    mapping[a], mapping[b] = b, a
    return LevelPermutation.from_mapping(like.level, mapping)


def product_of_commutators(pairs, like: LevelPermutation) -> LevelPermutation:
    product = LevelPermutation.identity(like.level, like.elements)
    for x, y in pairs:
        comm = x.inverse().compose(y.inverse()).compose(x).compose(y)
        product = product.compose(comm)
    return product


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

@dataclass
class PermThread:
    """A compatible family of level permutations sigma_k, k0 <= k <= K."""

    desc: FieldDescriptor
    levels: dict = field(default_factory=dict)

    def check_compatible(self):
        ks = sorted(self.levels)
        for lo, hi in zip(ks, ks[1:]):
            check_square(self.desc, self.levels[hi], self.levels[lo])
        return True

    def extend(self, perm: LevelPermutation) -> "PermThread":
        ks = sorted(self.levels)
        if ks and perm.level <= ks[-1]:
            raise Incompatible(f"level {perm.level} does not extend {ks}")
        if ks:
            check_square(self.desc, perm, self.levels[ks[-1]])
        new = dict(self.levels)
        new[perm.level] = perm
        return PermThread(self.desc, new)

    def compose(self, other: "PermThread") -> "PermThread":
        if sorted(self.levels) != sorted(other.levels):
            raise Incompatible("threads cover different level ranges")
        return PermThread(self.desc, {
            k: self.levels[k].compose(other.levels[k]) for k in self.levels})

    def inverse(self) -> "PermThread":
        return PermThread(self.desc,
                          {k: p.inverse() for k, p in self.levels.items()})

    def parity_profile(self) -> dict:
        """Parity per level; refinement can change parity, so this is
        reported and never assumed constant along the thread."""
        return {k: p.parity() for k, p in self.levels.items()}

    @classmethod
    def from_diff(cls, g: DiffRepr, levels,
                  precision: int = DEFAULT_PRECISION) -> "PermThread":
        return cls(g.desc, {k: level_project(g, k, precision=precision)
                            for k in levels})


def check_square(desc, hi: LevelPermutation, lo: LevelPermutation):
    """pi^l_k o sigma_l = sigma_k o pi^l_k elementwise."""
    l, k = hi.level, lo.level
    lo_map = lo.mapping()
    for e, img in zip(hi.elements, hi.images):
        down = project_down(desc, img, l, k)
        e_down = project_down(desc, e, l, k)
        if lo_map[e_down] != down:
            raise Incompatible(
                f"element {e}: project(sigma_{l}) = {down} but "
                f"sigma_{k}(project) = {lo_map[e_down]}")


def conjugation_thread(h: PermThread, g: DiffRepr, K: int,
                       precision: int = DEFAULT_PRECISION) -> dict:
    """psi_k = h_k g_k h_k^-1 level by level; verifies the conjugated family
    is itself a compatible thread."""
    h.check_compatible()
    levels = sorted(k for k in h.levels if k <= K)
    psi = {}
    for k in levels:
        gk = level_project(g, k, precision=precision)
        hk = h.levels[k]
        psi[k] = hk.compose(gk).compose(hk.inverse())
    thread = PermThread(g.desc, psi)
    thread.check_compatible()
    return {"levels": levels, "thread": thread, "compatible": True}
