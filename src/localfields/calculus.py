"""Difference-quotient calculus: the iterated partial quotients on flat
tuples (x; v_1..v_n; t_1..t_n), their recursive pair-tree refinement, the
C^n_b norms, differentials, and the product / multi-factor / composition
operator identities checked against direct recursion.

One tree evaluator; flat points enter through their embedding:

* tree points are the recursive pairs x_k = (x_{k-1}, v_{k-1}, t_k), whose
  direction slots are themselves trees (2^n vector slots, 2^n - 1 scalars);
* a flat point (one direction and one scalar per level) is evaluated at its
  canonical slice `embed_phi_point`, where the tree quotient is the flat one.

Operator expressions (difference step, projection-back, shift) are reified
as words and evaluated by interpretation, never compiled: one level step
lifts a point function by one letter, and a word is that step folded over
its letters.  One symbolic builder, on flat points, realizes the
continuous extension at vanishing scalars; tree points reach it at level 1.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import LocalFieldElement
from .poly import MultiPoly, quotient_in_new_var

MAX_ORDER = 6  # tree sizes grow as 2^n


class CalculusError(Exception):
    pass


class DomainViolation(CalculusError):
    pass


class ShapeMismatch(CalculusError):
    pass


class CharacteristicObstruction(CalculusError):
    pass


class ZeroDenominator(CalculusError):
    pass


# ---------------------------------------------------------------------------
# scalars and vectors (duck typed: Fraction, LocalFieldElement, MultiPoly)
# ---------------------------------------------------------------------------

def is_zero_scalar(t) -> bool:
    if isinstance(t, LocalFieldElement):
        return t.is_zero()
    if isinstance(t, MultiPoly):
        return t.is_zero()
    return t == 0


def scalar_div(a, t):
    """a / t where t may be a plain variable monomial in symbolic mode;
    vector values divide slotwise."""
    if isinstance(a, tuple):
        return tuple(scalar_div(x, t) for x in a)
    if isinstance(a, MultiPoly) or isinstance(t, MultiPoly):
        if not isinstance(t, MultiPoly):
            return a.scale_div(t)
        mono = list(t.terms.items())
        if len(mono) == 1 and sum(mono[0][0]) == 1 and mono[0][1] == 1:
            i = mono[0][0].index(1)
            if not isinstance(a, MultiPoly):
                raise ZeroDenominator("cannot divide a constant by a variable")
            return a.div_var(i)
        raise ZeroDenominator("symbolic division only by a bare variable")
    if is_zero_scalar(t):
        raise ZeroDenominator("difference step at t = 0 needs a polynomial "
                              "backing (symbolic extension)")
    return a / t


def value_norm(x) -> Fraction:
    """Norm of a value; an apparent zero (0 at its working precision) counts
    as 0, which keeps every sampled supremum a lower bound."""
    if isinstance(x, LocalFieldElement):
        return Fraction(0) if x.is_zero() else x.norm()
    if isinstance(x, tuple):
        return max((value_norm(c) for c in x), default=Fraction(0))
    return abs(Fraction(x))


def values_same(a, b, precision=None) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            values_same(x, y, precision) for x, y in zip(a, b))
    if isinstance(a, LocalFieldElement):
        return a.same(b, precision)
    return a == b


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(a, t):
    return tuple(x * t for x in a)


def value_sub(a, b):
    if isinstance(a, tuple):
        return tuple(value_sub(x, y) for x, y in zip(a, b))
    return a - b


def value_add(a, b):
    if isinstance(a, tuple):
        return tuple(value_add(x, y) for x, y in zip(a, b))
    return a + b


def value_mul(a, b):
    """Product of check values; a scalar times a vector acts slotwise (the
    algebra-valued case of the product rule)."""
    if isinstance(b, tuple):
        return tuple(value_mul(a, y) for y in b)
    if isinstance(a, tuple):
        return tuple(value_mul(x, b) for x in a)
    return a * b


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiPoint:
    """Flat point (x; v_1..v_n; t_1..t_n)."""

    x: tuple
    vs: tuple = ()
    ts: tuple = ()

    def __post_init__(self):
        if len(self.vs) != len(self.ts):
            raise ShapeMismatch("need one scalar per direction")

    @property
    def level(self) -> int:
        return len(self.ts)

    def partial_sums(self):
        """x, x + v_1 t_1, x + v_1 t_1 + v_2 t_2, ... (domain membership)."""
        acc = self.x
        yield acc
        for v, t in zip(self.vs, self.ts):
            acc = vec_add(acc, vec_scale(v, t))
            yield acc

    @classmethod
    def variables(cls, m: int, n: int):
        """The point of variables (x_1..x_m; v_{1,1}..v_{n,m}; t_1..t_n),
        numbered in that order, and their count."""
        nv = m + n * m + n
        var = [MultiPoly.variable(nv, i, 1) for i in range(nv)]
        vs = tuple(tuple(var[m + k * m:m + (k + 1) * m]) for k in range(n))
        return cls(tuple(var[:m]), vs, tuple(var[m + n * m:])), nv

    def values(self) -> list:
        """The entries in the order of `variables`."""
        return [*self.x, *(c for v in self.vs for c in v), *self.ts]


class TreePoint:
    """Recursive pair point: level 0 wraps a vector, level k is
    (lower, direction, t) with direction a level-(k-1) TreePoint.

    zero_t says that t is an exact zero (on a leaf: every slot is), and
    all_zero that the whole tree is exact zeros; `zero_tree` and
    `embed_direction` set them, and `add_scaled` skips what they mark.
    """

    __slots__ = ("vec", "lower", "direction", "t", "level", "zero_t",
                 "all_zero")

    def __init__(self, vec=None, lower=None, direction=None, t=None,
                 zero_t=False):
        self.zero_t = zero_t
        if vec is not None:
            self.vec, self.lower, self.direction, self.t = tuple(vec), None, None, None
            self.level = 0
            self.all_zero = zero_t
        else:
            if lower.level != direction.level:
                raise ShapeMismatch(
                    f"direction level {direction.level} != base level {lower.level}")
            self.vec = None
            self.lower, self.direction, self.t = lower, direction, t
            self.level = lower.level + 1
            self.all_zero = zero_t and lower.all_zero and direction.all_zero

    @classmethod
    def leaf(cls, vec):
        return cls(vec=vec)

    def add_scaled(self, other: "TreePoint", t) -> "TreePoint":
        """self + t * other, componentwise over the whole tree.  An exact
        zero of other adds nothing (`_sum` returns the other operand), so a
        part of self that meets one is kept as it is."""
        if self.level != other.level:
            raise ShapeMismatch("tree shapes differ")
        if other.all_zero:
            return self
        if self.level == 0:
            return TreePoint.leaf(vec_add(self.vec, vec_scale(other.vec, t)))
        return TreePoint(lower=self.lower.add_scaled(other.lower, t),
                         direction=self.direction.add_scaled(other.direction, t),
                         t=self.t if other.zero_t else self.t + other.t * t)

    def base_vec(self):
        """The innermost base slot: the vector a level-0 function sees."""
        pt = self
        while pt.level:
            pt = pt.lower
        return pt.vec

    def slots(self):
        """All vector slots, depth-first (2^level of them)."""
        if self.level == 0:
            yield self.vec
        else:
            yield from self.lower.slots()
            yield from self.direction.slots()

    def scalars(self):
        if self.level:
            yield from self.lower.scalars()
            yield from self.direction.scalars()
            yield self.t

    def __repr__(self):
        if self.level == 0:
            return f"leaf{self.vec}"
        return f"({self.lower!r}, {self.direction!r}, {self.t!r})"


def zero_tree(level: int, dim: int, zero) -> TreePoint:
    """The tree whose slots and scalars are all the exact zero `zero`."""
    if level == 0:
        return TreePoint(vec=(zero,) * dim, zero_t=True)
    return TreePoint(lower=zero_tree(level - 1, dim, zero),
                     direction=zero_tree(level - 1, dim, zero), t=zero,
                     zero_t=True)


def embed_direction(v, level: int, zero) -> TreePoint:
    """The tree direction whose only nonzero slot is the innermost base: the
    canonical embedding that makes tree evaluation restrict to the flat one."""
    if level == 0:
        return TreePoint.leaf(v)
    return TreePoint(lower=embed_direction(v, level - 1, zero),
                     direction=zero_tree(level - 1, len(v), zero), t=zero,
                     zero_t=True)


def embed_phi_point(pt: PhiPoint) -> TreePoint:
    """Canonical slice: the tree point at which the tree quotient reproduces
    the flat quotient (fixed variable ordering shipped with the module)."""
    zero = pt.x[0] * 0
    node = TreePoint.leaf(pt.x)
    for k, (v, t) in enumerate(zip(pt.vs, pt.ts)):
        node = TreePoint(lower=node, direction=embed_direction(v, k, zero), t=t)
    return node


def diff_eval(fn, pt):
    """The iterated difference quotient of a level-0 function at a point.

    fn takes a base vector; the recursion runs over the point's levels.
    Division is by the level scalars only.  This is the operator word made
    of difference steps only.
    """
    return _apply_word(fn, (DIFF,) * pt.level, pt)


# ---------------------------------------------------------------------------
# function representations
# ---------------------------------------------------------------------------

@dataclass
class FnRepr:
    """Evaluable map on a clopen piece of K^m (or Q^m in exact mode).

    backing: MultiPoly (scalar), list of MultiPoly (vector valued), a Mahler
    series, or an opaque callable on vectors.
    """

    arity: int
    backing: object
    codim: int = 1
    domain: object = None        # optional membership predicate on vectors
    smooth_class: str | None = None
    _sym_cache: dict = field(default_factory=dict, repr=False)

    def eval_vec(self, vec):
        if self.domain is not None and not self._sym_mode(vec) \
                and not self.domain(vec):
            raise DomainViolation(f"point {vec} outside the domain")
        b = self.backing
        if isinstance(b, MultiPoly):
            return b.eval_cached(list(vec))
        if isinstance(b, (list, tuple)):
            return tuple(c.eval_cached(list(vec)) for c in b)
        if hasattr(b, "evaluate"):  # Mahler series (arity 1)
            return b.evaluate(vec[0])
        return b(vec)

    @staticmethod
    def _sym_mode(vec) -> bool:
        return any(isinstance(c, MultiPoly) for c in vec)

    def is_polynomial(self) -> bool:
        return isinstance(self.backing, (MultiPoly, list, tuple))

    def __call__(self, vec):
        return self.eval_vec(vec)

    @classmethod
    def poly(cls, mpoly: MultiPoly, domain=None, smooth_class=None):
        return cls(mpoly.nvars, mpoly, 1, domain, smooth_class)

    def product(self, other: "FnRepr") -> "FnRepr":
        if self.arity != other.arity:
            raise ShapeMismatch("factor arities differ")
        if isinstance(self.backing, MultiPoly) and \
                isinstance(other.backing, MultiPoly):
            return FnRepr(self.arity, self.backing * other.backing, 1,
                          self.domain, None)
        return FnRepr(self.arity,
                      lambda v, a=self, b=other: value_mul(a.eval_vec(v),
                                                           b.eval_vec(v)),
                      max(self.codim, other.codim), self.domain, None)


# ---------------------------------------------------------------------------
# the two evaluators
# ---------------------------------------------------------------------------

def phi_eval(f: FnRepr, pt: PhiPoint, check_domain: bool = True):
    """Iterated partial difference quotient at a flat point.

    Zero scalars require a polynomial backing: the quotient is then computed
    symbolically (exact division by the scalar variables), which realizes
    the continuous extension.
    """
    if pt.level > MAX_ORDER:
        raise CalculusError(f"order {pt.level} exceeds the cap {MAX_ORDER}")
    if check_domain and f.domain is not None:
        for s in pt.partial_sums():
            if not f.domain(s):
                raise DomainViolation(f"partial sum {s} leaves the domain")
    if any(is_zero_scalar(t) for t in pt.ts):
        if not f.is_polynomial():
            raise ZeroDenominator(
                "t = 0 needs a polynomial backing; eval_small_t provides the "
                "surrogate extension for opaque evaluators")
        return _symbolic(f, pt)
    return diff_eval(f.eval_vec, pt)


def eval_small_t(f: FnRepr, pt: PhiPoint):
    """Extension-by-small-t for opaque (non-polynomial) backings.

    Every vanishing scalar is replaced by pi^(N//2), N being the smallest
    precision among the point's field entries.  The budget arithmetic then
    charges N//2 digits for each replaced level, so the returned element's
    own precision IS the documented error bound of the surrogate.
    """
    entries = pt.values()
    descs = [c.desc for c in entries if isinstance(c, LocalFieldElement)]
    if not descs:
        raise CalculusError("eval_small_t needs field-valued points")
    precisions = [int(c.precision) for c in entries
                  if isinstance(c, LocalFieldElement)
                  and c.precision != float("inf")]
    N = min(precisions) if precisions else 2 * MAX_ORDER
    small = descs[0].uniformizer(N) ** max(N // 2, 1)
    ts = tuple(small if is_zero_scalar(t) else t for t in pt.ts)
    return diff_eval(f.eval_vec, PhiPoint(pt.x, pt.vs, ts))


def _symbolic(f: FnRepr, pt: PhiPoint):
    """The quotient at a flat point read off its symbolic form: the
    iterated quotient at the point of variables, where each division by a
    scalar variable is exact.  Built once per level and cached on f; its
    value realizes the continuous extension at vanishing scalars."""
    sym = f._sym_cache.get(pt.level)
    if sym is None:
        var_pt, nv = PhiPoint.variables(f.arity, pt.level)
        ext, m = _as_poly(f).extend(nv), f.arity
        sym = f._sym_cache[pt.level] = diff_eval(
            lambda vec: ext.subst({i: vec[i] for i in range(m)}), var_pt)
    return sym.eval_cached(pt.values())


def _as_poly(f: FnRepr) -> MultiPoly:
    b = f.backing
    if isinstance(b, MultiPoly):
        return b
    if hasattr(b, "coeffs"):  # Mahler series: finite sum of binomials
        from .mahler import mahler_polynomial
        return mahler_polynomial(b)
    raise CalculusError("need a polynomial (or Mahler) backing")


def upsilon_eval(f: FnRepr, pt: TreePoint):
    """Iterated quotient at a pair-tree point.

    Divisions happen by the spine scalars and their shifted combinations
    only, so the numeric path is attempted first.  A vanishing denominator
    at level 1 falls back to the flat symbolic quotient (same variables in
    the same order) for polynomial backings.  Above level 1 a shifted
    spine scalar t + t' s is never a bare variable, so no exact symbolic
    division exists and the zero denominator stands.
    """
    if pt.level > MAX_ORDER:
        raise CalculusError(f"order {pt.level} exceeds the cap {MAX_ORDER}")
    try:
        return diff_eval(f.eval_vec, pt)
    except ZeroDenominator:
        if not f.is_polynomial():
            raise
    _as_poly(f)  # a backing with no polynomial form raises CalculusError
    if pt.level > 1:
        raise ZeroDenominator("symbolic division only by a bare variable")
    return _symbolic(f, PhiPoint(pt.lower.vec, (pt.direction.vec,), (pt.t,)))


# ---------------------------------------------------------------------------
# norms and differentials
# ---------------------------------------------------------------------------

@dataclass
class SamplerSpec:
    """Finite sample of evaluation data for the C^n_b norms.

    Directions are normalized (sup norm 1) and |t| <= 1; t = 0 entries are
    kept only for polynomial backings (symbolic extension).  The resulting
    norm is a LOWER bound of the true supremum: it is monotone nondecreasing
    in the sample and never overshoots.
    """

    xs: list
    dirs: list
    ts: list

    def __post_init__(self):
        if not self.xs or not self.dirs or not self.ts:
            raise CalculusError("empty sampler")


def default_sampler(desc, m: int = 1, span: int = 2,
                    precision: int = 24) -> SamplerSpec:
    """Residue representatives as base points, unit coordinate directions,
    scalars 1, pi, pi^2 and 0."""
    from .fields import LocalFieldElement
    one = LocalFieldElement.one(desc, precision)
    pi = desc.uniformizer(precision)
    xs = []
    for code in range(min(desc.residue_cardinality(span), 16)):
        if desc.family == "padic":
            x = LocalFieldElement.from_int(desc, code, precision)
        else:
            digits = []
            c = code
            for _ in range(span):
                digits.append(c % desc.residue_size)
                c //= desc.residue_size
            x = LocalFieldElement.from_laurent_coeffs(desc, 0, digits, precision)
        xs.append((x,) * m if m > 1 else (x,))
    zero = LocalFieldElement.zero(desc)
    dirs = []
    for i in range(m):
        d = [zero] * m
        d[i] = one
        dirs.append(tuple(d))
    ts = [one, pi, pi * pi, zero]
    return SamplerSpec(xs, dirs, ts)


def cnb_norm(f: FnRepr, n: int, sampler: SamplerSpec) -> Fraction:
    """max over k <= n and sampled points of the norm of the k-fold flat
    quotient.  A lower bound for the true C^n_b norm."""
    best = Fraction(0)
    for x in sampler.xs:
        try:
            best = max(best, value_norm(f.eval_vec(x)))
        except DomainViolation:
            continue
    symbolic_ok = f.is_polynomial()
    for k in range(1, n + 1):
        for x in sampler.xs:
            for dirs in itertools.product(sampler.dirs, repeat=k):
                for ts in itertools.product(sampler.ts, repeat=k):
                    if not symbolic_ok and any(is_zero_scalar(t) for t in ts):
                        continue
                    try:
                        val = phi_eval(f, PhiPoint(x, dirs, ts))
                    except DomainViolation:
                        continue
                    best = max(best, value_norm(val))
    return best


def differential_eval(f: FnRepr, x, directions):
    """The symmetric n-linear differential: the n-fold partial quotient
    with all scalars at zero (continuous extension).

    For polynomials this is the classical mixed n-th derivative; the
    iterated one-direction-per-level quotients already carry the factorial
    normalization, so no extra n! factor is applied.  In characteristic p
    the factorial relation between this form and repeated differences
    breaks for n >= p, which is surfaced as an obstruction rather than a
    silent zero.
    """
    n = len(directions)
    desc = getattr(x[0], "desc", None)
    if desc is not None and desc.char and n >= desc.char:
        raise CharacteristicObstruction(
            f"n! vanishes in characteristic {desc.char} for n={n}")
    zero = x[0] * 0
    pt = PhiPoint(tuple(x), tuple(directions), (zero,) * n)
    return phi_eval(f, pt)


# ---------------------------------------------------------------------------
# operator words (reified expansion terms)
# ---------------------------------------------------------------------------

DIFF, PROJ, SHIFT = "D", "pi", "P"
INC = "inc"  # the bare increment: a chain-rule head's new coordinate


@dataclass(frozen=True)
class OperatorWord:
    """A chain of level steps applied to one tensor factor, innermost first.

    Letters: D (difference step), pi (projection back), P (shift).  The
    level bookkeeping requires every leading shift block to sit at
    nonnegative net depth: #D + #P + #pi below any P equals its level
    index minus one.
    """

    letters: tuple

    def pretty(self, symbol: str = "f") -> str:
        out = []
        for j, letter in enumerate(self.letters, start=1):
            if letter == DIFF:
                out.append("Y")
            elif letter == PROJ:
                out.append("pr")
            else:
                out.append(f"P{j}")
        return "".join(reversed(out)) + f".{symbol}"

    def net_depth(self) -> int:
        return len(self.letters)

    def validate(self) -> bool:
        """Every letter must be D, pi or P.  Each letter raises the argument
        level by one, so the net depth before any letter is its index and
        can never be negative; only the alphabet needs checking."""
        for letter in self.letters:
            if letter not in (DIFF, PROJ, SHIFT):
                raise ShapeMismatch(f"unknown operator letter {letter!r}")
        return True

    def shift_indices(self) -> tuple:
        """Concrete level indices of the shift letters (innermost first)."""
        return tuple(j + 1 for j, letter in enumerate(self.letters)
                     if letter == SHIFT)

    def apply(self, fn, pt):
        self.validate()
        return _apply_word(fn, self.letters, pt)


def _step(fn, op):
    """Lift a tree-point function one level by a letter: at the
    projected-back point (PROJ), at the shifted point (SHIFT), the increment
    between the two (INC) or its difference quotient by the level scalar
    (DIFF).  The shifted point is evaluated before the projected one."""
    def lifted(pt):
        lower = pt.lower
        if op == PROJ:
            return fn(lower)
        hi = fn(lower.add_scaled(pt.direction, pt.t))
        if op == SHIFT:
            return hi
        inc = value_sub(hi, fn(lower))
        return inc if op == INC else scalar_div(inc, pt.t)
    return lifted


def _apply_word(fn, letters, pt):
    """The word's value at pt: fn on base vectors, lifted by the letters
    innermost first.  A flat point is evaluated at its embedding, which
    only adds exact zeros, so the flat quotient comes out unchanged."""
    if isinstance(pt, PhiPoint):
        pt = embed_phi_point(pt)
    return functools.reduce(_step, letters, lambda q: fn(q.base_vec()))(pt)


def product_rule_terms(k: int, n: int):
    """All expansion terms of the n-step product rule for k factors.

    Yields tuples (choice_1..choice_n) with choice_j in 0..k-1: at step j
    factor choice_j takes the difference step, factors before it project
    back, factors after it shift.
    """
    return itertools.product(range(k), repeat=n)


def term_words(choices, k: int):
    """OperatorWords of all k factors for one term of the expansion."""
    words = []
    for i in range(k):
        letters = []
        for c in choices:
            letters.append(DIFF if c == i else (PROJ if i < c else SHIFT))
        words.append(OperatorWord(tuple(letters)))
    return words


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    operation: str
    flavor: str
    n: int
    lhs: object
    rhs: object
    margin: Fraction
    status: str
    detail: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_record(self) -> dict:
        return {
            "operation": self.operation,
            "flavor": self.flavor,
            "n": self.n,
            "lhs": repr(self.lhs),
            "rhs": repr(self.rhs),
            "margin": str(self.margin),
            "status": self.status,
            "detail": self.detail,
        }


def _finish_report(op, flavor, n, lhs, rhs, detail=None) -> CheckReport:
    # equality at working precision counts as zero margin: the difference of
    # truncated values that agree digit for digit is an apparent zero
    if values_same(lhs, rhs):
        margin = Fraction(0)
    elif isinstance(lhs, tuple):
        margin = max(value_norm(x - y) for x, y in zip(lhs, rhs))
    else:
        margin = value_norm(lhs - rhs)
    return CheckReport(op, flavor, n, lhs, rhs, margin,
                       "PASS" if margin == 0 else "FAIL", detail or [])


# ---------------------------------------------------------------------------
# product rule (two factors)
# ---------------------------------------------------------------------------

def _tree_point(pt, flavor: str) -> TreePoint:
    """pt as a tree point, after checking that it matches the check's
    flavor (phi: a flat point, upsilon: a tree point)."""
    if flavor not in ("phi", "upsilon"):
        raise ValueError(f"unknown flavor {flavor!r}: use phi or upsilon")
    if (flavor == "upsilon") != isinstance(pt, TreePoint):
        raise ShapeMismatch(f"{flavor} flavor needs a matching point type")
    return pt if flavor == "upsilon" else embed_phi_point(pt)


def _word_sum(fs, names, pt, detail):
    """The product-rule expansion: over all terms, the product of each
    factor's operator word at pt.  With a detail list, each term's words
    (named by names) and value are recorded there."""
    rhs = None
    for choices in product_rule_terms(len(fs), pt.level):
        words = term_words(choices, len(fs))
        term = functools.reduce(value_mul, [w.apply(f.eval_vec, pt)
                                            for w, f in zip(words, fs)])
        if detail is not None:
            detail.append(tuple(map(OperatorWord.pretty, words, names))
                          + (repr(term),))
        rhs = term if rhs is None else value_add(rhs, term)
    return rhs


def leibniz_check(f: FnRepr, g: FnRepr, pt, flavor: str = "upsilon",
                  collect_terms: bool = False) -> CheckReport:
    """Difference-quotient product rule at a point.

    LHS: the n-fold quotient of the pointwise product, by direct recursion.
    RHS (tree flavor): the binomial operator-word expansion
    (difference (x) shift + project (x) difference)^n.
    RHS (flat flavor): the explicit sum over splittings {1..n} = J u S of
    quotients of f at (x; v_J; t_J) times quotients of g based at
    x + sum_{j in J} v_j t_j.
    """
    tree = _tree_point(pt, flavor)
    lhs = diff_eval(f.product(g).eval_vec, tree)
    detail = []
    sink = detail if collect_terms else None
    if flavor == "upsilon":
        rhs = _word_sum((f, g), ("f", "g"), tree, sink)
    else:
        rhs = phi_leibniz_subset_sum(f, g, pt, sink)
    return _finish_report("leibniz", flavor, pt.level, lhs, rhs, detail)


def phi_leibniz_subset_sum(f: FnRepr, g: FnRepr, pt: PhiPoint, detail=None):
    """sum over a+b=n and ordered splittings {j_*} u {s_*} = {1..n} of
    quotient_a(f)(x; v_j; t_j) * quotient_b(g)(x + sum v_j t_j; v_s; t_s)."""
    n = pt.level
    rhs = None
    for a in range(n + 1):
        for J in itertools.combinations(range(n), a):
            S = tuple(i for i in range(n) if i not in J)
            base = pt.x
            fpt = PhiPoint(pt.x, tuple(pt.vs[j] for j in J),
                           tuple(pt.ts[j] for j in J))
            for j in J:
                base = vec_add(base, vec_scale(pt.vs[j], pt.ts[j]))
            gpt = PhiPoint(base, tuple(pt.vs[s] for s in S),
                           tuple(pt.ts[s] for s in S))
            fa = phi_eval(f, fpt, check_domain=False)
            gb = phi_eval(g, gpt, check_domain=False)
            term = value_mul(fa, gb)
            if detail is not None:
                detail.append((f"F^{a}f{list(J)}", f"F^{n - a}g{list(S)}",
                               repr(term)))
            rhs = term if rhs is None else value_add(rhs, term)
    return rhs


def leibniz_multi_check(fs, pt, flavor: str = "upsilon",
                        collect_terms: bool = False) -> CheckReport:
    """k-factor product rule: at every step exactly one factor takes the
    difference step, everything left of it projects back, everything right
    of it shifts."""
    tree = _tree_point(pt, flavor)
    if not fs:
        raise ShapeMismatch("the product rule needs at least one factor")
    lhs = diff_eval(functools.reduce(FnRepr.product, fs).eval_vec, tree)
    detail = []
    rhs = _word_sum(fs, [f"f{i + 1}" for i in range(len(fs))], tree,
                    detail if collect_terms else None)
    return _finish_report("leibniz_multi", flavor, pt.level, lhs, rhs, detail)


# ---------------------------------------------------------------------------
# chain rule
# ---------------------------------------------------------------------------

class _Composite:
    """A function written as (polynomial in c coordinates) o (coordinate
    evaluators); the shape every chain-rule head factor keeps under the
    expansion.  Coordinate evaluators take points of the current level.

    The coordinate step: the difference step on the head splits into one
    term per coordinate j; the head becomes the exact divided difference of
    the polynomial in coordinate j (a new last variable holds the increment),
    coordinates up to j stay at the projected point, coordinates past j move
    to the shifted point, and the coordinate quotient (increment / t) comes
    off as a separate scalar factor.
    """

    __slots__ = ("poly", "coords")

    def __init__(self, poly: MultiPoly, coords):
        if poly.nvars != len(coords):
            raise ShapeMismatch("coordinate count mismatch")
        self.poly = poly
        self.coords = list(coords)

    def eval(self, pt):
        return self.poly.eval_cached([c(pt) for c in self.coords])

    def project(self) -> "_Composite":
        return _Composite(self.poly, [_step(c, PROJ) for c in self.coords])

    def chain_step(self):
        """Yield (new head, new coordinate-quotient factor) per coordinate."""
        for j, cj in enumerate(self.coords):
            new_coords = [_step(c, PROJ if a <= j else SHIFT)
                          for a, c in enumerate(self.coords)]
            new_coords.append(_step(cj, INC))
            yield (_Composite(quotient_in_new_var(self.poly, j), new_coords),
                   _step(cj, DIFF))


def chain_rhs_terms(f: FnRepr, u_polys, n: int):
    """All expansion terms (head composite, scalar factors) after n steps,
    as functions of tree points."""
    if not isinstance(f.backing, MultiPoly):
        raise CalculusError("the chain expansion needs a polynomial outer map")
    base_coords = [lambda pt, _up=up: _up.eval_cached(list(pt.base_vec()))
                   for up in u_polys]
    terms = [(_Composite(f.backing, base_coords), [])]
    for _ in range(n):
        new_terms = []
        for head, factors in terms:
            # the difference step hits the head: coordinate split
            for new_head, ufactor in head.chain_step():
                new_terms.append(
                    (new_head, [ufactor] + [_step(g, SHIFT) for g in factors]))
            # the difference step hits scalar factor a
            for a in range(len(factors)):
                wrapped = [_step(g, PROJ if b < a else
                                 (DIFF if b == a else SHIFT))
                           for b, g in enumerate(factors)]
                new_terms.append((head.project(), wrapped))
        terms = new_terms
    return terms


def chain_check(f: FnRepr, u, pt, flavor: str = "upsilon") -> CheckReport:
    """Composition rule: the n-fold quotient of f o u against the expansion
    into head operators, partial shifts and coordinate quotients.

    n <= 3 is supported (the expansion is assembled recursively; term count
    grows with the coordinate budget m + step)."""
    tree = _tree_point(pt, flavor)
    n = pt.level
    if n > 3:
        raise CalculusError("chain expansion is implemented for n <= 3")
    u_polys = _u_polys(u)
    if len(u_polys) != f.arity:
        raise ShapeMismatch(
            f"outer arity {f.arity} != inner codomain {len(u_polys)}")

    def composed(vec):
        inner = [up.eval_cached(list(vec)) for up in u_polys]
        return f.eval_vec(tuple(inner))

    lhs = diff_eval(composed, tree)
    rhs = None
    for head, factors in chain_rhs_terms(f, u_polys, n):
        term = head.eval(tree)
        for g in factors:
            term = term * g(tree)
        rhs = term if rhs is None else rhs + term
    return _finish_report("chain", flavor, n, lhs, rhs)


def _u_polys(u):
    if isinstance(u, FnRepr):
        b = u.backing
        if isinstance(b, MultiPoly):
            return [b]
        if isinstance(b, (list, tuple)):
            return list(b)
        raise CalculusError("inner map must be polynomial for the chain check")
    if isinstance(u, MultiPoly):
        return [u]
    return list(u)


# ---------------------------------------------------------------------------
# fixture files (external interface): one check per line
# ---------------------------------------------------------------------------

def run_fixture_line(line: str, precision: int = 24) -> CheckReport:
    """Grammar per line (whitespace separated):

        leibniz|leibniz_multi|chain <flavor> n=<n> p=<prime>
            f=<spec> g=<spec> | fs=<spec>|<spec>... | u=<spec>|<spec>...
            x=<c1,c2,..> vs=<v11,v12;v21,v22;..> ts=<t1,t2,..>
            expect=PASS|FAIL

    Scalars are integers, converted into Q_p at the given precision.
    """
    from .fields import LocalFieldElement, padic
    from .funcspec import parse_poly
    toks = line.split()
    if len(toks) < 3:
        raise ValueError(f"malformed fixture line: {line!r}")
    op, flavor = toks[0], toks[1]
    kv = {}
    for tok in toks[2:]:
        key, _, val = tok.partition("=")
        kv[key] = val
    n = int(kv["n"])
    desc = padic(int(kv["p"]))

    def elem(s):
        return LocalFieldElement.from_int(desc, int(s), precision)

    x = tuple(elem(c) for c in kv["x"].split(","))
    vs = tuple(tuple(elem(c) for c in grp.split(","))
               for grp in kv["vs"].split(";")) if kv.get("vs") else ()
    ts = tuple(elem(c) for c in kv["ts"].split(",")) if kv.get("ts") else ()
    if len(ts) != n or len(vs) != n:
        raise ValueError(f"point shape does not match n={n}")
    flat = PhiPoint(x, vs, ts)
    pt = embed_phi_point(flat) if flavor == "upsilon" else flat

    def fn_of(spec_text, arity):
        spec = parse_poly(spec_text, arity)
        return FnRepr.poly(spec.to_field_poly(desc, precision))

    if op == "leibniz":
        rep = leibniz_check(fn_of(kv["f"], len(x)), fn_of(kv["g"], len(x)),
                            pt, flavor)
    elif op == "leibniz_multi":
        fs = [fn_of(s, len(x)) for s in kv["fs"].split("|")]
        rep = leibniz_multi_check(fs, pt, flavor)
    elif op == "chain":
        u_polys = [parse_poly(s, len(x)).to_field_poly(desc, precision)
                   for s in kv["u"].split("|")]
        f = fn_of(kv["f"], len(u_polys))
        rep = chain_check(f, u_polys, pt, flavor)
    else:
        raise ValueError(f"unknown check {op!r}")
    rep.detail.insert(0, {"inputs": line.strip()})
    expected = kv.get("expect", "PASS")
    matched = rep.status == expected
    if not matched:
        rep.detail.append(f"expected {expected}, computed margin {rep.margin}")
    rep.status = "PASS" if matched else "FAIL"
    return rep


def run_fixture_file(path: str, precision: int = 24):
    reports = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            reports.append(run_fixture_line(line, precision))
    return reports


def dump_reports(reports, path=None) -> str:
    text = "\n".join(json.dumps(r.to_record(), sort_keys=True) for r in reports)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
