"""Mahler-basis calculus on Z_p: expansion, evaluation, composition and
inversion of near-identity maps, the combinatorial tables Omega / Q / S / T
and their exact identities.

Everything here is exact: integer and Fraction arithmetic where possible,
LocalFieldElement arithmetic with explicit precision budgets otherwise.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import (DEFAULT_PRECISION, PADIC, FieldDescriptor,
                     LocalFieldElement, _int_sum, _int_weighted_sum, padic)
from .linalg import SingularSystem, solve_linear

MAX_OMEGA_BOUND = 8
MAX_TABLE_SIZE = 64


class BoundExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# Mahler series
# ---------------------------------------------------------------------------

def _as_element(desc, x, precision):
    if isinstance(x, LocalFieldElement):
        return x
    if isinstance(x, Fraction):
        return LocalFieldElement.from_fraction(desc, x, precision)
    return LocalFieldElement.from_int(desc, x, precision)


def binom_int(x, j: int):
    """C(x, j) for integer or Fraction x, exact over Q."""
    if j < 0:
        return 0
    if isinstance(x, int):
        if x >= 0:
            return math.comb(x, j)
        num = 1
        for i in range(j):
            num *= x - i
        return num // math.factorial(j)
    num = Fraction(1)
    for i in range(j):
        num *= x - i
    return num / math.factorial(j)


def binom_row(x: LocalFieldElement, K: int, first: int = 0) -> list:
    """[C(x, first), ..., C(x, K)] from one running product of the factors
    (x - i), each entry divided by its own n! (an exact zero needs none)."""
    acc = LocalFieldElement.one(x.desc, x.precision if x.precision != math.inf
                                else DEFAULT_PRECISION)
    row = []
    for n in range(K + 1):
        acc = acc * (x - (n - 1)) if n else acc
        if n >= first:
            row.append(acc.divide(math.factorial(n))
                       if n >= 2 and not acc.is_exact_zero else acc)
    return row


def binom_element(x: LocalFieldElement, j: int) -> LocalFieldElement:
    """C(x, j), j >= 0, in the field; divides by j! and spends the budget."""
    return binom_row(x, j, j)[0]


@dataclass
class MahlerSeries:
    """f(x) = sum_j coeffs[j] * C(x, j) truncated at J = len(coeffs) - 1."""

    desc: FieldDescriptor
    coeffs: list  # LocalFieldElement over Q_p
    claimed_class: Fraction | None = None

    def __post_init__(self):
        if self.desc.family != "padic":
            raise ValueError("Mahler series live over Q_p")

    @property
    def p(self) -> int:
        return self.desc.p

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_ints(cls, p: int, ints, precision: int = DEFAULT_PRECISION):
        desc = padic(p)
        return cls(desc, [_as_element(desc, c, precision) for c in ints])

    def integral(self) -> bool:
        """All coefficients in Z_p: then the series maps Z_p into Z_p."""
        return all(c.is_exact_zero or c.valuation >= 0 for c in self.coeffs)

    def decay_ok(self, t: int, window: int = 8,
                 threshold: Fraction = Fraction(1)) -> bool:
        """Windowed proxy for the C^t decay |f_j| j^t -> 0: checks the last
        `window` coefficients only (the full limit is untestable on a
        truncated series)."""
        tail = self.coeffs[-window:]
        start = len(self.coeffs) - len(tail)
        worst = max((c.norm() * Fraction(max(j + start, 1)) ** int(t)
                     for j, c in enumerate(tail)), default=Fraction(0))
        return worst < threshold

    def evaluate(self, x) -> LocalFieldElement:
        """sum f_j C(x,j).  Integer and Fraction arguments are exact; field
        arguments pay the j! division budget.

        At an integer: `fields._int_weighted_sum` of the f_j with weights
        C(x, j).  At a field point: C(x, j) as a running product divided by j
        step by step, then one `fields._int_sum` of the products f_j C(x, j),
        each with the summed valuation and the least relative precision."""
        if isinstance(x, int):
            return _int_weighted_sum(self.desc, ((c, binom_int(x, j)) for j, c
                                                 in enumerate(self.coeffs)))
        if isinstance(x, Fraction):
            acc = None
            for j, c in enumerate(self.coeffs):
                b = binom_int(x, j)
                if b == 0:
                    continue
                if b.denominator != 1:
                    term = c * LocalFieldElement.from_fraction(
                        self.desc, b,
                        (c.precision if c.precision != math.inf else
                         DEFAULT_PRECISION))
                else:
                    term = c * int(b)
                acc = term if acc is None else acc + term
            return acc if acc is not None else LocalFieldElement.zero(self.desc)
        pairs, N = [], math.inf
        running = LocalFieldElement.one(
            self.desc,
            x.precision if x.precision != math.inf else DEFAULT_PRECISION)
        for j, c in enumerate(self.coeffs):
            if j > 0:
                # size the divisor from `running`, not from the product: for
                # x of negative valuation the two give different budgets
                running = (running * (x - (j - 1))).divide(
                    running._coerce_int(j))
            if c._exact_zero or running._exact_zero:
                continue
            v = c._val + running._val
            N = min(N, v + min(c._rel, running._rel))
            pairs.append((v, c._mant * running._mant))
        return (_int_sum(self.desc, pairs, N) if pairs
                else LocalFieldElement.zero(self.desc))

    def __call__(self, x):
        return self.evaluate(x)

    def same(self, other: "MahlerSeries", precision=None) -> bool:
        n = max(len(self.coeffs), len(other.coeffs))
        z = LocalFieldElement.zero(self.desc)
        for j in range(n):
            a = self.coeffs[j] if j < len(self.coeffs) else z
            b = other.coeffs[j] if j < len(other.coeffs) else z
            if not a.same(b, precision):
                return False
        return True

    def __repr__(self):
        inner = ",".join(
            "0" if c.is_exact_zero else
            str(c.lift_int()) if c.valuation >= 0 else repr(c)
            for c in self.coeffs)
        N = min((c.precision for c in self.coeffs
                 if c.precision != math.inf), default=DEFAULT_PRECISION)
        return f"p={self.p} N={N} coeffs=[{inner}]"


_SERIES_RE = re.compile(r"^p=(\d+)\s+N=(\d+)\s+coeffs=\[([^\]]*)\]$")


def parse_series(text: str) -> MahlerSeries:
    """Series literal: ``p=3 N=16 coeffs=[v0,v1,...]`` with integer values."""
    m = _SERIES_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse series literal {text!r}")
    p, N, body = int(m.group(1)), int(m.group(2)), m.group(3)
    ints = [int(s) for s in body.split(",")] if body.strip() else []
    return MahlerSeries.from_ints(p, ints, N)


# ---------------------------------------------------------------------------
# expansion: forward differences at 0
# ---------------------------------------------------------------------------

def _delta_at_zero(values):
    """(Delta^k v)(0) = sum_i (-1)^(k-i) C(k, i) v_i from v_0..v_k; the one
    forward-difference kernel of this module: one `fields._int_weighted_sum`
    over Q_p, else (integers) the chain of products and sums."""
    k = len(values) - 1
    weights = [math.comb(k, i) if (k - i) % 2 == 0 else -math.comb(k, i)
               for i in range(k + 1)]
    if (isinstance(values[0], LocalFieldElement)
            and values[0].desc.family == PADIC):
        return _int_weighted_sum(values[0].desc, zip(values, weights))
    return sum(v * w for v, w in zip(values, weights))


def expand(f, J: int, p: int, precision: int = DEFAULT_PRECISION) -> MahlerSeries:
    """Mahler coefficients f_j = (Delta^j f)(0) for j <= J.

    f may be a Python callable on integers, a MultiPoly in one variable, or
    anything with an ``evaluate`` accepting ints.  Uses the alternating-sum
    form of the j-th forward difference at 0.
    """
    desc = padic(p)
    fn = _callable_of(f)
    values = [_as_element(desc, fn(i), precision) for i in range(J + 1)]
    return MahlerSeries(desc, [_delta_at_zero(values[:j + 1])
                               for j in range(J + 1)])


def _callable_of(f):
    if callable(f) and not hasattr(f, "evaluate"):
        return f
    if hasattr(f, "evaluate"):
        return f.evaluate
    if hasattr(f, "eval_cached"):
        return lambda x: f.eval_cached([x])
    raise TypeError(f"cannot evaluate object of type {type(f)}")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def delta_binom_at_zero(f: MahlerSeries, n: int, k: int) -> LocalFieldElement:
    """Delta^k C(f(x), n) |_{x=0}, the numeric route.

    Evaluates C(f(j), n) at j = 0..k and takes the alternating sum.
    """
    if k < 0:
        return LocalFieldElement.zero(f.desc)
    return _delta_at_zero([binom_element(f.evaluate(j), n)
                           for j in range(k + 1)])


def compose(g: MahlerSeries, f: MahlerSeries, K: int,
            check_integral: bool = True) -> MahlerSeries:
    """Mahler coefficients of g o f up to index K (numeric default route).

    (g o f)_k is the k-th forward difference of g(f(x)) at 0.
    """
    if g.desc != f.desc:
        raise ValueError("series live over different fields")
    if check_integral and not f.integral():
        raise ValueError("inner series does not map Z_p to Z_p "
                         "(a coefficient has negative valuation)")
    values = [g.evaluate(f.evaluate(x)) for x in range(K + 1)]
    return MahlerSeries(f.desc, [_delta_at_zero(values[:k + 1])
                                 for k in range(K + 1)])


def compose_omega(g: MahlerSeries, f: MahlerSeries, K: int) -> MahlerSeries:
    """Composition through the nested-binomial expansion of Delta^k C(f,n)|_0
    (the optional combinatorial route; must agree with compose())."""
    desc = f.desc
    coeffs = []
    for k in range(K + 1):
        acc = None
        for n, gn in enumerate(g.coeffs):
            if gn.is_exact_zero:
                continue
            a = delta_binom_nested(f, n, k)
            term = gn * a
            acc = term if acc is None else acc + term
        coeffs.append(acc if acc is not None else LocalFieldElement.zero(desc))
    return MahlerSeries(desc, coeffs)


def delta_binom_nested(f: MahlerSeries, n: int, k: int) -> LocalFieldElement:
    """Delta^k C(f(x), n)|_0 by the expanded product formula.

    The expansion runs over compositions l_1 + ... + l_n = k; writing
    s_i = l_1 + ... + l_i, the term is

        prod_{i<n} C(k - s_{i-1}, l_i)
      * prod_{i<n} [ sum_m f_m C(k - s_i, m - l_i)  -  (n-i) if l_i = 0 ]
      * f_{l_n},

    all divided by n!.
    """
    desc = f.desc
    if n == 0:
        one = LocalFieldElement.one(desc)
        return one if k == 0 else LocalFieldElement.zero(desc)
    total = None
    for ls in _compositions(k, n):
        s = 0
        prefactor = 1
        ok = True
        for i in range(n - 1):
            prefactor *= math.comb(k - s, ls[i]) if ls[i] <= k - s else 0
            s += ls[i]
            if prefactor == 0:
                ok = False
                break
        if not ok:
            continue
        if ls[n - 1] >= len(f.coeffs):
            continue
        term = f.coeffs[ls[n - 1]] * prefactor
        s = 0
        for i in range(n - 1):
            s += ls[i]
            bracket = None
            for m, fm in enumerate(f.coeffs):
                c = math.comb(k - s, m - ls[i]) if 0 <= m - ls[i] <= k - s else 0
                if c and not fm.is_exact_zero:
                    piece = fm * c
                    bracket = piece if bracket is None else bracket + piece
            if bracket is None:
                bracket = LocalFieldElement.zero(desc)
            if ls[i] == 0:
                bracket = bracket - (n - 1 - i)
            term = term * bracket
        total = term if total is None else total + term
    if total is None:
        return LocalFieldElement.zero(desc)
    if n >= 2 and not total.is_exact_zero:
        total = total.divide(math.factorial(n))
    return total


def _compositions(k: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to k."""
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Omega coefficients and their identities
# ---------------------------------------------------------------------------

def omega(k: int, n: int, ms) -> int:
    """The nested-binomial coefficient attached to (k, n; m_1..m_n).

    Sum over l_1 + ... + l_{n-1} = k - m_n of
        prod_{i<n} C(k - s_{i-1}, l_i) * C(k - s_i, m_i - l_i).

    For n = 1 the empty constrained sum contributes its unique empty
    assignment exactly when k = m_1 (empty-sum convention, recorded as a
    design decision), so omega(k, 1, (m,)) = 1 if m == k else 0.
    """
    ms = tuple(ms)
    if len(ms) != n:
        raise ValueError(f"need {n} lower indices, got {len(ms)}")
    if k > MAX_OMEGA_BOUND or n > MAX_OMEGA_BOUND:
        raise BoundExceeded(f"omega bounds are k, n <= {MAX_OMEGA_BOUND}")
    if any(m > k or m < 0 for m in ms):
        raise BoundExceeded("each m_i must lie in 0..k")
    if n == 1:
        return 1 if ms[0] == k else 0
    rem = k - ms[n - 1]
    if rem < 0:
        return 0
    total = 0
    for ls in _compositions(rem, n - 1):
        s = 0
        prod = 1
        for i in range(n - 1):
            li = ls[i]
            prod *= math.comb(k - s, li) if li <= k - s else 0
            s += li
            c = ms[i] - li
            prod *= math.comb(k - s, c) if 0 <= c <= k - s else 0
            if prod == 0:
                break
        total += prod
    return total


def omega_free_double_sum(k: int, m1: int, m2: int) -> int:
    """LHS of the closed-form identity for the unconstrained double sum:
    sum_{l1,l2} C(k-l1, m1-l1) C(k-l1-l2, m2-l2) C(k,l1) C(k-l1,l2)."""
    total = 0
    for l1 in range(k + 1):
        for l2 in range(k - l1 + 1):
            c1 = math.comb(k - l1, m1 - l1) if 0 <= m1 - l1 <= k - l1 else 0
            c2 = (math.comb(k - l1 - l2, m2 - l2)
                  if 0 <= m2 - l2 <= k - l1 - l2 else 0)
            total += c1 * c2 * math.comb(k, l1) * math.comb(k - l1, l2)
    return total


def omega_free_double_sum_closed(k: int, m1: int, m2: int) -> int:
    """RHS: C(k, m1) * sum_{l1} C(m1, l1) C(k-l1, m2) * 2^m2."""
    s = 0
    for l1 in range(m1 + 1):
        c = math.comb(k - l1, m2) if 0 <= m2 <= k - l1 else 0
        s += math.comb(m1, l1) * c
    return math.comb(k, m1) * s * 2 ** m2


def omega_generating_marginal(k: int, n: int, m_n: int):
    """Generating-polynomial cross-check data for omega.

    Returns two dicts exponent-tuple -> integer that must coincide:

    * the omega side: sum over m_1..m_{n-1} of omega(k,n,(m_1..m_{n-1},m_n))
      times x_1^{m_1} ... x_{n-1}^{m_{n-1}};
    * the product side: the same polynomial assembled from the closed form
      sum over compositions l of k - m_n of
      prod_i C(k-s_{i-1}, l_i) * x_i^{l_i} (1+x_i)^{k-s_i},
      using sum_m C(k-s_i, m-l_i) x^m = x^{l_i} (1+x_i)^{k-s_i}.
    """
    from .poly import MultiPoly
    nv = n - 1
    if nv == 0:
        return ({(): 1}, {(): 1}) if m_n == k else ({}, {})
    omega_side = {}
    for ms in itertools.product(range(k + 1), repeat=nv):
        w = omega(k, n, ms + (m_n,))
        if w:
            omega_side[ms] = w
    prod_side = MultiPoly(nv)
    rem = k - m_n
    if rem >= 0:
        for ls in _compositions(rem, nv):
            s = 0
            coeff = 1
            term = MultiPoly.constant(nv, 1)
            for i in range(nv):
                li = ls[i]
                coeff *= math.comb(k - s, li) if li <= k - s else 0
                s += li
                if coeff == 0:
                    break
                xi = MultiPoly.variable(nv, i)
                base = xi + 1
                pw = MultiPoly.constant(nv, 1)
                for _ in range(k - s):
                    pw = pw * base
                mono = MultiPoly.constant(nv, 1)
                for _ in range(li):
                    mono = mono * xi
                term = term * mono * pw
            if coeff:
                prod_side = prod_side + term * coeff
    return omega_side, dict(prod_side.terms)


# ---------------------------------------------------------------------------
# Stirling-style base-change tables
# ---------------------------------------------------------------------------

@dataclass
class StirlingTables:
    """T[n][k] = (Delta^k x^n)|_0 (integers) and S[m][l] with
    C(x,m) = sum_l S[m][l] x^l (exact rationals), both square of size N+1."""

    N: int
    T: list = field(repr=False)
    S: list = field(repr=False)

    def check_identities(self) -> bool:
        for m in range(self.N + 1):
            for j in range(self.N + 1):
                want = 1 if m == j else 0
                st = sum((self.S[m][l] * self.T[l][j]
                          for l in range(self.N + 1)), Fraction(0))
                ts = sum((Fraction(self.T[m][l]) * self.S[l][j]
                          for l in range(self.N + 1)), Fraction(0))
                if st != want or ts != want:
                    return False
        return True


def stirling_tables(N: int) -> StirlingTables:
    if N > MAX_TABLE_SIZE:
        raise BoundExceeded(f"table size capped at {MAX_TABLE_SIZE}")
    # T by the nested-sum recurrence: T_{n,k} = sum_{l<n} C(n,l) T_{l,k-1}
    T = [[0] * (N + 1) for _ in range(N + 1)]
    T[0][0] = 1
    for n in range(1, N + 1):
        for k in range(1, N + 1):
            T[n][k] = sum(math.comb(n, l) * T[l][k - 1] for l in range(n))
    # S from elementary symmetric polynomials of 1..m-1
    S = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]
    S[0][0] = Fraction(1)
    for m in range(1, N + 1):
        # alpha_m of the m-1 numbers 1..m-1 vanishes: pad the list
        alphas = _elementary_symmetric(m - 1) + [0]
        fact = math.factorial(m)
        for l in range(m + 1):
            # x^{m-l} carries (-1)^l alpha_l(1..m-1)
            sign = -1 if l % 2 else 1
            S[m][m - l] = Fraction(sign * alphas[l], fact)
    return StirlingTables(N, T, S)


def _elementary_symmetric(m: int) -> list:
    """alpha_0..alpha_m of the numbers 1..m."""
    alphas = [1] + [0] * m
    for z in range(1, m + 1):
        for l in range(min(z, m), 0, -1):
            alphas[l] = alphas[l] + z * alphas[l - 1]
    return alphas


def delta_power_at_zero(n: int, k: int) -> int:
    """Direct (Delta^k x^n)|_0 by the alternating sum; oracle for T."""
    return _delta_at_zero([j ** n for j in range(k + 1)])


def monomial_to_mahler(coeffs, tables: StirlingTables):
    """Coefficient list a_n of sum a_n x^n -> Mahler coefficients (Fractions)."""
    out = [Fraction(0)] * len(coeffs)
    for n, a in enumerate(coeffs):
        if a == 0:
            continue
        for j in range(len(coeffs)):
            out[j] += Fraction(a) * tables.T[n][j]
    return out


def mahler_to_monomial(coeffs, tables: StirlingTables):
    out = [Fraction(0)] * len(coeffs)
    for j, f in enumerate(coeffs):
        if f == 0:
            continue
        for l in range(len(coeffs)):
            out[l] += Fraction(f) * tables.S[j][l]
    return out


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def mahler_polynomial(s: MahlerSeries):
    """The truncated series as a plain polynomial (monomial basis) with
    field coefficients; used for symbolic difference quotients."""
    from .poly import MultiPoly
    J = s.truncation
    tables = stirling_tables(max(J, 1))
    desc = s.desc
    out = []
    for l in range(J + 1):
        acc = None
        for j in range(l, J + 1):
            fj = s.coeffs[j]
            if fj.is_exact_zero:
                continue
            frac = tables.S[j][l]
            if frac == 0:
                continue
            prec = fj.precision
            prec = DEFAULT_PRECISION if prec == math.inf else int(prec)
            v = 0
            den = frac.denominator
            while den % desc.p == 0:
                den //= desc.p
                v += 1
            term = fj * LocalFieldElement.from_fraction(desc, frac, prec + v + 1)
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else LocalFieldElement.zero(desc))
    return MultiPoly.from_univariate(out)


def admissible_for_inversion(f: MahlerSeries) -> bool:
    """Near-identity precondition: f_0 = 0, |f_1 - 1| <= 1/p, |f_j| <= 1/p
    for j >= 2 (coefficient transport of the isometry condition)."""
    if not f.coeffs:
        return False
    p = f.p
    one = LocalFieldElement.one(f.desc)
    if not f.coeffs[0].is_zero():
        return False
    if len(f.coeffs) < 2 or (f.coeffs[1] - one).norm() > Fraction(1, p):
        return False
    return all(c.norm() <= Fraction(1, p) for c in f.coeffs[2:])


def invert(f: MahlerSeries, K: int, verify_precision: int | None = None
           ) -> MahlerSeries:
    """Compositional inverse coefficients up to K via the truncated linear
    system  delta_{k,1} = sum_n (f^{-1})_n * Delta^k C(f(x), n)|_0.

    The truncation has no a priori error analysis.  The composition round
    trip this function performs (raising SingularSystem when it fails) is a
    residual check, not a truncation certificate: row k of the system is
    coefficient k of compose(inverse, f), so it re-checks the equations just
    solved and says nothing about the coefficients past K.
    """
    if K < 1:
        raise ValueError(f"inversion needs K >= 1 to hold the identity "
                         f"coefficient, got K = {K}")
    if not admissible_for_inversion(f):
        raise SingularSystem("series is not an admissible near-identity map")
    desc = f.desc
    # entry (k, n) is delta_binom_at_zero(f, n, k), built from f(0..K) and
    # C(f(j), n) computed once each
    binoms = [binom_row(f.evaluate(j), K) for j in range(K + 1)]
    matrix = [[_delta_at_zero([binoms[j][n] for j in range(k + 1)])
               for n in range(K + 1)] for k in range(K + 1)]
    one = LocalFieldElement.one(desc)
    zero = LocalFieldElement.zero(desc)
    rhs = [one if k == 1 else zero for k in range(K + 1)]
    coeffs = solve_linear(matrix, rhs)
    inv = MahlerSeries(desc, coeffs)
    round_trip = compose(inv, f, K, check_integral=False)
    target = MahlerSeries(desc, [zero, one])
    prec = verify_precision
    if prec is None:
        prec = min((c.precision for c in round_trip.coeffs
                    if c.precision != math.inf), default=DEFAULT_PRECISION)
        prec = max(int(prec) - 2, 1)
    if not round_trip.same(target, precision=prec):
        raise SingularSystem(
            f"round-trip compose(invert(f), f) != id at precision p^-{prec}")
    return inv


# ---------------------------------------------------------------------------
# analytic (monomial-basis) composition
# ---------------------------------------------------------------------------

def analytic_compose(g_coeffs, f_coeffs):
    """(g o f) for polynomials given by monomial coefficient lists over Q.

    Multinomial expansion: substitute f into each power of g and collect.
    """
    out = [Fraction(0)]
    power = [Fraction(1)]  # f^0
    for m, a in enumerate(g_coeffs):
        if m > 0:
            power = _poly_mul_q(power, f_coeffs)
        if a == 0:
            continue
        if len(power) > len(out):
            out.extend([Fraction(0)] * (len(power) - len(out)))
        for i, c in enumerate(power):
            out[i] += Fraction(a) * c
    return out


def _poly_mul_q(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += Fraction(x) * y
    return out
