"""Sparse multivariate polynomials over an arbitrary coefficient ring.

Coefficients may be Fractions, ints, or LocalFieldElements; the only
requirements are +, -, * and a zero test.  Division is provided exactly in
the two cases the difference calculus needs: by a scalar unit and by a
single variable that divides every monomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import PADIC, LocalFieldElement, _int_sum


def _is_zero_coeff(c) -> bool:
    if isinstance(c, LocalFieldElement):
        return c.is_exact_zero
    return c == 0


class MultiPoly:
    """dict of exponent tuples -> coefficient, over `nvars` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exp, c in (terms.items() if isinstance(terms, dict) else terms):
                if not _is_zero_coeff(c):
                    self.terms[tuple(exp)] = c

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int, one=1) -> "MultiPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): one})

    @classmethod
    def from_univariate(cls, coeffs) -> "MultiPoly":
        """coeffs[i] is the coefficient of x^i."""
        return cls(1, {(i,): c for i, c in enumerate(coeffs)})

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in out:
                s = out[exp] + c
                if _is_zero_coeff(s):
                    del out[exp]
                else:
                    out[exp] = s
            else:
                out[exp] = c
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            out = {}
            for exp, c in self.terms.items():
                prod = c * other
                if not _is_zero_coeff(prod):
                    out[exp] = prod
            return MultiPoly(self.nvars, out)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if exp in out:
                    prod = out[exp] + prod
                if _is_zero_coeff(prod):
                    out.pop(exp, None)
                else:
                    out[exp] = prod
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def scale_div(self, c) -> "MultiPoly":
        """Exact division of every coefficient by the scalar c."""
        return MultiPoly(self.nvars, {e: coeff / c
                                      for e, coeff in self.terms.items()})

    def div_var(self, i: int) -> "MultiPoly":
        """Exact division by variable i.

        Monomials lacking the variable must have coefficients that are zero
        at working precision (apparent zeros arise when truncated field
        coefficients cancel); they are dropped.  A genuinely nonzero
        remainder raises.
        """
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                if isinstance(c, LocalFieldElement) and c.is_zero():
                    continue
                raise ArithmeticError(f"polynomial not divisible by variable {i}")
            e = list(exp)
            e[i] -= 1
            out[tuple(e)] = c
        return MultiPoly(self.nvars, out)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=0)

    # -- substitution and evaluation ------------------------------------------

    def eval(self, values, one=1):
        """eval_cached under the name perfbench/tracer.py wraps."""
        return self.eval_cached(values, one)

    def eval_cached(self, values, one=1):
        """Evaluate at a full vector of values (any ring with +, *): one
        exact integer sum over Q_p (`_eval_padic`), else term by term with
        memoised per-variable power tables.  The zero polynomial is one * 0."""
        if not self.terms:
            return one * 0
        x0 = values[0] if values else None
        if x0.__class__ is LocalFieldElement and x0.desc.family == PADIC:
            out = _eval_padic(self.terms, values, x0.desc)
            if out is not None:
                return out
        powers = [None] * self.nvars

        def pw(i, e):
            tab = powers[i]
            if tab is None:
                tab = powers[i] = {1: values[i]}
            if e in tab:
                return tab[e]
            k = max(kk for kk in tab if kk <= e)
            acc = tab[k]
            while k < e:
                acc = acc * values[i]
                k += 1
                tab[k] = acc
            return acc

        acc = None
        for exp, c in self.terms.items():
            term = c
            for i, e in enumerate(exp):
                if e:
                    term = term * pw(i, e)
            acc = term if acc is None else acc + term
        return acc

    def subst(self, mapping: dict[int, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials (in the same variable set) for variables."""
        result = MultiPoly(self.nvars)
        for exp, c in self.terms.items():
            term = MultiPoly.constant(self.nvars, c)
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                base = mapping.get(i, MultiPoly.variable(self.nvars, i, _one_like(c)))
                for _ in range(e):
                    term = term * base
            result = result + term
        return result

    def extend(self, nvars: int) -> "MultiPoly":
        """View in a larger variable set (new variables appended)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable set")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def shift_in_var(self, i: int, w_index: int) -> "MultiPoly":
        """Substitute x_i -> x_i + x_{w_index} (both inside this poly's vars)."""
        one = _one_like(next(iter(self.terms.values()))) if self.terms else 1
        repl = MultiPoly.variable(self.nvars, i, one) + \
            MultiPoly.variable(self.nvars, w_index, one)
        return self.subst({i: repl})

    def coefficient_of(self, exp) -> object:
        return self.terms.get(tuple(exp), 0)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{self.terms[exp]}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _eval_padic(terms, values, desc):
    """One exact integer sum (`fields._int_sum`), or None unless every value
    and coefficient is an element over `desc`.  A term has valuation val(c) +
    sum e_i val(x_i) and relative precision min(rel(c), rel(x_i) for e_i > 0);
    an exact-zero c, or exact-zero x_i with e_i > 0, drops it."""
    for x in values:
        if x.__class__ is not LocalFieldElement or x.desc is not desc:
            return None
    pairs, N = [], math.inf
    for exp, c in terms.items():
        if c.__class__ is not LocalFieldElement or c.desc is not desc:
            return None
        if c._exact_zero:
            continue
        v, r, m = c._val, c._rel, c._mant
        for x, e in zip(values, exp):
            if e:
                if x._exact_zero:
                    break
                v += e * x._val
                if x._rel < r:
                    r = x._rel
                m *= x._mant ** e
        else:
            pairs.append((v, m))
            if v + r < N:
                N = v + r
    return _int_sum(desc, pairs, N) if pairs else LocalFieldElement.zero(desc)


def _one_like(c):
    if isinstance(c, LocalFieldElement):
        return LocalFieldElement.one(c.desc)
    if isinstance(c, Fraction):
        return Fraction(1)
    return 1


def quotient_in_new_var(poly: MultiPoly, i: int) -> MultiPoly:
    """The exact divided difference [P(..., x_i + w, ...) - P] / w.

    Returns a polynomial in nvars+1 variables, the new last variable being w.
    This is the continuous extension of the partial difference quotient in
    coordinate i and is total (no division at w = 0).
    """
    ext = poly.extend(poly.nvars + 1)
    w = poly.nvars
    shifted = ext.shift_in_var(i, w)
    return (shifted - ext).div_var(w)
