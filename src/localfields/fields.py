"""Truncated exact arithmetic in the two locally compact ultrametric field
families: Q_p (characteristic zero) and F_{p^u}((theta)) (characteristic p),
together with their residue-ring towers and the valuation combinatorics of
factorials and binomial coefficients.

Every element carries an explicit precision budget: "known modulo pi^N".
Operations propagate the honest minimum; dividing by an element of valuation
v consumes v units of budget.  Exact zero is a distinguished value with
valuation +infinity so that no spurious precision is ever claimed.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .gf import GF, _is_prime, gf

DEFAULT_PRECISION = 32

PADIC = "padic"
LAURENT = "laurent"


class FieldError(Exception):
    pass


class DescriptorMismatch(FieldError):
    pass


class NonUnit(FieldError):
    pass


class PrecisionExhausted(FieldError):
    pass


@dataclass(frozen=True)
class FieldDescriptor:
    """One of the two locally compact families, with |pi| = 1/p fixed.

    family "padic": Q_p with uniformizer p (u is unused and forced to 1).
    family "laurent": F_{p^u}((theta)) with uniformizer theta.
    """

    family: str
    p: int
    u: int = 1

    def __post_init__(self):
        if self.family not in (PADIC, LAURENT):
            raise ValueError(f"unknown family {self.family!r}")
        if not _is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.u < 1:
            raise ValueError(f"u={self.u} must be >= 1")
        if self.family == PADIC and self.u != 1:
            raise ValueError("extension degree is only meaningful for laurent")

    @property
    def char(self) -> int:
        return 0 if self.family == PADIC else self.p

    @property
    def residue_size(self) -> int:
        """Cardinality of the residue field."""
        return self.p if self.family == PADIC else self.p ** self.u

    def residue_cardinality(self, k: int) -> int:
        """Cardinality of the level-k residue ring: p^k resp. p^(uk)."""
        return self.residue_size ** k

    def gf(self) -> GF:
        return gf(self.p, self.u if self.family == LAURENT else 1)

    def uniformizer(self, precision: int = DEFAULT_PRECISION) -> "LocalFieldElement":
        if self.family == PADIC:
            return LocalFieldElement.from_int(self, self.p, precision)
        return LocalFieldElement(self, 1, 1, precision - 1)


INFINITY = math.inf


# one descriptor object per field, so that element ops and the integer
# evaluation paths find operands over the same field by identity
@functools.cache
def padic(p: int) -> FieldDescriptor:
    return FieldDescriptor(PADIC, p)


@functools.cache
def laurent(p: int, u: int = 1) -> FieldDescriptor:
    return FieldDescriptor(LAURENT, p, u)


class LocalFieldElement:
    """A field element known modulo pi^N.

    Internal representation: (valuation v, mantissa, relative precision r)
    with N = v + r.  The mantissa holds the unit part:

    * padic:   an integer in [0, p^r) not divisible by p (element is
               p^v * mantissa mod p^N);
    * laurent: the r GF(p^u) codes c_i packed into one integer in the
               series layout of `gf` (slot i holds c_i), c_0 nonzero
               (element is theta^v * sum c_i theta^i mod theta^N).

    A mantissa of relative precision 0 is an *apparent zero*: the element is
    indistinguishable from 0 at precision N.  Exact zero is separate and has
    valuation +infinity.
    """

    __slots__ = ("desc", "_val", "_mant", "_rel", "_exact_zero")

    def __init__(self, desc, val, mant, rel, _exact_zero=False):
        self.desc = desc
        self._exact_zero = _exact_zero
        if _exact_zero:
            self._val, self._mant, self._rel = 0, 0, 0
            return
        # normalize: strip uniformizer factors out of the mantissa
        if desc.family == PADIC:
            p = desc.p
            mant %= p ** rel
            while rel > 0 and mant % p == 0:
                # a zero low digit means the true valuation is higher
                mant //= p
                val += 1
                rel -= 1
        elif rel > 0:
            bits = desc.gf().slot_bits
            mant &= (1 << bits * rel) - 1
            # zero low codes: the true valuation is higher
            tz = ((mant & -mant).bit_length() - 1) // bits if mant else rel
            mant >>= bits * tz
            val += tz
            rel -= tz
        if rel <= 0:
            mant = rel = 0
        self._val, self._mant, self._rel = val, mant, rel

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, desc: FieldDescriptor) -> "LocalFieldElement":
        z = _unit(desc, 0, 0, 0)
        z._exact_zero = True
        return z

    @classmethod
    def one(cls, desc: FieldDescriptor, precision: int = DEFAULT_PRECISION):
        return cls.from_int(desc, 1, precision)

    @classmethod
    def from_int(cls, desc, n: int, precision: int = DEFAULT_PRECISION):
        if n == 0:
            return cls.zero(desc)
        if desc.family == PADIC:
            p, v = desc.p, 0
            while n % p == 0:
                n //= p
                v += 1
            rel = precision - v
            return _unit(desc, v, n % p ** rel, rel) if rel > 0 \
                else _unit(desc, v, 0, 0)
        # integers embed through the prime field, whose codes pack to themselves
        c0 = desc.gf().from_int(n)
        return cls(desc, 0, c0, precision) if c0 else cls(desc, precision, 0, 0)

    @classmethod
    def from_fraction(cls, desc, q: Fraction, precision: int = DEFAULT_PRECISION):
        q = Fraction(q)
        if desc.family != PADIC:
            raise FieldError("from_fraction only makes sense over Q_p")
        if q == 0:
            return cls.zero(desc)
        num = cls.from_int(desc, q.numerator, precision + 0)
        den = cls.from_int(desc, q.denominator, precision + 0)
        return num.divide(den)

    @classmethod
    def from_laurent_coeffs(cls, desc, val: int, coeffs,
                            precision: int = DEFAULT_PRECISION):
        """theta^val * (coeffs[0] + coeffs[1] theta + ...), GF codes."""
        if desc.family != LAURENT:
            raise FieldError("laurent coefficients need a laurent descriptor")
        rel = max(precision - val, 0)
        return cls(desc, val, desc.gf().pack(tuple(coeffs)[:rel]), rel)

    @classmethod
    def apparent_zero(cls, desc, precision: int) -> "LocalFieldElement":
        return _unit(desc, precision, 0, 0)

    # -- basic queries -----------------------------------------------------

    @property
    def valuation(self):
        return INFINITY if self._exact_zero else self._val

    @property
    def precision(self):
        return INFINITY if self._exact_zero else self._val + self._rel

    @property
    def is_exact_zero(self) -> bool:
        return self._exact_zero

    def is_zero(self) -> bool:
        """True when the element is indistinguishable from 0 at its precision."""
        return self._exact_zero or self._rel == 0

    def norm(self) -> Fraction:
        """p^(-valuation); for an apparent zero this is the bound p^(-N),
        the best statement the budget supports (exact zero gives 0)."""
        if self._exact_zero:
            return Fraction(0)
        return Fraction(self.desc.p) ** (-self._val)

    def digits(self) -> tuple:
        """Unit-part digits, least significant first."""
        if self.desc.family == PADIC:
            m, out = self._mant, []
            for _ in range(self._rel):
                out.append(m % self.desc.p)
                m //= self.desc.p
            return tuple(out)
        return self.desc.gf().unpack(self._mant, self._rel)

    def lift_int(self) -> int:
        """Canonical integer representative p^v * mantissa (padic, v >= 0)."""
        if self.desc.family != PADIC:
            raise FieldError("lift_int is a padic operation")
        if self._exact_zero:
            return 0
        if self._val < 0:
            raise FieldError("cannot lift an element of negative valuation")
        if self._rel == 0:
            return 0
        return self.desc.p ** self._val * self._mant

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other) -> "LocalFieldElement":
        """The other operand of a binary op: an int is coerced, anything
        else must be an element over the same field.  Callers skip this when
        `other.__class__ is LocalFieldElement and other.desc is self.desc`."""
        if isinstance(other, int):
            return self._coerce_int(other)
        if (not isinstance(other, LocalFieldElement)
                or other.desc is not self.desc and other.desc != self.desc):
            raise DescriptorMismatch(f"operand descriptors differ: {self.desc} vs "
                                     f"{getattr(other, 'desc', type(other))}")
        return other

    def _coerce_int(self, n: int) -> "LocalFieldElement":
        """An integer operand is exactly known; give it enough precision that
        the coercion never binds the result's budget: relative precision one
        more than the element's absolute precision, and never less than the
        element's own relative precision (which binds at valuation < -1)."""
        desc = self.desc
        if self._exact_zero:
            return LocalFieldElement.from_int(desc, n, DEFAULT_PRECISION)
        if not n:
            return LocalFieldElement.zero(desc)
        p, m, v = desc.p, n, 0
        while m % p == 0:
            m //= p
            v += 1
        rel = max(self._val + self._rel + 1, self._rel)
        if desc.family != PADIC:
            return LocalFieldElement.from_int(desc, n, rel + v)
        return _unit(desc, v, m % p ** rel, rel) if rel > 0 \
            else _unit(desc, v, 0, 0)

    def _sum(self, other, sign: int) -> "LocalFieldElement":
        """self + sign * other (sign is 1 or -1), aligned at the lesser
        valuation and known to the lesser precision."""
        if other.__class__ is not LocalFieldElement or other.desc is not self.desc:
            other = self._operand(other)
        if self._exact_zero:
            return other if sign > 0 else -other
        if other._exact_zero:
            return self
        desc, sv, ov = self.desc, self._val, other._val
        v0 = sv if sv < ov else ov
        N = min(sv + self._rel, ov + other._rel)
        rel = N - v0
        if rel <= 0:
            return LocalFieldElement.apparent_zero(desc, N)
        if desc.family == PADIC:
            p = desc.p
            a = self._mant if sv == v0 else self._mant * p ** (sv - v0)
            b = other._mant if ov == v0 else other._mant * p ** (ov - v0)
            s = (a + b if sign > 0 else a - b) % p ** rel
            # a nonzero low digit means the sum is already normalised
            return _unit(desc, v0, s, rel) if s % p \
                else LocalFieldElement(desc, v0, s, rel)
        G = desc.gf()
        bits = G.slot_bits
        a = self._mant << bits * (sv - v0)
        b = other._mant << bits * (ov - v0)
        s = G.packed_add(a, b, rel) if sign > 0 else G.packed_sub(a, b, rel)
        # a nonzero low code means the sum is already normalised
        return _unit(desc, v0, s, rel) if s & ((1 << bits) - 1) \
            else LocalFieldElement(desc, v0, s, rel)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        if self._exact_zero:
            return self
        desc, rel = self.desc, self._rel
        if desc.family == PADIC:
            return _unit(desc, self._val, (-self._mant) % desc.p ** rel, rel)
        return _unit(desc, self._val, desc.gf().packed_sub(0, self._mant, rel), rel)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not LocalFieldElement or other.desc is not self.desc:
            other = self._operand(other)
        desc = self.desc
        if self._exact_zero or other._exact_zero:
            return LocalFieldElement.zero(desc)
        v = self._val + other._val
        rel = self._rel if self._rel < other._rel else other._rel
        if rel == 0:
            return LocalFieldElement.apparent_zero(desc, v)
        # a unit times a unit is a unit
        if desc.family == PADIC:
            return _unit(desc, v, self._mant * other._mant % desc.p ** rel, rel)
        return _unit(desc, v, desc.gf().packed_mul(self._mant, other._mant, rel),
                     rel)

    __rmul__ = __mul__

    def inv_unit(self) -> "LocalFieldElement":
        """Inverse of a unit (valuation 0), modulo pi^rel.

        Q_p: one modular inversion of the mantissa.  F_q((theta)): Newton's
        iteration on the packed series (`GF.packed_inv`).
        """
        if self.is_zero() or self._val != 0:
            raise NonUnit(f"inv_unit needs valuation 0, got {self.valuation}")
        rel = self._rel
        if self.desc.family == PADIC:
            return _unit(self.desc, 0, pow(self._mant, -1, self.desc.p ** rel), rel)
        return _unit(self.desc, 0, self.desc.gf().packed_inv(self._mant, rel), rel)

    def divide(self, other) -> "LocalFieldElement":
        """self / other; consumes valuation(other) units of precision budget."""
        if other.__class__ is not LocalFieldElement or other.desc is not self.desc:
            other = self._operand(other)
        if other.is_zero():
            raise NonUnit("division by (apparent) zero")
        if self._exact_zero:
            return self
        # other's mantissa is its unit part; the quotient is never exact zero
        quo = self * _unit(self.desc, 0, other._mant, other._rel).inv_unit()
        return _unit(self.desc, quo._val - other._val, quo._mant, quo._rel)

    def __truediv__(self, other):
        return self.divide(other)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return self._coerce_int(other).divide(self)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            rel = DEFAULT_PRECISION if self._exact_zero else self._rel
            return (LocalFieldElement.one(self.desc, rel) / self) ** (-e)
        if e == 0:
            return LocalFieldElement.one(
                self.desc,
                DEFAULT_PRECISION if self._exact_zero else self._val + self._rel)
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- comparisons -------------------------------------------------------

    def same(self, other, precision=None) -> bool:
        """Equality at working precision: the difference is apparent zero."""
        if isinstance(other, int):
            other = self._coerce_int(other)
        d = self - other
        if d.is_exact_zero:
            return True
        if precision is not None:
            return d.is_zero() or d._val >= precision
        return d.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LocalFieldElement):
            return NotImplemented
        return (self.desc == other.desc and self._exact_zero == other._exact_zero
                and self._val == other._val and self._mant == other._mant
                and self._rel == other._rel)

    def __hash__(self):
        return hash((self.desc, self._exact_zero, self._val, self._mant, self._rel))

    # -- projection to residue rings ----------------------------------------

    def project(self, k: int):
        """Residue of the element in the level-k quotient ring.

        Requires valuation >= 0 and precision >= k.
        """
        if k < 1:
            raise ValueError("level k must be >= 1")
        if self.precision < k:
            raise PrecisionExhausted(
                f"element known mod pi^{self.precision}, need level {k}")
        if self._exact_zero:
            return 0 if self.desc.family == PADIC else (0,) * k
        if self._val < 0:
            raise FieldError("cannot project an element of negative valuation")
        if self.desc.family == PADIC:
            return self.lift_int() % self.desc.p ** k
        G = self.desc.gf()
        return G.unpack(self._mant << G.slot_bits * self._val, k)

    # -- display -------------------------------------------------------------

    def __repr__(self):
        if self._exact_zero:
            return f"<0 exactly ({self.desc.family} p={self.desc.p})>"
        if self.desc.family == PADIC:
            ds = "".join(str(d) for d in reversed(self.digits()))
            return f"<p={self.desc.p}:{ds or '0'}*{self.desc.p}^{self._val}" \
                   f" mod {self.desc.p}^{self.precision}>"
        terms = " + ".join(f"{c}*t^{self._val + i}"
                           for i, c in enumerate(self.digits()) if c)
        return f"<p={self.desc.p},u={self.desc.u}:{terms or '0'}" \
               f" mod t^{self.precision}>"


def _unit(desc, val, mant, rel) -> LocalFieldElement:
    """An element whose mantissa is normalised by construction (a unit mod
    pi^rel, reduced; or 0 when rel = 0), built without __init__'s
    normalisation."""
    x = object.__new__(LocalFieldElement)
    x.desc, x._val, x._mant, x._rel, x._exact_zero = desc, val, mant, rel, False
    return x


def _int_sum(desc, terms, N) -> LocalFieldElement:
    """sum p^v * m over the (v, m) int pairs in `terms` (at least one),
    known modulo p^N: one exact integer sum, normalised once.  Callers pass
    N = the least val + rel over their terms, the budget their element loop
    claims; each element op agrees with the exact integer op on the
    representatives p^val * mantissa modulo the precision it claims, so both
    give (value mod p^N, N), whose normalised form is unique."""
    v = min([t[0] for t in terms])
    if N <= v:
        return _unit(desc, N, 0, 0)
    p, s = desc.p, 0
    for w, m in terms:
        s += m * p ** (w - v) if w != v else m
    return LocalFieldElement(desc, v, s, N - v)


def _int_weighted_sum(desc, terms) -> LocalFieldElement:
    """sum c * b over the (c, b) pairs of an element over Q_p = `desc` and an
    int, as one `_int_sum` (exact zero if no term is nonzero), each term with
    the budget of the element product `c * b`: valuation val(c) + v_p(b),
    relative precision rel(c), since b is coerced to at least rel(c) digits."""
    p, pairs, N = desc.p, [], math.inf
    for c, b in terms:
        if c.desc is not desc and c.desc != desc:
            raise DescriptorMismatch(f"operand over {c.desc}, not {desc}")
        if c._exact_zero or not b:
            continue
        vb, u = 0, b
        while not u % p:
            u //= p
            vb += 1
        prec = c._val + vb + c._rel
        if prec < N:
            N = prec
        pairs.append((c._val, c._mant * b))
    return _int_sum(desc, pairs, N) if pairs else LocalFieldElement.zero(desc)


def _residue_ops(desc, N):
    """The ring O/pi^N (O the integers of `desc`, N >= 1) on plain canonical
    representatives: ints in [0, p^N) over Q_p, packed series of N codes over
    F_q((theta)).  Returns (rep, horner, mul, sub, inv, low): rep(c)
    represents an element c of valuation >= 0 known at least mod pi^N
    (p^val * mant, resp. mant shifted up val slots); horner(cs, x) is the
    polynomial with coefficients cs, highest degree first, at x; inv
    inverts a unit; low(a) is nonzero exactly when a is a unit."""
    if desc.family == PADIC:
        p, M = desc.p, desc.p ** N

        def horner(cs, x):
            acc = 0
            for c in cs:
                acc = (acc * x + c) % M
            return acc

        return (lambda c: p ** c._val * c._mant % M, horner,
                lambda a, b: a * b % M,
                lambda a, b: (a - b) % M,
                lambda a: pow(a, -1, M),
                lambda a: a % p)
    G = desc.gf()
    bits = G.slot_bits
    mask = (1 << bits * N) - 1
    add, mul = G.packed_add, G.packed_mul

    def horner(cs, x):
        acc = 0
        for c in cs:
            acc = add(mul(acc, x, N), c, N)
        return acc

    return (lambda c: (c._mant << bits * c._val) & mask, horner,
            lambda a, b: mul(a, b, N),
            lambda a, b: G.packed_sub(a, b, N),
            lambda a: G.packed_inv(a, N),
            lambda a: a & ((1 << bits) - 1))


# ---------------------------------------------------------------------------
# element literals (external interface shared by the CLI and fixtures)
# ---------------------------------------------------------------------------

_PADIC_RE = re.compile(r"^p=(\d+)(?:,N=(\d+))?:([0-9]+)$")
_LAURENT_RE = re.compile(r"^p=(\d+),u=(\d+)(?:,N=(\d+))?:(.*)$")


def parse_element(text: str) -> LocalFieldElement:
    """Parse an element literal.

    padic:   ``p=3:210``       digits d2 d1 d0 (d0 rightmost, value = sum d_i p^i)
    laurent: ``p=2,u=1:1+1*t+0*t^2``   GF coefficient codes by power of t
    Either form takes an optional ``N=<precision>``.
    """
    text = text.strip()
    m = _LAURENT_RE.match(text)
    if m:
        p, u, N, body = int(m.group(1)), int(m.group(2)), m.group(3), m.group(4)
        N = int(N) if N else DEFAULT_PRECISION
        desc = laurent(p, u)
        G = desc.gf()
        coeffs = {}
        for part in body.replace("-", "+-").split("+"):
            part = part.strip()
            if not part:
                continue
            if "*" in part:
                c, mono = part.split("*")
                mono = mono.strip()
                exp = 1 if mono == "t" else int(mono.split("^")[1])
            elif part == "t":
                c, exp = "1", 1
            elif part.startswith("t^"):
                c, exp = "1", int(part[2:])
            else:
                c, exp = part, 0
            ci = int(c)
            if u == 1:
                code = ci % p
            else:
                if not 0 <= ci < G.q:
                    raise ValueError(
                        f"GF({p}^{u}) coefficient codes must lie in 0..{G.q - 1}")
                code = ci
            coeffs[exp] = G.add(coeffs.get(exp, 0), code)
        if not coeffs:
            return LocalFieldElement.zero(desc)
        v = min(coeffs)
        width = max(coeffs) - v + 1
        arr = [0] * width
        for e, c in coeffs.items():
            arr[e - v] = c
        return LocalFieldElement.from_laurent_coeffs(desc, v, arr, N)
    m = _PADIC_RE.match(text)
    if m:
        p, N, ds = int(m.group(1)), m.group(2), m.group(3)
        N = int(N) if N else DEFAULT_PRECISION
        desc = padic(p)
        value = 0
        for ch in ds:
            d = int(ch)
            if d >= p:
                raise ValueError(f"digit {d} out of range for p={p}")
            value = value * p + d
        return LocalFieldElement.from_int(desc, value, N)
    raise ValueError(f"cannot parse element literal {text!r}")


def format_element(x: LocalFieldElement) -> str:
    if x.desc.family == PADIC:
        if x.is_exact_zero or x._val < 0:
            return f"p={x.desc.p}:0" if x.is_exact_zero else repr(x)
        digits = "".join(str(d) for d in reversed(
            [*(0,) * x._val, *x.digits()])).lstrip("0") or "0"
        return f"p={x.desc.p},N={x.precision}:{digits}"
    if x.is_exact_zero:
        return f"p={x.desc.p},u={x.desc.u}:0"
    parts = [f"{c}*t^{x._val + i}" for i, c in enumerate(x.digits()) if c]
    return f"p={x.desc.p},u={x.desc.u},N={x.precision}:" + ("+".join(parts) or "0")


# ---------------------------------------------------------------------------
# residue rings S_{p^k} and the projection tower
# ---------------------------------------------------------------------------

class ResidueRing:
    """The finite quotient ring B(K,0,1)/B(K,0,p^-k).

    padic: Z/p^k with elements encoded as integers 0..p^k-1.
    laurent: F_{p^u}[theta]/theta^k with elements encoded as k-tuples of
    GF codes (constant coefficient first).

    Enumeration order is lexicographic on digit strings, most significant
    digit first for padic (i.e. plain integer order) and coefficient order
    c_0, c_1, ... for laurent.
    """

    def __init__(self, desc: FieldDescriptor, k: int):
        if k < 1:
            raise ValueError("level k must be >= 1")
        self.desc = desc
        self.k = k
        self.cardinality = desc.residue_cardinality(k)

    def elements(self):
        if self.desc.family == PADIC:
            return iter(range(self.cardinality))
        return itertools.product(range(self.desc.gf().q), repeat=self.k)

    def zero(self):
        return 0 if self.desc.family == PADIC else (0,) * self.k

    def one(self):
        return 1 if self.desc.family == PADIC else (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        if self.desc.family == PADIC:
            return (a + b) % self.cardinality
        G = self.desc.gf()
        return tuple(G.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        if self.desc.family == PADIC:
            return (-a) % self.cardinality
        G = self.desc.gf()
        return tuple(G.neg(x) for x in a)

    def mul(self, a, b):
        if self.desc.family == PADIC:
            return (a * b) % self.cardinality
        return self.desc.gf().series_mul(a, b, [0] * self.k)

    def is_unit(self, a) -> bool:
        if self.desc.family == PADIC:
            return a % self.desc.p != 0
        return a[0] != 0

    def units(self):
        return (a for a in self.elements() if self.is_unit(a))

    def lift(self, a, precision: int = DEFAULT_PRECISION) -> LocalFieldElement:
        """Canonical representative in the field, exact up to `precision`."""
        if self.desc.family == PADIC:
            return LocalFieldElement.from_int(self.desc, a, precision)
        return LocalFieldElement.from_laurent_coeffs(self.desc, 0, a, precision)

    def representatives(self, a, count: int = 2, precision: int = DEFAULT_PRECISION):
        """`count` distinct field representatives of the class a.

        The j-th representative refines the class by the digits of j written
        at the levels just above k, so count = (residue size)^m enumerates
        every refinement m levels deeper.
        """
        reps = []
        q = self.desc.residue_size
        lifted = self.lift(a, precision)
        for j in range(count):
            base = lifted
            if j:
                if self.desc.family == PADIC:
                    bump = LocalFieldElement.from_int(
                        self.desc, j * self.desc.p ** self.k, precision)
                else:
                    digits = []
                    jj = j
                    while jj:
                        digits.append(jj % q)
                        jj //= q
                    bump = LocalFieldElement.from_laurent_coeffs(
                        self.desc, self.k, digits, precision)
                base = base + bump
            reps.append(base)
        return reps


class ProjectionMap:
    """pi_k (field to level k) or pi^l_k (level l down to level k <= l)."""

    def __init__(self, desc: FieldDescriptor, target: int, source: int | None = None):
        if source is not None and source < target:
            raise ValueError("source level must be >= target level")
        self.desc = desc
        self.target = target
        self.source = source

    def __call__(self, x):
        if self.source is None:
            return x.project(self.target)
        return project_down(self.desc, x, self.source, self.target)


def project_down(desc: FieldDescriptor, a, l: int, k: int):
    """pi^l_k on encoded residue elements."""
    if l < k:
        raise ValueError("source level must be >= target level")
    if desc.family == PADIC:
        return a % desc.p ** k
    return tuple(a[:k])


# ---------------------------------------------------------------------------
# valuation combinatorics
# ---------------------------------------------------------------------------

def digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def legendre_lambda(n: int, p: int) -> int:
    """(n - s_n)/(p-1): the p-adic valuation of n factorial."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n - digit_sum(n, p)) // (p - 1)


def binom_valuation_exponent(k: int, q: int, p: int) -> int:
    """v_p of the binomial coefficient C(k, q), by digit sums."""
    if not 0 <= q <= k:
        raise ValueError(f"q={q} out of range 0..{k}")
    return (digit_sum(q, p) + digit_sum(k - q, p) - digit_sum(k, p)) // (p - 1)


def binom_valuation(k: int, q: int, p: int) -> Fraction:
    """|C(k,q)|_p as an exact rational p^(-e)."""
    return Fraction(1, p ** binom_valuation_exponent(k, q, p))


def carmichael_exponent(p: int, k: int) -> int:
    """Exponent of the unit group (Z/p^k)^*."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if p == 2:
        if k == 1:
            return 1
        if k == 2:
            return 2
        return 2 ** (k - 2)
    return p ** (k - 1) * (p - 1)
