"""Finite field GF(p^u) arithmetic on packed integer codes.

Elements are encoded as integers in [0, p^u): the code of
c_0 + c_1*a + ... + c_{u-1}*a^{u-1} is c_0 + c_1*p + ... (base-p packing),
where `a` is a root of the chosen irreducible modulus polynomial.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import repeat

_ORDER = sys.byteorder
# memoryview casts to these widths (bytes) only
_NATIVE = {1: "B", 2: "H", 4: "I", 8: "Q"}
# entries a lazily filled table keeps before it starts over
_TABLE_LIMIT = 1 << 14


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_mul_mod_p(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return tuple(a)


def _find_irreducible(p: int, u: int) -> tuple[int, ...]:
    """Smallest monic irreducible polynomial of degree u over F_p.

    Brute force: a monic polynomial of degree u is irreducible iff no monic
    polynomial of degree 1..u//2 divides it; for the small u used here this
    trial division is fast enough.
    """
    if u == 1:
        return (0, 1)  # x, never used

    def all_monic(deg):
        for code in range(p ** deg):
            coeffs = []
            c = code
            for _ in range(deg):
                coeffs.append(c % p)
                c //= p
            yield tuple(coeffs) + (1,)

    for f in all_monic(u):
        if all(any(_poly_mod(f, d, p))
               for deg in range(1, u // 2 + 1) for d in all_monic(deg)):
            return f
    raise AssertionError("no irreducible polynomial found")


def _fields(data: bytes, width: int):
    """The unsigned `width`-byte fields of `data`, in native byte order."""
    if width in _NATIVE:
        return memoryview(data).cast(_NATIVE[width])
    return map(int.from_bytes, zip(*[iter(data)] * width), repeat(_ORDER))


class _Table(dict):
    """Computes a missing entry with `fn` and keeps it; starts over once
    it holds _TABLE_LIMIT entries, so its size stays bounded for any q."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        if len(self) >= _TABLE_LIMIT:
            self.clear()
        value = self[key] = self.fn(key)
        return value


@lru_cache(maxsize=None)
def gf(p: int, u: int = 1) -> "GF":
    return GF(p, u)


class GF:
    """Arithmetic in GF(p^u); do not construct directly, use gf(p, u)."""

    def __init__(self, p: int, u: int):
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if u < 1:
            raise ValueError(f"extension degree u={u} must be >= 1")
        self.p = p
        self.u = u
        self.q = p ** u
        self.modulus = _find_irreducible(p, u)
        self._mul_table = self._add_table = None
        if self.q <= 64:
            self._mul_table = [
                [self._mul_slow(a, b) for b in range(self.q)] for a in range(self.q)
            ]
            if p > 2 and u > 1:
                self._add_table = [[self._add_digits(a, b) for b in range(self.q)]
                                   for a in range(self.q)]
                self._neg_table = [row.index(0) for row in self._add_table]
        # series_mul: code -> its packed slot, per field width; and the
        # reduced digits of a slot -> the code they fold to
        self._slots = {}
        self._fold = _Table(self._fold_digits)

    def _unpack(self, code: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.u):
            coeffs.append(code % self.p)
            code //= self.p
        return tuple(coeffs)

    def _pack(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def _add_digits(self, a: int, b: int) -> int:
        return self._pack(x + y for x, y in zip(self._unpack(a), self._unpack(b)))

    def add(self, a: int, b: int) -> int:
        if self.u == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_digits(a, b)

    def neg(self, a: int) -> int:
        if self.u == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if self._add_table is not None:
            return self._neg_table[a]
        return self._pack(-x for x in self._unpack(a))

    def _mul_slow(self, a: int, b: int) -> int:
        if self.u == 1:
            return (a * b) % self.p
        prod = _poly_mul_mod_p(self._unpack(a), self._unpack(b), self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        red = red + (0,) * (self.u - len(red))
        return self._pack(red)

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def series_mul(self, a, b, out, shift: int = 0) -> tuple:
        """Adds the truncated product of the code series a and b into `out`:
        a[i] * b[j] lands at slot shift + i + j while that is < len(out).

        Kronecker substitution: a series becomes one integer with 2u - 1
        fields of `width` bytes per term, the u base-p digits of its code in
        the first u.  One integer product then holds, in the fields of slot
        k, the coefficients of a polynomial of degree <= 2u - 2 in the
        generator.  No field carries into the next, because none exceeds
        min(len) * u * (p - 1)^2 + (p - 1), the last term for `out` itself.
        Each slot is reduced mod p and folded through the modulus.
        """
        n = max(len(out) - shift, 0)
        a, b = a[:n], b[:n]
        if not a or not b:
            return tuple(out)
        p, span = self.p, 2 * self.u - 1
        bound = min(len(a), len(b)) * self.u * (p - 1) ** 2 + p - 1
        # bytes per field: the least power of two that holds `bound`
        width = 1 << ((bound.bit_length() - 1) // 8).bit_length()
        slots = self._slots.get(width)
        if slots is None:
            slots = self._slots[width] = _Table(
                lambda c: b"".join(d.to_bytes(width, _ORDER) for d in self._unpack(c))
                + bytes((span - self.u) * width))
        slot = slots.__getitem__
        prod = (int.from_bytes(b"".join(map(slot, a)), _ORDER)
                * int.from_bytes(b"".join(map(slot, b)), _ORDER))
        tail = out[shift:]
        if any(tail):
            prod += int.from_bytes(b"".join(map(slot, tail)), _ORDER)
        size = n * span * width
        data = prod.to_bytes(max(size, (prod.bit_length() + 7) // 8), _ORDER)
        digits = map(p.__rmod__, _fields(data[:size], width))
        out[shift:] = map(self._fold.__getitem__, zip(*[digits] * span))
        return tuple(out)

    def _fold_digits(self, digits: tuple[int, ...]) -> int:
        """Code of sum(digits[m] * a^m), reduced through the modulus."""
        return self._pack(_poly_mod(digits, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        if self.u == 1:
            return pow(a, self.p - 2, self.p)
        # a^(q-2) by square and multiply
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def from_int(self, n: int) -> int:
        """Image of the rational integer n under the prime-field embedding."""
        return n % self.p

    def elements(self):
        return range(self.q)
