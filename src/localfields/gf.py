"""Finite field GF(p^u) arithmetic on packed integer codes.

Elements are encoded as integers in [0, p^u): the code of
c_0 + c_1*a + ... + c_{u-1}*a^{u-1} is c_0 + c_1*p + ... (base-p packing),
where `a` is a root of the chosen irreducible modulus polynomial.
"""

from __future__ import annotations

from functools import lru_cache


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
        self._mul_table = None
        if self.q <= 64:
            self._mul_table = [
                [self._mul_slow(a, b) for b in range(self.q)] for a in range(self.q)
            ]

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

    def add(self, a: int, b: int) -> int:
        if self.u == 1:
            return (a + b) % self.p
        ca, cb = self._unpack(a), self._unpack(b)
        return self._pack((x + y) % self.p for x, y in zip(ca, cb))

    def neg(self, a: int) -> int:
        if self.u == 1:
            return (-a) % self.p
        return self._pack((-x) % self.p for x in self._unpack(a))

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
        a[i] * b[j] lands at slot shift + i + j while that is < len(out)."""
        width = len(out)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                slot = shift + i + j
                if slot >= width:
                    break
                if y:
                    out[slot] = self.add(out[slot], self.mul(x, y))
        return tuple(out)

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
