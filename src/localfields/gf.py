"""Finite field GF(p^u) arithmetic on packed integer codes, and the packed
series layout of the F_q((theta)) mantissa.

Elements are encoded as integers in [0, p^u): the code of
c_0 + c_1*a + ... + c_{u-1}*a^{u-1} is c_0 + c_1*p + ... (base-p packing),
where `a` is a root of the chosen irreducible modulus polynomial.

A series c_0 + c_1*T + ... of codes packs into one integer (Kronecker
substitution, D. Harvey, arXiv:0712.4046): code c_i fills slot i, 2u - 1
little-endian fields of `width` bytes, its u base-p digits in the first u
fields and zeros in the rest.  The sum of two packed series is one integer
sum (XOR for p = 2) with every field reduced mod p; their product is one
integer product whose slot k holds, field by field, the coefficients of a
polynomial of degree <= 2u - 2 in `a`.  Its fold through the modulus takes
u - 1 more integer products, one per power a^m, m >= u: the m-th fields of
all slots at once, times the packed digits of a^m mod the modulus.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import repeat

# memoryview casts to these widths (bytes) only, in native byte order
_NATIVE = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {1: "B"}
# entries a lazily filled table keeps before it starts over
_TABLE_LIMIT = 1 << 14
# GF(p^u), u > 1, multiplies and inverts through exp/log tables up to this q
_LOG_TABLE_BOUND = 1 << 10


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


def _width(bound: int) -> int:
    """Bytes per field that hold values up to `bound`: a power of two."""
    return 1 << ((bound.bit_length() - 1) // 8).bit_length()


def _fields(data: bytes, width: int):
    """The unsigned little-endian `width`-byte fields of `data`."""
    if width in _NATIVE:
        return memoryview(data).cast(_NATIVE[width])
    return map(int.from_bytes, zip(*[iter(data)] * width), repeat("little"))


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
        # packed series layout: a field holds a digit plus p, and a digit
        # plus u - 1 products of two digits while a product folds
        w = self.width = _width(max(2 * p - 1, (u - 1) * (p - 1) ** 2 + p - 1))
        self.slot_bytes = (2 * u - 1) * w
        self.slot_bits = 8 * self.slot_bytes
        digit_products = u * (p - 1) ** 2
        # products of up to this many codes need no wider fields; up to
        # _lazy codes they fold before any field is reduced
        self._direct = ((1 << 8 * w) - 1) // digit_products
        self._lazy = ((1 << 8 * w) - 1) // (digit_products * (1 + (u - 1) * (p - 1)))
        if w == 1:
            self._mod_bytes = bytes(i % p for i in range(256))
        # code -> its slot bytes, and the fields of a slot -> its code
        self._encode = _Table(lambda code: self._join(self._unpack(code)).to_bytes(
            self.slot_bytes, "little"))
        self._decode = _Table(lambda fields: self._pack(fields[:u]))
        # the fold: the shift of field m, and the packed digits of a^m
        self._fold_by = [(8 * w * m, self._join(
            _poly_mod((0,) * m + (1,), self.modulus, p)))
            for m in range(u, 2 * u - 1)]
        self._slot_masks = _Table(self._masks)
        self._exp = self._log = None
        if u > 1 and self.q <= _LOG_TABLE_BOUND:
            self._exp, self._log = self._log_tables()

    def _log_tables(self):
        """exp (twice over, so a sum of two logs indexes it) and log tables
        of the first code, in increasing order, that generates GF(q)*."""
        for g in range(2, self.q):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self._mul_slow(x, g)
            if len(powers) == self.q - 1:
                log = [0] * self.q
                for i, x in enumerate(powers):
                    log[x] = i
                return powers + powers, log
        raise AssertionError("no generator found")

    # -- scalar codes --------------------------------------------------------

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
        if self.p == 2:
            return a ^ b
        return self._pack(x + y for x, y in zip(self._unpack(a), self._unpack(b)))

    def neg(self, a: int) -> int:
        if self.u == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._pack(-x for x in self._unpack(a))

    def _mul_slow(self, a: int, b: int) -> int:
        prod = _poly_mul_mod_p(self._unpack(a), self._unpack(b), self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        red = red + (0,) * (self.u - len(red))
        return self._pack(red)

    def mul(self, a: int, b: int) -> int:
        if self.u == 1:
            return (a * b) % self.p
        if self._log is None:
            return self._mul_slow(a, b)
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        if self.u == 1:
            return pow(a, self.p - 2, self.p)
        if self._log is not None:
            return self._exp[self.q - 1 - self._log[a]]
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

    # -- packed series ---------------------------------------------------------

    def _join(self, digits) -> int:
        """The packed integer whose successive fields are `digits`."""
        if self.width == 1:
            return int.from_bytes(bytes(digits), "little")
        w = self.width
        return int.from_bytes(b"".join(d.to_bytes(w, "little") for d in digits),
                              "little")

    def _masks(self, n: int) -> tuple[int, int, int]:
        """For n slots: the mask of the first u fields of each, the mask of
        field 0 of each, and p in each of the first u fields."""
        bits, field = self.slot_bits, 8 * self.width
        every_slot = ((1 << n * bits) - 1) // ((1 << bits) - 1)
        digits = (1 << field * self.u) - 1
        p_digits = digits // ((1 << field) - 1) * self.p
        return (digits * every_slot, ((1 << field) - 1) * every_slot,
                p_digits * every_slot)

    def pack(self, codes) -> int:
        """The packed series of the codes, constant term first."""
        return int.from_bytes(b"".join(map(self._encode.__getitem__, codes)),
                              "little")

    def unpack(self, m: int, n: int) -> tuple:
        """The first n codes of the packed series m."""
        size = n * self.slot_bytes
        fields = _fields((m & ((1 << 8 * size) - 1)).to_bytes(size, "little"),
                         self.width)
        if self.u == 1:
            return tuple(fields)
        return tuple(map(self._decode.__getitem__,
                         zip(*[iter(fields)] * (2 * self.u - 1))))

    def _reduced(self, m: int, n: int) -> int:
        """The first n slots of m with every field reduced mod p."""
        size = n * self.slot_bytes
        data = (m & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        if self.width == 1:
            return int.from_bytes(data.translate(self._mod_bytes), "little")
        return self._join(map(self.p.__rmod__, _fields(data, self.width)))

    def packed_add(self, a: int, b: int, n: int) -> int:
        """a + b, both packed, to n codes."""
        if self.p == 2:
            return (a ^ b) & ((1 << n * self.slot_bits) - 1)
        return self._reduced(a + b, n)

    def packed_sub(self, a: int, b: int, n: int) -> int:
        """a - b to n codes: a + p - b in every digit field, reduced.  A
        borrow can only run above the n slots kept."""
        if self.p == 2:
            return (a ^ b) & ((1 << n * self.slot_bits) - 1)
        return self._reduced(a + self._slot_masks[n][2] - b, n)

    def packed_mul(self, a: int, b: int, n: int) -> int:
        """a * b to n codes.

        No field carries into the next: a field of the product's first n
        slots sums at most min(n, terms of a, terms of b) * u products of two
        digits, each <= (p - 1)^2.  While that bound fits the layout's fields
        the packed integers are multiplied as they are, else both are first
        spread to wider fields.
        """
        if n <= self._direct:
            prod = a * b
            if self.u == 1:
                return self._reduced(prod, n)
            if n > self._lazy:
                prod = self._reduced(prod, n)
        else:
            bits = self.slot_bits
            mask = (1 << n * bits) - 1
            a &= mask
            b &= mask
            if not (a and b):
                return 0
            la, lb = -(-a.bit_length() // bits), -(-b.bit_length() // bits)
            width = _width(min(la, lb) * self.u * (self.p - 1) ** 2)
            if width <= self.width:
                prod = self._reduced(a * b, n)
            else:
                size = n * (2 * self.u - 1) * width
                prod = self._spread(a, la, width) * self._spread(b, lb, width)
                data = (prod & ((1 << 8 * size) - 1)).to_bytes(size, "little")
                prod = self._join(map(self.p.__rmod__, _fields(data, width)))
            if self.u == 1:
                return prod
        low, field0, _ = self._slot_masks[n]
        folded = prod & low
        for shift, power in self._fold_by:
            folded += (prod >> shift & field0) * power
        return self._reduced(folded, n)

    def _spread(self, m: int, count: int, width: int) -> int:
        """The packed series m of `count` codes with every field moved to a
        field of `width` bytes."""
        w = self.width
        data = m.to_bytes(count * self.slot_bytes, "little")
        buf = bytearray(len(data) // w * width)
        for j in range(w):
            buf[j::width] = data[j::w]
        return int.from_bytes(buf, "little")

    def packed_inv(self, c: int, n: int) -> int:
        """The inverse of the packed unit c (code 0 nonzero) to n codes, by
        Newton's iteration x <- x - x * (c * x - 1), which doubles the codes
        x is known to at each step; the inverse mod T^n is unique."""
        x, k = self.pack((self.inv(self.unpack(c, 1)[0]),)), 1
        while k < n:
            k = min(2 * k, n)
            # c * x = 1 to the old k codes: code 0 is exactly 1
            e = self.packed_mul(c, x, k) - 1
            x = self.packed_sub(x, self.packed_mul(x, e, k), k)
        return x

    def series_mul(self, a, b, out, shift: int = 0) -> tuple:
        """Adds the truncated product of the code series a and b into `out`:
        a[i] * b[j] lands at slot shift + i + j while that is < len(out)."""
        n = max(len(out) - shift, 0)
        prod = self.packed_mul(self.pack(a[:n]), self.pack(b[:n]), n)
        out[shift:] = self.unpack(self.packed_add(self.pack(out[shift:]), prod, n), n)
        return tuple(out)
