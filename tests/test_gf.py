"""GF(p^u) code arithmetic and the truncated series product."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from localfields.gf import gf

# prime fields; extensions with exp/log tables, up to F_256 for p = 2;
# and F_2048, above the table bound, on digit polynomials alone
FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2), (2, 7), (3, 5),
          (2, 8), (2, 11)]
# 131 needs two-byte digit fields; 2^32 + 15 is prime and its digit
# products overflow 64-bit fields
SERIES_FIELDS = FIELDS + [(131, 1), (4294967311, 1)]


def elements(q):
    return st.integers(0, q - 1)


def digitwise_sum(p, u, a, b):
    return sum((a // p ** i + b // p ** i) % p * p ** i for i in range(u))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_field_axioms(pu, data):
    G = gf(*pu)
    a, b, c = (data.draw(elements(G.q)) for _ in range(3))
    add, mul = G.add, G.mul
    assert add(a, b) == digitwise_sum(G.p, G.u, a, b)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, G.neg(a)) == 0
    if a:
        assert mul(a, G.inv(a)) == 1


def schoolbook(G, a, b, out, shift):
    out = list(out)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if shift + i + j < len(out):
                out[shift + i + j] = G.add(out[shift + i + j], G.mul(x, y))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SERIES_FIELDS), st.integers(0, 4), st.data())
def test_series_mul_matches_schoolbook(pu, shift, data):
    G = gf(*pu)
    series = st.lists(elements(G.q), min_size=0, max_size=40)
    a, b, out = (tuple(data.draw(series)) for _ in range(3))
    assert G.series_mul(a, b, list(out), shift) == schoolbook(G, a, b, out,
                                                              shift)


def test_log_tables_agree_with_polynomial_products_on_f128():
    """Every product of F_128 through its exp/log tables equals the product
    of digit polynomials reduced by the modulus, and every inverse is one."""
    G = gf(2, 7)
    assert G._log is not None
    for a in G.elements():
        assert [G.mul(a, b) for b in G.elements()] == \
            [G._mul_slow(a, b) for b in G.elements()]
        if a:
            assert G.mul(a, G.inv(a)) == 1
