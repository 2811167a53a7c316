"""Tiny polynomial expression language for CLI arguments and fixture files.

Grammar (no general expression evaluator, by design):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | variable | '(' expr ')' | '-' factor

Variables: ``x`` (alias ``x1``), ``x1``..``x9``, ``y`` (alias of x when s=1),
and ``pi`` (the uniformizer of the ambient field; ``theta`` is an alias).
Rationals are ``3`` or ``3/4``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import LAURENT, FieldDescriptor, LocalFieldElement
from .poly import MultiPoly

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z][A-Za-z0-9]*|\^|\*|\+|-|\(|\))")


class SpecError(ValueError):
    def __init__(self, msg, pos=None):
        super().__init__(msg if pos is None else f"{msg} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise SpecError(f"bad character {text[pos]!r}", pos)
        out.append((m.group(1), pos))
        pos = m.end()
    return out


class PolySpec:
    """Parsed polynomial over Q[pi] in variables x1..xn.

    The MultiPoly has nvars = n + 1; the last variable is the uniformizer
    symbol ``pi`` (power of p over Q_p, power of theta over F_q((theta))).
    """

    def __init__(self, poly: MultiPoly, nx: int, text: str):
        self.poly = poly
        self.nx = nx
        self.text = text

    def uses_pi(self) -> bool:
        return any(e[-1] for e in self.poly.terms)

    def to_field_poly(self, desc: FieldDescriptor, precision: int) -> MultiPoly:
        """MultiPoly in the x-variables with LocalFieldElement coefficients."""
        out = {}
        pi = desc.uniformizer(precision)
        pi_pows = {0: LocalFieldElement.one(desc, precision)}
        for exp, c in self.poly.terms.items():
            k = exp[-1]
            if k not in pi_pows:
                pi_pows[k] = pi ** k
            if desc.family == LAURENT:
                if c.denominator % desc.p == 0:
                    raise SpecError(
                        f"coefficient {c} has p in the denominator; it does "
                        f"not exist in characteristic {desc.p}")
                num = c.numerator % desc.p
                den = pow(c.denominator, -1, desc.p)
                coeff = LocalFieldElement.from_int(desc, num * den, precision)
            else:
                coeff = LocalFieldElement.from_fraction(desc, c, precision)
            coeff = coeff * pi_pows[k]
            key = exp[:-1]
            out[key] = out[key] + coeff if key in out else coeff
        return MultiPoly(self.nx, out)

    def to_fraction_poly(self) -> MultiPoly:
        """MultiPoly in the x-variables over Q; requires pi-free input."""
        if self.uses_pi():
            raise SpecError("expression uses the uniformizer; bind a field")
        return MultiPoly(self.nx, {e[:-1]: c for e, c in self.poly.terms.items()})

    def __repr__(self):
        return f"PolySpec({self.text!r})"


def parse_poly(text: str, nx: int | None = None) -> PolySpec:
    toks = _tokenize(text)
    names = set(t for t, _ in toks if t[0].isalpha())
    max_seen = 1
    for name in names:
        m = re.fullmatch(r"x(\d+)", name)
        if m:
            max_seen = max(max_seen, int(m.group(1)))
        elif name not in ("x", "y", "pi", "theta"):
            raise SpecError(f"unknown symbol {name!r}")
    if nx is None:
        nx = max_seen
    nv = nx + 1  # trailing slot for pi

    def var_index(name):
        if name in ("x", "y"):
            return 0
        if name in ("pi", "theta"):
            return nx
        idx = int(name[1:]) - 1
        if idx >= nx:
            raise SpecError(f"variable {name} exceeds arity {nx}")
        return idx

    pos = [0]

    def peek():
        return toks[pos[0]][0] if pos[0] < len(toks) else None

    def take(expected=None):
        if pos[0] >= len(toks):
            raise SpecError("unexpected end of expression")
        tok, at = toks[pos[0]]
        if expected is not None and tok != expected:
            raise SpecError(f"expected {expected!r}, found {tok!r}", at)
        pos[0] += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() == "*":
            take()
            node = node * parse_factor()
        return node

    def parse_factor():
        node = parse_atom()
        if peek() == "^":
            take()
            e = take()
            if not e.isdigit():
                raise SpecError(f"exponent must be a nonnegative integer, "
                                f"found {e!r}")
            out = MultiPoly.constant(nv, Fraction(1))
            for _ in range(int(e)):
                out = out * node
            return out
        return node

    def parse_atom():
        tok = peek()
        if tok is None:
            raise SpecError("unexpected end of expression")
        if tok == "(":
            take()
            node = parse_expr()
            take(")")
            return node
        if tok == "-":
            take()
            return -parse_factor()
        take()
        if tok[0].isdigit():
            if "/" in tok:
                a, b = tok.split("/")
                return MultiPoly.constant(nv, Fraction(int(a), int(b)))
            return MultiPoly.constant(nv, Fraction(int(tok)))
        if tok[0].isalpha():
            return MultiPoly.variable(nv, var_index(tok), Fraction(1))
        raise SpecError(f"expected a number, variable or '(', found {tok!r}")

    poly = parse_expr()
    if pos[0] != len(toks):
        raise SpecError(f"trailing input {toks[pos[0]][0]!r}", toks[pos[0]][1])
    return PolySpec(poly, nx, text)
