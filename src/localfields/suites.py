"""Verification suites: every acceptance-grade property of the package as a
deterministic, seeded check returning structured records.  The CLI runner
and the test suite share these implementations.

Each suite pins its own parameter set (primes, sizes, tolerances); the run
configuration contributes the working precision, the seed, the output path
and the selection only.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import calculus, loops, mahler, oneparam, tower
from .calculus import FnRepr, PhiPoint, TreePoint
from .fields import (FieldError, LocalFieldElement,
                     binom_valuation_exponent, laurent, legendre_lambda, padic)
from .linalg import SingularSystem
from .poly import MultiPoly


@dataclass
class CheckRecord:
    check_id: str
    module: str
    operation: str
    status: str  # PASS | FAIL
    inputs: str = ""
    margin: str = "0"
    elapsed: float = 0.0

    @property
    def passed(self):
        return self.status == "PASS"

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "module": self.module,
            "operation": self.operation,
            "status": self.status,
            "inputs": self.inputs,
            "margin": self.margin,
            "elapsed": round(self.elapsed, 6),
        }


@dataclass
class RunConfig:
    precision: int = 32
    seed: int = 0
    suite: str = "all"
    out: str | None = None


@dataclass
class Report:
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        return {
            "checks": len(self.records),
            "passed": sum(r.passed for r in self.records),
            "failed": sum(not r.passed for r in self.records),
        }

    def emit(self, path=None) -> str:
        lines = [json.dumps(r.to_json(), sort_keys=True)
                 for r in sorted(self.records, key=lambda r: r.check_id)]
        lines.append(json.dumps({"summary": self.summary()}, sort_keys=True))
        text = "\n".join(lines)
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text


def _record(check_id, module, operation, ok, inputs="", margin="0",
            t0=None) -> CheckRecord:
    return CheckRecord(check_id, module, operation,
                       "PASS" if ok else "FAIL", inputs, margin,
                       time.perf_counter() - t0 if t0 else 0.0)


# ---------------------------------------------------------------------------
# 1. Stirling-style base-change identities, exactly over Q, size 32
# ---------------------------------------------------------------------------

def suite_stirling(cfg: RunConfig, N: int = 32):
    t0 = time.perf_counter()
    tables = mahler.stirling_tables(N)
    ok = tables.check_identities()
    records = [_record("01-stirling-identities", "mahler", "stirling_tables",
                       ok, f"N={N}", t0=t0)]
    t0 = time.perf_counter()
    direct = all(tables.T[n][k] == mahler.delta_power_at_zero(n, k)
                 for n in range(N + 1) for k in range(N + 1))
    records.append(_record("01-stirling-direct-delta", "mahler",
                           "stirling_tables", direct, f"N={N}", t0=t0))
    return records


# ---------------------------------------------------------------------------
# 2. Mahler round trip on integer polynomials
# ---------------------------------------------------------------------------

def suite_mahler_roundtrip(cfg: RunConfig, n_polys: int = 200,
                           n_points: int = 50):
    rng = random.Random(cfg.seed + 2)
    records = []
    for p in (2, 3, 5):
        t0 = time.perf_counter()
        bad = 0
        for _ in range(n_polys):
            deg = rng.randint(0, 8)
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]

            def f(x, c=coeffs):
                acc = 0
                for a in reversed(c):
                    acc = acc * x + a
                return acc

            series = mahler.expand(f, 8, p, cfg.precision)
            points = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(n_points)]
            for x in points:
                want = LocalFieldElement.from_int(padic(p), f(x),
                                                  cfg.precision)
                got = series.evaluate(x)
                if not got.same(want):
                    bad += 1
        records.append(_record(f"02-mahler-roundtrip-p{p}", "mahler",
                               "expand/evaluate", bad == 0,
                               f"{n_polys} polys x {n_points} points",
                               margin=str(bad), t0=t0))
    return records


# ---------------------------------------------------------------------------
# 3. product / multi-factor / chain identities at |t| = 1
# ---------------------------------------------------------------------------

def _rand_poly(rng, nvars, deg, p, precision, spread=4):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        c = rng.randint(-spread, spread)
        if c:
            terms[exp] = LocalFieldElement.from_int(padic(p), c, precision)
    if not terms:
        terms[(0,) * nvars] = LocalFieldElement.from_int(padic(p), 1, precision)
    return MultiPoly(nvars, terms)


def _unit_int(rng, p):
    while True:
        t = rng.randint(-2 * p, 2 * p)
        if t % p != 0:
            return t


def _rand_tree(rng, level, desc, precision, dim=1):
    def elem(n):
        return LocalFieldElement.from_int(desc, n, precision)

    if level == 0:
        return TreePoint.leaf(tuple(elem(rng.randint(-4, 4))
                                    for _ in range(dim)))
    return TreePoint(lower=_rand_tree(rng, level - 1, desc, precision, dim),
                     direction=_rand_tree(rng, level - 1, desc, precision, dim),
                     t=elem(_unit_int(rng, desc.p)))


def _rand_flat(rng, level, desc, precision, dim=1):
    def elem(n):
        return LocalFieldElement.from_int(desc, n, precision)

    x = tuple(elem(rng.randint(-4, 4)) for _ in range(dim))
    vs = tuple(tuple(elem(rng.randint(-3, 3)) for _ in range(dim))
               for _ in range(level))
    ts = tuple(elem(_unit_int(rng, desc.p)) for _ in range(level))
    return PhiPoint(x, vs, ts)


def suite_leibniz_chain(cfg: RunConfig, fixtures: int = 100):
    rng = random.Random(cfg.seed + 3)
    records = []
    for p in (2, 3):
        desc = padic(p)
        pr = cfg.precision
        # -- two factors, both flavors, n <= 3
        t0 = time.perf_counter()
        bad = 0
        for i in range(fixtures):
            n = 1 + i % 3
            f = FnRepr.poly(_rand_poly(rng, 1, 3, p, pr))
            g = FnRepr.poly(_rand_poly(rng, 1, 3, p, pr))
            if i % 2 == 0:
                rep = _retry_zero_denominator(
                    lambda: calculus.leibniz_check(
                        f, g, _rand_tree(rng, n, desc, pr), "upsilon"))
            else:
                rep = calculus.leibniz_check(
                    f, g, _rand_flat(rng, n, desc, pr), "phi")
            if not (rep.passed and rep.margin == 0):
                bad += 1
        records.append(_record(f"03-leibniz-p{p}", "calculus",
                               "leibniz_check", bad == 0,
                               f"{fixtures} fixtures, n<=3", str(bad), t0))
        # -- multi factor, k <= 3, n <= 2
        t0 = time.perf_counter()
        bad = 0
        for i in range(fixtures):
            n = 1 + i % 2
            k = 2 + i % 2
            fs = [FnRepr.poly(_rand_poly(rng, 1, 2, p, pr)) for _ in range(k)]
            if i % 2 == 0:
                rep = _retry_zero_denominator(
                    lambda: calculus.leibniz_multi_check(
                        fs, _rand_tree(rng, n, desc, pr), "upsilon"))
            else:
                rep = calculus.leibniz_multi_check(
                    fs, _rand_flat(rng, n, desc, pr), "phi")
            if not (rep.passed and rep.margin == 0):
                bad += 1
        records.append(_record(f"03-leibniz-multi-p{p}", "calculus",
                               "leibniz_multi_check", bad == 0,
                               f"{fixtures} fixtures, k<=3 n<=2", str(bad), t0))
        # -- chain rule: n <= 2 for m <= 2, n = 3 for m = s = 1
        t0 = time.perf_counter()
        bad = 0
        for i in range(fixtures):
            if i % 4 == 3:
                n, m = 3, 1
            else:
                n, m = 1 + i % 2, 1 + (i // 2) % 2
            f = FnRepr.poly(_rand_poly(rng, m, 2, p, pr))
            u = [_rand_poly(rng, 1, 2, p, pr) for _ in range(m)]
            if i % 2 == 0:
                rep = _retry_zero_denominator(
                    lambda: calculus.chain_check(
                        f, u, _rand_tree(rng, n, desc, pr), "upsilon"))
            else:
                rep = calculus.chain_check(
                    f, u, _rand_flat(rng, n, desc, pr), "phi")
            if not (rep.passed and rep.margin == 0):
                bad += 1
        records.append(_record(f"03-chain-p{p}", "calculus", "chain_check",
                               bad == 0, f"{fixtures} fixtures", str(bad), t0))
    return records


def _retry_zero_denominator(check, attempts: int = 7):
    """Run a check that draws its own point, drawing again while the point
    is degenerate."""
    for _ in range(attempts):
        try:
            return check()
        except calculus.ZeroDenominator:
            continue
    raise calculus.ZeroDenominator("could not sample a nondegenerate point")


# ---------------------------------------------------------------------------
# 4. functoriality of level projections
# ---------------------------------------------------------------------------

def suite_functoriality(cfg: RunConfig, pairs: int = 50):
    rng = random.Random(cfg.seed + 4)
    records = []
    for p in (2, 3):
        desc = padic(p)
        t0 = time.perf_counter()
        bad = 0
        for _ in range(pairs):
            f = _near_identity(rng, desc, cfg.precision)
            g = _near_identity(rng, desc, cfg.precision)
            for k in (1, 2, 3):
                rep = tower.functoriality_check(f, g, k,
                                                precision=cfg.precision)
                if not (rep["composition_ok"] and rep["inverse_ok"]):
                    bad += 1
        records.append(_record(f"04-functoriality-p{p}", "tower",
                               "functoriality_check", bad == 0,
                               f"{pairs} pairs, k<=3", str(bad), t0))
    return records


def _near_identity(rng, desc, precision, deg: int = 4) -> tower.DiffRepr:
    p = desc.p
    one = LocalFieldElement.one(desc, precision)
    terms = {(1,): one}
    for d in range(deg + 1):
        c = rng.randint(-2, 2) * p
        if c:
            e = (d,)
            coeff = LocalFieldElement.from_int(desc, c, precision)
            terms[e] = terms[e] + coeff if e in terms else coeff
    return tower.DiffRepr.from_poly(desc, MultiPoly(1, terms), None, 1)


# ---------------------------------------------------------------------------
# 5. the incomparability witness
# ---------------------------------------------------------------------------

def suite_witness(cfg: RunConfig):
    records = []
    for (p, k) in ((3, 1), (5, 1), (5, 2)):
        t0 = time.perf_counter()
        f, rec = tower.witness_flat_polynomial(p, k,
                                               precision=cfg.precision)
        rho = tower.group_metric(tower.DiffRepr.identity(f.desc, f.domain),
                                 f, order=1, precision=cfg.precision)
        # a level-k-flat perturbation with |a| <= |pi| has C^1 norm exactly
        # p^-k (the derivative carries v_p(E) = k-1 extra); that is the
        # attainable positive separation for the witness
        ok = rec["identity_at_level"] and rho >= Fraction(1, p ** k)
        records.append(_record(f"05-witness-p{p}-k{k}", "tower",
                               "witness_flat_polynomial", ok,
                               f"exponent={rec['unit_group_exponent']}, "
                               f"classes={rec['checked_classes']}",
                               margin=str(rho), t0=t0))
    return records


# ---------------------------------------------------------------------------
# 6. inversion round trip
# ---------------------------------------------------------------------------

def suite_inversion(cfg: RunConfig, per_prime: int = 20, K: int = 8):
    rng = random.Random(cfg.seed + 6)
    records = []
    N = cfg.precision  # nominal tolerance anchor; arithmetic runs inflated
    for p in (2, 3, 5):
        t0 = time.perf_counter()
        internal = N + 16
        bad = 0
        for _ in range(per_prime):
            coeffs = [0, 1 + p * rng.randint(0, p - 1)]
            for _ in range(K - 1):
                coeffs.append(p * rng.randint(0, p * p - 1))
            f = mahler.MahlerSeries.from_ints(p, coeffs, internal)
            try:
                inv = mahler.invert(f, K, verify_precision=N - 4)
            except mahler.SingularSystem:
                bad += 1
                continue
            rt = mahler.compose(inv, f, K, check_integral=False)
            ident = mahler.MahlerSeries.from_ints(p, [0, 1], internal)
            if not rt.same(ident, precision=N - 4):
                bad += 1
        records.append(_record(f"06-inversion-p{p}", "mahler", "invert",
                               bad == 0,
                               f"{per_prime} maps, K={K}, tol p^-{N - 4}",
                               str(bad), t0))
    return records


# ---------------------------------------------------------------------------
# 7. additive obstruction
# ---------------------------------------------------------------------------

def suite_obstruction(cfg: RunConfig, degree_cap: int = 64,
                      samples: int = 100):
    records = []
    for p in (2, 3):
        desc = laurent(p)
        for l in (2, 3, 4):
            t0 = time.perf_counter()
            one = LocalFieldElement.one(desc, cfg.precision)
            theta = desc.uniformizer(cfg.precision)
            poly = MultiPoly(1, {(1,): one, (l,): theta})
            g = tower.DiffRepr.from_poly(desc, poly, None, 1,
                                         f"x+theta*x^{l}")
            rep = oneparam.additive_obstruction(g, cfg.precision,
                                                degree_cap, samples)
            ok = (not rep["g_p_is_identity"]) and rep["bound_holds"]
            records.append(_record(f"07-obstruction-p{p}-l{l}", "oneparam",
                                   "additive_obstruction", ok,
                                   f"h_norm={rep['h_norm']}", t0=t0))
    return records


# ---------------------------------------------------------------------------
# 8. one-parameter level construction
# ---------------------------------------------------------------------------

def suite_oneparam_levels(cfg: RunConfig):
    records = []
    fixtures = [
        # (p, s, s_v, cycle length of sigma)
        (2, 1, 2, 2),
        (2, 1, 3, 4),
        (2, 1, 4, 4),
        (3, 1, 2, 3),
        (3, 1, 3, 3),
        (3, 1, 4, 9),
        (3, 1, 5, 9),  # group order 81
    ]
    for (p, s, s_v, clen) in fixtures:
        t0 = time.perf_counter()
        G = oneparam.ball_group(s, s_v, p)
        sigma, x0 = oneparam.eta_anchor(G, clen)
        try:
            level = oneparam.eta_construct(sigma, x0, G)
            checks = level.verify_conditions()
            ok = checks["ok"]
            info = f"|G|={G.order}, ord(x0)={G.element_order(x0)}, " \
                   f"ord(sigma)={sigma.order()}"
        except oneparam.Infeasible as exc:
            ok, info = False, str(exc)
        records.append(_record(f"08-eta-p{p}-sv{s_v}", "oneparam",
                               "eta_construct", ok, info, t0=t0))
    return records


# ---------------------------------------------------------------------------
# 9. loop monoid laws
# ---------------------------------------------------------------------------

def suite_loop_laws(cfg: RunConfig):
    t0 = time.perf_counter()
    records = []
    M = loops.PointedSet((0, 1, 2, 3, 4), 0)
    N = loops.PointedSet(("y0", "a", "b", "c"), "y0")
    # orbit correctness, exhaustively
    by_class = {}
    orbit_ok = True
    for f in loops.all_pinned_maps(M, N):
        c = loops.class_of(f)
        by_class.setdefault(c.values, set()).add(f.table)
        for psi in loops.basepoint_fixing_permutations(M):
            if loops.class_of(f.precompose(psi)) != c:
                orbit_ok = False
    separation_ok = True
    for tables in by_class.values():
        rep = next(iter(tables))
        f = loops.PinnedMap(M, N, rep)
        orbit = {f.precompose(psi).table
                 for psi in loops.basepoint_fixing_permutations(M)}
        if orbit != tables:
            separation_ok = False
    records.append(_record("09-loop-orbits", "loops", "class_of",
                           orbit_ok and separation_ok,
                           f"|M|={M.size}, |N|={N.size}", t0=t0))
    # monoid laws + group completion on all classes of size <= 4
    t0 = time.perf_counter()
    classes = sorted(by_class)
    unit = loops.unit_class(N)
    laws_ok = True
    adds_ok = True
    for a_vals in classes:
        a = loops.LoopClass(N, a_vals)
        if loops.wedge(a, unit) != a:
            laws_ok = False
        for b_vals in classes:
            b = loops.LoopClass(N, b_vals)
            ab = loops.wedge(a, b)
            if ab != loops.wedge(b, a):
                laws_ok = False
            if loops.cancel(ab, b) != a:
                laws_ok = False
            ga, gb = loops.grothendieck(a), loops.grothendieck(b)
            if (ga + gb).counts != loops.grothendieck(ab).counts:
                adds_ok = False
            for c_vals in classes[::7]:
                c = loops.LoopClass(N, c_vals)
                if loops.wedge(ab, c) != loops.wedge(a, loops.wedge(b, c)):
                    laws_ok = False
    records.append(_record("09-loop-laws", "loops", "wedge",
                           laws_ok, f"{len(classes)} classes", t0=t0))
    records.append(_record("09-loop-grothendieck", "loops", "grothendieck",
                           adds_ok, "additivity on all pairs", t0=t0))
    return records


# ---------------------------------------------------------------------------
# 10. commutator decomposition
# ---------------------------------------------------------------------------

def suite_commutators(cfg: RunConfig, per_n: int = 500):
    rng = random.Random(cfg.seed + 10)
    records = []
    for n in range(5, 10):
        t0 = time.perf_counter()
        elements = tuple(range(n))
        bad = 0
        tried = 0
        while tried < per_n:
            imgs = list(elements)
            rng.shuffle(imgs)
            perm = tower.LevelPermutation(1, elements, tuple(imgs))
            if perm.parity() != 0:
                continue
            tried += 1
            try:
                pairs = tower.commutator_decompose_even(perm)
            except tower.TowerError:
                bad += 1
                continue
            prod = tower.product_of_commutators(pairs, perm)
            if prod.images != perm.images:
                bad += 1
        records.append(_record(f"10-commutators-S{n}", "tower",
                               "commutator_decompose_even", bad == 0,
                               f"{per_n} even permutations", str(bad), t0))
    return records


# ---------------------------------------------------------------------------
# 11. valuation combinatorics
# ---------------------------------------------------------------------------

def suite_valuation(cfg: RunConfig, kmax: int = 500):
    records = []
    for p in (2, 3, 5, 7):
        t0 = time.perf_counter()
        bad = 0
        row = [1]
        for k in range(kmax + 1):
            if k:
                row = [1] + [row[i] + row[i + 1]
                             for i in range(len(row) - 1)] + [1]
            for q in range(k + 1):
                got = binom_valuation_exponent(k, q, p)
                want = 0
                c = row[q]
                while c % p == 0:
                    c //= p
                    want += 1
                if got != want:
                    bad += 1
        records.append(_record(f"11-binom-valuation-p{p}", "fields",
                               "binom_valuation", bad == 0,
                               f"k<={kmax}, all q", str(bad), t0))
    return records


def suite_lambda(cfg: RunConfig, nmax: int = 10 ** 4):
    records = []
    for p in (2, 3, 5, 7):
        t0 = time.perf_counter()
        bad = 0
        fact_val = 0
        for n in range(1, nmax + 1):
            m = n
            while m % p == 0:
                m //= p
                fact_val += 1
            if legendre_lambda(n, p) != fact_val:
                bad += 1
        records.append(_record(f"11-lambda-p{p}", "fields",
                               "legendre_lambda", bad == 0,
                               f"n<={nmax}", str(bad), t0))
    return records


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

SUITES = {
    "stirling": suite_stirling,
    "mahler-roundtrip": suite_mahler_roundtrip,
    "leibniz-chain": suite_leibniz_chain,
    "functoriality": suite_functoriality,
    "witness": suite_witness,
    "inversion": suite_inversion,
    "obstruction": suite_obstruction,
    "oneparam-levels": suite_oneparam_levels,
    "loop-laws": suite_loop_laws,
    "commutators": suite_commutators,
    "valuation": suite_valuation,
    "lambda": suite_lambda,
}


# the package's documented errors: a suite that raises one records a FAIL
PACKAGE_ERRORS = (FieldError, SingularSystem, tower.TowerError,
                  calculus.CalculusError, oneparam.OneParamError,
                  loops.LoopError)


def run_suite(cfg: RunConfig) -> Report:
    report = Report()
    if cfg.suite == "none":
        return report
    if cfg.suite == "all":
        names = list(SUITES)
    else:
        names = [s.strip() for s in cfg.suite.split(",") if s.strip()]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: "
                             f"{', '.join(sorted(SUITES))}, all, none")
        t0 = time.perf_counter()
        try:
            report.records.extend(SUITES[name](cfg))
        except PACKAGE_ERRORS as exc:
            report.records.append(_record(
                f"{name}-raised", "suites", name, False,
                f"seed={cfg.seed} {type(exc).__name__}: {exc}", t0=t0))
    return report
