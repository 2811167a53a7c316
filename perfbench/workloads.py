"""The benchmark's workloads: seeded items, their output checks and the
material their output digests cover.

Inputs are plain integers drawn from the seed once per run; each item builds
its field elements, series and maps afresh on every pass, so every pass does
the same work and no object built in one pass is reused by the next.

Import this module only after `source.require_package()`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from localfields import mahler, oneparam, suites, tower
from localfields.calculus import CalculusError
from localfields.fields import (FieldError, LocalFieldElement, laurent,
                                padic)
from localfields.gf import gf
from localfields.linalg import SingularSystem
from localfields.loops import LoopError
from localfields.oneparam import OneParamError
from localfields.poly import MultiPoly
from localfields.tower import TowerError

# The package's documented failure modes.  An item that raises one of them
# (a singular inversion system, a level table that is not well defined,
# exhausted precision, exhausted zero-denominator retries, ...) counts as a
# failed item; any other exception is a defect and stops the benchmark.
FAILURES = (FieldError, SingularSystem, TowerError, CalculusError,
            OneParamError, LoopError)


@dataclass(frozen=True)
class Item:
    """One unit of work.  `run` returns (ok, material): whether the item's
    own output check passed, and the JSON-able output the digest covers."""

    name: str
    run: Callable[[], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    gf_fields: tuple       # (p, u) whose GF(p^u) tables the items use
    stirling_sizes: tuple  # Stirling table sizes the items use
    items: Callable[[int, bool], list]  # (seed, tiny) -> items of a pass

    def setup(self):
        """Build the lazy tables the items use, as a fresh process must
        before its first item."""
        for p, u in self.gf_fields:
            gf(p, u)
        for n in self.stirling_sizes:
            mahler.stirling_tables(n)


@dataclass
class PassResult:
    item_seconds: dict  # item name -> seconds
    reference: list     # reference loop times taken after the items
    failed: list        # names of the items that failed
    digest: str         # sha256 over every item's name, verdict and output

    @property
    def seconds(self) -> float:
        return sum(self.item_seconds.values())


def run_pass(items, tracer=None, reference=None) -> PassResult:
    """Runs the items back to back; with a tracer, each in its own span.

    `reference`, when given, is called with each item's time after the item
    and returns a list of reference loop times, which the result keeps.
    """
    outputs, failed, item_seconds, samples = [], [], {}, []
    clock = time.perf_counter
    for item in items:
        span = (tracer.span(f"item:{item.name}") if tracer is not None
                else contextlib.nullcontext())
        t0 = clock()
        try:
            with span:
                ok, material = item.run()
        except FAILURES as exc:
            ok, material = False, ["raised", type(exc).__name__]
        item_seconds[item.name] = clock() - t0
        if reference is not None:
            samples += reference(item_seconds[item.name])
        if not ok:
            failed.append(item.name)
        outputs.append([item.name, ok, material])
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return PassResult(item_seconds, samples, failed,
                      hashlib.sha256(text.encode()).hexdigest())


def _sorted_records(records):
    return [[r.check_id, r.status, r.margin]
            for r in sorted(records, key=lambda r: r.check_id)]


# ---------------------------------------------------------------------------
# suites: the twelve acceptance suites at RunConfig defaults
# ---------------------------------------------------------------------------

TINY_SUITES = ("stirling", "obstruction", "lambda")


def _suite_item(name: str, seed: int):
    # looked up at call time, so that a traced run sees the wrapped suite
    records = suites.SUITES[name](suites.RunConfig(seed=seed))
    return all(r.passed for r in records), _sorted_records(records)


def suites_items(seed: int, tiny: bool) -> list:
    names = TINY_SUITES if tiny else tuple(suites.SUITES)
    return [Item(name, partial(_suite_item, name, seed)) for name in names]


# ---------------------------------------------------------------------------
# charp: level tables and the additive obstruction over F_q((t))
# ---------------------------------------------------------------------------

# (p, u, precision, levels, pairs, degree).  Every coefficient of a map is
# theta times a nonzero GF code, so the term count, and with it the work,
# is the same for every seed.  F_128 has no multiplication table (q > 64).
CHARP_MAPS = (
    (2, 1, 16, (1, 2), 4, 4),
    (3, 1, 16, (1, 2), 4, 4),
    (2, 2, 16, (1, 2), 4, 4),
    (3, 2, 8, (1, 2), 4, 4),
    (2, 7, 4, (1,), 4, 2),
)
TINY_CHARP_MAPS = ((2, 1, 8, (1, 2), 1, 2),)
OBSTRUCTION_FIELDS = tuple((p, u) for p in (2, 3, 5) for u in (1, 2))
TINY_OBSTRUCTION_FIELDS = ((2, 1),)
OBSTRUCTION_PRECISION = 16


def _near_identity(desc, precision: int, codes) -> tower.DiffRepr:
    """x + sum_d theta * codes[d] * x^d."""
    terms = {(1,): LocalFieldElement.one(desc, precision)}
    for d, code in enumerate(codes):
        c = LocalFieldElement.from_laurent_coeffs(desc, 1, [code], precision)
        terms[(d,)] = terms[(d,)] + c if (d,) in terms else c
    return tower.DiffRepr.from_poly(desc, MultiPoly(1, terms), None, 1)


def _functoriality_item(p, u, precision, levels, f_codes, g_codes):
    desc = laurent(p, u)
    f = _near_identity(desc, precision, f_codes)
    g = _near_identity(desc, precision, g_codes)
    ok, tables = True, []
    for k in levels:
        rep = tower.functoriality_check(f, g, k, precision=precision)
        ok = ok and rep["composition_ok"] and rep["inverse_ok"]
        tables.append([k, rep["f_k"].images, rep["g_k"].images,
                       rep["fg_k"].images, rep["composition_ok"],
                       rep["inverse_ok"]])
    return ok, tables


def _obstruction_item(p, u, code, degree):
    """g = x + theta*c*x^degree; its p-th iterate must miss the identity."""
    desc = laurent(p, u)
    prec = OBSTRUCTION_PRECISION
    c = LocalFieldElement.from_laurent_coeffs(desc, 1, [code], prec)
    poly = MultiPoly(1, {(1,): LocalFieldElement.one(desc, prec),
                         (degree,): c})
    g = tower.DiffRepr.from_poly(desc, poly, None, 1)
    rep = oneparam.additive_obstruction(g, prec, 64, 100)
    ok = not rep["g_p_is_identity"] and rep["bound_holds"]
    return ok, [rep["g_p_is_identity"], rep["witness"], str(rep["h_norm"]),
                rep["bound_holds"], rep["samples"]]


def charp_items(seed: int, tiny: bool) -> list:
    rng = random.Random(seed)
    items = []
    for p, u, prec, levels, pairs, deg in (TINY_CHARP_MAPS if tiny
                                           else CHARP_MAPS):
        q = p ** u
        for i in range(pairs):
            f_codes = [rng.randrange(1, q) for _ in range(deg + 1)]
            g_codes = [rng.randrange(1, q) for _ in range(deg + 1)]
            items.append(Item(f"functoriality-F{q}-{i}",
                              partial(_functoriality_item, p, u, prec,
                                      levels, f_codes, g_codes)))
    for p, u in TINY_OBSTRUCTION_FIELDS if tiny else OBSTRUCTION_FIELDS:
        code = rng.randrange(1, p ** u)
        degree = rng.choice((2, 3, 4))
        items.append(Item(f"obstruction-F{p ** u}",
                          partial(_obstruction_item, p, u, code, degree)))
    return items


# ---------------------------------------------------------------------------
# mahler-deep: inversion at K = 16 and high internal precision
# ---------------------------------------------------------------------------

MAHLER_PRIMES = (2, 3, 5)
MAHLER_PER_PRIME = 4
MAHLER_K = 16
MAHLER_PRECISION = 64
TINY_MAHLER = ((3,), 1, 4, 24)  # primes, per prime, K, precision


def _unit_below(rng, p: int, bound: int) -> int:
    while True:
        r = rng.randrange(1, bound)
        if r % p:
            return r


def _at_precision(x: LocalFieldElement, prec: int):
    """x known mod p^prec, as [valuation, unit digits]; [] for zero."""
    if x.is_zero() or x.valuation >= prec:
        return []
    return [x.valuation, list(x.digits()[:prec - x.valuation])]


def _mahler_item(p, ints, point, K, precision):
    """invert (which certifies itself by a round trip), then an outside
    round trip by compose, then f^-1(f(x)) = x at a field point x."""
    f = mahler.MahlerSeries.from_ints(p, ints, precision)
    inv = mahler.invert(f, K)
    cert = min(int(c.precision) for c in inv.coeffs if not c.is_exact_zero)
    ident = mahler.MahlerSeries.from_ints(p, [0, 1], precision)
    round_trip = mahler.compose(inv, f, K, check_integral=False)
    x = LocalFieldElement.from_int(padic(p), point, precision)
    y = inv.evaluate(f.evaluate(x))
    ok = round_trip.same(ident, precision=cert) and y.same(x, precision=cert)
    return ok, [cert, [_at_precision(c, cert) for c in inv.coeffs],
                _at_precision(y, cert)]


def mahler_items(seed: int, tiny: bool) -> list:
    primes, per_prime, K, precision = TINY_MAHLER if tiny else (
        MAHLER_PRIMES, MAHLER_PER_PRIME, MAHLER_K, MAHLER_PRECISION)
    rng = random.Random(seed)
    items = []
    for p in primes:
        for i in range(per_prime):
            # near-identity: f_0 = 0, f_1 = 1 + p*unit, f_j = p*unit, so
            # every coefficient has the same valuation for every seed
            ints = [0, 1 + p * _unit_below(rng, p, p * p)]
            ints += [p * _unit_below(rng, p, p * p) for _ in range(K - 1)]
            point = rng.randint(2, K)
            items.append(Item(f"invert-p{p}-{i}",
                              partial(_mahler_item, p, ints, point, K,
                                      precision)))
    return items


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("suites", ((2, 1), (3, 1)), (32,), suites_items),
    Workload("charp",
             ((2, 1), (3, 1), (2, 2), (3, 2), (2, 7), (5, 1), (5, 2)), (),
             charp_items),
    Workload("mahler-deep", (), (MAHLER_K,), mahler_items),
)}
