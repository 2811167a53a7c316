"""Command-line driver: verification suites plus direct access to the
library computations, with machine-readable output.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import calculus, loops, mahler, oneparam, suites, tower
from .fields import (DEFAULT_PRECISION, LocalFieldElement, ResidueRing,
                     format_element, laurent, padic)
from .funcspec import parse_poly

ENV_PREFIX = "LOCALFIELDS_"


class UsageError(Exception):
    """A command line rejected before any computation: a missing argument,
    or a count out of range."""


# every error that input alone can cause; main reports one of these as a
# one-line usage error, anything else is a programming error and keeps its
# traceback
INPUT_ERRORS = (ValueError, ZeroDivisionError, KeyError, OSError,
                mahler.BoundExceeded, UsageError, *suites.PACKAGE_ERRORS)


def _env_default(name: str, fallback):
    var = ENV_PREFIX + name.upper().replace("-", "_")
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    try:
        return type(fallback)(raw)
    except ValueError:
        raise UsageError(f"{var}={raw!r} is not a valid "
                         f"{type(fallback).__name__}") from None


def _add_global_options(ap, default):
    ap.add_argument("--prime", "-p", type=int, default=default("prime", 3))
    ap.add_argument("--ext-degree", "-u", type=int,
                    default=default("ext_degree", 1))
    ap.add_argument("--precision", "-N", type=int,
                    default=default("precision", DEFAULT_PRECISION))
    ap.add_argument("--seed", type=int, default=default("seed", 0))
    ap.add_argument("--out", default=default("out", ""))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="localfields",
        description="exact ultrametric calculus: suites and computations")
    _add_global_options(ap, _env_default)
    # the global options also parse after the subcommand; suppressed
    # defaults keep the values set before it
    after = argparse.ArgumentParser(add_help=False)
    _add_global_options(after, lambda name, fallback: argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[after],
                         help="run verification suites")
    run.add_argument("--suite", default=_env_default("suite", "all"),
                     help="suite name, comma list, 'all' or 'none'")
    run.set_defaults(handler=cmd_run)

    mp = sub.add_parser("mahler", parents=[after],
                        help="Mahler-basis computations")
    mp.add_argument("action", choices=["expand", "evaluate", "compose",
                                       "invert", "tables"])
    mp.add_argument("args", nargs="*")
    mp.add_argument("--fn", default="")
    mp.add_argument("--series", default="")
    mp.add_argument("--outer", default="")
    mp.add_argument("--inner", default="")
    mp.add_argument("--at", default="")
    mp.add_argument("-J", type=int, default=8)
    mp.add_argument("-K", type=int, default=8)
    mp.add_argument("--kind", choices=["S", "T", "Omega"], default="T")
    mp.add_argument("--bound", type=int, default=8)
    mp.set_defaults(handler=cmd_mahler)

    tw = sub.add_parser("tower", parents=[after],
                        help="residue tower computations")
    tw.add_argument("action", choices=["project", "check", "witness",
                                       "commutators", "thread"])
    tw.add_argument("args", nargs="*")
    tw.add_argument("--fn", default="")
    tw.add_argument("--gn", default="")
    tw.add_argument("-k", type=int, default=1)
    tw.add_argument("--levels", default="1,2,3")
    tw.add_argument("--perm", default="",
                    help="one-line images, e.g. '1 2 0 3 4'")
    tw.add_argument("--format", choices=["cycles", "oneline"],
                    default="cycles")
    tw.add_argument("--units", action="store_true",
                    help="restrict the domain to |x| = 1")
    tw.set_defaults(handler=cmd_tower)

    ca = sub.add_parser("calculus", parents=[after],
                        help="difference-quotient checks")
    ca.add_argument("action", choices=["leibniz", "multi", "chain", "check"])
    ca.add_argument("args", nargs="*", help="key=value fixture fields")
    ca.add_argument("--fixtures", default="")
    ca.set_defaults(handler=cmd_calculus)

    op = sub.add_parser("oneparam", parents=[after],
                        help="one-parameter subgroup checks")
    op.add_argument("action", choices=["ball-group", "eta", "lift",
                                       "obstruction", "condition-i"])
    op.add_argument("args", nargs="*")
    op.add_argument("-s", type=int, default=1)
    op.add_argument("--sv", type=int, default=2)
    op.add_argument("--levels", default="2,3")
    op.add_argument("--cycle", type=int, default=2,
                    help="length of the anchor cycle for eta")
    op.add_argument("--fn", default="")
    op.add_argument("--exp", type=int, default=2,
                    help="monomial degree for the obstruction map")
    op.set_defaults(handler=cmd_oneparam)

    lp = sub.add_parser("loop", parents=[after],
                        help="loop monoid computations")
    lp.add_argument("action", choices=["classes", "wedge", "group", "thread"])
    lp.add_argument("args", nargs="*")
    lp.add_argument("--m-size", type=int, default=4)
    lp.add_argument("--n-size", type=int, default=3)
    lp.add_argument("--a", default="", help="multiset like 1,1,2")
    lp.add_argument("--b", default="")
    lp.add_argument("--file", default="")
    lp.set_defaults(handler=cmd_loop)

    tb = sub.add_parser("tables", parents=[after],
                        help="emit S/T/Omega tables as CSV")
    tb.add_argument("--kind", choices=["S", "T", "Omega"], required=True)
    tb.add_argument("--bound", type=int, default=8)
    tb.set_defaults(handler=cmd_tables)

    return ap


def _emit(text: str, out: str):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# table CSV
# ---------------------------------------------------------------------------

def emit_tables(kind: str, bound: int) -> str:
    _count("--bound", bound)
    lines = []
    if kind in ("S", "T"):
        tables = mahler.stirling_tables(bound)
        if kind == "T":
            lines.append("n\\k," + ",".join(str(k) for k in range(bound + 1)))
            for n in range(bound + 1):
                lines.append(str(n) + "," +
                             ",".join(str(tables.T[n][k])
                                      for k in range(bound + 1)))
        else:
            lines.append("m\\l," + ",".join(str(l) for l in range(bound + 1)))
            for m in range(bound + 1):
                lines.append(str(m) + "," +
                             ",".join(str(tables.S[m][l])
                                      for l in range(bound + 1)))
    else:
        if bound > mahler.MAX_OMEGA_BOUND:
            raise UsageError(f"Omega bound capped at {mahler.MAX_OMEGA_BOUND}")
        lines.append("k,n,m_indices,value")
        for k in range(bound + 1):
            for n in (1, 2, 3):
                for ms in itertools.product(range(k + 1), repeat=n):
                    val = mahler.omega(k, n, ms)
                    if val:
                        lines.append(f"{k},{n},\"{','.join(map(str, ms))}\","
                                     f"{val}")
    return "\n".join(lines)


def _count(option: str, value: int) -> int:
    """A bound or index count given on the command line; it cannot be
    negative."""
    if value < 0:
        raise UsageError(f"{option} must be >= 0, got {value}")
    return value


def _fn_text(ns, default: str = "") -> str:
    """The function spec: --fn, else the first positional argument, else
    the default; an action without a default needs one."""
    text = ns.fn or (ns.args[0] if ns.args else default)
    if not (text or default):
        raise UsageError(f"{ns.action} needs a function spec")
    return text


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_run(ns) -> int:
    cfg = suites.RunConfig(precision=ns.precision, seed=ns.seed,
                           suite=ns.suite, out=ns.out or None)
    report = suites.run_suite(cfg)
    text = report.emit(cfg.out)
    if not cfg.out:
        print(text)
    for r in sorted(report.records, key=lambda r: r.check_id):
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.check_id}",
              file=sys.stderr)
    return 0 if report.passed else 1


def cmd_tables(ns) -> int:
    _emit(emit_tables(ns.kind, ns.bound), ns.out)
    return 0


def _field_poly(ns, text, nx=1, desc=None):
    spec = parse_poly(text, nx)
    return spec.to_field_poly(desc or padic(ns.prime), ns.precision)


def cmd_mahler(ns) -> int:
    p, N = ns.prime, ns.precision
    if ns.action == "expand":
        poly = _field_poly(ns, _fn_text(ns))
        series = mahler.expand(lambda x: poly.eval_cached(
            [LocalFieldElement.from_int(padic(p), x, N)]), _count("-J", ns.J),
            p, N)

        def show(c):
            if c.is_zero():
                return "0"
            if c.valuation >= 0:
                return str(c.lift_int())
            return format_element(c)

        print("[" + ",".join(show(c) for c in series.coeffs) + "]")
        return 0
    if ns.action == "evaluate":
        series = mahler.parse_series(ns.series)
        print(format_element(series.evaluate(int(ns.at))))
        return 0
    if ns.action == "compose":
        g = mahler.parse_series(ns.outer)
        f = mahler.parse_series(ns.inner)
        print(repr(mahler.compose(g, f, _count("-K", ns.K))))
        return 0
    if ns.action == "invert":
        f = mahler.parse_series(ns.series)
        print(repr(mahler.invert(f, _count("-K", ns.K))))
        return 0
    return cmd_tables(ns)


def cmd_tower(ns) -> int:
    desc = padic(ns.prime)
    if ns.action == "project":
        text = _fn_text(ns)
        domain = tower.Domain.units(desc) if ns.units else None
        g = tower.DiffRepr.from_poly(desc, _field_poly(ns, text), domain,
                                     None, text)
        perm = tower.level_project(g, ns.k, precision=ns.precision)
        print(perm.cycle_notation() if ns.format == "cycles"
              else perm.one_line())
        return 0
    if ns.action == "check":
        if not (ns.fn and ns.gn):
            raise UsageError("check needs --fn and --gn")
        f = tower.DiffRepr.from_poly(desc, _field_poly(ns, ns.fn))
        g = tower.DiffRepr.from_poly(desc, _field_poly(ns, ns.gn))
        rep = tower.functoriality_check(f, g, ns.k, precision=ns.precision)
        ok = rep["composition_ok"] and rep["inverse_ok"]
        print(json.dumps({"level": ns.k, "composition_ok":
                          rep["composition_ok"],
                          "inverse_ok": rep["inverse_ok"]}))
        return 0 if ok else 1
    if ns.action == "witness":
        f, rec = tower.witness_flat_polynomial(ns.prime, ns.k,
                                               precision=ns.precision)
        print(json.dumps(rec))
        return 0
    if ns.action == "commutators":
        if not ns.perm:
            raise UsageError("commutators needs --perm 'i0 i1 ...'")
        images = tuple(int(t) for t in ns.perm.split())
        perm = tower.LevelPermutation(1, tuple(range(len(images))), images)
        pairs = tower.commutator_decompose_even(perm)
        for a, b in pairs:
            print(a.cycle_notation(), "|", b.cycle_notation())
        ok = tower.product_of_commutators(pairs, perm).images == perm.images
        print(f"# product check: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    # thread
    text = _fn_text(ns)
    levels = [int(t) for t in ns.levels.split(",")]
    g = tower.DiffRepr.from_poly(desc, _field_poly(ns, text))
    thread = tower.PermThread.from_diff(g, levels, precision=ns.precision)
    thread.check_compatible()
    for k in sorted(thread.levels):
        print(thread.levels[k].one_line())
    print(f"# parity profile: {thread.parity_profile()}")
    return 0


def cmd_calculus(ns) -> int:
    if ns.action == "check" or ns.fixtures:
        if not ns.fixtures:
            raise UsageError("check needs --fixtures FILE")
        reports = calculus.run_fixture_file(ns.fixtures, ns.precision)
        print(calculus.dump_reports(reports, ns.out or None))
        return 0 if all(r.passed for r in reports) else 1
    kv = dict(tok.partition("=")[::2] for tok in ns.args if "=" in tok)
    op = {"leibniz": "leibniz", "multi": "leibniz_multi",
          "chain": "chain"}[ns.action]
    n = int(kv.get("n", "1"))
    defaults = {
        "n": str(n),
        "p": kv.get("p", str(ns.prime)),
        "x": kv.get("x", "1"),
        "vs": kv.get("vs", ";".join(["1"] * n)),
        "ts": kv.get("ts", ",".join(["1"] * n)),
        "expect": kv.get("expect", "PASS"),
    }
    flavor = kv.get("flavor", "upsilon")
    parts = [op, flavor]
    for key in ("n", "p"):
        parts.append(f"{key}={defaults[key]}")
    for key in ("f", "g", "fs", "u"):
        if key in kv:
            parts.append(f"{key}={kv[key]}")
    for key in ("x", "vs", "ts", "expect"):
        parts.append(f"{key}={defaults[key]}")
    rep = calculus.run_fixture_line(" ".join(parts), ns.precision)
    print(f"status {rep.status} margin {rep.margin}")
    return 0 if rep.passed else 1


def cmd_oneparam(ns) -> int:
    p, u = ns.prime, ns.ext_degree
    desc = laurent(p, u)
    if ns.action == "ball-group":
        G = oneparam.ball_group(ns.s, ns.sv, p, u)
        print(json.dumps({"order": G.order, "exponent": G.exponent(),
                          "width": G.width}))
        return 0
    if ns.action == "eta":
        G = oneparam.ball_group(ns.s, ns.sv, p, u)
        sigma, x0 = oneparam.eta_anchor(G, ns.cycle)
        try:
            level = oneparam.eta_construct(sigma, x0, G)
        except oneparam.Infeasible as exc:
            print(json.dumps({"feasible": False, "reason": str(exc)}))
            return 1
        print(json.dumps({"feasible": True,
                          **level.verify_conditions()}))
        return 0
    if ns.action == "lift":
        text = _fn_text(ns, "x+pi")
        levels = []
        one = LocalFieldElement.one(desc, ns.precision)
        x0f = one + desc.uniformizer(ns.precision)
        g = tower.DiffRepr.from_poly(
            desc, _field_poly(ns, text, 1, desc), None, 1, text)
        groups = [(s_v, oneparam.ball_group(ns.s, s_v, p, u))
                  for s_v in (int(t) for t in ns.levels.split(","))]
        for s_v, G in groups:
            sigma = tower.level_project(g, s_v, precision=ns.precision)
            levels.append(oneparam.eta_construct(sigma, G.from_field(x0f), G))
        try:
            rep = oneparam.lift_check(levels, desc)
        except oneparam.Incompatible as exc:
            print(json.dumps({"compatible": False, "reason": str(exc)}))
            return 1
        print(json.dumps(rep))
        return 0
    text = ns.fn or f"x+pi*x^{ns.exp}"
    g = tower.DiffRepr.from_poly(desc, _field_poly(ns, text, 1, desc),
                                 None, 1, text)
    if ns.action == "obstruction":
        rep = oneparam.additive_obstruction(g, ns.precision)
        rep["h_norm"] = str(rep["h_norm"])
        print(json.dumps(rep))
        return 0
    # condition-i
    ring = ResidueRing(desc, 3)
    samples = [ring.lift(c, ns.precision)
               for c in list(ring.elements())[:8]]
    print(json.dumps(oneparam.condition_i_check(g, samples, ns.precision)))
    return 0


def cmd_loop(ns) -> int:
    N = loops.PointedSet(tuple(range(ns.n_size)), 0)
    if ns.action == "classes":
        M = loops.PointedSet(tuple(range(ns.m_size)), 0)
        seen = sorted({loops.class_of(f).values
                       for f in loops.all_pinned_maps(M, N)})
        for vals in seen:
            print(loops.LoopClass(N, vals).serialize())
        print(f"# {len(seen)} classes")
        return 0
    if ns.action == "wedge":
        a = _parse_class(ns.a, N)
        b = _parse_class(ns.b, N)
        print(loops.wedge(a, b).serialize())
        return 0
    if ns.action == "group":
        a = _parse_class(ns.a, N)
        print(json.dumps({"counts": loops.grothendieck(a).counts,
                          **loops.group_rank_report(N)}))
        return 0
    # thread
    if not ns.file:
        raise UsageError("thread needs --file JSON")
    with open(ns.file) as fh:
        data = json.load(fh)
    targets = [loops.PointedSet(tuple(t), t[0]) for t in data["targets"]]
    levels = [loops.LoopGroupElement(tg, tuple(c))
              for tg, c in zip(targets, data["levels"])]
    maps = [loops.induced_projection(
        {_kv(k): _kv(v) for k, v in m.items()},
        targets[i + 1], targets[i])
        for i, m in enumerate(data["maps"])]
    try:
        rep = loops.loop_thread_check(levels, maps, ns.prime)
    except loops.Incompatible as exc:
        print(json.dumps({"compatible": False, "reason": str(exc)}))
        return 1
    print(json.dumps({"compatible": rep["compatible"],
                      "coordinates": [list(c) for c in rep["coordinates"]]}))
    return 0


def _kv(v):
    return int(v) if isinstance(v, str) and v.lstrip("-").isdigit() else v


def _parse_class(text, N):
    if not text:
        return loops.unit_class(N)
    return loops.LoopClass(N, tuple(sorted(int(t) for t in text.split(","))))


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.handler(ns)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
