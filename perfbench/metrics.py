"""Names, units and directions of every metric the benchmark reports, and
the derivation of the per-layer metrics from a traced pass.

BENCHMARK.json at the root of the repository lists the same metrics; the
self-test checks that the two agree.
"""

from __future__ import annotations

# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

FIELD_FAMILIES = ("padic", "laurent")
FIELD_OPS = ("add", "mul", "inv_unit", "divide")
CALCULUS_CHECKS = ("leibniz_check", "leibniz_multi_check", "chain_check")
MAHLER_OPS = ("expand", "evaluate", "compose", "invert", "delta_binom_at_zero")
ONEPARAM_OPS = ("additive_obstruction", "eta_construct", "ball_group")
LOOPS_OPS = ("wedge", "class_of")
SUITE_NAMES = ("stirling", "mahler-roundtrip", "leibniz-chain",
               "functoriality", "witness", "inversion", "obstruction",
               "oneparam-levels", "loop-laws", "commutators", "valuation",
               "lambda")
SOURCE_MODULES = ("__init__", "calculus", "cli", "fields", "funcspec", "gf",
                  "linalg", "loops", "mahler", "oneparam", "poly", "suites",
                  "tower")


def _per_layer_spec():
    spec = []
    for fam in FIELD_FAMILIES:
        for op in FIELD_OPS:
            spec += [(f"fields.{fam}.{op}.calls", "count"),
                     (f"fields.{fam}.{op}.self_s", "s")]
    spec += [("fields.project.calls", "count"),
             ("gf.mul.calls", "count"), ("gf.add.calls", "count"),
             ("gf.self_s", "s"),
             ("poly.eval_cached.calls", "count"), ("poly.self_s", "s")]
    spec += [(f"calculus.{c}.self_s", "s") for c in CALCULUS_CHECKS]
    spec += [("calculus.checks", "count"),
             ("calculus.zero_denominator_retries", "count")]
    for op in MAHLER_OPS:
        spec += [(f"mahler.{op}.calls", "count"), (f"mahler.{op}.self_s", "s")]
    spec += [("mahler.evaluate_per_invert", "ratio"),
             ("mahler.singular_system", "count"),
             ("linalg.solve_linear.calls", "count"),
             ("linalg.solve_linear.self_s", "s"),
             ("tower.level_project.calls", "count"),
             ("tower.level_project.self_s", "s"),
             ("tower.diffrepr_evaluate.calls", "count"),
             ("tower.evaluate_per_class", "ratio"),
             ("tower.not_well_defined", "count"),
             ("tower.precision_exhausted", "count"),
             ("tower.commutator_decompose_even.self_s", "s")]
    spec += [(f"oneparam.{op}.self_s", "s") for op in ONEPARAM_OPS]
    for op in LOOPS_OPS:
        spec += [(f"loops.{op}.calls", "count"), (f"loops.{op}.self_s", "s")]
    spec += [(f"suites.{s}_s", "s") for s in SUITE_NAMES]
    spec += [("trace.overhead_ratio", "ratio"), ("trace.wall_s", "s"),
             ("trace.unattributed_s", "s"), ("failed_share", "ratio")]
    spec += [(f"src.{m}.lines", "lines") for m in SOURCE_MODULES]
    spec += [("src.lines", "lines")]
    return tuple((name, unit, "lower") for name, unit in spec)


# (name, unit, better); per-layer metrics carry no bound
PER_LAYER = _per_layer_spec()


def _calls_within(root, outer: str, inner: str) -> int:
    """Calls of spans named `inner` that run inside a span named `outer`."""
    total = 0
    todo = [(root, False)]
    while todo:
        node, inside = todo.pop()
        if inside and node.name == inner:
            total += node.calls
        inside = inside or node.name == outer
        todo.extend((c, inside) for c in node.children.values())
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, *, untraced_wall: float, traced_wall: float,
                  suite_seconds: dict, failed_share: float,
                  source_lines: dict) -> dict:
    """Every PER_LAYER metric from one traced pass and its untraced twin."""
    calls, self_s, errors = {}, {}, {}
    for node in tracer.root.walk():
        if node is tracer.root or node.name.startswith("item:"):
            continue
        calls[node.name] = calls.get(node.name, 0) + node.calls
        self_s[node.name] = self_s.get(node.name, 0.0) + node.self_time
        for exc, n in (node.errors or {}).items():
            key = (node.name, exc)
            errors[key] = errors.get(key, 0) + n

    def layer_self(prefix):
        return sum((v for k, v in self_s.items()
                    if k.startswith(prefix + ".")), 0.0)

    out = {}
    for fam in FIELD_FAMILIES:
        for op in FIELD_OPS:
            name = f"fields.{fam}.{op}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["fields.project.calls"] = calls.get("fields.project", 0)
    out["gf.mul.calls"] = calls.get("gf.mul", 0)
    out["gf.add.calls"] = calls.get("gf.add", 0)
    out["gf.self_s"] = layer_self("gf")
    out["poly.eval_cached.calls"] = calls.get("poly.eval_cached", 0)
    out["poly.self_s"] = layer_self("poly")
    for c in CALCULUS_CHECKS:
        out[f"calculus.{c}.self_s"] = self_s.get(f"calculus.{c}", 0.0)
    out["calculus.checks"] = sum(calls.get(f"calculus.{c}", 0)
                                 for c in CALCULUS_CHECKS)
    out["calculus.zero_denominator_retries"] = sum(
        errors.get((f"calculus.{c}", "ZeroDenominator"), 0)
        for c in CALCULUS_CHECKS)
    for op in MAHLER_OPS:
        out[f"mahler.{op}.calls"] = calls.get(f"mahler.{op}", 0)
        out[f"mahler.{op}.self_s"] = self_s.get(f"mahler.{op}", 0.0)
    out["mahler.evaluate_per_invert"] = _ratio(
        _calls_within(tracer.root, "mahler.invert", "mahler.evaluate"),
        calls.get("mahler.invert", 0))
    out["mahler.singular_system"] = errors.get(
        ("mahler.invert", "SingularSystem"), 0)
    out["linalg.solve_linear.calls"] = calls.get("linalg.solve_linear", 0)
    out["linalg.solve_linear.self_s"] = self_s.get("linalg.solve_linear", 0.0)
    out["tower.level_project.calls"] = calls.get("tower.level_project", 0)
    out["tower.level_project.self_s"] = self_s.get("tower.level_project", 0.0)
    out["tower.diffrepr_evaluate.calls"] = calls.get("tower.diffrepr_evaluate",
                                                     0)
    out["tower.evaluate_per_class"] = _ratio(
        _calls_within(tracer.root, "tower.level_project",
                      "tower.diffrepr_evaluate"),
        tracer.counts["tower.classes"])
    out["tower.not_well_defined"] = errors.get(
        ("tower.level_project", "NotWellDefined"), 0)
    out["tower.precision_exhausted"] = errors.get(
        ("tower.level_project", "PrecisionExhausted"), 0)
    out["tower.commutator_decompose_even.self_s"] = self_s.get(
        "tower.commutator_decompose_even", 0.0)
    for op in ONEPARAM_OPS:
        out[f"oneparam.{op}.self_s"] = self_s.get(f"oneparam.{op}", 0.0)
    for op in LOOPS_OPS:
        out[f"loops.{op}.calls"] = calls.get(f"loops.{op}", 0)
        out[f"loops.{op}.self_s"] = self_s.get(f"loops.{op}", 0.0)
    for s in SUITE_NAMES:
        out[f"suites.{s}_s"] = suite_seconds.get(s, 0.0)
    out["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - sum(self_s.values())
    out["failed_share"] = failed_share
    for m in SOURCE_MODULES:
        out[f"src.{m}.lines"] = source_lines.get(m, 0)
    out["src.lines"] = sum(source_lines.values())
    return out
