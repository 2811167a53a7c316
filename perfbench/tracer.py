"""Span tracing added from outside the package.

`install` wraps the public entry points of each `localfields` module.  Every
call becomes a span in a call tree: a node per (parent span, name) that
keeps its parent link, its call count, its inclusive time and the failures
that left it.  The tree stays in memory and is written out at the end of the
run; self time is a node's inclusive time minus that of its children.

Nothing here runs unless `install` is called, so untraced runs execute the
package unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter


class Span:
    __slots__ = ("name", "parent", "children", "calls", "total", "errors")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.errors = None

    def child(self, name: str) -> "Span":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Span(name, self)
        return node

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self):
        yield self
        for c in self.children.values():
            yield from c.walk()

    def to_json(self) -> dict:
        return {"name": self.name, "calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "errors": dict(self.errors or {}),
                "children": [c.to_json() for c in self.children.values()]}


class Tracer:
    def __init__(self):
        self.root = Span("pass", None)
        self._stack = [self.root]
        self.counts = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (an item)."""
        node = self._stack[-1].child(name)
        self._stack.append(node)
        t0 = time.perf_counter()
        try:
            yield node
        finally:
            node.total += time.perf_counter() - t0
            node.calls += 1
            self._stack.pop()

    def wrap(self, fn, name_of, after=None):
        """`fn` recording a span named name_of(args) per call; `after` sees
        the tracer and the result of each call that returns."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = stack[-1].child(name_of(args))
            stack.append(node)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if node.errors is None:
                    node.errors = Counter()
                node.errors[type(exc).__name__] += 1
                raise
            finally:
                node.total += clock() - t0
                node.calls += 1
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"counts": dict(self.counts),
                       "tree": self.root.to_json()}, fh)


def _count_classes(tracer: Tracer, perm):
    tracer.counts["tower.classes"] += len(perm.elements)


def _constant(name):
    return lambda args: name


def _by_family(op):
    names = {"padic": f"fields.padic.{op}", "laurent": f"fields.laurent.{op}"}
    return lambda args: names[args[0].desc.family]


# (module, attribute or Class.method, span name or name function, after)
ENTRY_POINTS = (
    ("fields", "LocalFieldElement.__add__", _by_family("add"), None),
    ("fields", "LocalFieldElement.__mul__", _by_family("mul"), None),
    ("fields", "LocalFieldElement.inv_unit", _by_family("inv_unit"), None),
    ("fields", "LocalFieldElement.divide", _by_family("divide"), None),
    ("fields", "LocalFieldElement.project", "fields.project", None),
    ("gf", "GF.add", "gf.add", None),
    ("gf", "GF.mul", "gf.mul", None),
    ("gf", "GF.neg", "gf.neg", None),
    ("gf", "GF.inv", "gf.inv", None),
    ("poly", "MultiPoly.eval", "poly.eval", None),
    ("poly", "MultiPoly.eval_cached", "poly.eval_cached", None),
    ("poly", "MultiPoly.__add__", "poly.add", None),
    ("poly", "MultiPoly.__mul__", "poly.mul", None),
    ("poly", "MultiPoly.subst", "poly.subst", None),
    ("poly", "quotient_in_new_var", "poly.quotient_in_new_var", None),
    ("calculus", "leibniz_check", "calculus.leibniz_check", None),
    ("calculus", "leibniz_multi_check", "calculus.leibniz_multi_check", None),
    ("calculus", "chain_check", "calculus.chain_check", None),
    ("calculus", "cnb_norm", "calculus.cnb_norm", None),
    ("mahler", "expand", "mahler.expand", None),
    ("mahler", "MahlerSeries.evaluate", "mahler.evaluate", None),
    ("mahler", "compose", "mahler.compose", None),
    ("mahler", "invert", "mahler.invert", None),
    ("mahler", "delta_binom_at_zero", "mahler.delta_binom_at_zero", None),
    ("mahler", "stirling_tables", "mahler.stirling_tables", None),
    ("linalg", "solve_linear", "linalg.solve_linear", None),
    ("linalg", "ultrametric_rank", "linalg.ultrametric_rank", None),
    ("tower", "level_project", "tower.level_project", _count_classes),
    ("tower", "DiffRepr.evaluate", "tower.diffrepr_evaluate", None),
    ("tower", "functoriality_check", "tower.functoriality_check", None),
    ("tower", "commutator_decompose_even", "tower.commutator_decompose_even",
     None),
    ("tower", "witness_flat_polynomial", "tower.witness_flat_polynomial",
     None),
    ("tower", "group_metric", "tower.group_metric", None),
    ("oneparam", "additive_obstruction", "oneparam.additive_obstruction",
     None),
    ("oneparam", "eta_construct", "oneparam.eta_construct", None),
    ("oneparam", "ball_group", "oneparam.ball_group", None),
    ("loops", "wedge", "loops.wedge", None),
    ("loops", "class_of", "loops.class_of", None),
)

MODULES = ("fields", "gf", "poly", "calculus", "mahler", "linalg", "tower",
           "oneparam", "loops", "suites")


def install(tracer: Tracer):
    """Wrap every entry point in ENTRY_POINTS and every suite in SUITES.

    A wrapped function is replaced wherever the package holds a reference to
    it: its own module or class (aliases such as ``__radd__ = __add__``
    included), every module that imported it by name, and the SUITES table.
    """
    mods = {m: importlib.import_module(f"localfields.{m}") for m in MODULES}
    owners = list(mods.values())
    owners += [obj for m in mods.values() for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__ == m.__name__]
    suites_table = mods["suites"].SUITES

    def replace(original, wrapped):
        hits = 0
        for owner in owners:
            for key in [k for k, v in vars(owner).items() if v is original]:
                setattr(owner, key, wrapped)
                hits += 1
        for key in [k for k, v in suites_table.items() if v is original]:
            suites_table[key] = wrapped
            hits += 1
        if not hits:
            raise RuntimeError(f"entry point {original!r} not found")

    for module, attr, name, after in ENTRY_POINTS:
        owner = mods[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = vars(owner)[attr]
        name_of = _constant(name) if isinstance(name, str) else name
        replace(original, tracer.wrap(original, name_of, after))
    for suite, fn in list(suites_table.items()):
        replace(fn, tracer.wrap(fn, _constant(f"suites.{suite}")))

