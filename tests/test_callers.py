"""Every public function, class and method of the package has a caller
outside the tests: a reference in `src/` or `perfbench/` outside its own
definition.  References are names, attribute names and identifier strings
(the tracer names its entry points as strings); comments and docstrings do
not count.  A definition that only tests reach is deleted, or listed below
with the reason it stays."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localfields"

ALLOWED = {
    # test oracles of code the CLI or the suites reach
    "parse_element": "reads the literals format_element writes (CLI output)",
    "parse_one_line": "reads the one-line form one_line writes",
    "to_field": "inverse of MultiplicativeBallGroup.from_field",
    "to_fraction_poly": "exact-rational oracle for to_field_poly",
    "omega_generating_marginal": "oracle of omega, which tables prints",
    "monomial_to_mahler": "with analytic_compose, the oracle of compose",
    "analytic_compose": "with monomial_to_mahler, the oracle of compose",
    "delta_binom_nested": "product-formula oracle of delta_binom_at_zero",
    "wedge_via_maps": "oracle of wedge: the class ignores the gluing",
    "slots": "TreePoint entries, read by the reference quotient tests",
    "scalars": "TreePoint entries, read by the reference quotient tests",
    # claims of the paper that wait for a suite record
    "upsilon_eval": "tree difference quotient at a pair-tree point",
    "differential_eval": "the differential of a map at a point",
    "ball_decompose": "support decomposition over a ball cover",
    "conjugation_thread": "conjugation in the projective limit",
    "baire_distance": "Baire distance between loop threads",
}


def _definitions(body, path):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield path, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, path)


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def _uncalled():
    """The public definitions whose name is referenced nowhere outside
    their own lines."""
    definitions, references = [], {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == PACKAGE:
            definitions += _definitions(tree.body, path)
        for name, line in _references(tree):
            references.setdefault(name, []).append((path, line))
    return {node.name for path, node in definitions
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in references.get(node.name, []))}


def test_every_public_definition_has_a_caller():
    missing = sorted(_uncalled() - set(ALLOWED))
    assert not missing, f"only tests reach: {missing}"


def test_allowlist_names_only_uncalled_definitions():
    assert sorted(set(ALLOWED) - _uncalled()) == []
