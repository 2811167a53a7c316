"""Acceptance gate: the eleven desk-scale verification criteria.

Each test runs one criterion at its stated tolerance through the shared
suite implementations and prints a single pass/fail line (run pytest with
-s or -rA to see them).  Runtime bounds are asserted with a slack factor of
two against the budgets the criteria carry.
"""

from __future__ import annotations

import time

from localfields.suites import SUITES, RunConfig

CFG = RunConfig(seed=20260809)

BUDGETS = {
    "stirling": 5.0,
    "mahler-roundtrip": 30.0,
    "leibniz-chain": 60.0,
    "functoriality": 30.0,
    "witness": 10.0,
    "inversion": 60.0,
    "obstruction": 30.0,
    "oneparam-levels": 30.0,
    "loop-laws": 30.0,
    "commutators": 30.0,
    "valuation": 10.0,
}


def run_criterion(number: int, name: str, description: str):
    t0 = time.perf_counter()
    records = SUITES[name](CFG)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in records)
    print(f"criterion {number:02d} [{description}]: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, "
          f"{len(records)} records)")
    failures = [r for r in records if not r.passed]
    assert not failures, failures
    budget = BUDGETS[name]
    assert elapsed < 2 * budget, \
        f"{name} took {elapsed:.1f}s against a {budget:.0f}s budget"
    return elapsed


def test_criterion_01_stirling_identities():
    # S.T = T.S = identity exactly over the rationals, size 32, < 5 s
    run_criterion(1, "stirling", "base-change identities, N=32, exact")


def test_criterion_02_mahler_roundtrip():
    # evaluate(expand(f), x) = f(x) exactly; 200 integer polynomials of
    # degree <= 8, 50 points each, p in {2, 3, 5}, < 30 s
    run_criterion(2, "mahler-roundtrip", "expand/evaluate round trip")


def test_criterion_03_leibniz_chain_identities():
    # product, multi-factor and composition identities with zero margin on
    # |t| = 1 fixtures; 100 fixtures per family, p in {2, 3}, < 60 s
    run_criterion(3, "leibniz-chain", "operator identities, zero margin")


def test_criterion_04_functoriality():
    # (f o g)_k = f_k o g_k and (g^-1)_k = (g_k)^-1 for 50 near-identity
    # pairs, levels k <= 3, p in {2, 3}, < 30 s
    run_criterion(4, "functoriality", "level projections are functorial")


def test_criterion_05_incomparability_witness():
    # (p,k) in {(3,1),(5,1),(5,2)}: level table is the identity on units,
    # metric distance to id is positive at the attainable scale, < 10 s
    run_criterion(5, "witness", "flat witness separates the topologies")


def test_criterion_06_inversion_roundtrip():
    # compose(invert(f), f) = id to p^-(N-4), 20 admissible maps per prime,
    # truncation K = 8, < 60 s
    run_criterion(6, "inversion", "compositional inverse round trip")


def test_criterion_07_additive_obstruction():
    # g = id + theta x^l, l in {2,3,4}, p in {2,3}: g^p != id and the
    # contraction bound holds at 100 sampled points, < 30 s
    run_criterion(7, "obstruction", "p-th powers miss the identity")


def test_criterion_08_oneparam_levels():
    # eta exists for cyclic sigma of p-power order dividing ord(x0), with
    # conditions verified exhaustively on groups of order <= 81, < 30 s
    run_criterion(8, "oneparam-levels", "level homomorphisms constructed")


def test_criterion_09_loop_monoid_laws():
    # unit, commutativity, associativity, cancelation and counting
    # additivity, exhaustively for |M| <= 5, |N| <= 4, < 30 s
    run_criterion(9, "loop-laws", "loop monoid laws, exhaustive")


def test_criterion_10_commutator_decomposition():
    # 500 random even permutations per symmetric group S_5..S_9, product of
    # returned commutators reproduces the input, < 30 s
    run_criterion(10, "commutators", "even permutations are commutators")


def test_criterion_11_valuation_combinatorics():
    # digit-sum binomial valuations against exact integer valuations for
    # all k <= 500, p in {2, 3, 5, 7}, < 10 s
    run_criterion(11, "valuation", "binomial valuations, brute force")


def test_supplementary_lambda_factorial():
    # the factorial-valuation formula on n <= 10^4 for p in {2, 3, 5, 7}
    records = SUITES["lambda"](CFG)
    ok = all(r.passed for r in records)
    print(f"supplement [factorial valuations]: {'PASS' if ok else 'FAIL'}")
    assert ok
