"""Ultrametric Gaussian elimination with valuation pivoting.

Pivots are chosen with minimal valuation (largest norm).  A pivot whose
valuation is at or above half the working precision is treated as noise and
refused, so independence is never declared from entries that could be zero.
"""

from __future__ import annotations

from .fields import PrecisionExhausted


class SingularSystem(Exception):
    pass


def _pivot(m, rows, cols):
    """(row, col) of the first nonzero entry of least valuation among the
    given rows and columns, scanning row by row; None when all are zero."""
    return min(((ri, ci) for ri in rows for ci in cols
                if not m[ri][ci].is_zero()),
               key=lambda rc: m[rc[0]][rc[1]].valuation, default=None)


def ultrametric_rank(rows) -> int:
    """Rank of a matrix of LocalFieldElements at working precision; a pivot
    must have valuation below half of the smallest precision present."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    pivot_threshold = min(x.precision for r in m for x in r) / 2
    rank = 0
    rows_left = list(range(len(m)))
    cols_left = list(range(len(m[0])))
    while rows_left and cols_left:
        best = _pivot(m, rows_left, cols_left)
        if best is None or m[best[0]][best[1]].valuation >= pivot_threshold:
            break
        pr, pc = best
        pivot = m[pr][pc]
        for ri in rows_left:
            if ri == pr:
                continue
            x = m[ri][pc]
            if x.is_zero():
                continue
            factor = x / pivot
            for ci in cols_left:
                m[ri][ci] = m[ri][ci] - factor * m[pr][ci]
        rows_left.remove(pr)
        cols_left.remove(pc)
        rank += 1
    return rank


def solve_linear(matrix, rhs):
    """Solve M x = rhs over LocalFieldElements by valuation-pivoted elimination.

    matrix: list of rows; rhs: list.  Requires a square system.  Raises
    SingularSystem when no acceptable pivot exists for some column: one of
    valuation below half of the smallest nonzero-entry precision.
    """
    n = len(matrix)
    if any(len(r) != n for r in matrix) or len(rhs) != n:
        raise ValueError("need a square system with matching rhs")
    m = [list(r) + [rhs[i]] for i, r in enumerate(matrix)]
    prec = min((x.precision for r in matrix for x in r
                if not x.is_exact_zero), default=None)
    if prec is None:
        raise SingularSystem("no nonzero pivot available")
    pivot_threshold = prec / 2
    perm = []  # (row, col) pivot positions in elimination order
    rows_left = list(range(n))
    cols_left = list(range(n))
    for _ in range(n):
        best = _pivot(m, rows_left, cols_left)
        if best is None:
            raise SingularSystem("no nonzero pivot available")
        if m[best[0]][best[1]].valuation >= pivot_threshold:
            raise SingularSystem(
                f"best pivot valuation {m[best[0]][best[1]].valuation} is "
                f"noise-level (threshold {pivot_threshold})")
        pr, pc = best
        pivot = m[pr][pc]
        # full Gauss-Jordan: clear the pivot column in every other row, so
        # that each pivot row ends up supported on its own pivot column only
        for ri in range(n):
            if ri == pr:
                continue
            x = m[ri][pc]
            if x.is_zero():
                continue
            factor = x / pivot
            for ci in range(n + 1):
                m[ri][ci] = m[ri][ci] - factor * m[pr][ci]
        perm.append((pr, pc))
        rows_left.remove(pr)
        cols_left.remove(pc)
    # back substitution is immediate: the eliminated matrix is diagonal on
    # the pivot positions
    xs = [None] * n
    for pr, pc in perm:
        xs[pc] = m[pr][n] / m[pr][pc]
    if any(x is None for x in xs):
        raise PrecisionExhausted("elimination left unsolved coordinates")
    return xs
