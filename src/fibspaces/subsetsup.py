"""Supremum over finite row subsets of a column-sum power norm.

Several membership criteria take sup_K sum_k |sum_{n in K} m_nk| ** q over
the finite subsets K of rows.  An exact depth-first branch and bound (Land
& Doig, Econometrica 28 (1960)) finds it.  A node puts some rows in and
leaves some out; with s_k the column sums of the rows put in, and P_k, N_k
the sums of the positive and of the negative entries of column k over the
undecided rows,

    sum_k max(|s_k + P_k|, |s_k + N_k|) ** q

bounds every completion of the node and is exact at a leaf.

The rows are scaled to integers over one common denominator, which scales
every score by the same positive factor.  For integer q the scores are
exact integers.  For q = a/b each term x ** q is enclosed on a grid of
2 ** -ENCLOSURE_BITS by the integer b-th root of x ** a, and a node is
dropped only when those certified enclosures separate its bound from the
best subset found.  No subset is ever ranked by a float comparison.  Equal
rows are merged first: for q >= 1 the sum is convex along a row's
multiple, so a maximizer may take all copies of a row or none.

The search bounds at most ``NODE_LIMIT`` nodes, enough for the whole tree
of 16 rows, or fewer when the caller says so.  When it stops short, or two
leaves cannot be told apart, the best subset found is returned with
``enumerated=False``: its value is then a lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .exactreal import DEFAULT_PRECISION, integer_nth_root, power_sum

NODE_LIMIT = 2**17
# Fractional bits of the certified scores for non-integer q.
ENCLOSURE_BITS = 64


@dataclass
class SubsetSup:
    """Best subset found, its exact column sums, whether the search
    settled the supremum (value exact) or not (lower bound), and the number
    of nodes it bounded."""

    subset: tuple[int, ...]
    column_sums: tuple[Fraction, ...]
    enumerated: bool
    nodes: int = 0


def _column_sums(rows: Sequence[Sequence[Fraction]], subset) -> tuple[Fraction, ...]:
    width = max(len(r) for r in rows)
    sums = [Fraction(0)] * width
    for n in subset:
        for k, v in enumerate(rows[n]):
            sums[k] += v
    return tuple(sums)


def _merged_rows(rows, width) -> list[tuple[tuple[int, ...], list[int]]]:
    """(vector, row indices) per distinct nonzero row: the rows times their
    common denominator as integers, a row repeated c times counted c times,
    columns that are zero in every row left out; largest l1 norm first."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    groups: dict[tuple[int, ...], list[int]] = {}
    for n, row in enumerate(rows):
        scaled = tuple(v.numerator * (den // v.denominator) for v in row)
        scaled += (0,) * (width - len(row))
        if any(scaled):
            groups.setdefault(scaled, []).append(n)
    live = [k for k in range(width) if any(row[k] for row in groups)]
    merged = [(tuple(len(idx) * row[k] for k in live), idx) for row, idx in groups.items()]
    merged.sort(key=lambda item: -sum(map(abs, item[0])))
    return merged


def subset_sup(rows: Sequence[Sequence[Fraction]], q, node_limit: int | None = None) -> SubsetSup:
    """The subset maximizing sum_k |sum_{n in K} rows[n][k]| ** q (q >= 1),
    searched over at most ``node_limit`` nodes (default ``NODE_LIMIT``)."""
    q = Fraction(q)
    if q < 1:
        raise DomainError(f"subset suprema need q >= 1, got {q}")
    if not rows:
        return SubsetSup((), (), True)
    width = max(len(r) for r in rows)
    merged = _merged_rows(rows, width)
    vectors = [v for v, _ in merged]
    m = len(vectors)
    cols = len(vectors[0]) if vectors else 0
    # pos[i][k], neg[i][k]: sums of the positive / negative entries of
    # column k over the rows i.. that are still undecided at depth i.
    pos = [(0,) * cols] * (m + 1)
    neg = [(0,) * cols] * (m + 1)
    for i in range(m - 1, -1, -1):
        pos[i] = tuple(t + max(v, 0) for t, v in zip(pos[i + 1], vectors[i]))
        neg[i] = tuple(t + min(v, 0) for t, v in zip(neg[i + 1], vectors[i]))

    power, root = q.numerator, q.denominator
    if root == 1:
        def bound(i, s):
            v = sum(max(x + p, -x - n) ** power for x, p, n in zip(s, pos[i], neg[i]))
            return v, v
    else:
        shift = root * ENCLOSURE_BITS
        nth_root = math.isqrt if root == 2 else lambda t: integer_nth_root(t, root)

        def bound(i, s):
            # In units of 2 ** -ENCLOSURE_BITS, t ** q lies in [r, r + 1]
            # for r the integer root of t ** power * 2 ** shift.
            lo = hi = 0
            for x, p, n in zip(s, pos[i], neg[i]):
                t = max(x + p, -x - n) ** power << shift
                r = nth_root(t)
                lo += r
                hi += r if r ** root == t else r + 1
            return lo, hi

    # The incumbent starts as the empty subset, whose score is exactly 0;
    # open_hi is the largest bound dropped without being separated from it.
    best_lo = best_hi = open_hi = 0
    best_sums, best_mask = (0,) * cols, 0
    stack = [(bound(0, best_sums)[1], 0, best_sums, 0)]
    nodes = 1
    node_limit = NODE_LIMIT if node_limit is None else node_limit
    while stack and nodes + 2 <= node_limit:
        hi, i, s, mask = stack.pop()
        if hi <= best_lo:
            continue
        kids = []
        for sums, kid_mask in ((s, mask), (tuple(map(int.__add__, s, vectors[i])), mask | 1 << i)):
            lo_k, hi_k = bound(i + 1, sums)
            nodes += 1
            if hi_k <= best_lo:
                continue
            if i + 1 < m:
                kids.append((hi_k, i + 1, sums, kid_mask))
            elif lo_k > best_hi:
                best_lo, best_hi, best_sums, best_mask = lo_k, hi_k, sums, kid_mask
            elif sorted(map(abs, sums)) != sorted(map(abs, best_sums)):
                # Overlapping enclosures of two leaves whose scores are not
                # provably equal.
                open_hi = max(open_hi, hi_k)
        kids.sort(key=lambda kid: kid[0])
        stack += kids
    open_hi = max([open_hi] + [hi for hi, *_ in stack])
    settled = open_hi <= best_lo
    subset = tuple(sorted(n for i, (_, idx) in enumerate(merged) if best_mask >> i & 1
                          for n in idx))
    return SubsetSup(subset, _column_sums(rows, subset), settled, nodes)


def subset_power_sum(rows, q, precision: int = DEFAULT_PRECISION, node_limit: int | None = None):
    """The subset K of the rows that :func:`subset_sup` finds for
    sup_K sum_k |sum_{n in K} rows[n][k]| ** q, and that power sum certified."""
    found = subset_sup(list(rows), q, node_limit)
    return found, power_sum(found.column_sums, q, precision)


def column_abs_sums(rows, sums: list[Fraction] | None = None) -> list[Fraction]:
    """sum_n |rows[n][k]| over the rows, one entry per column k, added into
    ``sums`` when given."""
    sums = [] if sums is None else sums
    for row in rows:
        sums.extend([Fraction(0)] * (len(row) - len(sums)))
        for k, v in enumerate(row):
            sums[k] += abs(v)
    return sums
