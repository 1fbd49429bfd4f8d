"""Supremum over finite row subsets of a column-sum norm.

Several membership criteria take a supremum over all finite subsets K of
rows of a quantity sum_k |sum_{n in K} m_nk| ** q.  That supremum is
combinatorial, so the policy is: full Gray-code enumeration up to
``EXACT_ENUM_LIMIT`` rows (the scan runs in floats, the winning subset is
re-evaluated exactly), and beyond that a greedy per-column sign-alignment
heuristic plus seeded random subsets, reported as a lower bound.  Rows
whose float scores could overflow are scanned scaled by a common power of
two, which leaves the ranking of subsets unchanged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

EXACT_ENUM_LIMIT = 16
RANDOM_SUBSETS = 10_000
# Float scores are kept below 2 ** FLOAT_SCORE_BITS (floats overflow past 2 ** 1024).
FLOAT_SCORE_BITS = 1000


@dataclass
class SubsetSup:
    """Best subset found, its exact column sums, and whether the search
    enumerated the whole subset lattice (value exact) or not (lower bound)."""

    subset: tuple[int, ...]
    column_sums: tuple[Fraction, ...]
    enumerated: bool

    def score(self, q: float) -> float:
        return sum(abs(float(c)) ** q for c in self.column_sums)


def _column_sums(rows: Sequence[Sequence[Fraction]], subset) -> tuple[Fraction, ...]:
    if not rows:
        return ()
    width = max(len(r) for r in rows)
    sums = [Fraction(0)] * width
    for n in subset:
        row = rows[n]
        for k, v in enumerate(row):
            sums[k] += v
    return tuple(sums)


def _score_float(sums, q: float) -> float:
    return sum(abs(s) ** q for s in sums)


def _scale_shift(rows, q: float) -> int:
    """The s for which rows scaled by 2 ** -s keep every float score below
    2 ** FLOAT_SCORE_BITS; 0 whenever the unscaled rows already do."""
    # |v| < 2 ** top for every entry v (bit lengths of its numerator and
    # denominator), so a column sum is below 2 ** (top + bits(m)) and a score
    # below width * 2 ** (q * (top + bits(m))).
    top = max(
        (v.numerator.bit_length() - v.denominator.bit_length() + 1
         for row in rows for v in row if v),
        default=None,
    )
    if top is None:
        return 0
    column_bits = top + len(rows).bit_length()
    room = FLOAT_SCORE_BITS - max(len(r) for r in rows).bit_length()
    if q * column_bits < room:
        return 0
    return math.ceil(column_bits - room / q) + 1


def subset_sup(
    rows: Sequence[Sequence[Fraction]],
    q: float,
    *,
    mode: str = "auto",
    seed: int = 0,
    samples: int = RANDOM_SUBSETS,
) -> SubsetSup:
    """Search for the subset maximizing sum_k |sum_{n in K} rows[n][k]| ** q.

    ``mode``: "auto" enumerates exactly when it can, "exact" forces
    enumeration (raises if too many rows), "sample" forces the heuristic.
    """
    m = len(rows)
    if m == 0:
        return SubsetSup((), (), True)
    width = max(len(r) for r in rows)
    shift = _scale_shift(rows, q)
    scaled = rows
    if shift:
        factor = Fraction(1, 1 << shift)
        scaled = [[v * factor for v in row] for row in rows]
    floats = [[float(v) for v in row] + [0.0] * (width - len(row)) for row in scaled]

    if mode == "exact" and m > EXACT_ENUM_LIMIT:
        raise ValueError(f"exact enumeration limited to {EXACT_ENUM_LIMIT} rows")
    enumerate_all = mode == "exact" or (mode == "auto" and m <= EXACT_ENUM_LIMIT)

    if enumerate_all:
        # The Gray-code scan ranks subsets in floats; near-ties are kept and
        # settled by an exact re-evaluation so float noise cannot demote the
        # true maximizer.
        best_score = 0.0
        candidates: list[tuple[float, int]] = [(0.0, 0)]
        sums = [0.0] * width
        mask = 0
        for i in range(1, 1 << m):
            flip = (i & -i).bit_length() - 1
            mask ^= 1 << flip
            row = floats[flip]
            sign = 1.0 if mask & (1 << flip) else -1.0
            for k in range(width):
                sums[k] += sign * row[k]
            score = _score_float(sums, q)
            is_new_best = score > best_score
            if is_new_best:
                best_score = score
                cutoff = best_score - 1e-9 * (1.0 + best_score)
                candidates = [c for c in candidates if c[0] >= cutoff]
            if is_new_best or (
                score >= best_score - 1e-9 * (1.0 + best_score)
                and len(candidates) < 64
            ):
                candidates.append((score, mask))
        qi = int(q) if float(q).is_integer() else None
        best_subset, best_key = (), None
        for _, cand in candidates:
            subset = tuple(n for n in range(m) if cand & (1 << n))
            col = _column_sums(scaled, subset)
            if qi is not None:
                key = sum((abs(s) ** qi for s in col), Fraction(0))
            else:
                key = _score_float(col, q)
            if best_key is None or key > best_key:
                best_key, best_subset = key, subset
        return SubsetSup(best_subset, _column_sums(rows, best_subset), True)

    # Heuristic: per-column sign alignment, the full set, plus random subsets.
    candidates: set[tuple[int, ...]] = {tuple(range(m))}
    for k in range(width):
        pos = tuple(n for n in range(m) if floats[n][k] > 0)
        neg = tuple(n for n in range(m) if floats[n][k] < 0)
        if pos:
            candidates.add(pos)
        if neg:
            candidates.add(neg)
    rng = random.Random(seed)
    for _ in range(samples):
        mask = rng.getrandbits(m)
        candidates.add(tuple(n for n in range(m) if mask & (1 << n)))
    best_subset, best_score = (), 0.0
    for subset in candidates:
        sums = [0.0] * width
        for n in subset:
            row = floats[n]
            for k in range(width):
                sums[k] += row[k]
        score = _score_float(sums, q)
        if score > best_score:
            best_score, best_subset = score, subset
    return SubsetSup(tuple(best_subset), _column_sums(rows, best_subset), False)
