"""Sweep classification thresholds and the subset-supremum search."""

import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fibspaces import subsetsup
from fibspaces.exactreal import power_sum
from fibspaces.sequences import LambdaSeq, from_values
from fibspaces.spaces import membership_evidence
from fibspaces.subsetsup import subset_sup
from fibspaces.verdicts import (
    Status,
    Verdict,
    _fit_slope,
    classify_growth,
    classify_to_zero,
    conjunction,
)

SWEEP = (8, 12, 16, 24, 32, 48, 64)


class TestClassifyGrowth:
    def test_sweep_past_the_float_range_has_no_nan_growth(self):
        """A membership sweep whose values overflow floats reads inf at every
        depth; the slope fit drops those points instead of returning NaN."""
        v = membership_evidence(from_values([10**400]), LambdaSeq.linear(1, 1), "linf")
        assert v.status is Status.INCONCLUSIVE
        assert all(y == math.inf for _, y in v.sweep)
        assert v.growth is None or math.isfinite(v.growth)
        assert "NaN" not in json.dumps(v.to_json())

    def test_slope_ignores_non_finite_points(self):
        finite = [(n, n**0.5) for n in SWEEP[:5]]
        assert _fit_slope(finite + [(48, math.inf), (64, math.inf)]) == _fit_slope(finite)
        for classify in (classify_growth, classify_to_zero):
            v = classify([(n, math.inf) for n in SWEEP])
            assert v.status is Status.INCONCLUSIVE and v.growth is None

    def test_exact_stabilization_wins(self):
        v = classify_growth([(8, 5.0), (16, 5.0)], stabilized_exactly=True)
        assert v.status is Status.HOLDS_EXACTLY

    def test_power_growth_diverges(self):
        pts = [(n, n**0.5) for n in SWEEP]
        assert classify_growth(pts).status is Status.EVIDENCE_DIVERGING

    def test_log_growth_diverges_at_modest_depth(self):
        pts = [(n, math.log(n) ** 0.5) for n in SWEEP]
        assert classify_growth(pts).status is Status.EVIDENCE_DIVERGING

    def test_flat_is_bounded(self):
        pts = [(n, 1.0) for n in SWEEP]
        assert classify_growth(pts).status is Status.EVIDENCE_BOUNDED

    def test_fast_tail_convergence_is_bounded(self):
        # partial sums of a p-series with exponent 3/2
        pts = []
        total = 0.0
        last = 0
        for n in SWEEP:
            total += sum((k + 1) ** -1.5 for k in range(last, n))
            last = n
            pts.append((n, total ** (1 / 3)))
        assert classify_growth(pts).status is Status.EVIDENCE_BOUNDED

    def test_all_zero_bounded(self):
        assert classify_growth([(n, 0.0) for n in SWEEP]).status is Status.EVIDENCE_BOUNDED

    def test_too_few_points_inconclusive(self):
        assert classify_growth([(8, 1.0)]).status is Status.INCONCLUSIVE


class TestClassifyToZero:
    def test_decaying_supports(self):
        pts = [(n, 1.0 / n) for n in SWEEP]
        assert classify_to_zero(pts).status is Status.EVIDENCE_BOUNDED

    def test_flat_positive_refutes(self):
        pts = [(n, 1.0) for n in SWEEP]
        assert classify_to_zero(pts).status is Status.EVIDENCE_DIVERGING

    def test_tiny_tail_supports(self):
        pts = [(n, 1e-15) for n in SWEEP]
        assert classify_to_zero(pts).status is Status.EVIDENCE_BOUNDED

    def test_exact_flag(self):
        v = classify_to_zero([(4, 0.0), (8, 0.0)], stabilized_exactly=True)
        assert v.status is Status.HOLDS_EXACTLY


class TestConjunction:
    def test_divergence_dominates(self):
        parts = [
            Verdict(Status.HOLDS_EXACTLY),
            Verdict(Status.EVIDENCE_DIVERGING),
            Verdict(Status.EVIDENCE_BOUNDED),
        ]
        assert conjunction(parts).status is Status.EVIDENCE_DIVERGING

    def test_inconclusive_beats_bounded(self):
        parts = [Verdict(Status.EVIDENCE_BOUNDED), Verdict(Status.INCONCLUSIVE)]
        assert conjunction(parts).status is Status.INCONCLUSIVE

    def test_all_exact(self):
        parts = [Verdict(Status.HOLDS_EXACTLY)] * 3
        assert conjunction(parts).status is Status.HOLDS_EXACTLY

    def test_mixed_exact_and_bounded(self):
        parts = [Verdict(Status.HOLDS_EXACTLY), Verdict(Status.EVIDENCE_BOUNDED)]
        assert conjunction(parts).status is Status.EVIDENCE_BOUNDED

    def test_json_roundtrip_fields(self):
        v = Verdict(Status.EVIDENCE_BOUNDED, ((1, 0.5),), growth=-1.2, label="x")
        doc = v.to_json()
        assert doc["status"] == "evidence-bounded"
        assert doc["label"] == "x"


class TestSubsetSup:
    ROWS = [
        [Fraction(1), Fraction(-2)],
        [Fraction(-1), Fraction(3)],
        [Fraction(2), Fraction(1)],
    ]

    def test_enumeration_matches_brute_force(self):
        for q in (1, 2, Fraction(3, 2)):
            found = subset_sup(self.ROWS, q)
            assert found.enumerated
            best = max(power_sum(sums, q).lo for sums in _all_column_sums(self.ROWS))
            assert power_sum(found.column_sums, q).hi >= best

    def test_budget_cut_search_is_a_lower_bound(self, monkeypatch):
        rows = [[Fraction(n % 5 - 2, 1 + n % 3), Fraction(3 - n % 7, 2)] for n in range(12)]
        best = max(sum(s * s for s in sums) for sums in _all_column_sums(rows))
        assert sum(s * s for s in subset_sup(rows, 2).column_sums) == best
        monkeypatch.setattr(subsetsup, "NODE_LIMIT", 8)
        found = subset_sup(rows, 2)
        assert not found.enumerated
        assert found.column_sums == _column_sums_of(rows, found.subset)
        assert sum(s * s for s in found.column_sums) <= best

    def test_near_tie_is_settled_exactly(self):
        # {0} scores 2 and {1} scores 1 + (1 + 2**-60) ** 1.5: equal in
        # floats, but {1} is larger.
        rows = [[Fraction(1), Fraction(-1)], [Fraction(-1), 1 + Fraction(1, 2**60)]]
        found = subset_sup(rows, Fraction(3, 2))
        assert found.subset == (1,)
        assert found.enumerated
        assert power_sum(found.column_sums, Fraction(3, 2)).lo > 2

    def test_tie_with_equal_column_sizes_is_settled(self):
        # {0} and {1} both score 2 * 2 ** 1.5 with the same |column sums|.
        found = subset_sup([[2, -2], [-2, 2]], Fraction(3, 2))
        assert found.enumerated and found.subset == (0,)

    def test_tie_that_enclosures_cannot_split_is_not_settled(self):
        # {0} and {1} both score 16 * 2 ** 0.5 + 27 (8 ** 1.5 = 8 * 2 ** 1.5),
        # from different |column sums|, so no enclosure separates them.
        rows = [[Fraction(8)] + [Fraction(0)] * 8 + [Fraction(9)],
                [Fraction(0)] + [Fraction(2)] * 8 + [Fraction(-9)]]
        found = subset_sup(rows, Fraction(3, 2))
        assert found.subset in ((0,), (1,))
        assert not found.enumerated

    def test_entries_past_float_range(self):
        huge = Fraction(10**200)
        assert subset_sup([[huge]], 2).column_sums == (huge,)
        rows = [[Fraction(10**400), Fraction(-3)], [Fraction(5), -Fraction(10**401)]]
        for q in (2, Fraction(3, 2)):
            found = subset_sup(rows, q)
            assert found.enumerated
            assert found.subset == (0, 1)
            assert found.column_sums == (10**400 + 5, -(10**401) - 3)

    def test_equal_rows_are_taken_together(self):
        rows = [[Fraction(1), Fraction(-1)]] * 20 + [[Fraction(-1), Fraction(3)]]
        found = subset_sup(rows, 2)
        assert found.enumerated
        assert found.subset == tuple(range(20))
        assert found.column_sums == (20, -20)

    def test_empty(self):
        found = subset_sup([], 2)
        assert found.subset == () and found.enumerated

    def test_column_sums_exact_for_best_subset(self):
        found = subset_sup(self.ROWS, 2)
        assert found.enumerated
        assert found.column_sums == _column_sums_of(self.ROWS, found.subset)


def test_enumerator_matches_brute_force_randomized():
    import random

    rng = random.Random(42)
    for _ in range(30):
        m = rng.randint(1, 9)
        w = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(w)]
            for _ in range(m)
        ]
        for q in (1, 2):
            found = subset_sup(rows, float(q))
            assert found.enumerated
            got = sum(abs(s) ** q for s in found.column_sums)
            best = Fraction(0)
            for mask in range(1 << m):
                sums = [Fraction(0)] * w
                for n in range(m):
                    if mask & (1 << n):
                        for k, v in enumerate(rows[n]):
                            sums[k] += v
                best = max(best, sum(abs(s) ** q for s in sums))
            assert got == best


def _column_sums_of(rows, subset):
    sums = [Fraction(0)] * max(len(r) for r in rows)
    for n in subset:
        for k, v in enumerate(rows[n]):
            sums[k] += v
    return tuple(sums)


def _all_column_sums(rows):
    for mask in range(1 << len(rows)):
        yield _column_sums_of(rows, [n for n in range(len(rows)) if mask >> n & 1])


ENTRIES = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.sampled_from([Fraction(10**400), Fraction(-(10**400) - 1), Fraction(10**400, 3)]),
)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda w: st.lists(st.lists(ENTRIES, min_size=w, max_size=w), min_size=1, max_size=10)
    ),
    q=st.sampled_from([1, 2, 3, Fraction(3, 2), Fraction(5, 4)]),
)
def test_search_matches_brute_force(rows, q):
    found = subset_sup(rows, q)
    assert found.column_sums == _column_sums_of(rows, found.subset)
    if Fraction(q).denominator == 1:
        assert found.enumerated
        best = max(sum(abs(s) ** q for s in sums) for sums in _all_column_sums(rows))
        assert sum(abs(s) ** q for s in found.column_sums) == best
    elif found.enumerated:
        got = power_sum(found.column_sums, q)
        assert not any(got.hi < power_sum(sums, q).lo for sums in _all_column_sums(rows))
