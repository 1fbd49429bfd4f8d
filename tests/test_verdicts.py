"""Sweep classification thresholds and the subset-supremum search."""

import math
from fractions import Fraction

from fibspaces.subsetsup import subset_sup
from fibspaces.verdicts import (
    Status,
    Verdict,
    classify_growth,
    classify_to_zero,
    conjunction,
)

SWEEP = (8, 12, 16, 24, 32, 48, 64)


class TestClassifyGrowth:
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

    def _brute_force(self, rows, q):
        best = 0.0
        m = len(rows)
        for mask in range(1 << m):
            sums = [Fraction(0), Fraction(0)]
            for n in range(m):
                if mask & (1 << n):
                    for k in range(2):
                        sums[k] += rows[n][k]
            best = max(best, sum(abs(float(s)) ** q for s in sums))
        return best

    def test_enumeration_matches_brute_force(self):
        for q in (1.0, 2.0, 1.5):
            found = subset_sup(self.ROWS, q, mode="exact")
            assert found.enumerated
            assert abs(found.score(q) - self._brute_force(self.ROWS, q)) < 1e-12

    def test_sampling_never_exceeds_exact(self):
        import random

        rng = random.Random(0)
        for trial in range(10):
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
                for _ in range(rng.randint(1, 12))
            ]
            exact = subset_sup(rows, 2.0, mode="exact")
            sampled = subset_sup(rows, 2.0, mode="sample", seed=trial, samples=500)
            assert not sampled.enumerated
            assert sampled.score(2.0) <= exact.score(2.0) + 1e-12

    def test_entries_past_float_range(self):
        # Float scores of these rows would overflow; the scan runs on rows
        # scaled by a power of two and the column sums stay exact.
        huge = Fraction(10**200)
        assert subset_sup([[huge]], 2.0).column_sums == (huge,)
        rows = [[Fraction(10**400), Fraction(-3)], [Fraction(5), -Fraction(10**401)]]
        for q in (2.0, 1.5):
            for mode in ("exact", "sample"):
                found = subset_sup(rows, q, mode=mode, samples=50)
                assert found.subset == (0, 1)
                assert found.column_sums == (10**400 + 5, -(10**401) - 3)

    def test_small_entries_are_not_rescaled(self):
        from fibspaces.subsetsup import _scale_shift

        assert _scale_shift(self.ROWS, 2.0) == 0
        assert _scale_shift([[Fraction(2**400)]], 2.0) == 0
        assert _scale_shift([[Fraction(2**600)]], 2.0) > 0
        assert _scale_shift([[Fraction(0)]], 2.0) == 0

    def test_empty(self):
        found = subset_sup([], 2.0)
        assert found.subset == () and found.enumerated

    def test_column_sums_exact_for_best_subset(self):
        found = subset_sup(self.ROWS, 2.0, mode="exact")
        manual = [Fraction(0), Fraction(0)]
        for n in found.subset:
            for k in range(2):
                manual[k] += self.ROWS[n][k]
        assert list(found.column_sums) == manual


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
            found = subset_sup(rows, float(q), mode="exact")
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
