"""Mapping classes, operator norms, and noncompactness estimates."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column_abs_sums
from fibspaces import duals, subsetsup
from fibspaces.errors import (
    AlphaLimitUndetermined,
    DomainError,
    UnsupportedPair,
    UnsupportedTarget,
)
from fibspaces.exactreal import CertifiedReal, Exponent, to_float
from fibspaces.matclasses import (
    HatMatrix,
    MncEstimate,
    _column_power_sup,
    _evidence,
    class_check,
    compactness_verdict,
    hat_entry,
    noncompactness_estimate,
    operator_norm,
)
from fibspaces.sequences import LambdaSeq
from fibspaces.triangles import (
    RowWindowedMatrix,
    Triangle,
    e_matrix,
    fhat_matrix,
    identity_triangle,
    lambda_matrix,
)
from fibspaces.verdicts import Status, Verdict, classify_growth, sweep_points

LIN = LambdaSeq.linear(1, 1)
GEO = LambdaSeq.geometric(2, 1)

SINGLE = RowWindowedMatrix([[Fraction(1)]], name="single-row")
TWO = RowWindowedMatrix([[Fraction(1)], [Fraction(1)]], name="two-rows")
ZERO = RowWindowedMatrix([], name="zero")


def _random_matrix(rng, rows, cols):
    return RowWindowedMatrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ],
        name="random",
    )


def _diagonal_hat(power):
    """A triangle whose hat is diag(1/(n+1)**power): row n of the hat is
    linear in row n of the matrix, and the hat of E is the identity, so
    E's rows scaled by 1/(n+1)**power give it."""
    def build(lam):
        def fn(n, k):
            return lam.kernel.e_entry(n, k) / (n + 1) ** power
        return Triangle(fn, f"E/(n+1)^{power}")
    return build


# The builtin sources, as functions of lambda, and two compact positives.
# The hat of E is the identity, that of fhat is the inverse of the
# bidiagonal lambda-difference matrix (rows (-n, n+1) for linear:1,1,
# (-1, 2) for geometric:2,1), and those of identity and lambda-matrix are
# unbounded (E's inverse and a positive multiple of it): each keeps a tail
# norm bounded away from zero from every X_p into c0 and into l1.
BUILTINS = {
    "E": e_matrix,
    "fhat": lambda lam: fhat_matrix(),
    "identity": lambda lam: identity_triangle(),
    "lambda-matrix": lambda_matrix,
}
COMPACT = {"diag-1/(n+1)": _diagonal_hat(1), "diag-1/(n+1)^2": _diagonal_hat(2)}


def hat_entry_via_inverse(source, lam: LambdaSeq, n: int, k: int) -> Fraction:
    """Independent route: pair row n against column k of the closed-form
    inverse triangle (transpose pairing).  Must equal :func:`hat_entry`."""
    support = source.row_support(n)
    return sum(
        (source.entry(n, j) * lam.kernel.inverse_entry(j, k) for j in range(k, support)),
        Fraction(0),
    )


class TestHatEntries:
    def test_identity_diagonal(self):
        assert hat_entry(identity_triangle(), LIN, 1, 1) == 4
        assert hat_entry(identity_triangle(), LIN, 1, 1) == LIN.kernel.grow(2).diag[1]

    def test_single_row(self):
        assert hat_entry(SINGLE, LIN, 0, 0) == 1
        assert hat_entry(SINGLE, LIN, 0, 1) == 0
        assert hat_entry(SINGLE, LIN, 3, 0) == 0

    def test_zero_matrix(self):
        assert hat_entry(ZERO, LIN, 0, 0) == 0

    @pytest.mark.parametrize("source", [
        RowWindowedMatrix([[1, 2, 3]]), identity_triangle(), e_matrix(GEO),
    ], ids=["rows", "identity", "E"])
    @pytest.mark.parametrize("n, k", [(0, -1), (-1, 0), (-1, -1), (2, -3)])
    def test_negative_indices_are_domain_errors(self, source, n, k):
        """A negative index is refused, as Triangle.entry and
        RowWindowedMatrix.entry refuse it, not read from the end of a row."""
        with pytest.raises(DomainError):
            hat_entry(source, LIN, n, k)
        hat = HatMatrix(source, LIN)
        with pytest.raises(DomainError):
            hat.entry(n, k)
        if n < 0:
            with pytest.raises(DomainError):
                hat.row(n)

    def test_consistency_of_both_routes(self):
        rng = random.Random(13)
        for _ in range(6):
            m = _random_matrix(rng, rng.randint(1, 16), rng.randint(1, 16))
            for n in range(min(m.row_bound, 17)):
                for k in range(17):
                    assert hat_entry(m, LIN, n, k) == hat_entry_via_inverse(m, LIN, n, k)

    def test_hat_of_e_is_identity(self):
        hat = HatMatrix(e_matrix(LIN), LIN)
        for n in range(12):
            row = hat.row(n)
            assert row == tuple(
                Fraction(1) if k == n else Fraction(0) for k in range(n + 1)
            )

    def test_hat_of_identity_is_inverse(self):
        from fibspaces.triangles import e_inverse_matrix

        hat = HatMatrix(identity_triangle(), LIN)
        g = e_inverse_matrix(LIN)
        for n in range(10):
            for k in range(n + 1):
                assert hat.entry(n, k) == g.entry(n, k)


class TestClassCheck:
    def test_zero_in_every_class(self):
        pairs = [
            ("lp:2", "linf"), ("l1", "linf"), ("linf", "linf"), ("l1", "c"),
            ("lp:2", "c"), ("linf", "c"), ("l1", "c0"), ("lp:2", "c0"),
            ("linf", "c0"), ("l1", "l1"), ("lp:2", "l1"), ("linf", "l1"),
            ("l1", "lp:2"), ("linf", "lp:2"),
        ]
        for src, tgt in pairs:
            rep = class_check(ZERO, LIN, src, tgt, window=8)
            assert rep.verdict.status is Status.HOLDS_EXACTLY, (src, tgt)

    def test_single_row_exact_and_sup_one(self):
        rep = class_check(SINGLE, LIN, "lp:2", "linf", window=16)
        assert rep.verdict.status is Status.HOLDS_EXACTLY
        qsup = dict(rep.conditions)["row-qnorm-sup"]
        assert qsup.value.value == 1

    def test_identity_not_into_linf(self):
        rep = class_check(identity_triangle(), LIN, "lp:2", "linf", window=24)
        assert rep.verdict.status is Status.EVIDENCE_DIVERGING
        assert dict(rep.conditions)["row-qnorm-sup"].status is Status.EVIDENCE_DIVERGING

    def test_rows_in_beta_dual_holds_for_triangle_rows(self):
        # Rows 30 and 31 reach the window; finite support decides them too.
        rep = class_check(e_matrix(LIN), LIN, "lp:2", "linf", window=32)
        cond = dict(rep.conditions)["rows-in-beta-dual"]
        assert cond.status is Status.HOLDS_EXACTLY
        assert cond.detail == {"reason": "rows finitely supported"}
        assert rep.verdict.status is Status.EVIDENCE_BOUNDED

    @pytest.mark.parametrize("source", [SINGLE, identity_triangle()])
    def test_row_conditions_run_no_dual_search(self, monkeypatch, source):
        def refuse(*args, **kwargs):
            raise AssertionError("class_check ran a dual membership search")

        monkeypatch.setattr(duals, "dual_membership", refuse)
        monkeypatch.setattr(duals, "_abar_table", refuse)
        rep = class_check(source, LIN, "lp:2", "l1", window=8)
        assert dict(rep.conditions)["rows-in-beta-dual"].is_exact

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedPair):
            class_check(SINGLE, LIN, "lp:2", "lp:3")

    @pytest.mark.parametrize("source", ["c", "c0"])
    def test_convergent_source_is_unsupported(self, source):
        with pytest.raises(UnsupportedPair):
            class_check(SINGLE, LIN, source, "c0", window=8)

    def test_space_spec_matches_kind_and_exponent(self):
        spec = class_check(SINGLE, LIN, "lp:2", "lp:inf", window=8)
        kind = class_check(SINGLE, LIN, " lp:4/2 ", "linf", window=8)
        assert spec.to_json() == kind.to_json()
        assert (spec.source, spec.target, spec.p) == ("lp", "linf", "2")

    def test_condition_lists_match_registry(self):
        rep = class_check(SINGLE, LIN, "linf", "l1", window=8)
        assert [c for c, _ in rep.conditions] == [
            "row-series-exists", "row-diag-scaled-bounded",
            "partial-uniform", "row-subset-sup",
        ]

    @pytest.mark.parametrize("source", [
        RowWindowedMatrix([[Fraction(1), Fraction(-2)], [], [Fraction(3, 4)]]), e_matrix(GEO),
    ], ids=["rows", "E"])
    @pytest.mark.parametrize("target", ["linf", "c0", "l1"])
    def test_partial_uniform_holds_by_finite_row_support(self, source, target):
        """Row n's partial rows equal row n once the stop reaches its
        support, so the condition holds exactly, row by row."""
        cond = dict(class_check(source, LIN, "linf", target, window=12).conditions)
        verdict = cond["partial-uniform"]
        assert verdict.status is Status.HOLDS_EXACTLY
        assert verdict.detail == {"reason": "rows finitely supported"}

    def test_random_finite_matrices_fully_determined(self):
        rng = random.Random(14)
        m = _random_matrix(rng, 8, 8)
        for src, tgt in (("lp:2", "linf"), ("lp:2", "c0"), ("l1", "l1"), ("lp:2", "l1"),
                         ("l1", "lp:3")):
            rep = class_check(m, LIN, src, tgt, window=12)
            assert all(v.is_exact for _, v in rep.conditions), (src, tgt)

    def test_self_consistency_with_operator_norm(self):
        # the row-qnorm-sup quantity is the operator-norm supremum, q-powered
        rng = random.Random(15)
        m = _random_matrix(rng, 6, 6)
        rep = class_check(m, LIN, "lp:2", "linf", window=12)
        qsup = dict(rep.conditions)["row-qnorm-sup"].value
        norm = operator_norm(m, LIN, 2, "linf").value
        assert (norm * norm).agrees_with(qsup)


# The closed-form truth of the builtin matrices: E's hat matrix is the
# identity and geometric:2,1 fhat's is 2I - S, both bounded both ways.  So
# each maps l1 into every target, lp:2 into linf, c and c0 but not l1, and
# linf into linf only (not into lp:2: the sum of the first N columns has N
# rows of size 1).  Linear fhat's rows (-n, n+1), and the hat matrices of
# identity and lambda-matrix, are unbounded, so those map nowhere here.
BUILTINS = {
    "E": e_matrix,
    "fhat": lambda lam: fhat_matrix(),
    "identity": lambda lam: identity_triangle(),
    "lambda-matrix": lambda_matrix,
}
LAMBDAS = {"linear": LIN, "geometric": GEO}
GRID_SOURCES = ("l1", "lp:2", "linf")
GRID_TARGETS = ("l1", "c0", "c", "linf")  # each space lies in the next
HOLDS = {("l1", y) for y in GRID_TARGETS} | {("lp:2", "c0"), ("lp:2", "c"), ("lp:2", "linf"),
                                             ("linf", "linf")}
FAILS = (Status.EVIDENCE_DIVERGING,)
CLAIMS = (Status.HOLDS_EXACTLY, Status.EVIDENCE_BOUNDED)


@functools.lru_cache(maxsize=None)
def _grid_status(name, lam, source, target, window):
    matrix = BUILTINS[name](LAMBDAS[lam])
    return class_check(matrix, LAMBDAS[lam], source, target, window=window).verdict.status


@pytest.mark.parametrize("window", [16, 24])
@pytest.mark.parametrize("source, target", [
    *itertools.product(GRID_SOURCES, GRID_TARGETS),
    # Off the lattice grid: the triangle path of column-subset-sup.
    ("linf", "lp:2"),
])
@pytest.mark.parametrize("lam", list(LAMBDAS))
@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_verdicts_agree_with_the_closed_form(name, lam, source, target, window):
    """No decisive verdict contradicts the truth and no cell raises (the
    CLI's exit 3); inconclusive is allowed."""
    bounded = name == "E" or (name, lam) == ("fhat", "geometric")
    holds = bounded and (source, target) in HOLDS
    assert _grid_status(name, lam, source, target, window) not in (FAILS if holds else CLAIMS)


@pytest.mark.parametrize("window", [16, 24])
@pytest.mark.parametrize("lam", list(LAMBDAS))
@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_verdicts_respect_the_inclusion_lattice(name, lam, window):
    """(X : l1) in (X : c0) in (X : c) in (X : linf), and (X_inf : Y) in
    (X_2 : Y) in (X_1 : Y): a decisive claim on a smaller class never meets
    evidence against the larger one."""
    def status(source, target):
        return _grid_status(name, lam, source, target, window)

    for source in GRID_SOURCES:
        for small, large in zip(GRID_TARGETS, GRID_TARGETS[1:]):
            assert not (status(source, small) in CLAIMS and status(source, large) in FAILS)
    for target in GRID_TARGETS:
        for small, large in (("linf", "lp:2"), ("lp:2", "l1")):
            assert not (status(small, target) in CLAIMS and status(large, target) in FAILS)


def test_limits_read_row_w_minus_1_against_row_half_w():
    """Schur's (linf : c) condition in Cauchy form: E's hat rows w - 1 and
    w // 2 are distinct unit vectors, at l1 distance 2 at every sweep
    point.  Its column limits, read on the columns k <= w / 4 of the same
    rows, are all 0."""
    cond = dict(class_check(e_matrix(LIN), LIN, "linf", "c", window=16).conditions)
    assert cond["row-l1-to-alpha"].sweep == tuple((float(w), 2.0) for w in sweep_points(16))
    assert cond["row-l1-to-alpha"].status is Status.EVIDENCE_DIVERGING
    cond = dict(class_check(e_matrix(LIN), LIN, "l1", "c", window=16).conditions)
    assert cond["column-limits"].sweep == tuple((float(w), 0.0) for w in sweep_points(16))
    assert cond["column-limits"].status is Status.EVIDENCE_BOUNDED


def test_subset_sup_on_a_triangle_sweeps_nested_windows():
    """One search per sweep point, the last at the window itself; the
    value and subset are the last search's."""
    cond = dict(class_check(e_matrix(LIN), LIN, "lp:2", "l1", window=16).conditions)
    verdict = cond["row-subset-sup"]
    assert [w for w, _ in verdict.sweep] == sweep_points(16)
    # E's hat matrix is the identity: every unit row is taken.
    assert [v for _, v in verdict.sweep] == [float(w) for w in sweep_points(16)]
    assert verdict.value.value == 16 and verdict.detail["subset"] == tuple(range(16))
    assert verdict.status is Status.EVIDENCE_DIVERGING
    norm = operator_norm(e_matrix(LIN), LIN, 2, "l1", window=16)
    assert norm.verdict.sweep == verdict.sweep and norm.verdict.status is verdict.status


def test_subset_sweep_on_a_triangle_shares_one_node_budget(monkeypatch):
    """The searches of one sweep bound at most subsetsup.NODE_LIMIT nodes
    together, so the sweep costs about one search at the window."""
    spent = []
    search = subsetsup.subset_sup

    def counted(rows, q, node_limit=None):
        found = search(rows, q, node_limit)
        spent.append(found.nodes)
        return found

    monkeypatch.setattr(subsetsup, "subset_sup", counted)
    monkeypatch.setattr(subsetsup, "NODE_LIMIT", 600)
    cond = dict(class_check(fhat_matrix(), GEO, "lp:2", "l1", window=16).conditions)
    verdict = cond["row-subset-sup"]
    assert len(spent) == len(sweep_points(16)) and sum(spent) <= 600
    assert verdict.detail["enumerated"] is False
    assert verdict.status is Status.EVIDENCE_DIVERGING

def _shrinking_rows(lam):
    """Row n of E scaled by 1/(n+1): E's hat matrix is the identity, so this
    triangle's hat rows are e_n/(n+1) and every per-row size decreases."""
    e = e_matrix(lam)
    return Triangle(lambda n, k: e.entry(n, k) / (n + 1), name="E/(n+1)")


class TestSupEvidence:
    """Growth evidence for sup_n on a triangle source is the supremum over
    the rows n < w at each sweep point w, not the sizes themselves."""

    def test_class_condition_sweeps_the_running_maximum(self):
        cond = dict(class_check(_shrinking_rows(LIN), LIN, "l1", "linf", window=8).conditions)
        entry = cond["entry-sup"]
        assert entry.sweep == tuple((float(w), 1.0) for w in sweep_points(8))
        assert entry.status is Status.EVIDENCE_BOUNDED

    def test_operator_norm_prints_the_nested_sweep(self):
        r = operator_norm(_shrinking_rows(LIN), LIN, 1, "linf", window=8)
        assert r.kind == "evidence"
        assert r.sweep == r.verdict.sweep == tuple((float(w), 1.0) for w in sweep_points(8))

    @pytest.mark.parametrize("window", [0, -1])
    def test_empty_window_is_a_domain_error(self, window):
        with pytest.raises(DomainError):
            class_check(e_matrix(LIN), LIN, "lp:2", "c0", window=window)
        with pytest.raises(DomainError):
            operator_norm(e_matrix(LIN), LIN, 2, "l1", window=window)
        with pytest.raises(DomainError):
            operator_norm(SINGLE, LIN, 2, "linf", window=window)


SHARED_CASES = {
    "single": SINGLE,
    "two": TWO,
    "random8": _random_matrix(random.Random(21), 8, 8),
    "E": e_matrix(LIN),
}


@pytest.mark.parametrize("name", SHARED_CASES)
class TestSharedQuantities:
    """Class conditions and operator norms that read the same hat-matrix
    quantity agree."""

    WINDOW = 12

    def test_column_sum_sup(self, name):
        m = SHARED_CASES[name]
        cond = dict(class_check(m, LIN, "l1", "l1", window=self.WINDOW).conditions)
        cond = cond["column-sum-sup"]
        norm = operator_norm(m, LIN, 1, "l1", window=self.WINDOW)
        if norm.kind == "exact":
            assert cond.value == norm.value
        else:
            assert cond == norm.verdict
            assert cond.sweep == norm.sweep

    def test_row_l1_sup(self, name):
        """(linf : linf) reads the row 1-norms, as the operator norm out of
        the sup-normed space does."""
        m = SHARED_CASES[name]
        cond = dict(class_check(m, LIN, "linf", "linf", window=self.WINDOW).conditions)
        cond = cond["row-l1-sup"]
        norm = operator_norm(m, LIN, "inf", "linf", window=self.WINDOW)
        if norm.kind == "exact":
            assert cond.value == norm.value
        else:
            assert cond == norm.verdict

    def test_row_sweeps(self, name):
        """entry-sup reads the operator norm's row sups out of X_1.
        row-l1-limit-zero reads row w - 1's l1 norm at each point of the
        row-l1 norm's sweep, and is exactly 0 when finitely many rows are
        nonzero."""
        m = SHARED_CASES[name]
        entry = dict(class_check(m, LIN, "l1", "linf", window=self.WINDOW).conditions)
        row_l1 = dict(class_check(m, LIN, "linf", "c0", window=self.WINDOW).conditions)
        sup_norm = operator_norm(m, LIN, 1, "linf", window=self.WINDOW)
        l1_norm = operator_norm(m, LIN, "inf", "linf", window=self.WINDOW)
        entry, row_l1 = entry["entry-sup"], row_l1["row-l1-limit-zero"]
        if sup_norm.kind == "exact":
            assert entry.sweep == sup_norm.sweep and entry.value == sup_norm.value
            assert row_l1.is_exact and row_l1.value.value == 0
        else:
            assert entry == sup_norm.verdict
            # Every hat row of E has l1 norm 1, so the last row's norm is
            # the supremum's.
            assert row_l1.sweep == l1_norm.sweep
            assert row_l1.status is Status.EVIDENCE_DIVERGING


def _column_abs_sum_sup(hat: HatMatrix):
    """The column-sum supremum over rows n < w read from plain absolute
    column sums, as a value_at for _evidence."""
    return lambda w: CertifiedReal.exact(
        max(column_abs_sums(hat.row(n) for n in range(w)), default=Fraction(0)))


class TestColumnSumSup:
    """column-sum-sup is column-pnorm-sup at power 1: the power sums of
    the columns at power 1 are their absolute sums."""

    @staticmethod
    def _assert_same(hat, bound):
        for w in sweep_points(bound):
            got, want = _column_power_sup(hat.row, 1)(w), _column_abs_sum_sup(hat)(w)
            assert (got.value, got.err) == (want.value, want.err)
        verdict = _evidence(hat.finite_rows, bound, _column_power_sup(hat.row, 1))
        want = _evidence(hat.finite_rows, bound, _column_abs_sum_sup(hat))
        assert verdict.to_json() == want.to_json()

    @given(seed=st.integers(min_value=0, max_value=10**6),
           rows=st.integers(min_value=0, max_value=8),
           cols=st.integers(min_value=1, max_value=8),
           lam=st.sampled_from([LIN, GEO]))
    @settings(max_examples=40, deadline=None)
    def test_finite_matrices(self, seed, rows, cols, lam):
        m = _random_matrix(random.Random(seed), rows, cols)
        hat = HatMatrix(m, lam)
        self._assert_same(hat, hat.effective_bound(0))

    @given(which=st.sampled_from(["E", "fhat", "identity"]),
           window=st.integers(min_value=1, max_value=24),
           lam=st.sampled_from([LIN, GEO]))
    @settings(max_examples=30, deadline=None)
    def test_triangle_windows(self, which, window, lam):
        m = {"E": lambda: e_matrix(lam), "fhat": fhat_matrix,
             "identity": identity_triangle}[which]()
        self._assert_same(HatMatrix(m, lam), window)

    def test_zero_triangle_is_bounded_evidence(self):
        # An infinite triangle whose hat rows are all zero reads 0 at every
        # sweep point, bounded evidence for both column conditions, while a
        # finite zero matrix holds exactly with 0.
        zero = Triangle(lambda n, k: 0, "zero")
        for target, cid in (("l1", "column-sum-sup"), ("lp:2", "column-pnorm-sup")):
            verdict = dict(class_check(zero, LIN, "l1", target, window=8).conditions)[cid]
            assert verdict.status is Status.EVIDENCE_BOUNDED, target
            assert verdict.sweep == tuple((float(w), 0.0) for w in sweep_points(8))
            verdict = dict(class_check(ZERO, LIN, "l1", target, window=8).conditions)[cid]
            assert verdict.status is Status.HOLDS_EXACTLY, target
            assert verdict.value.value == 0


class TestOperatorNorm:
    def test_single_row_is_one(self):
        r = operator_norm(SINGLE, LIN, 2, "linf")
        assert r.kind == "exact" and r.value.is_exact and r.value.value == 1

    def test_zero_matrix(self):
        r = operator_norm(ZERO, LIN, 2, "linf")
        assert r.kind == "exact" and r.value.value == 0

    def test_two_row_bracket(self):
        r = operator_norm(TWO, LIN, 2, "l1")
        lo, hi = r.bracket
        assert lo.value == 2 and hi.value == 8
        # The verdict rates the power sum v^2 = 4; only the norm v is printed.
        assert r.verdict.is_exact and r.verdict.value is None
        assert r.verdict.sweep == ((2, 4.0),)

    def test_p_one_l1_target_exact(self):
        r = operator_norm(TWO, LIN, 1, "l1")
        assert r.kind == "exact" and r.value.value == 2

    def test_p_infinity_row_sums(self):
        r = operator_norm(SINGLE, LIN, "inf", "linf")
        assert r.value.value == 1

    def test_unsupported_target(self):
        with pytest.raises(UnsupportedTarget):
            operator_norm(SINGLE, LIN, 2, "bv")

    def test_triangle_source_gives_evidence(self):
        r = operator_norm(identity_triangle(), LIN, 2, "linf", window=20)
        assert r.kind == "evidence"
        assert r.verdict.status is Status.EVIDENCE_DIVERGING


class TestNoncompactness:
    def test_single_row_exactly_compact(self):
        est = noncompactness_estimate(SINGLE, LIN, 2, "c0", r_max=8)
        assert est.exact and est.limit.value == 0
        assert est.sweep == ((1, 0.0),)
        verdict = compactness_verdict(SINGLE, LIN, 2, "c0", r_max=8)
        assert verdict.status is Status.HOLDS_EXACTLY and verdict.label == "compact"

    def test_zero_matrix_compact(self):
        verdict = compactness_verdict(ZERO, LIN, 2, "c0", r_max=4)
        assert verdict.label == "compact"

    def test_identity_hat_noncompact(self):
        est = noncompactness_estimate(e_matrix(LIN), LIN, 2, "c0", r_max=32)
        assert all(v == 1.0 for _, v in est.sweep)
        verdict = compactness_verdict(e_matrix(LIN), LIN, 2, "c0", r_max=32)
        assert verdict.label == "evidence-noncompact"
        assert verdict.status is Status.EVIDENCE_DIVERGING

    @pytest.mark.parametrize("p, target", [(2, "c0"), ("inf", "c0"), (1, "c0"), (1, "l1")])
    @pytest.mark.parametrize("name", [*BUILTINS, *COMPACT, "two"])
    @pytest.mark.parametrize("lam", [LIN, GEO], ids=["linear", "geometric"])
    def test_sweep_at_most_the_operator_norm(self, lam, name, p, target):
        """chi(A) <= ||A|| at every sweep point: the tail norm at w reads
        the rows w // 2 <= n < w of the norm's rows n < w, on the same
        points, so its float is never above the norm's."""
        m = {**BUILTINS, **COMPACT, "two": lambda lam: TWO}[name](lam)
        est = noncompactness_estimate(m, lam, p, target, r_max=8)
        norm = operator_norm(m, lam, p, target, window=8 + 8)
        assert [w for w, _ in est.sweep] == [w for w, _ in norm.sweep]
        assert all(v <= bound for (_, v), (_, bound) in zip(est.sweep, norm.sweep))

    def test_target_c_needs_finite_rows(self):
        with pytest.raises(AlphaLimitUndetermined):
            noncompactness_estimate(e_matrix(LIN), LIN, 2, "c", r_max=8)

    def test_target_c_bracket(self):
        est = noncompactness_estimate(TWO, LIN, 2, "c", r_max=8)
        assert est.exact
        lo, hi = est.bracket
        assert lo.value == 0 and hi.value == 0

    def test_l1_target_brackets(self):
        est = noncompactness_estimate(TWO, LIN, 2, "l1", r_max=8)
        assert est.exact and est.limit.value == 0
        lo, hi = est.bracket
        assert hi.value == 4 * lo.value

    def test_unsupported_target(self):
        with pytest.raises(UnsupportedTarget):
            noncompactness_estimate(SINGLE, LIN, 2, "bv", r_max=8)

    def test_compact_iff_zero_mnc_finite_cases(self, monkeypatch):
        """A finite matrix's tail vanishes past its last row: one exact
        point (row bound, 0), read without a single hat row."""
        monkeypatch.setattr(HatMatrix, "row", None)
        rng = random.Random(18)
        for _ in range(5):
            m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            for p, target in ((2, "c0"), ("inf", "c"), (1, "l1"), ("3/2", "l1")):
                est = noncompactness_estimate(m, LIN, p, target, r_max=8)
                assert est.exact and est.limit.value == 0
                assert est.sweep == ((m.row_bound, 0.0),)
                assert compactness_verdict(m, LIN, p, target, r_max=8).label == "compact"

    def test_verdict_is_the_estimate_compactness(self):
        rng = random.Random(20)
        cases = [
            (SINGLE, 2, "c0"), (ZERO, 2, "c0"), (TWO, 2, "c"), (TWO, 2, "l1"),
            (TWO, 1, "l1"), (_random_matrix(rng, 8, 8), 2, "c0"),
            (_random_matrix(rng, 6, 6), 2, "l1"), (e_matrix(LIN), 2, "c0"),
            (identity_triangle(), 2, "c0"), (e_matrix(GEO), 3, "l1"),
        ]
        for m, p, target in cases:
            est = noncompactness_estimate(m, LIN, p, target, r_max=8)
            assert compactness_verdict(m, LIN, p, target, r_max=8) == est.compactness()

    @pytest.mark.parametrize("status, label", [
        (Status.EVIDENCE_BOUNDED, "evidence-compact"),
        (Status.EVIDENCE_DIVERGING, "evidence-noncompact"),
        (Status.INCONCLUSIVE, "inconclusive"),
    ])
    def test_compactness_label_of_each_evidence_status(self, status, label):
        sweep = ((0, 2.0), (1, 1.5), (2, 1.25), (3, 1.0), (4, 1.0))
        est = MncEstimate(target="c0", p="2", sweep=sweep, limit=None, bracket=None,
                          exact=False, verdict=Verdict(status, sweep, growth=-0.5))
        assert est.compactness() == Verdict(status, sweep, growth=-0.5, label=label)

    def test_domination_by_operator_norm(self):
        rng = random.Random(19)
        for _ in range(5):
            m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            norm = operator_norm(m, LIN, 2, "linf")
            est = noncompactness_estimate(m, LIN, 2, "c0", r_max=8)
            assert est.limit.value <= norm.value.hi
            assert all(v <= float(norm.value.hi) * (1 + 1e-12) for _, v in est.sweep)


@pytest.mark.parametrize("p, target", [(2, "c0"), ("inf", "c0"), (1, "l1"), (2, "l1"),
                                       ("3/2", "l1")])
@pytest.mark.parametrize("name", [*BUILTINS, *COMPACT])
@pytest.mark.parametrize("lam", [LIN, GEO], ids=["linear", "geometric"])
def test_mnc_truth_grid(lam, name, p, target):
    """Every builtin is noncompact into c0 and l1, and a diagonal hat that
    tends to zero is compact: the tail sweep over nested windows reads
    each, never a tail cut short by the window edge."""
    m = {**BUILTINS, **COMPACT}[name](lam)
    want = "evidence-compact" if name in COMPACT else "evidence-noncompact"
    assert compactness_verdict(m, lam, p, target, r_max=16).label == want
