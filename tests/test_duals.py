"""Dual machinery: pairing matrices, kernel quantities, conditions d1..d8."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column_abs_sums
from fibspaces import duals, subsetsup
from fibspaces.duals import (
    DualReport,
    _abar_table,
    _g_rows,
    _rank_one_sizes,
    abar,
    alpha_matrix,
    apply_dense_row,
    beta_matrix,
    dual_condition,
    dual_membership,
)
from fibspaces.errors import DomainError, ParseError
from fibspaces.exactreal import CertifiedReal, Exponent, conjugate, power_sum, to_float, to_fraction
from fibspaces.sequences import (
    LambdaSeq,
    SeqWindow,
    fib_sq,
    from_values,
    inv_fib_pow,
    ones_seq,
    parse_generator_spec,
    unit_seq,
    zero_seq,
)
from fibspaces.subsetsup import subset_power_sum
from fibspaces.triangles import e_inverse_matrix, forward_transform
from fibspaces.verdicts import (
    Status,
    Verdict,
    classify_growth,
    classify_to_zero,
    conjunction,
    sweep_points,
)

LIN = LambdaSeq.linear(1, 1)
GEO = LambdaSeq.geometric(2, 1)


def _random_window(rng, n):
    return SeqWindow(
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
    )


class TestAlphaMatrix:
    def test_unit_first_row(self):
        b = alpha_matrix(SeqWindow((Fraction(1), Fraction(0), Fraction(0))), LIN)
        assert b.entry(0, 0) == 1
        assert b.entry(1, 0) == 0 and b.entry(2, 1) == 0

    def test_zero(self):
        b = alpha_matrix(SeqWindow((Fraction(0),) * 4), LIN)
        assert all(b.entry(n, k) == 0 for n in range(4) for k in range(n + 1))

    def test_linearity(self):
        rng = random.Random(3)
        a = _random_window(rng, 6)
        doubled = SeqWindow(tuple(2 * v for v in a.values))
        b1, b2 = alpha_matrix(a, LIN), alpha_matrix(doubled, LIN)
        for n in range(6):
            for k in range(n + 1):
                assert b2.entry(n, k) == 2 * b1.entry(n, k)

    def test_rows_are_scaled_inverse_rows(self):
        rng = random.Random(4)
        a = _random_window(rng, 8)
        b = alpha_matrix(a, LIN)
        g = e_inverse_matrix(LIN)
        for n in range(8):
            for k in range(n + 1):
                assert b.entry(n, k) == g.entry(n, k) * a.values[n]

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=48),
            min_size=1, max_size=24,
        ),
        st.sampled_from([LIN, GEO]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_inverse_entry_formula(self, a, lam):
        # Reference: row n of the closed-form inverse, entry by entry, times a_n.
        want = [
            [lam.kernel.inverse_entry(n, k) * an for k in range(n + 1)]
            for n, an in enumerate(a)
        ]
        assert alpha_matrix(a, lam).rows == tuple(tuple(row) for row in want)


class TestApplyDenseRow:
    def test_rows_outside_the_window_are_refused(self):
        b = alpha_matrix([Fraction(1), Fraction(2), Fraction(3)], LIN)
        for n in (-1, 3, 10):
            with pytest.raises(DomainError):
                apply_dense_row(b, [Fraction(1)] * 11, n)


class TestAbar:
    def test_unit0_head(self):
        a = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        for n in (1, 2, 3):
            assert abar(a, LIN, 0, n) == 1

    def test_unit0_vanishes_off_support(self):
        a = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        assert abar(a, LIN, 1, 3) == 0
        assert abar(a, LIN, 2, 3) == 0

    def test_unit1_coupling(self):
        a = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
        assert abar(a, LIN, 0, 2) == 2

    def test_index_domain(self):
        a = [Fraction(1)] * 4
        with pytest.raises(DomainError):
            abar(a, LIN, 2, 2)
        with pytest.raises(DomainError):
            abar(a, LIN, 0, 4)

    def test_limit_stabilizes_for_finite_support(self):
        gen = from_values([2, -1, Fraction(1, 3)])
        window = list(gen.prefix(12))
        limits = LIN.kernel.limit_row(window[:5])
        for k in (0, 1, 2, 4):
            for n in range(max(k + 1, 3), 11):
                assert abar(window, LIN, k, n) == limits[k]


class TestBetaMatrix:
    def test_diagonal_scaling(self):
        a = SeqWindow((Fraction(1), Fraction(0)))
        t = beta_matrix(a, LIN)
        assert t.entry(0, 0) == LIN.kernel.grow(1).diag[0] * 1
        assert t.entry(1, 1) == 0

    def test_zero(self):
        t = beta_matrix(SeqWindow((Fraction(0),) * 3), LIN)
        assert all(t.entry(n, k) == 0 for n in range(3) for k in range(n + 1))

    def test_abel_identity_random(self):
        rng = random.Random(7)
        for lam in (LIN, GEO):
            for _ in range(50):
                n = rng.randint(1, 24)
                a = _random_window(rng, n + 1)
                x = _random_window(rng, n + 1)
                y = forward_transform(x, lam)
                t = beta_matrix(a, lam)
                lhs = sum(
                    (a.values[k] * x.values[k] for k in range(n + 1)), Fraction(0)
                )
                assert lhs == apply_dense_row(t, list(y.values), n)

    def test_alpha_pairing_identity_random(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(0, 24)
            a = _random_window(rng, n + 1)
            x = _random_window(rng, n + 1)
            y = forward_transform(x, LIN)
            b = alpha_matrix(a, LIN)
            for i in range(n + 1):
                assert a.values[i] * x.values[i] == apply_dense_row(b, list(y.values), i)


class TestDualConditions:
    def test_d5_unit0(self):
        rep = dual_condition(unit_seq(0), LIN, "d5", window=16)
        assert rep.verdict.status is Status.HOLDS_EXACTLY
        assert rep.value.value == 1

    def test_d3_ones_diverges(self):
        rep = dual_condition(ones_seq(), LIN, "d3", window=32)
        assert rep.verdict.status is Status.EVIDENCE_DIVERGING

    def test_d6_decaying_bounded(self):
        rep = dual_condition(inv_fib_pow(3), LIN, "d6", window=20)
        assert rep.verdict.status is Status.EVIDENCE_BOUNDED

    def test_d1_needs_p(self):
        with pytest.raises(DomainError):
            dual_condition(unit_seq(0), LIN, "d1", window=8)

    def test_unknown_condition(self):
        with pytest.raises(DomainError):
            dual_condition(unit_seq(0), LIN, "d9", window=8)

    def test_window_minimum(self):
        with pytest.raises(DomainError):
            dual_condition(unit_seq(0), LIN, "d5", window=3)

    def test_d1_budget_cut_is_a_lower_bound(self, monkeypatch):
        # a search cut short by its node budget never exceeds the settled
        # one, and a finite candidate is exact only when the search settled
        gen = from_values([1, Fraction(-1, 2), Fraction(1, 3), 2, -1, Fraction(3, 4)])
        for window in (10, 16, 32):
            exact = dual_condition(gen, LIN, "d1", window=window, p=2)
            with monkeypatch.context() as patch:
                patch.setattr(subsetsup, "NODE_LIMIT", 4)
                cut = dual_condition(gen, LIN, "d1", window=window, p=2)
            assert not exact.lower_bound_only
            assert exact.verdict.status is Status.HOLDS_EXACTLY
            assert cut.lower_bound_only
            assert cut.verdict.status is Status.EVIDENCE_BOUNDED
            assert cut.value.value <= exact.value.value

    @pytest.mark.parametrize("condition", ["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"])
    def test_finite_candidate_is_read_past_its_support(self, condition):
        # twelve entries, so a window of 4 stops inside the support
        gen = from_values([Fraction(v, 1 + v % 4) for v in range(-6, 6)])
        short = dual_condition(gen, GEO, condition, window=4, p=2)
        deep = dual_condition(gen, GEO, condition, window=64, p=2)
        assert short.verdict.status is deep.verdict.status is Status.HOLDS_EXACTLY
        assert str(short.value) == str(deep.value)
        assert not short.lower_bound_only

    def test_d7_finite_support_exact_zero(self):
        rep = dual_condition(from_values([1, 2]), LIN, "d7", window=32)
        assert rep.verdict.status is Status.HOLDS_EXACTLY
        assert all(v == 0.0 for x, v in rep.sweep if x > 2)


class TestDualMembership:
    def test_beta_unit0_exact(self):
        res = dual_membership(unit_seq(0), LIN, "lp:2", "beta", window=24)
        assert res["verdict"].status is Status.HOLDS_EXACTLY
        assert [r.condition for r in res["conditions"]] == ["d3", "d4", "d5"]

    def test_beta_ones_fails_d3(self):
        res = dual_membership(ones_seq(), LIN, "lp:2", "beta", window=32)
        assert res["verdict"].status is Status.EVIDENCE_DIVERGING
        d3 = next(r for r in res["conditions"] if r.condition == "d3")
        assert d3.verdict.status is Status.EVIDENCE_DIVERGING

    def test_zero_member_everywhere(self):
        for kind in ("alpha", "beta", "gamma"):
            for space in ("l1", "lp:2", "linf"):
                res = dual_membership(zero_seq(), LIN, space, kind, window=16)
                assert res["verdict"].status is Status.HOLDS_EXACTLY, (kind, space)

    def test_condition_tables(self):
        cases = {
            ("l1", "alpha"): ["d2"],
            ("lp", "alpha"): ["d1"],
            ("linf", "alpha"): ["d1"],
            ("lp", "beta"): ["d3", "d4", "d5"],
            ("l1", "beta"): ["d3", "d5", "d6"],
            ("linf", "beta"): ["d7", "d8"],
            ("l1", "gamma"): ["d5", "d6"],
            ("lp", "gamma"): ["d5", "d8"],
            ("linf", "gamma"): ["d5", "d8"],
        }
        for (space, kind), expected in cases.items():
            spec = "lp:2" if space == "lp" else space
            res = dual_membership(unit_seq(0), LIN, spec, kind, window=12)
            assert [r.condition for r in res["conditions"]] == expected, (space, kind)

    def test_p_normalization(self):
        res = dual_membership(unit_seq(0), LIN, "lp:1", "beta", window=12)
        assert res["space"] == "l1"
        assert [r.condition for r in res["conditions"]] == ["d3", "d5", "d6"]

    def test_space_spec_matches_kind_and_exponent(self):
        spec = dual_membership(unit_seq(0), LIN, "lp:3", "gamma", window=12)
        kind = dual_membership(unit_seq(0), LIN, " lp:6/2 ", "gamma", window=12)
        assert (spec["space"], spec["p"]) == (kind["space"], kind["p"]) == ("lp", "3")

    @pytest.mark.parametrize("space", ["c", "c0"])
    def test_no_dual_table_for_convergent_spaces(self, space):
        with pytest.raises(ParseError):
            dual_membership(unit_seq(0), LIN, space, "beta", window=12)


# ---------------------------------------------------------------------------
# The full-depth route as an oracle


def _full_depth_report(a, lam, condition, window, p=None) -> DualReport:
    """dual_condition the long way: every abar row built to the depth, one
    size per row, d3 from its own partial sums and d7 summed entry by entry
    over the rows w - 1 and w // 2.  A candidate with finite support s is
    one exact evaluation at depth s + 1; any other is swept to the window,
    its d1 searches splitting one node budget."""
    q = None if p is None else conjugate(p).as_fraction()
    finite = a.support is not None
    depth = a.support + 1 if finite else window
    vals = [to_fraction(v) for v in a.prefix(depth)]
    table, g_rows = _abar_table(vals, lam, depth), _g_rows(vals, lam)
    diag = lam.kernel.grow(depth).diag
    partials = [Fraction(0)]
    for j in range(1, depth):
        partials.append(partials[-1] + vals[j] * fib_sq(j + 1))
    points = [depth] if finite else sweep_points(depth)
    searches = []

    def at(w):
        if condition == "d1":
            budget = subsetsup.NODE_LIMIT - sum(found.nodes for found, _ in searches)
            budget //= sum(1 for later in points if later >= w)
            searches.append(subset_power_sum(g_rows[:w], q, node_limit=budget))
            return searches[-1][1]
        if condition == "d2":
            return CertifiedReal.exact(max(column_abs_sums(g_rows[:w]), default=Fraction(0)))
        if condition in ("d3", "d7"):
            if condition == "d3":
                dist = abs(partials[w - 1] - partials[w // 2])
            else:
                dist = sum((abs(table[w - 1][k] - table[w // 2][k]) for k in range(w // 2)),
                           Fraction(0))
            return CertifiedReal.exact(dist)
        sizes = {
            "d4": lambda n: power_sum(table[n], q),
            "d5": lambda n: abs(diag[n] * vals[n]),
            "d6": lambda n: max((abs(v) for v in table[n]), default=Fraction(0)),
            "d8": lambda n: sum((abs(v) for v in table[n]), Fraction(0)),
        }[condition]
        return CertifiedReal.max_of([sizes(n) for n in range(w)])

    to_zero = condition in ("d3", "d7")
    if finite:
        value = CertifiedReal.exact(0) if to_zero else at(depth)
        verdict = Verdict(Status.HOLDS_EXACTLY, ((depth, to_float(value.value)),), value=value)
    else:
        sweep = [(w, to_float(at(w).value)) for w in points]
        verdict = (classify_to_zero if to_zero else classify_growth)(sweep)
        value = searches[-1][1] if searches else at(depth)
    if condition == "d3":
        value = CertifiedReal.exact(partials[-1])
    lower_bound_only = bool(searches) and not searches[-1][0].enumerated
    if searches:
        verdict.detail["enumerated"] = not lower_bound_only
        if finite and lower_bound_only:
            verdict.status = Status.EVIDENCE_BOUNDED
    return DualReport(condition, verdict, verdict.sweep, value, lower_bound_only,
                      {"lambda": lam.describe(), "window": window, "p": p})


def _assert_same_report(got: DualReport, want: DualReport):
    assert got.to_json() == want.to_json()
    if want.value is None:
        assert got.value is None
    else:
        assert (got.value.value, got.value.err) == (want.value.value, want.value.err)


_small = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=6)
_lambdas = st.one_of(
    st.builds(LambdaSeq.linear, _small, _small),
    st.builds(LambdaSeq.geometric,
              st.fractions(min_value=Fraction(7, 6), max_value=3, max_denominator=6), _small),
)
_candidates = st.one_of(
    # rationals followed by trailing zeros, so the support is shorter than the list
    st.builds(
        lambda vals, zeros: from_values(vals + [Fraction(0)] * zeros),
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                 min_size=1, max_size=14),
        st.integers(min_value=0, max_value=4),
    ),
    # supports from 1 to 71, past window - 2 for every window drawn
    st.integers(min_value=0, max_value=70).map(unit_seq),
    st.just(zero_seq()),
    st.sampled_from([2, 3]).map(inv_fib_pow),
)
_exponents = st.sampled_from(
    [Exponent.of(Fraction(3, 2)), Exponent.of(2), Exponent.of(3), Exponent.infinity()]
)


class TestFullDepthRoute:
    """Only the rows through a finite support are built and d7 reads prefix
    sums; every report must stay the one of the full-depth route."""

    @given(a=_candidates, lam=_lambdas, window=st.integers(min_value=4, max_value=64),
           condition=st.sampled_from(["d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8"]),
           p=_exponents)
    @settings(max_examples=80, deadline=None)
    def test_condition_matches_the_full_depth_route(self, a, lam, window, condition, p):
        p = p if condition in ("d1", "d4") else None
        got = dual_condition(a, lam, condition, window=window, p=p)
        _assert_same_report(got, _full_depth_report(a, lam, condition, window, p))

    @given(a=_candidates, lam=_lambdas, window=st.integers(min_value=4, max_value=64),
           space=st.sampled_from(["l1", "lp:3/2", "lp:2", "lp:3", "linf"]),
           kind=st.sampled_from(["alpha", "beta", "gamma"]))
    @settings(max_examples=40, deadline=None)
    def test_membership_matches_the_full_depth_route(self, a, lam, window, space, kind):
        res = dual_membership(a, lam, space, kind, window=window)
        for report in res["conditions"]:
            p = report.params["p"]
            _assert_same_report(
                report, _full_depth_report(a, lam, report.condition, window, p)
            )

    def test_finite_candidate_builds_rows_through_its_support_only(self, monkeypatch):
        # The depth the row sizes are read to, by the rank-one route (d4 at
        # an integer q, d6, d8) and by the table (d4 at q = 3/2).
        asked = []

        def recording_sizes(a_vals, lam, w, q):
            asked.append(w)
            return _rank_one_sizes(a_vals, lam, w, q)

        def recording_table(a_vals, lam, w):
            asked.append(w)
            return _abar_table(a_vals, lam, w)

        monkeypatch.setattr(duals, "_rank_one_sizes", recording_sizes)
        monkeypatch.setattr(duals, "_abar_table", recording_table)
        dual_membership(unit_seq(5), LIN, "linf", "beta", window=64)
        for condition in ("d4", "d6", "d8"):
            dual_condition(unit_seq(5), LIN, condition, window=64, p=Exponent.of(2))
        dual_condition(unit_seq(5), LIN, "d4", window=64, p=Exponent.of(3))
        assert len(asked) == 5 and max(asked) <= 7

    @pytest.mark.parametrize("gen", [unit_seq(5), inv_fib_pow(3)], ids=["unit", "inv-fib-pow"])
    def test_d7_alone_builds_no_table(self, monkeypatch, gen):
        def refuse(*args, **kwargs):
            raise AssertionError("d7 built an abar table")

        monkeypatch.setattr(duals, "_abar_table", refuse)
        dual_condition(gen, LIN, "d7", window=64)

    @pytest.mark.parametrize("condition, p", [
        ("d4", Exponent.of(2)), ("d4", Exponent.of(Fraction(3, 2))), ("d6", None), ("d8", None),
    ], ids=["d4-q2", "d4-q3", "d6", "d8"])
    def test_rank_one_conditions_build_no_table(self, monkeypatch, condition, p):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{condition} built an abar table")

        monkeypatch.setattr(duals, "_abar_table", refuse)
        dual_condition(inv_fib_pow(3), LIN, condition, window=64, p=p)


# An explicit lambda whose gaps shrink (9 then 1, 28 then 1) makes col_1 and
# col_4 negative, so a term's sign need not follow T_n's.
_SHRINKING = LambdaSeq.explicit([1, 10, 11, 12, 40, 41, 42])


class TestRankOneSizes:
    """d4 at an integer q, d6 and d8 size each abar row from its rank-one
    form; every size must be the one read from the table's row."""

    @given(values=st.lists(st.one_of(st.just(Fraction(0)), _small, _small.map(lambda v: -v)),
                           min_size=1, max_size=24),
           lam=st.one_of(_lambdas, st.just(_SHRINKING)),
           q=st.sampled_from([1, 2, 3, 4, None]))
    @settings(max_examples=150, deadline=None)
    def test_sizes_match_the_table_rows(self, values, lam, q):
        table = _abar_table(values, lam, len(values))
        if q is None:
            want = [max((abs(v) for v in row), default=Fraction(0)) for row in table]
        else:
            want = [power_sum(row, q).value for row in table]
        assert _rank_one_sizes(values, lam, len(values), q) == want

    def test_shrinking_gaps_give_negative_columns(self):
        col = _SHRINKING.kernel.grow(6).col
        assert col[1] < 0 and col[4] < 0 and col[0] > 0


class TestGammaDualOfLp:
    """The classical (l_p : l_inf) condition on the partial-sum triangle is
    d4 with d5; the gamma-dual of lp reads d5 with d8.  The two give the
    same overall status on these candidates.  This does not decide which
    one the paper states."""

    @pytest.mark.parametrize("spec", ["inv-fib-pow:2", "inv-fib-pow:3", "e", "unit:3",
                                      "values:1,-1,2"])
    @pytest.mark.parametrize("window", [32, 64])
    @pytest.mark.parametrize("lam_spec", ["linear:1,1", "geometric:2,1"])
    @pytest.mark.parametrize("p", ["2", "3/2"])
    def test_q_norm_and_row_sums_agree(self, spec, window, lam_spec, p):
        a, lam = parse_generator_spec(spec), LambdaSeq.from_spec(lam_spec)
        gamma = dual_membership(a, lam, f"lp:{p}", "gamma", window=window)
        assert [r.condition for r in gamma["conditions"]] == ["d5", "d8"]
        d5 = gamma["conditions"][0].verdict
        d4 = dual_condition(a, lam, "d4", window=window, p=Exponent.of(Fraction(p))).verdict
        assert conjunction([d4, d5]).status is gamma["verdict"].status


# Every kernel array; after grow(n) the LONG ones hold indices 0..n and
# the others 0..n-1.
_LONG = ("lam", "gap", "w", "here", "back")
_SHORT = ("col", "diag", "num")
_DEPTH = 48


def _grown_to(lam: LambdaSeq) -> int:
    """The n of the kernel's deepest grow(n), -1 for a kernel never grown,
    once every array is seen to hold what grow(n) makes and nothing past it."""
    kern = lam.kernel
    n = len(kern.w) - 1
    assert [len(getattr(kern, name)) for name in _LONG] == [n + 1] * len(_LONG)
    assert [len(getattr(kern, name)) for name in _SHORT] == [max(n, 0)] * len(_SHORT)
    return n


_SPACES = ["l1", "lp:3", "linf"]
_KINDS = ["alpha", "beta", "gamma"]


@pytest.mark.parametrize("depth", [_DEPTH, _DEPTH - 9])
@pytest.mark.parametrize("a", [unit_seq(0), from_values([1, Fraction(-2, 3)]), zero_seq()],
                         ids=["unit", "values", "zero"])
class TestKernelGrownToTheSupport:
    """A finitely supported candidate's work stops at its support s: every
    condition and every membership, as every command runs it, grows the
    kernel through at most s + 1, whatever the window."""

    @pytest.mark.parametrize("condition", duals.CONDITION_IDS)
    def test_every_condition_stops_at_the_support(self, a, depth, condition):
        lam = LambdaSeq.geometric(2, 1)
        dual_condition(a, lam, condition, window=depth, p=Exponent.of(3))
        assert _grown_to(lam) <= a.support + 1

    @pytest.mark.parametrize("space", _SPACES)
    @pytest.mark.parametrize("kind", _KINDS)
    def test_every_membership_stops_at_the_support(self, a, depth, space, kind):
        lam = LambdaSeq.geometric(2, 1)
        dual_membership(a, lam, space, kind, window=depth)
        assert _grown_to(lam) <= a.support + 1


@pytest.mark.parametrize("depth", [_DEPTH, _DEPTH - 9])
class TestKernelGrownToTheDepth:
    """An infinitely supported candidate reads the kernel through the whole
    depth: every membership, and every condition but d3, which reads no
    lambda, and d7, which reads the columns below w // 2 at the window."""

    @pytest.mark.parametrize("condition", duals.CONDITION_IDS)
    def test_every_condition_grows_to_what_it_reads(self, depth, condition):
        lam = LambdaSeq.geometric(2, 1)
        dual_condition(inv_fib_pow(3), lam, condition, window=depth, p=Exponent.of(3))
        want = {"d3": -1, "d7": depth // 2}
        assert _grown_to(lam) == want.get(condition, depth)

    @pytest.mark.parametrize("space", _SPACES)
    @pytest.mark.parametrize("kind", _KINDS)
    def test_every_membership_grows_to_the_depth(self, depth, space, kind):
        lam = LambdaSeq.geometric(2, 1)
        dual_membership(inv_fib_pow(3), lam, space, kind, window=depth)
        assert _grown_to(lam) == depth


_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# supports 1..12: up to eleven rationals, then a nonzero last entry
_supported = st.builds(lambda head, last: from_values(head + [last]),
                       st.lists(_fracs, max_size=11), _fracs.filter(bool))


class TestWorkStopsAtTheSupport:
    """Past a finite support nothing a condition reads changes, so a report
    does not depend on how deep the kernel was grown before, and d1 is one
    search over the rows through the support s, read at s + 1."""

    @given(a=_supported, lam=_lambdas, window=st.integers(min_value=8, max_value=64),
           space=st.sampled_from(["l1", "lp:3/2", "lp:2", "lp:3", "linf"]),
           kind=st.sampled_from(_KINDS))
    @settings(max_examples=40, deadline=None)
    def test_membership_ignores_a_deeper_kernel(self, a, lam, window, space, kind):
        fresh, grown = (LambdaSeq.from_spec(lam.describe()) for _ in range(2))
        grown.kernel.grow(2 * window)
        want = dual_membership(a, fresh, space, kind, window=window)
        got = dual_membership(a, grown, space, kind, window=window)
        assert got["verdict"].to_json() == want["verdict"].to_json()
        for g, w in zip(got["conditions"], want["conditions"], strict=True):
            _assert_same_report(g, w)

    @given(a=_supported, lam=_lambdas, window=st.integers(min_value=8, max_value=64),
           p=_exponents)
    @settings(max_examples=40, deadline=None)
    def test_reused_d1_is_a_fresh_search(self, a, lam, window, p):
        report = dual_condition(a, lam, "d1", window=window, p=p)
        q = conjugate(p).as_fraction()
        rows = _g_rows([to_fraction(v) for v in a.prefix(a.support + 1)], lam)
        found, value = subset_power_sum(rows, q)
        assert (value.value, value.err) == (report.value.value, report.value.err)
        assert report.sweep == ((a.support + 1, to_float(value.value)),)
        assert report.lower_bound_only == (not found.enumerated)


class TestD4AtQOneIsD8:
    """For the sup-normed space q = 1, and d4's q-power row sum is d8's
    absolute row sum term for term: the linf beta-dual reads d8 alone."""

    @given(a=st.one_of(_supported, st.integers(min_value=0, max_value=40).map(unit_seq),
                       st.sampled_from([zero_seq(), ones_seq(), inv_fib_pow(3)])),
           lam=_lambdas, window=st.integers(min_value=4, max_value=48))
    @settings(max_examples=60, deadline=None)
    def test_same_report(self, a, lam, window):
        d4 = dual_condition(a, lam, "d4", window=window, p=Exponent.infinity())
        d8 = dual_condition(a, lam, "d8", window=window)
        assert d4.sweep == d8.sweep
        assert (d4.value.value, d4.value.err) == (d8.value.value, d8.value.err)
        assert d4.verdict.to_json() == d8.verdict.to_json()
        assert d4.lower_bound_only == d8.lower_bound_only
