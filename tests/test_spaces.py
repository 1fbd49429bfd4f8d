"""Space norms, parallelogram failure, tail constant, inclusion evidence."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibspaces.errors import DivergentTail, DomainError, ParseError
from fibspaces.exactreal import (
    DEFAULT_PRECISION,
    P_INF,
    P_ONE,
    CertifiedReal,
    Exponent,
    rpow,
    to_float,
)
from fibspaces.sequences import (
    LambdaSeq,
    PrefixGenerator,
    SeqWindow,
    from_values,
    inv_fib_pow,
    unit_seq,
)
from fibspaces.spaces import (
    DEFAULT_SWEEP,
    NormEstimate,
    _scale_shift,
    inclusion_bounds_check,
    membership_evidence,
    normalize_space,
    parallelogram_check,
    space_norm,
    tail_constant,
)
from fibspaces.verdicts import Status, classify_growth
from fibspaces.witnesses import gen_witness

LIN = LambdaSeq.linear(1, 1)
GEO = LambdaSeq.geometric(2, 1)

# Index past the last nonzero image entry of each witness whose image is
# finitely supported (that is what makes its norm finitely determined).
IMAGE_SUPPORT = {"u": 2, "v-hilbert": 2, "v-e0": 1}


def witness_generator(name, lam, p=None):
    """Prefix-extendable view of a witness, for sweep-based evidence."""

    def fn(n: int) -> tuple:
        return gen_witness(name, lam, n, p=p).values

    return PrefixGenerator(f"witness:{name}", fn, image_support=IMAGE_SUPPORT.get(name))


def _random_window(rng, n, scale=100):
    return SeqWindow(
        tuple(Fraction(rng.randint(-scale, scale), scale) for _ in range(n))
    )


class TestNormalizeSpace:
    @pytest.mark.parametrize("space, expected", [
        ("lp:2", ("lp", Exponent.of(2))),
        (" lp:3/2 ", ("lp", Exponent.of(Fraction(3, 2)))),
        ("lp:6/2", ("lp", Exponent.of(3))),
        ("lp:1", ("l1", None)),
        ("lp:2/2", ("l1", None)),
        ("lp:inf", ("linf", None)),
        ("lp:INF", ("linf", None)),
        ("l1", ("l1", None)),
        ("linf", ("linf", None)),
        ("c", ("c", None)),
        ("c0", ("c0", None)),
    ])
    def test_canonical_form(self, space, expected):
        assert normalize_space(space) == expected

    @pytest.mark.parametrize("space", ["lp", "lp:", "lp:0", "lp:x", "l1:2", "foo", ""])
    def test_malformed_is_parse_error(self, space):
        with pytest.raises(ParseError):
            normalize_space(space)


class TestSpaceNorm:
    def test_u_norm_is_sqrt2(self):
        est = space_norm(gen_witness("u", LIN, 8), LIN, 2)
        assert est.value.agrees_with(rpow(Fraction(2), Fraction(1, 2)))

    def test_t_sup_norm_exact(self):
        est = space_norm(gen_witness("t", LIN, 50), LIN, "inf")
        assert est.value.is_exact and est.value.value == 1
        assert est.sup_index == 0

    def test_zero(self):
        est = space_norm(SeqWindow((Fraction(0),) * 6), LIN, 2)
        assert est.value.is_exact and est.value.value == 0

    def test_tail_fraction_reported(self):
        est = space_norm(gen_witness("t", LIN, 32), LIN, 2)
        assert est.tail_fraction is not None and 0 < est.tail_fraction < 1

    def test_norm_axioms_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 16)
            x, y = _random_window(rng, n), _random_window(rng, n)
            nx = space_norm(x, LIN, 2).value
            ny = space_norm(y, LIN, 2).value
            both = SeqWindow(
                tuple(a + b for a, b in zip(x.values, y.values))
            )
            nsum = space_norm(both, LIN, 2).value
            assert nsum.lo <= (nx + ny).hi + Fraction(1, 2**100)
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            scaled = SeqWindow(tuple(c * v for v in x.values))
            assert space_norm(scaled, LIN, 2).value.agrees_with(nx * abs(c))

    def test_small_entries_are_not_rescaled(self):
        values = [Fraction(1), Fraction(-2), Fraction(3), Fraction(1, 2)]
        assert _scale_shift(values, 2.0) == 0
        assert _scale_shift([Fraction(2**400)], 2.0) == 0
        assert _scale_shift([Fraction(2**600)], 2.0) > 0
        assert _scale_shift([Fraction(0)], 2.0) == 0

    def test_error_past_the_float_range_renders(self):
        """An error bound too large for a float prints from integers and
        reports an infinite error_bound."""
        est = NormEstimate(CertifiedReal(Fraction(1), Fraction(10**400)), 8)
        out = est.to_json()
        assert out["value"].endswith("± 1.000e+400")
        assert out["error_bound"] == math.inf

    def test_non_absoluteness(self):
        # The image mixes signs, so |x| has a strictly different norm.
        x = gen_witness("v-hilbert", LIN, 8)
        ax = SeqWindow(tuple(abs(v) for v in x.values))
        n1 = space_norm(x, LIN, 2).value
        n2 = space_norm(ax, LIN, 2).value
        assert n1.distance_from(n2) > 0


class TestParallelogram:
    def test_exact_at_two(self):
        rep = parallelogram_check(LIN, 2)
        assert rep["equal"]
        assert rep["lhs"].is_exact and rep["lhs"].value == 8
        assert rep["rhs"].is_exact and rep["rhs"].value == 8

    @pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2), Fraction(3), Fraction(4)])
    def test_fails_off_two(self, p):
        rep = parallelogram_check(LIN, p)
        assert not rep["equal"]
        assert rep["lhs"].contains(8)
        expected = rpow(Fraction(2), Fraction(2) / p) * 4
        assert rep["rhs"].agrees_with(expected)
        assert rep["separation"] > 0

    def test_p_one_value(self):
        rep = parallelogram_check(LIN, 1)
        assert rep["rhs"].value == 16

    def test_equality_only_at_two(self):
        results = {
            str(p): parallelogram_check(LIN, p)["equal"]
            for p in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))
        }
        assert results == {"1": False, "3/2": False, "2": True, "3": False, "4": False}


class TestTailConstant:
    @given(
        r=st.fractions(min_value=1, max_value=8, max_denominator=16).filter(lambda r: r > 1),
        c=st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16),
    )
    def test_value_is_r_over_r_minus_one(self, r, c):
        verdict = tail_constant(LambdaSeq.geometric(r, c))
        assert verdict.status is Status.HOLDS_EXACTLY
        assert verdict.value.is_exact and verdict.value.value == r / (r - 1)

    def test_linear_rejected(self):
        with pytest.raises(DivergentTail):
            tail_constant(LIN)

    @pytest.mark.parametrize("k_max", [2, 8, 32])
    @pytest.mark.parametrize("r, c", [(2, 1), (Fraction(3, 2), 1), (3, 2)])
    def test_closed_form_lies_in_the_restarted_sums(self, r, c, k_max):
        # Oracle: for each k <= k_max, the inner sum restarted at n = k and
        # stopped once gap(k) times its tail bound
        # sum_{n > N} 1/(c r^n) = 1/(c r^N (r - 1)) drops below 1e-30.
        lam = LambdaSeq.geometric(r, c)
        r, c = Fraction(r), Fraction(c)
        enclosures = []
        for k in range(k_max + 1):
            gap, partial, n = lam.gap(k), Fraction(0), k
            while True:
                partial += 1 / lam.value(n)
                tail = 1 / (c * r**n * (r - 1))
                if gap * tail < Fraction(1, 10**30):
                    break
                n += 1
            enclosures.append(CertifiedReal.from_interval(gap * partial, gap * (partial + tail)))
        assert CertifiedReal.max_of(enclosures).contains(tail_constant(lam).value.value)


class TestInclusionBounds:
    def test_ones_window(self):
        x = SeqWindow((Fraction(1),) * 16)
        rep = inclusion_bounds_check(x, LIN)
        assert rep["sup"]["certified"]
        assert rep["sup"]["rhs"].value == 4

    def test_zero_window(self):
        x = SeqWindow((Fraction(0),) * 4)
        rep = inclusion_bounds_check(x, LIN)
        assert rep["sup"]["lhs"].value == 0

    def test_random_sup_bound(self):
        rng = random.Random(21)
        for _ in range(100):
            x = _random_window(rng, rng.randint(1, 24))
            rep = inclusion_bounds_check(x, LIN)
            assert rep["sup"]["certified"]

    def test_random_p_bound_geometric(self):
        rng = random.Random(22)
        for _ in range(100):
            x = _random_window(rng, rng.randint(1, 24))
            rep = inclusion_bounds_check(x, GEO, p=2)
            assert rep["p"]["certified"]
            assert abs(rep["p"]["constant"].value - 2) <= rep["p"]["constant"].err + Fraction(1, 10**18)


def _membership_by_rebuild(gen, lam, space, sweep):
    """The norm branch of membership_evidence with the prefix of every
    sweep point built on its own."""
    space, p = normalize_space(space)
    norm_p = {"l1": P_ONE, "linf": P_INF}.get(space, p)
    points, values = [], []
    for n in sorted(sweep):
        est = space_norm(gen.prefix(n), lam, norm_p, DEFAULT_PRECISION)
        points.append((n, to_float(est.value.value)))
        values.append(est.value.value)
    stabilized = (gen.image_support is not None and min(sweep) >= gen.image_support
                  and all(v == values[-1] for v in values))
    return classify_growth(points, stabilized_exactly=stabilized)


class TestMembershipEvidence:
    @pytest.mark.parametrize("gen, space", [
        (witness_generator("power-law", GEO, p=Exponent.of(2)), "lp:3"),
        (witness_generator("power-law", GEO, p=Exponent.of(2)), "l1"),
        (witness_generator("t", GEO), "lp:2"),
        (witness_generator("u", GEO), "lp:2"),
        (witness_generator("alternating", GEO), "linf"),
        (from_values([3, Fraction(-1, 2), 0, 5]), "lp:3/2"),
        (inv_fib_pow(2), "linf"),
    ], ids=["power-law-lp3", "power-law-l1", "t", "u", "alternating", "values", "inv-fib-pow"])
    @pytest.mark.parametrize("sweep", [DEFAULT_SWEEP, (12, 4, 20, 4, 9)],
                             ids=["default", "unsorted"])
    def test_one_deep_window_equals_the_per_point_rebuild(self, gen, space, sweep):
        """The sweep reads every point's prefix from one window built at the
        deepest point; verdict and sweep must be those of building each
        point's prefix on its own."""
        got = membership_evidence(gen, GEO, space, sweep=sweep)
        want = _membership_by_rebuild(gen, GEO, space, sweep)
        assert got == want
        assert got.to_json() == want.to_json()

    def test_sweep_point_below_one_is_a_domain_error(self):
        with pytest.raises(DomainError):
            membership_evidence(witness_generator("t", LIN), LIN, "lp:2", sweep=(8, 0, 4))

    def test_power_law_diverges_in_its_own_p(self):
        gen = witness_generator("power-law", LIN, p=Exponent.of(2))
        v = membership_evidence(gen, LIN, "lp:2")
        assert v.status is Status.EVIDENCE_DIVERGING

    def test_power_law_bounded_in_larger_p(self):
        gen = witness_generator("power-law", LIN, p=Exponent.of(2))
        v = membership_evidence(gen, LIN, "lp:3")
        assert v.status is Status.EVIDENCE_BOUNDED

    def test_power_law_sup_bounded(self):
        gen = witness_generator("power-law", LIN, p=Exponent.of(2))
        v = membership_evidence(gen, LIN, "linf")
        assert v.status is Status.EVIDENCE_BOUNDED

    def test_power_law_image_tends_to_zero(self):
        gen = witness_generator("power-law", LIN, p=Exponent.of(2))
        v = membership_evidence(gen, LIN, "c0")
        assert v.status is Status.EVIDENCE_BOUNDED

    def test_alternating_bounded_sup_one(self):
        gen = witness_generator("alternating", LIN)
        v = membership_evidence(gen, LIN, "linf")
        assert v.status is Status.EVIDENCE_BOUNDED
        assert v.sweep[-1][1] == 1.0

    def test_alternating_not_null(self):
        gen = witness_generator("alternating", LIN)
        v = membership_evidence(gen, LIN, "c0")
        assert v.status is Status.EVIDENCE_DIVERGING

    def test_t_diverges(self):
        v = membership_evidence(witness_generator("t", LIN), LIN, "lp:2")
        assert v.status is Status.EVIDENCE_DIVERGING

    def test_finite_image_witness_exact(self):
        v = membership_evidence(witness_generator("u", LIN), LIN, "lp:2")
        assert v.status is Status.HOLDS_EXACTLY

    @pytest.mark.parametrize("space", ["l1", "lp:1", "lp:2/2"])
    def test_l1_spellings_agree(self, space):
        v = membership_evidence(unit_seq(0), LIN, space)
        assert v.to_json() == membership_evidence(unit_seq(0), LIN, "l1").to_json()
        # E's column 0 is of order 1/lambda_n: not summable for linear weights.
        assert v.status is Status.EVIDENCE_DIVERGING

    def test_lp_spec_matches_kind_and_exponent(self):
        gen = witness_generator("power-law", LIN, p=Exponent.of(2))
        spec = membership_evidence(gen, LIN, "lp:3")
        kind = membership_evidence(gen, LIN, " lp:6/2 ")
        assert spec.to_json() == kind.to_json()

    @pytest.mark.parametrize("space", ["c", "foo", "lp:x"])
    def test_unknown_space_is_a_parse_error(self, space):
        with pytest.raises(ParseError):
            membership_evidence(unit_seq(0), LIN, space)

    def test_missing_exponent_is_a_parse_error(self):
        with pytest.raises(ParseError):
            membership_evidence(unit_seq(0), LIN, "lp")

    @pytest.mark.parametrize("space", ["l1", "lp:2", "linf", "c0"])
    def test_values_past_the_float_range_do_not_overflow(self, space):
        v = membership_evidence(from_values([10**400]), LIN, space)
        assert v.sweep and all(y == math.inf for _, y in v.sweep)
