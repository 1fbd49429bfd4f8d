"""Exact scalar layer: exponents, certified reals, rational powers, norms."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibspaces.errors import NegativeBaseError, ParseError
from fibspaces.exactreal import (
    MIN_PRECISION,
    CertifiedReal,
    Exponent,
    conjugate,
    dot,
    format_rational,
    integer_nth_root,
    parse_rational,
    power_sum,
    rpow,
    to_fraction,
    window_norm,
)


def _scaled(v, c: Fraction):
    """c v, one term at a time: the fold that ``dot`` must reproduce."""
    if isinstance(v, CertifiedReal):
        return v * c
    return to_fraction(v) * c


fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
)


class TestExponent:
    def test_conjugate_examples(self):
        assert conjugate(2).as_fraction() == 2
        assert conjugate(1).is_infinite
        assert conjugate("inf").as_fraction() == 1
        assert conjugate(Fraction(4, 3)).as_fraction() == 4

    def test_defining_equation(self):
        for p in (Fraction(3, 2), Fraction(2), Fraction(5), Fraction(7, 6)):
            q = conjugate(p).as_fraction()
            assert Fraction(1) / p + Fraction(1) / q == 1

    @given(st.fractions(min_value=Fraction(1), max_value=Fraction(40), max_denominator=30))
    def test_involution(self, p):
        e = Exponent.of(p)
        assert e.conjugate().conjugate() == e

    def test_involution_endpoints(self):
        assert Exponent.of(1).conjugate().conjugate() == Exponent.of(1)
        assert Exponent.infinity().conjugate().conjugate().is_infinite

    def test_rejects_small_exponent(self):
        with pytest.raises(ParseError):
            Exponent.of(Fraction(1, 2))

    def test_parse_roundtrip(self):
        assert str(Exponent.parse("3/2")) == "3/2"
        assert str(Exponent.parse("inf")) == "inf"


class TestRationalText:
    def test_parse(self):
        assert parse_rational("21/2") == Fraction(21, 2)
        assert parse_rational("-7") == -7

    def test_format(self):
        assert format_rational(Fraction(21, 2)) == "21/2"
        assert format_rational(Fraction(-7)) == "-7"

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_rational("seven")


class TestIntegerRoot:
    @given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=7))
    def test_floor_root(self, n, b):
        r = integer_nth_root(n, b)
        assert r**b <= n
        assert (r + 1) ** b > n


class TestRpow:
    def test_perfect_square_exact(self):
        r = rpow(Fraction(4), Fraction(1, 2))
        assert r.is_exact and r.value == 2

    def test_zero(self):
        assert rpow(Fraction(0), Fraction(3)).value == 0

    def test_two_to_three_halves_vs_bisection_oracle(self):
        # Independent oracle: bisect y^2 = 8 down to 2^-200.
        lo, hi = Fraction(2), Fraction(3)
        for _ in range(220):
            mid = (lo + hi) / 2
            if mid * mid <= 8:
                lo = mid
            else:
                hi = mid
        r = rpow(Fraction(2), Fraction(3, 2))
        assert r.lo <= hi and lo <= r.hi
        assert r.err < Fraction(1, 2**200)

    def test_negative_base_error(self):
        with pytest.raises(NegativeBaseError):
            rpow(Fraction(-2), Fraction(1, 2))

    def test_negative_integer_power_exact(self):
        r = rpow(Fraction(-2), Fraction(3))
        assert r.is_exact and r.value == -8

    def test_reciprocal_exponent(self):
        r = rpow(Fraction(4), Fraction(-1, 2))
        assert r.is_exact and r.value == Fraction(1, 2)

    @given(
        st.fractions(min_value=Fraction(1, 20), max_value=Fraction(20), max_denominator=40),
        st.fractions(min_value=Fraction(1, 3), max_value=Fraction(4), max_denominator=6),
    )
    @settings(max_examples=60)
    def test_enclosure_contains_truth(self, x, p):
        # float comparison only sanity-checks the enclosure location
        r = rpow(x, p, 96)
        approx = float(x) ** float(p)
        assert abs(float(r.value) - approx) <= 1e-9 * max(1.0, abs(approx))
        assert r.err <= Fraction(1, 2**90)


class TestCertifiedReal:
    def test_interval_arithmetic(self):
        a = CertifiedReal(Fraction(3), Fraction(1, 8))
        b = CertifiedReal(Fraction(-2), Fraction(1, 16))
        s = a + b
        assert s.value == 1 and s.err == Fraction(3, 16)
        m = a * b
        assert m.value == -6
        assert m.err == 3 * Fraction(1, 16) + 2 * Fraction(1, 8) + Fraction(1, 128)

    def test_comparisons(self):
        a = CertifiedReal(Fraction(1), Fraction(1, 100))
        b = CertifiedReal(Fraction(2), Fraction(1, 100))
        assert a.hi < b.lo
        assert not a.agrees_with(b)
        assert a.agrees_with(CertifiedReal(Fraction(101, 100)))
        assert b.distance_from(a) == Fraction(98, 100)

    def test_rendering(self):
        assert "exact" in str(CertifiedReal.exact(Fraction(1, 2)))
        assert "±" in str(CertifiedReal(Fraction(1, 3), Fraction(1, 10**30)))

    def test_rendering_past_the_digit_limit(self):
        """Values past CPython's int-to-str limit print in full, digit for
        digit as with the limit lifted, and the limit stays as it was."""
        limit = sys.get_int_max_str_digits()
        values = [10**4300, 10**4301 - 1, -(10**9000 + 1), 7 * 10**5000 + 3]
        rendered = [
            (format_rational(Fraction(n)), format_rational(Fraction(n, 3)),
             CertifiedReal(Fraction(n), Fraction(1, 3)).decimal())
            for n in values
        ]
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            for n, (whole, third, decimal) in zip(values, rendered):
                assert whole == str(n)
                assert third == str(Fraction(n, 3))
                assert decimal == f"{n}.{'0' * 24}"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_error_past_the_float_range(self):
        """An error bound too large for a float prints from integers, with
        a mantissa that rounds up to 10 carried into the exponent."""
        assert str(CertifiedReal(Fraction(1), Fraction(10**400))).endswith("± 1.000e+400")
        assert str(CertifiedReal(Fraction(1), Fraction(99995 * 10**396))).endswith("± 1.000e+401")
        assert str(CertifiedReal(Fraction(1), Fraction(99994 * 10**396))).endswith("± 9.999e+400")
        assert str(CertifiedReal(Fraction(1), Fraction(10**5000, 3))).endswith("± 3.333e+4999")

    @given(st.one_of(
        st.fractions(min_value=Fraction(1, 10**300), max_value=10**300),
        st.integers(min_value=1, max_value=2**1024 - 2**971).map(Fraction),
    ))
    @settings(max_examples=200, deadline=None)
    def test_error_in_the_float_range_prints_as_a_float(self, err):
        assert str(CertifiedReal(Fraction(1), err)).endswith(f"± {float(err):.3e}")


certified_st = st.builds(
    CertifiedReal,
    fractions_st,
    st.fractions(min_value=0, max_value=2, max_denominator=64),
)
rational_operand_st = st.one_of(
    fractions_st, st.integers(min_value=-(10**6), max_value=10**6)
)


class TestRationalOperands:
    """A Fraction or int operand is not wrapped, yet the result equals the
    wrapped arithmetic exactly."""

    @given(certified_st, rational_operand_st)
    @settings(max_examples=300)
    def test_equals_wrapped_arithmetic(self, x, q):
        e = CertifiedReal.exact(q)
        for got, want in ((x * q, x * e), (q * x, e * x), (x + q, x + e), (q + x, e + x)):
            assert isinstance(got, CertifiedReal)
            assert type(got.value) is Fraction and type(got.err) is Fraction
            assert (got.value, got.err) == (want.value, want.err)

    def test_float_operand_is_refused(self):
        x = CertifiedReal(Fraction(1, 3), Fraction(1, 10))
        for op in (lambda: x * 0.5, lambda: 0.5 * x, lambda: x + 0.5, lambda: 0.5 + x):
            with pytest.raises(TypeError):
                op()

    def test_int_fields_become_fractions(self):
        x = CertifiedReal(3, 0)
        assert type(x.value) is Fraction and type(x.err) is Fraction
        with pytest.raises(ValueError):
            CertifiedReal(Fraction(1), Fraction(-1))


class TestPassThrough:
    """A Fraction is kept as the same object; ints, numeral strings and
    floats are converted exactly as Fraction(v) converts them."""

    def test_fraction_is_the_same_object(self):
        q = Fraction(-22, 7)
        assert to_fraction(q) is q
        exact = CertifiedReal.exact(q)
        assert exact.value is q and exact.is_exact and type(exact.err) is Fraction

    @pytest.mark.parametrize("raw", [0, -12, 10**40, "3/8", "-7", 0.1, -2.5])
    def test_other_inputs_convert_as_fraction_does(self, raw):
        for got in (to_fraction(raw), CertifiedReal.exact(raw).value):
            assert type(got) is Fraction and got == Fraction(raw)

    def test_non_rationals_are_refused(self):
        with pytest.raises(TypeError):
            to_fraction(CertifiedReal.exact(1))
        with pytest.raises(TypeError):
            CertifiedReal.exact(None)

    @given(
        st.one_of(
            st.integers(max_value=-1),
            st.fractions(max_value=Fraction(-1, 10**6)),
        )
    )
    @settings(max_examples=50)
    def test_negative_error_bound_is_refused(self, err):
        with pytest.raises(ValueError):
            CertifiedReal(Fraction(1, 3), err)

    def test_zero_error_bound_is_kept(self):
        for err in (0, Fraction(0), "0"):
            assert CertifiedReal(Fraction(1), err).is_exact


class TestWindowNorm:
    def test_two_unit_vector(self):
        r = window_norm([Fraction(1), Fraction(1), Fraction(0), Fraction(0)], 2)
        sqrt2 = rpow(Fraction(2), Fraction(1, 2))
        assert r.agrees_with(sqrt2)

    def test_sup_norm_exact(self):
        r = window_norm([Fraction(1), Fraction(-1), Fraction(0)], "inf")
        assert r.is_exact and r.value == 1

    def test_pythagorean_pair(self):
        r = window_norm([Fraction(3), Fraction(4)], 2)
        assert r.is_exact and r.value == 5

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            window_norm([], 2)

    @given(fractions_st, st.lists(fractions_st, min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_absolute_homogeneity(self, c, xs):
        base = window_norm(xs, 2)
        scaled = window_norm([c * x for x in xs], 2)
        assert scaled.agrees_with(base * abs(c))

    def test_monotone_in_p_on_normalized_windows(self):
        # With the 1-norm pinned to 1, the p-norm is non-increasing in p.
        windows = [
            [Fraction(1, 4)] * 4,
            [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)],
            [Fraction(9, 10), Fraction(1, 10)],
        ]
        ps = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
        for xs in windows:
            assert sum(abs(x) for x in xs) == 1
            values = [window_norm(xs, p) for p in ps]
            values.append(window_norm(xs, "inf"))
            for a, b in zip(values, values[1:]):
                assert b.lo <= a.hi + Fraction(1, 2**128)


# Rationals, exact certified reals, enclosures whose half-width runs up to
# twice the midpoint (so some straddle 0), and zeros: exact ones, which
# power_sum skips, and zero-centred enclosures, which it does not.
power_terms_st = st.one_of(
    fractions_st,
    fractions_st.map(CertifiedReal.exact),
    st.builds(
        lambda v, f: CertifiedReal(v, abs(v) * f + Fraction(1, 1000)),
        fractions_st,
        st.fractions(min_value=0, max_value=2, max_denominator=16),
    ),
    st.sampled_from([Fraction(0), CertifiedReal.exact(0)]),
    st.fractions(min_value=0, max_value=1, max_denominator=16).map(
        lambda e: CertifiedReal(Fraction(0), e)
    ),
)


class TestPowerSum:
    @staticmethod
    def _termwise(values, p, precision):
        total = CertifiedReal.exact(0)
        for v in values:
            total = total + rpow(abs(v), p, precision)
        return total

    @given(
        st.lists(power_terms_st, max_size=12),
        st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_termwise_rpow_sum(self, values, p):
        try:
            want = self._termwise(values, p, 96)
        except NegativeBaseError:
            # An enclosure reaching below 0 has no non-integer power.
            with pytest.raises(NegativeBaseError):
                power_sum(values, p, 96)
            return
        got = power_sum(values, p, 96)
        assert type(got.value) is Fraction and type(got.err) is Fraction
        assert (got.value, got.err) == (want.value, want.err)

    def test_straddling_enclosure_with_even_power(self):
        values = [CertifiedReal(Fraction(1, 10), Fraction(1, 2)), Fraction(3), Fraction(0)]
        got = power_sum(values, 2)
        want = self._termwise(values, 2, 256)
        assert (got.value, got.err) == (want.value, want.err)
        assert got.lo == 9 and got.hi == 9 + Fraction(36, 100)

    def test_empty_is_exact_zero(self):
        total = power_sum([], Fraction(3, 2))
        assert total.is_exact and total.value == 0

    def test_precision_floor(self):
        with pytest.raises(ParseError):
            power_sum([], 2, MIN_PRECISION - 1)
        with pytest.raises(ParseError):
            power_sum([Fraction(2)], Fraction(3, 2), MIN_PRECISION - 1)


# Integers past CPython's 4,300-digit int <-> str limit, of either sign.
huge_int_st = st.builds(
    lambda sign, n: sign * n,
    st.sampled_from([-1, 1]),
    st.integers(min_value=10**4300, max_value=10**4400),
)
dot_operand_st = st.one_of(
    st.sampled_from([0, Fraction(0)]),
    rational_operand_st,
    huge_int_st,
    st.builds(Fraction, st.integers(-9, 9), huge_int_st.map(abs)),
)


class TestDot:
    """The exact dot product equals the term-by-term fold it replaces."""

    @given(st.lists(st.tuples(dot_operand_st, dot_operand_st), max_size=12))
    @settings(max_examples=100)
    def test_equals_the_fraction_fold(self, pairs):
        got = dot(pairs)
        assert type(got) is Fraction
        assert got == sum((x * y for x, y in pairs), Fraction(0))

    def test_empty_is_fraction_zero(self):
        got = dot([])
        assert type(got) is Fraction and got == 0

    @given(st.lists(
        st.tuples(dot_operand_st, st.one_of(dot_operand_st, certified_st)), max_size=12,
    ))
    @settings(max_examples=100)
    def test_certified_values_equal_the_scaled_fold(self, pairs):
        want = Fraction(0)
        for c, v in pairs:
            want = want + _scaled(v, c)
        got = dot(pairs)
        assert type(got) is type(want)
        got, want = CertifiedReal.wrap(got), CertifiedReal.wrap(want)
        assert (got.value, got.err) == (want.value, want.err)

    def test_certified_zero_coefficient_keeps_the_type(self):
        got = dot([(0, CertifiedReal(Fraction(1), Fraction(1, 2)))])
        assert type(got) is CertifiedReal and got.is_exact and got.value == 0


@given(fractions_st, fractions_st)
@settings(max_examples=1000)
def test_fraction_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
