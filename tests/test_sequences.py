"""Fibonacci layer, weight families, and witness generation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibspaces.errors import (
    DomainError,
    MissingExponent,
    NonPositiveStart,
    NotStrictlyIncreasing,
    ParseError,
    UnknownWitness,
)
from fibspaces.exactreal import CertifiedReal, rpow
from fibspaces.sequences import (
    LambdaSeq,
    PrefixGenerator,
    from_values,
    inv_fib_pow,
    fib,
    parse_generator_spec,
    unit_seq,
)
from fibspaces.triangles import forward_transform
from fibspaces.witnesses import gen_witness


class TestFib:
    def test_base_cases(self):
        assert fib(0) == 1 and fib(1) == 1

    def test_unrolled(self):
        assert [fib(n) for n in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_cassini_sample(self):
        assert fib(2) * fib(4) - fib(3) ** 2 == 1

    def test_cassini_range(self):
        for n in range(1, 201):
            assert fib(n - 1) * fib(n + 1) - fib(n) ** 2 == (-1) ** (n + 1)

    def test_ratio_bounds(self):
        for k in range(201):
            assert Fraction(fib(k), fib(k + 1)) <= 1
            assert Fraction(fib(k + 1), fib(k)) <= 2

    def test_golden_ratio_limit(self):
        ratio = CertifiedReal.exact(Fraction(fib(101), fib(100)))
        phi = (rpow(Fraction(5), Fraction(1, 2), 128) + 1).divided_by(2)
        assert abs(ratio - phi).hi < Fraction(1, 10**12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            fib(-1)


class TestLambdaSeq:
    def test_linear(self):
        lam = LambdaSeq.linear(1, 1)
        assert [lam.value(n) for n in range(4)] == [1, 2, 3, 4]
        assert lam.value(-1) == 0
        assert lam.gap(0) == 1
        with pytest.raises(DomainError):
            lam.value(-2)
        with pytest.raises(DomainError):
            lam.gap(-1)

    def test_geometric(self):
        lam = LambdaSeq.geometric(2, 1)
        assert [lam.value(n) for n in range(4)] == [1, 2, 4, 8]
        assert lam.reciprocal_summable

    @pytest.mark.parametrize("family, summable", [
        ("linear", False), ("geometric", True), ("explicit", False),
        ("custom", False), ("file", False),
    ])
    def test_only_geometric_is_reciprocal_summable(self, tmp_path, family, summable):
        path = tmp_path / "lambda.txt"
        path.write_text("1\n3\n4\n")
        lam = {
            "linear": lambda: LambdaSeq.linear(1, 1),
            "geometric": lambda: LambdaSeq.geometric(2, 1),
            "explicit": lambda: LambdaSeq.explicit([1, 2, 4]),
            "custom": lambda: LambdaSeq("custom", (), lambda n: Fraction(2) ** n),
            "file": lambda: LambdaSeq.from_spec(f"file:{path}"),
        }[family]()
        assert lam.reciprocal_summable is summable

    def test_explicit_tail(self):
        lam = LambdaSeq.explicit([1, 2, 4])
        # past the prefix the last gap repeats
        assert lam.value(3) == 6 and lam.value(4) == 8

    def test_explicit_not_increasing(self):
        with pytest.raises(NotStrictlyIncreasing):
            LambdaSeq.explicit([1, 1, 2])
        # every value is checked, also past the first 64
        with pytest.raises(NotStrictlyIncreasing, match="lambda_70 = 69 does not exceed"):
            LambdaSeq.explicit(list(range(1, 71)) + [69, 100])

    def test_reading_lambda_builds_no_other_coefficient(self):
        lam = LambdaSeq.linear(1, 1)
        kern = lam.kernel.grow(6)
        assert lam.value(9) == 10 and len(kern.lam) == 10 and len(kern.col) == 6
        assert len(kern.grow(9).col) == 9

    def test_each_value_is_read_once(self):
        calls = []
        lam = LambdaSeq("counting", (), lambda n: calls.append(n) or n + 1)
        for n in (5, 3, 5):
            assert lam.value(n) == n + 1 and lam.gap(n) == 1
        assert calls == list(range(6))

    def test_nonpositive_start(self):
        with pytest.raises(NonPositiveStart):
            LambdaSeq.linear(1, 0)
        with pytest.raises(NonPositiveStart):
            LambdaSeq.explicit([0, 1])
        with pytest.raises(NotStrictlyIncreasing):
            LambdaSeq.geometric(1, 1)

    def test_from_spec(self):
        assert LambdaSeq.from_spec("linear:1,1").value(5) == 6
        assert LambdaSeq.from_spec("geometric:2,1").value(3) == 8
        with pytest.raises(ParseError):
            LambdaSeq.from_spec("fancy:1")

    def test_from_file(self, tmp_path):
        path = tmp_path / "lam.txt"
        path.write_text("1\n3/2\n2\n")
        lam = LambdaSeq.from_spec(f"file:{path}")
        assert lam.value(1) == Fraction(3, 2)
        assert lam.value(5) == Fraction(2) + 3 * Fraction(1, 2)


POSITIVE = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
NONPOSITIVE = st.fractions(min_value=-9, max_value=0, max_denominator=9)
ANY = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _increasing(steps) -> list[Fraction]:
    return [1 + sum(steps[:i + 1]) for i in range(len(steps))]


@st.composite
def accepted_lambdas(draw):
    """A LambdaSeq built by linear, geometric or explicit on input each accepts."""
    kind = draw(st.sampled_from(["linear", "geometric", "explicit"]))
    if kind == "linear":
        return LambdaSeq.linear(draw(POSITIVE), draw(POSITIVE))
    if kind == "geometric":
        return LambdaSeq.geometric(1 + draw(POSITIVE), draw(POSITIVE))
    return LambdaSeq.explicit(_increasing(draw(st.lists(POSITIVE, min_size=2, max_size=10))))


@st.composite
def refused_lambdas(draw):
    """(build, error, message): ``build()`` calls a constructor on input it
    refuses, and raises ``error`` with ``message``."""
    kind = draw(st.sampled_from(["slope", "offset", "scale", "ratio", "start", "step", "short"]))
    if kind == "slope":
        a, b = draw(NONPOSITIVE), draw(ANY)
        return (lambda: LambdaSeq.linear(a, b)), NotStrictlyIncreasing, \
            f"linear slope must be positive, got {a}"
    if kind == "offset":
        a, b = draw(POSITIVE), draw(NONPOSITIVE)
        return (lambda: LambdaSeq.linear(a, b)), NonPositiveStart, \
            f"linear offset must be positive, got {b}"
    if kind == "scale":
        r, c = draw(ANY), draw(NONPOSITIVE)
        return (lambda: LambdaSeq.geometric(r, c)), NonPositiveStart, \
            f"geometric scale must be positive, got {c}"
    if kind == "ratio":
        r, c = 1 + draw(NONPOSITIVE), draw(POSITIVE)
        return (lambda: LambdaSeq.geometric(r, c)), NotStrictlyIncreasing, \
            f"geometric ratio must exceed 1, got {r}"
    if kind == "short":
        values = draw(st.lists(POSITIVE, max_size=1))
        return (lambda: LambdaSeq.explicit(values)), ParseError, \
            "explicit lambda needs at least two values"
    # explicit: the first bad value, then anything; at least two values.
    values = _increasing(draw(st.lists(POSITIVE, max_size=8)))
    if kind == "start":
        values.insert(0, draw(NONPOSITIVE))
        error, message = NonPositiveStart, f"lambda_0 = {values[0]} must be positive"
    else:
        values = values or [Fraction(1)]
        bad, prev = len(values), values[-1]
        values.append(prev - draw(POSITIVE | st.just(Fraction(0))))
        error = NotStrictlyIncreasing
        message = f"lambda_{bad} = {values[bad]} does not exceed lambda_{bad - 1} = {prev}"
    values += draw(st.lists(ANY, min_size=1, max_size=3))
    return (lambda: LambdaSeq.explicit(values)), error, message


class TestConstructorsCheckLambda:
    """The constructors are the one place lambda is checked: the kernel
    reads what they accept without comparing it."""

    @given(lam=accepted_lambdas())
    @settings(max_examples=30, deadline=None)
    def test_every_value_read_is_positive_and_increasing(self, lam):
        values = lam.kernel.read(300).lam
        assert len(values) == 301 and values[0] > 0
        assert all(prev < value for prev, value in zip(values, values[1:]))

    @given(case=refused_lambdas())
    @settings(max_examples=60, deadline=None)
    def test_bad_input_is_refused(self, case):
        build, error, message = case
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message


class TestWitnesses:
    def test_t_window(self):
        lam = LambdaSeq.linear(1, 1)
        t = gen_witness("t", lam, 3)
        assert list(t.values) == [1, 6, 15]

    def test_t_closed_form_all_indices(self):
        # The one displayed closed form that is exact at every index.
        lam = LambdaSeq.geometric(2, 1)
        t = gen_witness("t", lam, 12)
        for k in range(1, 12):
            expected = fib(k + 1) ** 2 * (
                sum(Fraction(1, fib(j) * fib(j + 1)) for j in range(1, k + 1)) + 1
            )
            assert t.values[k] == expected

    def test_u_window(self):
        lam = LambdaSeq.linear(1, 1)
        u = gen_witness("u", lam, 3)
        assert list(u.values) == [1, 6, Fraction(21, 2)]

    def test_u_early_closed_forms(self):
        # Displayed values agree with the exact solve on the first indices
        # (the displayed constant tail is not the true sequence).
        lam = LambdaSeq.linear(1, 1)
        u = gen_witness("u", lam, 4)
        assert u.values[1] == fib(2) ** 2 + fib(2)
        assert u.values[2] == fib(3) ** 2 * (1 + Fraction(1, fib(2))) - (
            lam.value(1) * fib(3) / ((lam.value(2) - lam.value(1)) * fib(2))
        )
        assert u.values[3] != u.values[2]

    def test_v_hilbert_early_closed_forms(self):
        lam = LambdaSeq.linear(1, 1)
        v = gen_witness("v-hilbert", lam, 3)
        l0, l1, l2 = lam.value(0), lam.value(1), lam.value(2)
        assert v.values[1] == fib(2) ** 2 - (l1 + l0) / (l1 - l0) * fib(2)
        assert v.values[2] == fib(3) ** 2 * (
            1 - (l1 + l0) / ((l1 - l0) * fib(2))
        ) + l1 * fib(3) / ((l2 - l1) * fib(2))

    def test_v_e0_early_closed_form(self):
        lam = LambdaSeq.linear(1, 1)
        v = gen_witness("v-e0", lam, 3)
        assert v.values[1] == fib(2) ** 2 - lam.value(0) * fib(2) / (
            (lam.value(1) - lam.value(0)) * fib(1)
        )
        assert list(v.values) == [1, 2, Fraction(9, 2)]

    def test_unit(self):
        # Coordinate vectors are generators, not witnesses.
        assert list(unit_seq(0).prefix(4).values) == [1, 0, 0, 0]
        with pytest.raises(UnknownWitness):
            gen_witness("unit:0", LambdaSeq.linear(1, 1), 4)

    def test_unknown(self):
        with pytest.raises(UnknownWitness):
            gen_witness("nope", LambdaSeq.linear(1, 1), 4)

    def test_power_law_needs_p(self):
        with pytest.raises(MissingExponent):
            gen_witness("power-law", LambdaSeq.linear(1, 1), 4)

    @pytest.mark.parametrize("name,image", [
        ("u", [1, 1, 0, 0, 0, 0, 0, 0]),
        ("v-hilbert", [1, -1, 0, 0, 0, 0, 0, 0]),
        ("t", [1] * 8),
        ("v-e0", [1, 0, 0, 0, 0, 0, 0, 0]),
        ("alternating", [1, -1, 1, -1, 1, -1, 1, -1]),
    ])
    def test_images_reproduced_exactly(self, name, image):
        for lam in (LambdaSeq.linear(1, 1), LambdaSeq.linear(2, 3),
                    LambdaSeq.geometric(2, 1)):
            w = gen_witness(name, lam, 8)
            y = forward_transform(w, lam)
            assert list(y.values) == [Fraction(v) for v in image]

    def test_t_is_lambda_independent(self):
        a = gen_witness("t", LambdaSeq.linear(1, 1), 16)
        b = gen_witness("t", LambdaSeq.geometric(2, 1), 16)
        assert a.values == b.values

    def test_witness_generator_prefixes_consistent(self):
        lam = LambdaSeq.linear(1, 1)
        gen = PrefixGenerator("witness:t", lambda n: gen_witness("t", lam, n).values)
        assert gen.prefix(4).values == gen.prefix(8).values[:4]


class TestGenerators:
    def test_unit_support(self):
        g = unit_seq(2)
        assert g.support == 3
        assert list(g.prefix(5).values) == [0, 0, 1, 0, 0]

    def test_from_values_trims_support(self):
        g = from_values([1, 2, 0, 0])
        assert g.support == 2
        assert len(g.prefix(6)) == 6

    def test_inv_fib_pow(self):
        g = inv_fib_pow(3)
        assert g.prefix(3).values[2] == Fraction(1, fib(3) ** 3)

    def test_parse_specs(self):
        assert parse_generator_spec("zero").prefix(3).values == (0, 0, 0)
        assert parse_generator_spec("e").prefix(2).values == (1, 1)
        assert parse_generator_spec("unit:1").prefix(3).values == (0, 1, 0)
        assert parse_generator_spec("values:1,1/2").prefix(3).values == (
            1, Fraction(1, 2), 0,
        )
        with pytest.raises(ParseError):
            parse_generator_spec("nonsense")


def test_bare_family_function_is_read_as_given():
    lam = LambdaSeq("squares", (), lambda n: Fraction(n * n + 1))
    assert lam.value(3) == 10
    assert lam.value(-1) == 0
