"""The per-lambda coefficient kernel and the tables built from it, checked
against the slow independent routes (direct tail sums, composition,
forward-substitution inverse)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibspaces.duals import (
    _abar_table,
    abar,
    dual_condition,
    dual_membership,
)
from fibspaces.errors import DomainError
from fibspaces.exactreal import CertifiedReal
from fibspaces.sequences import Kernel, LambdaSeq, fib, from_values, inv_fib_pow
from fibspaces.triangles import (
    apply_triangle,
    compose,
    e_inverse_matrix,
    e_matrix,
    fhat_matrix,
    forward_transform,
    inverse_transform,
    invert_window,
    lambda_matrix,
    solve_triangle,
)

LIN = LambdaSeq.linear(1, 1)
GEO = LambdaSeq.geometric(2, 1)
EXPLICIT = LambdaSeq.explicit([1, 3, 4, 7, 11])
# Two different sequences that describe themselves the same way.
TWIN_A = LambdaSeq("twin", (), lambda n: n * n + 1)
TWIN_B = LambdaSeq("twin", (), lambda n: 3**n)
FAMILIES = [LIN, GEO, EXPLICIT, TWIN_A, TWIN_B]

# Every coefficient array of the kernel; after grow(n) the LONG ones hold
# indices 0..n and the others 0..n-1.
LONG = ("lam", "gap", "w", "here", "back")
ARRAYS = LONG + ("col", "diag", "num")


def _rational_window(seed: int, n: int) -> list[Fraction]:
    rng = random.Random(seed)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    w=st.integers(min_value=2, max_value=20),
    lam=st.sampled_from([LIN, GEO, EXPLICIT]),
    support=st.one_of(st.none(), st.integers(min_value=0, max_value=20)),
)
@settings(max_examples=40, deadline=None)
def test_abar_table_matches_direct_sums(seed, w, lam, support):
    a = _rational_window(seed, w)
    if support is not None:
        a = a[:support] + [Fraction(0)] * max(0, w - support)
    table = _abar_table(a, lam, w)
    assert [len(row) for row in table] == list(range(w))
    for n in range(w):
        for k in range(n):
            assert table[n][k] == abar(a, lam, k, n)


def test_abar_table_needs_the_whole_window():
    with pytest.raises(DomainError):
        _abar_table([Fraction(1)] * 3, LIN, 4)


class TestKernelArrays:
    def test_arrays_match_the_sequence(self):
        for lam in FAMILIES:
            kern = lam.kernel.grow(12)
            for k in range(12):
                w = 1 / (lam.gap(k) * fib(k) * fib(k + 1))
                assert kern.lam[k] == lam.value(k)
                assert kern.gap[k] == lam.gap(k)
                assert kern.w[k] == w
                assert kern.col[k] == lam.value(k) * (kern.w[k] - kern.w[k + 1])
                assert kern.diag[k] == lam.value(k) * fib(k + 1) ** 2 * kern.w[k]
                # The coefficients the transforms read, with lambda_{-1} = 0.
                assert kern.here[k] == lam.value(k) * w
                assert kern.back[k] == -lam.value(k - 1) * w
                assert 1 / kern.diag[k] == lam.gap(k) * Fraction(fib(k), fib(k + 1)) / lam.value(k)

    def test_numerator_is_the_closed_form(self):
        for lam in FAMILIES:
            kern = lam.kernel.grow(12)
            for n in range(12):
                for k in range(n):
                    num = (lam.gap(k) * fib(k) - lam.gap(k + 1) * fib(k + 2)) / fib(k + 1)
                    assert kern.num[k] / kern.lam[n] == num / lam.value(n)
                    assert kern.e_entry(n, k) == num / lam.value(n)

    def test_growth_in_steps_matches_one_step(self):
        stepped = LambdaSeq.geometric(3, 2)
        for n in (1, 2, 5, 9):
            stepped.kernel.grow(n)
        fresh = LambdaSeq.geometric(3, 2).kernel.grow(9)
        for name in ARRAYS:
            assert getattr(stepped.kernel, name) == getattr(fresh, name), name

    def test_kernel_lives_on_the_instance(self):
        assert TWIN_A.describe() == TWIN_B.describe()
        assert TWIN_A.kernel is not TWIN_B.kernel
        assert e_matrix(TWIN_A).entry(3, 1) != e_matrix(TWIN_B).entry(3, 1)
        assert TWIN_A.kernel.grow(5).diag[4] != TWIN_B.kernel.grow(5).diag[4]


# Rationals with numerators and denominators up to 40 digits.
BIG_RATIONALS = st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40))
SMALL_RATIONALS = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@st.composite
def lambda_families(draw):
    """(make, value): ``make()`` builds a fresh LambdaSeq of a linear,
    geometric, explicit or bare polynomial family, some with 40-digit
    numerators, and
    ``value(k)`` is its lambda_k computed apart from any kernel."""
    kind = draw(st.sampled_from(["linear", "geometric", "explicit", "poly"]))
    if kind == "linear":
        a, b = draw(BIG_RATIONALS), draw(BIG_RATIONALS)
        return (lambda: LambdaSeq.linear(a, b)), (lambda k: a * k + b)
    if kind == "geometric":
        r, c = 1 + draw(SMALL_RATIONALS), draw(BIG_RATIONALS)
        return (lambda: LambdaSeq.geometric(r, c)), (lambda k: c * r**k)
    if kind == "explicit":
        steps = draw(st.lists(st.one_of(BIG_RATIONALS, SMALL_RATIONALS), min_size=2, max_size=10))
        vals = [sum(steps[:i + 1]) for i in range(len(steps))]
        last = vals[-1] - vals[-2]

        def value(k):
            return vals[k] if k < len(vals) else vals[-1] + last * (k - len(vals) + 1)

        return (lambda: LambdaSeq.explicit(vals)), value
    c, e = draw(BIG_RATIONALS), draw(st.integers(1, 3))

    def value(k):
        return c * (k + 1) ** e + Fraction(k, 7)

    return (lambda: LambdaSeq("poly", (), value)), value


def _oracle_arrays(value, n: int) -> dict:
    """Every kernel array after grow(n), each coefficient formed term by
    term with Fraction arithmetic."""
    lam = [Fraction(value(k)) for k in range(n + 2)]
    gap = [lam[k] - (lam[k - 1] if k else 0) for k in range(n + 2)]
    w = [1 / (gap[k] * fib(k) * fib(k + 1)) for k in range(n + 2)]
    b = [w[k] - w[k + 1] for k in range(n + 1)]
    diag = [lam[k] * Fraction(fib(k + 1)) ** 2 * w[k] for k in range(n + 1)]
    long = {
        "lam": lam, "gap": gap, "w": w,
        "here": [lam[k] * w[k] for k in range(n + 2)],
        "back": [-(lam[k - 1] if k else Fraction(0)) * w[k] for k in range(n + 2)],
    }
    short = {
        "col": [lam[k] * b[k] for k in range(n + 1)],
        "diag": diag,
        "num": [(gap[k] * fib(k) - gap[k + 1] * fib(k + 2)) / fib(k + 1) for k in range(n + 1)],
    }
    return {**{name: v[:n + 1] for name, v in long.items()},
            **{name: v[:n] for name, v in short.items()}}


def _expected(value, n: int, ahead: int) -> dict:
    """The oracle arrays after grow(n), with lam and gap read to index
    ``ahead`` >= n."""
    want, top = _oracle_arrays(value, n), _oracle_arrays(value, ahead)
    want["lam"], want["gap"] = top["lam"], top["gap"]
    return want


def _arrays(kern) -> dict:
    return {name: list(getattr(kern, name)) for name in ARRAYS}


def _assert_fractions(arrays: dict):
    for name, values in arrays.items():
        assert all(type(v) is Fraction for v in values), name


class TestIntegerKernel:
    """The kernel builds each coefficient and each hat row from integers;
    every value must equal the term-by-term Fraction formula it replaces."""

    @given(family=lambda_families(), n=st.integers(0, 64))
    @settings(max_examples=40, deadline=None)
    def test_arrays_equal_the_oracle(self, family, n):
        make, value = family
        arrays = _arrays(make().kernel.grow(n))
        assert arrays == _oracle_arrays(value, n)
        _assert_fractions(arrays)

    @given(
        family=lambda_families(),
        row=st.lists(st.one_of(st.just(Fraction(0)), SMALL_RATIONALS.map(lambda v: -v),
                               BIG_RATIONALS), max_size=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_limit_row_is_abar_over_the_partial_sums(self, family, row):
        kern = family[0]().kernel
        got = kern.limit_row(row)
        sums = kern.partial_sums(row)
        assert got == [row[k] * kern.diag[k] + kern.col[k] * (sums[-1] - sums[k])
                       for k in range(len(row))]
        assert all(type(v) is Fraction for v in got)

    @given(family=lambda_families(), n=st.integers(0, 64), m=st.integers(0, 64),
           read_first=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_read_and_grow_in_either_order_equal_one_grow(self, family, n, m, read_first):
        make, value = family
        kern = make().kernel
        if read_first:
            kern.read(n).grow(m)
        else:
            kern.grow(m).read(n)
        assert _arrays(kern) == _expected(value, m, max(n, m))


class TestTrianglesAgainstOracles:
    @pytest.mark.parametrize("lam", FAMILIES, ids=lambda lam: lam.describe())
    def test_e_is_the_composition(self, lam):
        assert e_matrix(lam).window(16) == compose(
            lambda_matrix(lam), fhat_matrix(), 16
        )

    @pytest.mark.parametrize("lam", FAMILIES, ids=lambda lam: lam.describe())
    def test_closed_form_inverse_is_the_substitution_inverse(self, lam):
        assert e_inverse_matrix(lam).window(16) == invert_window(e_matrix(lam), 16)


def _certified_window(seed: int, n: int) -> list[CertifiedReal]:
    """Certified entries, the even-indexed ones inexact."""
    rng = random.Random(seed)
    return [
        CertifiedReal(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(0 if i % 2 else 1, 5), 10**12))
        for i in range(n)
    ]


def _typed_pairs(window):
    return [
        (type(v), CertifiedReal.wrap(v).value, CertifiedReal.wrap(v).err)
        for v in window
    ]


def _textbook_forward(x, lam):
    """y_k = (1/lambda_k) [gap(k) f_k/f_{k+1} x_k
    + sum_{j<k} (gap(j) f_j/f_{j+1} - gap(j+1) f_{j+2}/f_{j+1}) x_j]."""
    out = []
    for k in range(len(x)):
        acc = CertifiedReal.exact(0)
        for j in range(k + 1):
            if j == k:
                c = lam.gap(k) * Fraction(fib(k), fib(k + 1))
            else:
                c = (lam.gap(j) * Fraction(fib(j), fib(j + 1))
                     - lam.gap(j + 1) * Fraction(fib(j + 2), fib(j + 1)))
            acc = acc + CertifiedReal.wrap(x[j]) * CertifiedReal.exact(c / lam.value(k))
        out.append(acc)
    return out


def _textbook_inverse(y, lam):
    """x_k = f_{k+1}^2 sum_{j<=k} [lambda_j y_j - lambda_{j-1} y_{j-1}]
    / (gap(j) f_j f_{j+1}), each of the two terms scaled on its own."""
    out = []
    for k in range(len(y)):
        acc = CertifiedReal.exact(0)
        for j in range(k + 1):
            w = 1 / (lam.gap(j) * fib(j) * fib(j + 1))
            for i, sign in ((j, 1), (j - 1, -1)):
                if i >= 0:
                    coeff = CertifiedReal.exact(sign * lam.value(i) * w)
                    acc = acc + CertifiedReal.wrap(y[i]) * coeff
        out.append(acc * CertifiedReal.exact(fib(k + 1) ** 2))
    return out


def _textbook_solve(a, y):
    """x_n = (y_n - sum_{k<n} a_{nk} x_k) / a_{nn}, one term at a time."""
    out = []
    for n in range(len(y)):
        acc = y[n]
        for k in range(n):
            acc = acc - a.entry(n, k) * out[k]
        diag = a.entry(n, n)
        out.append(acc.divided_by(diag) if isinstance(acc, CertifiedReal) else acc / diag)
    return out


class TestTransformsFromKernel:
    """The transforms read their coefficients from the kernel; on inexact
    entries they must still give the textbook sums in value and error."""

    @pytest.mark.parametrize("lam", [LIN, GEO, EXPLICIT], ids=lambda lam: lam.describe())
    @pytest.mark.parametrize("seed", [1, 2])
    def test_forward_equals_textbook_sum(self, lam, seed):
        x = _certified_window(seed, 14)
        got = forward_transform(x, lam)
        want = _textbook_forward(x, lam)
        assert [(v.value, v.err) for v in got] == [(v.value, v.err) for v in want]
        assert any(v.err > 0 for v in got)

    @pytest.mark.parametrize("lam", [LIN, GEO, EXPLICIT], ids=lambda lam: lam.describe())
    @pytest.mark.parametrize("seed", [1, 2])
    def test_inverse_equals_textbook_sum(self, lam, seed):
        y = _certified_window(seed, 14)
        got = inverse_transform(y, lam)
        want = _textbook_inverse(y, lam)
        assert [(v.value, v.err) for v in got] == [(v.value, v.err) for v in want]
        assert any(v.err > 0 for v in got)

    @pytest.mark.parametrize("lam", [LIN, GEO, EXPLICIT, TWIN_A], ids=lambda lam: lam.describe())
    @pytest.mark.parametrize("mixed", [False, True], ids=["certified", "mixed"])
    def test_forward_equals_the_e_window(self, lam, mixed):
        """The running-sum forward transform against the O(N^2) product with
        the E triangle, in type, value and error, at N = 72."""
        x = _certified_window(7, 72)
        if mixed:  # every third entry a plain Fraction, the first one included
            x = [v.value if i % 3 == 0 else v for i, v in enumerate(x)]
        got = forward_transform(x, lam)
        want = apply_triangle(e_matrix(lam), x)
        assert _typed_pairs(got) == _typed_pairs(want)
        assert any(isinstance(v, CertifiedReal) and v.err > 0 for v in got)

    @pytest.mark.parametrize("lam", [LIN, GEO, EXPLICIT], ids=lambda lam: lam.describe())
    def test_solve_equals_textbook_substitution(self, lam):
        """Forward substitution against E on mixed entries, in type, value
        and error, at N = 24: a plain Fraction head, then certified entries."""
        y = _certified_window(3, 24)
        y = [v.value if i < 3 or i % 3 == 0 else v for i, v in enumerate(y)]
        e = e_matrix(lam)
        got = solve_triangle(e, y)
        assert _typed_pairs(got) == _typed_pairs(_textbook_solve(e, y))
        assert type(got[0]) is Fraction
        assert any(isinstance(v, CertifiedReal) and v.err > 0 for v in got)

    def test_transforms_make_no_per_entry_kernel_call(self, monkeypatch):
        """Both transforms read the kernel's arrays after one growth: no
        call per entry of E or of its inverse, and one call to grow."""
        calls = []
        for name in ("e_entry", "inverse_entry", "grow"):
            method = getattr(Kernel, name)

            def counting(self, *args, _name=name, _method=method):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(Kernel, name, counting)
        n = 64
        lam = LambdaSeq.linear(3, 2)
        y = forward_transform(_rational_window(9, n), lam)
        assert calls == ["grow"]
        del calls[:]
        inverse_transform(y, lam)
        assert calls == ["grow"]

    def test_transforms_build_each_certified_entry_once(self, monkeypatch):
        """The value loops run over rational midpoints: a rational window
        builds no CertifiedReal, and an N-entry certified window at most N
        per transform, where a term-by-term certified fold builds O(N^2)."""
        n = 48
        lam = LambdaSeq.geometric(Fraction(5, 3), 1)
        rational, certified = _rational_window(4, n), _certified_window(4, n)
        built = []
        post_init = CertifiedReal.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(CertifiedReal, "__post_init__", counting)
        for transform in (forward_transform, inverse_transform):
            transform(rational, lam)
            assert built == []
            transform(certified, lam)
            assert 0 < len(built) <= n
            del built[:]

    def test_transforms_read_each_lambda_once(self):
        """The transforms grow the kernel once, so the family function runs
        once per index instead of once per matrix entry."""
        calls = []
        lam = LambdaSeq("counting", (), lambda n: calls.append(n) or n * n + 1)
        n = 64
        x = _rational_window(5, n)
        y = forward_transform(x, lam)
        assert list(inverse_transform(y, lam)) == x
        assert len(calls) <= n + 2


def _scaled(v, c: Fraction):
    if isinstance(v, CertifiedReal):
        return v * c
    return Fraction(v) * c


def _reference_forward(x, lam):
    """The forward transform with 1/diag_n and 1/lambda_n taken in the loop."""
    kern = lam.kernel.grow(len(x))
    out, acc = [], Fraction(0)
    for n, v in enumerate(x):
        out.append(_scaled(v, 1 / kern.diag[n]) + _scaled(acc, 1 / kern.lam[n]))
        acc = acc + _scaled(v, kern.num[n])
    return out


def _reference_inverse(y, lam):
    """The inverse transform's restart loop with each coefficient
    +-lambda_i w_j formed, and its sign chosen, per term."""
    kern = lam.kernel.grow(len(y))

    def term(i, j):
        if i < 0:
            return Fraction(0)
        coeff = kern.lam[i] * kern.w[j]
        return _scaled(y[i], coeff if (j - i) % 2 == 0 else -coeff)

    out = []
    for k in range(len(y)):
        acc = Fraction(0)
        for j in range(k + 1):
            acc = term(j - 1, j) + term(j, j) + acc
        out.append(_scaled(acc, Fraction(fib(k + 1) ** 2)))
    return out


def _window(kind: str, seed: int, n: int) -> list:
    """A rational, certified or mixed window; the mixed one holds plain
    Fractions, ints and certified entries.  A "late" window is rational up
    to a seeded index past 0 and certified from there on; a "zero-err" one
    holds certified entries whose error is 0 at every third index, entry 0
    included; a "negative" one holds certified entries of negative value."""
    if kind == "rational":
        return _rational_window(seed, n)
    cert = _certified_window(seed, n)
    if kind == "certified":
        return cert
    if kind == "late":
        start = random.Random(seed).randint(1, max(1, n - 1))
        return [v.value if i < start else v for i, v in enumerate(cert)]
    if kind == "zero-err":
        return [CertifiedReal(v.value) if i % 3 == 0 else v for i, v in enumerate(cert)]
    if kind == "negative":
        return [CertifiedReal(-abs(v.value) - 1, v.err) for v in cert]
    return [v.value if i % 3 == 0 else v.value.numerator if i % 6 == 1 else v
            for i, v in enumerate(cert)]


WINDOW_KINDS = ["rational", "certified", "mixed", "late", "zero-err", "negative"]


def _assert_certified_from_first(x, out):
    """Entry k of a transform is a CertifiedReal exactly when some entry of
    x at an index <= k is one, and a Fraction otherwise."""
    seen = False
    for k, (v, got) in enumerate(zip(x, out)):
        seen = seen or isinstance(v, CertifiedReal)
        assert type(got) is (CertifiedReal if seen else Fraction), k


class TestReferenceFolds:
    """The transforms and E's entries read stored coefficients, and the
    transforms carry the error bound of certified entries as one separate
    sum; they must give, in type, value and error, exactly what forming each
    coefficient and each certified term in the loop gave."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=1, max_value=24),
        kind=st.sampled_from(WINDOW_KINDS),
        lam=st.sampled_from([LIN, GEO, EXPLICIT, TWIN_A]),
    )
    @settings(max_examples=60, deadline=None)
    def test_transforms_equal_the_reference_folds(self, seed, n, kind, lam):
        self._check(_window(kind, seed, n), lam)

    @pytest.mark.parametrize("lam", [LIN, GEO, TWIN_A], ids=lambda lam: lam.describe())
    @pytest.mark.parametrize("kind", WINDOW_KINDS[1:])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_deep_windows_equal_the_reference_folds(self, seed, kind, lam):
        self._check(_window(kind, seed, 64), lam)

    @staticmethod
    def _check(x, lam):
        forward, inverse = forward_transform(x, lam), inverse_transform(x, lam)
        assert _typed_pairs(forward) == _typed_pairs(_reference_forward(x, lam))
        assert _typed_pairs(inverse) == _typed_pairs(_reference_inverse(x, lam))
        _assert_certified_from_first(x, forward)
        _assert_certified_from_first(x, inverse)

    @pytest.mark.parametrize("lam", [LIN, GEO, EXPLICIT, TWIN_A], ids=lambda lam: lam.describe())
    def test_e_entries_equal_the_quotients(self, lam):
        kern = lam.kernel
        for n in range(16):
            kern.grow(n + 1)
            assert kern.e_entry(n, n) == 1 / kern.diag[n]
            for k in range(n):
                assert kern.e_entry(n, k) == kern.num[k] / kern.lam[n]
            assert type(kern.e_entry(n, 0)) is Fraction


class TestSharedWork:
    def test_membership_shares_one_table(self):
        for gen in (from_values([Fraction(1, 2), -3, 0, Fraction(7, 5)]), inv_fib_pow(3)):
            result = dual_membership(gen, GEO, "linf", "beta", window=20)
            for report in result["conditions"]:
                alone = dual_condition(gen, GEO, report.condition, window=20,
                                       p=report.params["p"])
                assert report.sweep == alone.sweep
                assert str(report.value) == str(alone.value)
                assert report.verdict.status is alone.verdict.status

    def test_limits_match_deep_direct_sums(self):
        gen = from_values([3, Fraction(-1, 2), 0, 5])
        window = list(gen.prefix(12))
        limits = LIN.kernel.limit_row(window[:8])
        for k in range(8):
            assert limits[k] == abar(window, LIN, k, 11)

