"""Triangle oracles: entries, composition, inversion, transforms, basis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibspaces.errors import DomainError, ParseError, SingularDiagonal
from fibspaces.exactreal import CertifiedReal, dot
from fibspaces.sequences import LambdaSeq, SeqWindow, fib
from fibspaces.triangles import (
    DenseWindow,
    RowWindowedMatrix,
    Triangle,
    apply_triangle,
    basis_vector,
    compose,
    e_inverse_matrix,
    e_matrix,
    fhat_matrix,
    forward_transform,
    identity_triangle,
    inverse_transform,
    invert_window,
    lambda_matrix,
    matrix_from_json,
    solve_triangle,
)
from fibspaces.witnesses import gen_witness

LIN = LambdaSeq.linear(1, 1)
GEO = LambdaSeq.geometric(2, 1)
FAMILIES = (LambdaSeq.linear(1, 1), LambdaSeq.linear(2, 3), LambdaSeq.geometric(2, 1))

rational_st = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=48
)
window_st = st.lists(rational_st, min_size=1, max_size=24)


@st.composite
def triangle_st(draw, size):
    """Rows 0..size-1 of a lower-triangular rational matrix: zeros,
    negatives and integers, some rows and columns all zero."""
    entry = st.one_of(
        st.just(Fraction(0)),
        st.integers(min_value=-50, max_value=50).map(Fraction),
        st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=60),
    )
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=size - 1)))
    rows = [
        [Fraction(0) if n in zero_rows or k in zero_cols else draw(entry) for k in range(n + 1)]
        for n in range(size)
    ]
    return Triangle(lambda n, k: rows[n][k])


triangle_pair_st = st.integers(min_value=1, max_value=8).flatmap(
    lambda size: st.tuples(st.just(size), triangle_st(size), triangle_st(size))
)


class TestNamedTriangles:
    def test_lambda_matrix_entries(self):
        m = lambda_matrix(LIN)
        assert m.entry(2, 1) == Fraction(1, 3)
        assert m.entry(0, 0) == 1
        assert m.entry(1, 3) == 0

    def test_lambda_matrix_row_sums_telescope(self):
        for lam in FAMILIES:
            m = lambda_matrix(lam)
            for n in range(50):
                assert sum(m.row(n)) == 1

    def test_fhat_entries(self):
        m = fhat_matrix()
        assert m.entry(1, 0) == -2
        assert m.entry(0, 0) == 1
        assert m.entry(3, 1) == 0
        assert m.entry(4, 4) == Fraction(fib(4), fib(5))

    def test_e_entries(self):
        m = e_matrix(LIN)
        assert m.entry(1, 0) == Fraction(-1, 2)
        assert m.entry(1, 1) == Fraction(1, 4)

    def test_e_is_composition(self):
        for lam in FAMILIES:
            direct = e_matrix(lam).window(40)
            assert direct == compose(lambda_matrix(lam), fhat_matrix(), 40)

    def test_e_inverse_entries(self):
        g = e_inverse_matrix(LIN)
        assert g.entry(0, 0) == 1
        assert g.entry(2, 0) == Fraction(9, 2)

    def test_inverse_identity_64(self):
        ident = identity_triangle().window(64)
        for lam in FAMILIES:
            e, g = e_matrix(lam), e_inverse_matrix(lam)
            assert compose(e, g, 64) == ident
            assert compose(g, e, 64) == ident

    def test_triangularity_probes(self):
        rng = random.Random(99)
        tris = [lambda_matrix(LIN), fhat_matrix(), e_matrix(LIN), e_inverse_matrix(LIN)]
        for _ in range(2500):
            n = rng.randint(0, 40)
            k = rng.randint(n + 1, n + 40)
            for t in tris:
                assert t.entry(n, k) == 0


class TestComposeApply:
    def test_identity_neutral(self):
        b = e_matrix(LIN)
        assert compose(identity_triangle(), b, 12) == b.window(12)

    @settings(max_examples=100, deadline=None)
    @given(triangle_pair_st)
    def test_compose_is_the_entrywise_fold(self, pair):
        size, a, b = pair
        fold = DenseWindow(tuple(
            tuple(
                sum((a.entry(n, j) * b.entry(j, k) for j in range(k, n + 1)), Fraction(0))
                for k in range(n + 1)
            )
            for n in range(size)
        ))
        assert compose(a, b, size) == fold

    @pytest.mark.parametrize("size", [0, -1])
    def test_compose_rejects_an_empty_window(self, size):
        with pytest.raises(DomainError, match="window size must be >= 1"):
            compose(identity_triangle(), e_matrix(LIN), size)

    def test_apply_witness_images(self):
        e = e_matrix(LIN)
        u = gen_witness("u", LIN, 12)
        assert list(apply_triangle(e, u).values) == [1, 1] + [0] * 10
        v = gen_witness("v-hilbert", LIN, 12)
        assert list(apply_triangle(e, v).values) == [1, -1] + [0] * 10

    def test_apply_e0_closed_form(self):
        e0 = SeqWindow((Fraction(1),) + (Fraction(0),) * 15)
        y = apply_triangle(e_matrix(LIN), e0)
        assert y.values[0] == 1
        for n in range(1, 16):
            assert y.values[n] == Fraction(-1, n + 1)

    def test_apply_empty_rejected(self):
        with pytest.raises(DomainError):
            apply_triangle(e_matrix(LIN), [])


class TestInversion:
    def test_invert_identity(self):
        assert invert_window(identity_triangle(), 8) == identity_triangle().window(8)

    def test_invert_e_matches_closed_form(self):
        for lam in FAMILIES:
            assert invert_window(e_matrix(lam), 32) == e_inverse_matrix(lam).window(32)

    def test_invert_fhat_structure(self):
        inv = invert_window(fhat_matrix(), 16)
        for n in range(16):
            for k in range(n + 1):
                assert inv.entry(n, k) > 0
        # spot value: the band inverse accumulates squared Fibonacci growth
        assert inv.entry(3, 0) == Fraction(fib(4) ** 2, fib(0) * fib(1))

    def test_singular_diagonal(self):
        singular = Triangle(lambda n, k: Fraction(0), name="zero")
        with pytest.raises(SingularDiagonal):
            invert_window(singular, 4)

    def test_solve_matches_invert(self):
        e = e_matrix(LIN)
        y = SeqWindow(tuple(Fraction(i + 1, 3) for i in range(12)))
        x = solve_triangle(e, y)
        inv = invert_window(e, 12)
        expected = [
            sum(inv.entry(n, k) * y.values[k] for k in range(n + 1)) for n in range(12)
        ]
        assert list(x.values) == expected


def _solve_negated_dot(a, y):
    """Reference substitution: row n is one dot product of y_n and the
    negated entries -a_nk against the solved prefix, over a_nn."""
    values, out = list(y), []
    for n in range(len(values)):
        diag = a.entry(n, n)
        acc = dot([(1, values[n])] + [(-a.entry(n, k), out[k]) for k in range(n)])
        out.append(acc.divided_by(diag) if isinstance(acc, CertifiedReal) else acc / diag)
    return out


# Rational windows, and windows mixing rationals with certified reals.
solve_input_st = st.one_of(
    window_st,
    st.lists(
        st.one_of(
            rational_st,
            st.builds(
                CertifiedReal,
                rational_st,
                st.fractions(min_value=0, max_value=2, max_denominator=64),
            ),
        ),
        min_size=1,
        max_size=16,
    ),
)


class TestSolveTriangle:
    @given(solve_input_st, st.sampled_from([LIN, GEO]))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_negated_dot_form(self, values, lam):
        got = solve_triangle(e_matrix(lam), values).values
        want = _solve_negated_dot(e_matrix(lam), values)
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w)
            if isinstance(w, CertifiedReal):
                assert (g.value, g.err) == (w.value, w.err)
            else:
                assert g == w


class TestTransforms:
    def test_forward_equals_entry_oracle(self):
        rng = random.Random(5)
        for lam in FAMILIES:
            x = SeqWindow(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(20)),
            )
            assert forward_transform(x, lam).values == apply_triangle(e_matrix(lam), x).values

    def test_double_sum_inverse_equals_solve(self):
        rng = random.Random(6)
        for lam in FAMILIES:
            e = e_matrix(lam)
            for _ in range(30):
                y = SeqWindow(
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(32)),
                )
                assert inverse_transform(y, lam).values == solve_triangle(e, y).values

    def test_zero_maps_to_zero(self):
        y = SeqWindow((Fraction(0),) * 6)
        assert all(v == 0 for v in inverse_transform(y, LIN).values)

    def test_unit_image_inverse(self):
        x = inverse_transform(SeqWindow((Fraction(1), Fraction(0), Fraction(0))), LIN)
        assert list(x.values) == [1, 2, Fraction(9, 2)]

    @given(window_st)
    @settings(max_examples=100, deadline=None)
    def test_mutually_inverse(self, values):
        x = SeqWindow(tuple(values))
        lam = LIN
        assert inverse_transform(forward_transform(x, lam), lam).values == x.values
        assert forward_transform(inverse_transform(x, lam), lam).values == x.values


class TestBasis:
    def test_zero_above_index(self):
        b = basis_vector(3, LIN, 8)
        assert list(b.values[:3]) == [0, 0, 0]
        assert b.values[3] != 0

    def test_head_value(self):
        assert basis_vector(0, LIN, 4).values[0] == 1

    def test_image_is_coordinate_vector(self):
        for lam in (LIN, LambdaSeq.geometric(2, 1)):
            for k in (0, 2, 5):
                b = basis_vector(k, lam, 24)
                img = forward_transform(b, lam)
                assert list(img.values) == [1 if i == k else 0 for i in range(24)]

    def test_reconstruction_of_t(self):
        m = 24
        t = gen_witness("t", LIN, m + 1)
        coeffs = forward_transform(t, LIN)
        acc = [Fraction(0)] * (m + 1)
        for k in range(m + 1):
            b = basis_vector(k, LIN, m + 1)
            for n in range(m + 1):
                acc[n] += coeffs.values[k] * b.values[n]
        assert acc == list(t.values)

    def test_out_of_window(self):
        with pytest.raises(DomainError):
            basis_vector(5, LIN, 4)


class TestMatrixJson:
    def test_dense(self):
        m = matrix_from_json({"kind": "dense", "entries": [["1"], ["0", "1/2"]]})
        assert m.entry(1, 1) == Fraction(1, 2)
        assert m.entry(5, 0) == 0

    def test_rows_sparse(self):
        m = matrix_from_json({"kind": "rows", "rows": {"2": ["0", "7"]}})
        assert m.entry(2, 1) == 7
        assert m.row_bound == 3
        assert m.row_support(0) == 0

    def test_band(self):
        m = matrix_from_json(
            {"kind": "band", "size": 3, "bands": {"0": ["1", "1", "1"], "-1": ["5", "5"]}}
        )
        assert m.entry(1, 0) == 5
        assert m.entry(2, 2) == 1

    def test_triangular_conversion(self):
        m = matrix_from_json({"kind": "dense", "entries": [["1"], ["2", "3"]]})
        assert m.is_triangular()
        assert m.as_triangle().entry(1, 0) == 2
        bad = matrix_from_json({"kind": "dense", "entries": [["1", "9"]]})
        assert not bad.is_triangular()
        with pytest.raises(DomainError):
            bad.as_triangle()

    def test_bad_kind(self):
        with pytest.raises(ParseError):
            matrix_from_json({"kind": "wavelet"})
        with pytest.raises(ParseError):
            matrix_from_json({"kind": "dense", "tail": "ones"})

    def test_row_windowed_trims(self):
        m = RowWindowedMatrix([[1, 0], [0, 0]])
        assert m.row_bound == 1
        assert m.row_support(0) == 1

    def test_triangle_declares_its_rows(self):
        t = identity_triangle()
        assert t.row_bound is None
        assert [t.row_support(n) for n in range(4)] == [1, 2, 3, 4]


def test_dense_window_shape_enforced():
    with pytest.raises(DomainError):
        DenseWindow(((Fraction(1), Fraction(2)),))


class TestPassThrough:
    """Exact values are coerced to Fraction once; a Fraction is kept as the
    same object, anything else is converted as Fraction(v) converts it."""

    def test_dense_window_keeps_fractions(self):
        q, r, t = Fraction(1, 3), Fraction(-2, 7), Fraction(5)
        w = DenseWindow(((q,), (r, t)))
        assert w.rows[0][0] is q and w.rows[1][0] is r and w.entry(1, 1) is t

    def test_dense_window_converts_other_inputs(self):
        w = DenseWindow(((3,), ("2/9", 0.5)))
        assert w.rows == ((Fraction(3),), (Fraction(2, 9), Fraction(1, 2)))
        assert all(type(v) is Fraction for row in w.rows for v in row)

    def test_triangle_entry_keeps_fractions(self):
        q = Fraction(7, 11)
        t = Triangle(lambda n, k: q)
        assert t.entry(2, 1) is q

    @pytest.mark.parametrize("raw", [4, -3, "5/6", 0.25])
    def test_triangle_entry_converts_other_inputs(self, raw):
        v = Triangle(lambda n, k: raw).entry(1, 0)
        assert type(v) is Fraction and v == Fraction(raw)
