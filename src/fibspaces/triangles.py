"""Lower-triangular infinite matrices as exact entry oracles.

A :class:`Triangle` is defined by a closed-form entry function; entries are
lazily evaluated and memoized because the Fibonacci-squared factors reach
thousands of bits for deep rows.  Every windowed operation here is
prefix-exact: row n of a triangle only touches indices <= n, so there is no
truncation error anywhere.

The four named triangles:

* the lambda-averaging triangle with entries (lambda_k - lambda_{k-1}) / lambda_n,
* the Fibonacci-difference band matrix (diagonal f_n/f_{n+1}, subdiagonal
  -f_{n+1}/f_n),
* their composition E, and
* the closed-form inverse of E,

plus forward/inverse transforms between a sequence and its E-image, an
independent forward-substitution inverse, an independent product of two
triangles over shared row and column denominators, and the basis columns
of the inverse.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, ParseError, SingularDiagonal, WindowMismatch
from .exactreal import ZERO, CertifiedReal, dot, parse_rational, to_fraction
from .sequences import MATRIX_INDEX_LIMIT, LambdaSeq, SeqWindow, fib, fib_sq, read_input

Entry = Callable[[int, int], Fraction]


class Triangle:
    """Infinite lower-triangular matrix backed by an entry oracle.

    Each entry the oracle returns is coerced to a ``Fraction`` once, when it
    is memoized; an oracle that already returns a ``Fraction`` has it stored
    and returned unchanged.
    """

    # Every row may be nonzero: there is no index past the last nonzero row.
    row_bound = None

    def __init__(self, fn: Entry, name: str = "triangle"):
        self._fn = fn
        self._memo: dict[tuple[int, int], Fraction] = {}
        self.name = name

    def entry(self, n: int, k: int) -> Fraction:
        if n < 0 or k < 0:
            raise DomainError("matrix indices must be >= 0")
        if k > n:
            return Fraction(0)
        key = (n, k)
        v = self._memo.get(key)
        if v is None:
            v = to_fraction(self._fn(n, k))
            self._memo[key] = v
        return v

    def row_support(self, n: int) -> int:
        """Index past the last (possibly) nonzero entry of row n."""
        return n + 1

    def row(self, n: int) -> list[Fraction]:
        return [self.entry(n, k) for k in range(n + 1)]

    def window(self, size: int) -> "DenseWindow":
        return DenseWindow([self.row(n) for n in range(size)])

    def __repr__(self):
        return f"Triangle({self.name})"


@dataclass(frozen=True)
class DenseWindow:
    """An N x N lower-triangular window; row n stores entries 0..n.

    Entries are coerced to ``Fraction`` once, on construction; an entry that
    already is a ``Fraction`` is stored as the same object.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(map(to_fraction, row)) for row in self.rows)
        if len(rows) == 0:
            raise DomainError("empty window")
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise DomainError(f"row {n} must store exactly {n + 1} entries")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int) -> Fraction:
        if k > n:
            return Fraction(0)
        if n >= self.size:
            raise DomainError(f"row {n} outside the stored {self.size}-window")
        return self.rows[n][k]


def identity_triangle() -> Triangle:
    return Triangle(lambda n, k: Fraction(1 if n == k else 0), name="identity")


# ---------------------------------------------------------------------------
# The named triangles


def lambda_matrix(lam: LambdaSeq) -> Triangle:
    """Averaging triangle: entry (n, k) = (lambda_k - lambda_{k-1}) / lambda_n."""

    def fn(n, k):
        return lam.gap(k) / lam.value(n)

    return Triangle(fn, name=f"lambda[{lam.describe()}]")


def fhat_matrix() -> Triangle:
    """Fibonacci-difference band matrix: f_n/f_{n+1} on the diagonal,
    -f_{n+1}/f_n just below it, zero elsewhere."""

    def fn(n, k):
        if k == n:
            return Fraction(fib(n), fib(n + 1))
        if k == n - 1:
            return -Fraction(fib(n + 1), fib(n))
        return Fraction(0)

    return Triangle(fn, name="fhat")


def e_matrix(lam: LambdaSeq) -> Triangle:
    """The composed triangle in closed form, read from the per-lambda
    kernel (see :class:`~fibspaces.sequences.Kernel`).  Below the diagonal
    each entry is a column factor over a row factor, num_k / lambda_n, which
    is what lets :func:`forward_transform` run in one pass."""
    return Triangle(lam.kernel.e_entry, name=f"E[{lam.describe()}]")


def e_inverse_matrix(lam: LambdaSeq) -> Triangle:
    """Closed-form inverse of :func:`e_matrix`, read from the per-lambda
    kernel (see :class:`~fibspaces.sequences.Kernel`)."""
    return Triangle(lam.kernel.inverse_entry, name=f"Einv[{lam.describe()}]")


# ---------------------------------------------------------------------------
# Algebra


def compose(a: Triangle, b: Triangle, size: int) -> DenseWindow:
    """The N x N window of the exact matrix product AB, read from the
    entries of A and B alone (no closed form), so it is an independent
    oracle for the identities between the named triangles.

    Every entry of row n of AB shares the lcm D_n of the denominators in
    row n of A, and every entry of column k shares the lcm C_k of those in
    column k of B.  Row n of A and column k of B are scaled to integers by
    these once, so entry (n, k) is one integer dot product over D_n C_k,
    reduced once by ``Fraction``.
    """
    if size < 1:
        raise DomainError("window size must be >= 1")
    b_rows = [b.row(j) for j in range(size)]
    # cols[k][j - k] = C_k * b_{jk} for j = k..size-1.
    cols, col_dens = [], []
    for k in range(size):
        col = [b_rows[j][k] for j in range(k, size)]
        den = math.lcm(*(v.denominator for v in col))
        cols.append([v.numerator * (den // v.denominator) for v in col])
        col_dens.append(den)
    out = []
    for n in range(size):
        row = a.row(n)
        den = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (den // v.denominator) for v in row]
        # ints has n + 1 entries, so map stops at j = n.
        out.append(tuple(
            Fraction(sum(map(operator.mul, ints[k:], cols[k])), den * col_dens[k])
            for k in range(n + 1)
        ))
    return DenseWindow(tuple(out))


def apply_triangle(a: Triangle, x) -> SeqWindow:
    """The windowed transform (Ax)_n = sum_{k<=n} a_{nk} x_k."""
    values = list(x)
    if not values:
        raise WindowMismatch("cannot apply a triangle to an empty window")
    return SeqWindow(tuple(
        dot((a.entry(n, k), values[k]) for k in range(n + 1)) for n in range(len(values))
    ))


def solve_triangle(a: Triangle, y) -> SeqWindow:
    """Forward-substitution solve of A x = y on the window (the brute-force
    oracle behind every closed-form inverse in this package).

    Row n is y_n minus one exact dot product of the entries a_nk against the
    solved prefix, divided by a_nn; it reads only entries of A.
    """
    values = list(y)
    out: list = []
    for n in range(len(values)):
        diag = a.entry(n, n)
        if diag == 0:
            raise SingularDiagonal(f"zero diagonal at row {n}")
        acc = values[n] - dot((a.entry(n, k), out[k]) for k in range(n))
        if isinstance(acc, CertifiedReal):
            out.append(acc.divided_by(diag))
        else:
            out.append(acc / diag)
    return SeqWindow(tuple(out))


def invert_window(a: Triangle, size: int) -> DenseWindow:
    """The unique lower-triangular inverse on an N x N window, by forward
    substitution, exact.  Raises on a zero diagonal (checked row by row)."""
    if size < 1:
        raise DomainError("window size must be >= 1")
    inv = []
    for n in range(size):
        diag = a.entry(n, n)
        if diag == 0:
            raise SingularDiagonal(f"zero diagonal at row {n}")
        row = [-dot((a.entry(n, j), inv[j][k]) for j in range(k, n)) / diag for k in range(n)]
        inv.append(row + [1 / diag])
    return DenseWindow(tuple(inv))


# ---------------------------------------------------------------------------
# Forward and inverse transforms (summation forms)


def _exact_values(x) -> tuple[list, list | None, int | None]:
    """The midpoints of x as ``Fraction``s, read in one pass, and the error
    bounds of x when some entry is a ``CertifiedReal``.

    Returns (mids, errs, first).  ``first`` is the index of the first
    certified entry and ``errs[i]`` the error bound of entry first + i (0
    for a rational entry); every entry before ``first`` has error 0.  When
    no entry is certified, ``errs`` and ``first`` are None.
    """
    mids, errs, first = [], None, None
    for v in x:
        if isinstance(v, CertifiedReal):
            if errs is None:
                errs, first = [], len(mids)
            mids.append(v.value)
            errs.append(v.err)
        else:
            mids.append(to_fraction(v))
            if errs is not None:
                errs.append(ZERO)
    return mids, errs, first


def forward_transform(x, lam: LambdaSeq) -> SeqWindow:
    """y_n = x_n / diag_n + S_n / lambda_n, where the running column sum
    S_n = sum_{k<n} num_k x_k is carried from row to row, so each index
    costs a fixed number of products and quotients (row n of E is
    num_k / lambda_n below the diagonal and 1/diag_n on it).  lambda_n,
    diag_n and num_k come from the per-lambda kernel.

    The loop runs over the rational midpoints of x only.  On certified
    entries a linear map sends the errors err_k to sum_k |c_k| err_k, so the
    error bound of y_n is carried as its own nonnegative sum beside it:
    err_n / |diag_n| + R_n / lambda_n with R_{n+1} = R_n + |num_n| err_n.
    That is, term for term, the bound that applying :func:`e_matrix` to
    the certified entries gives, because lambda_n > 0 factors out of
    sum_k |num_k / lambda_n| err_k.  Entry n is a ``CertifiedReal``
    exactly when some entry of x at an index <= n is one.
    """
    mids, errs, first = _exact_values(x)
    kern = lam.kernel.grow(len(mids))
    lams, diag, num = kern.lam, kern.diag, kern.num
    out, acc = [], Fraction(0)
    for n, v in enumerate(mids):
        out.append(v / diag[n] + acc / lams[n])
        acc = acc + v * num[n]
    if errs is not None:
        carried = ZERO  # R_n; every error before `first` is 0
        for n, e in enumerate(errs, first):
            out[n] = CertifiedReal(out[n], e / abs(diag[n]) + carried / lams[n])
            carried = carried + abs(num[n]) * e
    return SeqWindow(tuple(out))


def inverse_transform(y, lam: LambdaSeq) -> SeqWindow:
    """x_k = f_{k+1}^2 sum_{j=0}^{k} (here_j y_j + back_j y_{j-1}), the
    inverse of E (see :class:`~fibspaces.sequences.Kernel`) applied with
    its column factors split into their two signed terms.

    The y_{-1} term vanishes under the lambda_{-1} = 0 convention.  The
    signed coefficients here_j = lambda_j w_j and back_j = -lambda_{j-1} w_j
    come ready-made from the per-lambda kernel, so each term is one product,
    and the loop runs over the rational midpoints of y only.

    On certified entries the error bound of x_k is f_{k+1}^2 B_k, where
    B_k = B_{k-1} + |back_k| err_{k-1} + |here_k| err_k is one nonnegative
    sum carried across the window: the bound of the sum of the scaled terms
    through j = k.  Each j keeps its two terms although y_i appears in the
    terms of j = i and j = i + 1: one product of y_i with the merged
    coefficient lambda_i (w_i - w_{i+1}) carries the error
    |w_i - w_{i+1}| lambda_i err_i instead of (w_i + w_{i+1}) lambda_i err_i,
    so it would change the printed bounds (row 2 of ``transform --x
    witness:power-law --p 3/2 -N 40`` would go from +-2.159e-77 to
    +-1.583e-77).  Entry k is a ``CertifiedReal`` exactly when some entry of
    y at an index <= k is one.
    Must agree exactly with the forward-substitution solve against the E
    window.
    """
    mids, errs, first = _exact_values(y)
    kern = lam.kernel.grow(len(mids))
    here, back = kern.here, kern.back
    out = []
    for k in range(len(mids)):
        acc = mids[0] * here[0]  # j = 0 has no y_{-1} term
        for j in range(1, k + 1):
            acc = mids[j - 1] * back[j] + mids[j] * here[j] + acc
        out.append(acc * fib_sq(k + 1))
    if errs is not None:
        carried, prev = ZERO, ZERO  # B_k and err_{k-1}; 0 before `first`
        for k, e in enumerate(errs, first):
            carried = carried + abs(back[k]) * prev + abs(here[k]) * e
            out[k] = CertifiedReal(out[k], carried * fib_sq(k + 1))
            prev = e
    return SeqWindow(tuple(out))


def basis_vector(k: int, lam: LambdaSeq, size: int) -> SeqWindow:
    """The k-th basis column: zero above index k, then the closed-form
    inverse-column entries.  Satisfies E b^(k) = e^(k) exactly."""
    if not 0 <= k < size:
        raise DomainError(f"basis index {k} outside window of length {size}")
    out = [lam.kernel.inverse_entry(n, k) for n in range(size)]
    return SeqWindow(tuple(out))


# ---------------------------------------------------------------------------
# General row-windowed matrices (not necessarily triangular)


class RowWindowedMatrix:
    """A matrix with finitely many stored rows, each finitely supported;
    every entry outside the stored window is zero.

    This is the verification regime for the mapping-class, operator-norm
    and non-compactness machinery: with finite support every analytic
    criterion becomes finitely decidable.
    """

    def __init__(self, rows: Sequence[Sequence], name: str = "rows"):
        cleaned = []
        for row in rows:
            vals = list(map(to_fraction, row))
            while vals and vals[-1] == 0:
                vals.pop()
            cleaned.append(tuple(vals))
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        self.rows = tuple(cleaned)
        self.name = name

    @property
    def row_bound(self) -> int:
        """Index past the last (possibly) nonzero row."""
        return len(self.rows)

    def entry(self, n: int, k: int) -> Fraction:
        if n < 0 or k < 0:
            raise DomainError("matrix indices must be >= 0")
        if n >= len(self.rows):
            return Fraction(0)
        row = self.rows[n]
        if k >= len(row):
            return Fraction(0)
        return row[k]

    def row_support(self, n: int) -> int:
        """Index past the last nonzero entry of row n."""
        if n >= len(self.rows):
            return 0
        return len(self.rows[n])

    def is_triangular(self) -> bool:
        return all(len(row) <= n + 1 for n, row in enumerate(self.rows))

    def as_triangle(self) -> Triangle:
        if not self.is_triangular():
            raise DomainError("matrix has entries above the diagonal")
        return Triangle(self.entry, name=self.name)

    def __repr__(self):
        return f"RowWindowedMatrix({self.name}, rows={len(self.rows)})"


def matrix_from_json(obj) -> RowWindowedMatrix:
    """Build a matrix from the JSON wire format.

    Kinds: "dense" (list of row lists), "rows" (sparse {"n": [entries]}),
    "band" ({offset: values} diagonals with a size).  Entries are rational
    strings; everything beyond the stored window is zero.  Row indices,
    band sizes and band offsets are integers of magnitude at most
    ``MATRIX_INDEX_LIMIT``.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:  # also huge ints, deep nesting
            raise ParseError(f"malformed matrix JSON: {exc}") from None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("matrix JSON must be an object with a 'kind'")
    tail = obj.get("tail", "zero")
    if tail != "zero":
        raise ParseError(f"unsupported tail rule {tail!r}")
    kind = obj["kind"]
    if kind == "dense":
        entries = _json_list(obj.get("entries", []), "'entries'")
        rows = [
            [parse_rational(str(v)) for v in _json_list(row, "a dense row")]
            for row in entries
        ]
        return RowWindowedMatrix(rows, name="dense")
    # The sparse kinds collect the rows they store, by row index.
    parsed: dict[int, list[Fraction]] = {}
    if kind == "rows":
        sparse = obj.get("rows", {})
        if not isinstance(sparse, dict):
            raise ParseError("matrix JSON 'rows' must be an object")
        for n_str, row in sparse.items():
            n = _json_int(n_str, "row index")
            parsed[n] = [parse_rational(str(v)) for v in _json_list(row, "a sparse row")]
    elif kind == "band":
        size = _json_int(obj.get("size", 0), "'size'", low=1)
        bands = obj.get("bands", {})
        if not isinstance(bands, dict):
            raise ParseError("matrix JSON 'bands' must be an object")
        for off_str, values in bands.items():
            off = _json_int(off_str, "band offset", low=-MATRIX_INDEX_LIMIT)
            for i, v in enumerate(_json_list(values, "a band")):
                n, k = (i, i + off) if off >= 0 else (i - off, i)
                if n < size and k < size:
                    row = parsed.setdefault(n, [])
                    row.extend([Fraction(0)] * (k + 1 - len(row)))
                    row[k] = parse_rational(str(v))
    else:
        raise ParseError(f"unknown matrix kind {kind!r}")
    height = max(parsed) + 1 if parsed else 0
    return RowWindowedMatrix([parsed.get(n, []) for n in range(height)], name=kind)


def _json_int(value, what: str, low: int = 0) -> int:
    """An integer field of matrix JSON (a number or a numeral string) in
    [low, MATRIX_INDEX_LIMIT]; bools and non-integral numbers are refused."""
    not_integer = ParseError(f"matrix JSON {what} must be an integer, got {value!r}")
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise not_integer
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise not_integer from None
    if not low <= n <= MATRIX_INDEX_LIMIT:
        raise ParseError(
            f"matrix JSON {what} must lie in [{low}, {MATRIX_INDEX_LIMIT}], got {n}"
        )
    return n


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"matrix JSON {what} must be a list, got {value!r}")
    return value


def load_matrix(path: str) -> RowWindowedMatrix:
    return matrix_from_json(read_input(path))
