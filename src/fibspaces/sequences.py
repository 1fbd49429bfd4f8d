"""Fibonacci numbers, weight-sequence families, and finite sequence windows.

Indexing convention for Fibonacci numbers throughout the package:
f(0) = f(1) = 1, f(n) = f(n-1) + f(n-2).  Weight sequences lambda are
strictly increasing positive rationals tending to infinity, and every
accessor honours lambda(-1) = 0 so callers never special-case the first
row of a triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    DomainError,
    NonPositiveStart,
    NotStrictlyIncreasing,
    ParseError,
)
from .exactreal import parse_rational, to_fraction


_FIB = [1, 1]


def fib(n: int) -> int:
    """f(n), memoized in one module-level list."""
    if n < 0:
        raise DomainError(f"Fibonacci index must be >= 0, got {n}")
    while len(_FIB) <= n:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[n]


def fib_sq(n: int) -> Fraction:
    v = fib(n)
    return Fraction(v * v)


# ---------------------------------------------------------------------------
# Weight sequences


class LambdaSeq:
    """Oracle for a strictly increasing positive sequence tending to infinity.

    Instances carry their family name and parameters so any prefix can be
    regenerated and reports stay reproducible.  Index -1 is always 0.  The
    constructors ``linear``, ``geometric`` and ``explicit`` check lambda
    whole when they build it; the bare constructor trusts ``fn``, and the
    kernel, the only reader of the family function, trusts lambda.
    """

    def __init__(self, family: str, params: tuple, fn: Callable[[int], Fraction]):
        self.family = family
        self.params = params
        self.kernel = Kernel(fn)

    @property
    def reciprocal_summable(self) -> bool:
        """Whether sum 1/lambda_n converges: the geometric family."""
        return self.family == "geometric"

    def value(self, n: int) -> Fraction:
        if n == -1:
            return Fraction(0)
        if n < -1:
            raise DomainError(f"lambda index must be >= -1, got {n}")
        return self.kernel.read(n).lam[n]

    def gap(self, n: int) -> Fraction:
        """lambda_n - lambda_{n-1}, with the lambda_{-1} = 0 convention."""
        if n < 0:
            raise DomainError(f"lambda gap index must be >= 0, got {n}")
        return self.kernel.read(n).gap[n]

    def describe(self) -> str:
        return f"{self.family}:{','.join(str(p) for p in self.params)}"

    def __repr__(self):
        return f"LambdaSeq({self.describe()})"

    # -- families

    @classmethod
    def linear(cls, a, b) -> "LambdaSeq":
        a, b = Fraction(a), Fraction(b)
        if a <= 0:
            raise NotStrictlyIncreasing(f"linear slope must be positive, got {a}")
        if b <= 0:
            raise NonPositiveStart(f"linear offset must be positive, got {b}")
        return cls("linear", (a, b), lambda n: a * n + b)

    @classmethod
    def geometric(cls, r, c) -> "LambdaSeq":
        r, c = Fraction(r), Fraction(c)
        if c <= 0:
            raise NonPositiveStart(f"geometric scale must be positive, got {c}")
        if r <= 1:
            raise NotStrictlyIncreasing(f"geometric ratio must exceed 1, got {r}")
        return cls("geometric", (r, c), lambda n: c * r**n)

    @classmethod
    def explicit(cls, values: Sequence) -> "LambdaSeq":
        """Explicit prefix, each value checked; past it the last gap repeats."""
        vals = tuple(map(to_fraction, values))
        if len(vals) < 2:
            raise ParseError("explicit lambda needs at least two values")
        for k, (prev, value) in enumerate(zip((Fraction(0),) + vals, vals)):
            if value > prev:
                continue
            if k == 0:
                raise NonPositiveStart(f"lambda_0 = {value} must be positive")
            raise NotStrictlyIncreasing(
                f"lambda_{k} = {value} does not exceed lambda_{k-1} = {prev}")
        last_gap = vals[-1] - vals[-2]

        def fn(n: int) -> Fraction:
            if n < len(vals):
                return vals[n]
            return vals[-1] + last_gap * (n - len(vals) + 1)

        return cls("explicit", vals, fn)

    @classmethod
    def from_spec(cls, spec: str) -> "LambdaSeq":
        """Parse "linear:a,b" | "geometric:r,c" | "file:<path>"."""
        spec = spec.strip()
        if ":" not in spec:
            raise ParseError(f"bad lambda spec {spec!r}")
        kind, _, rest = spec.partition(":")
        if kind == "file":
            return cls.explicit(read_rationals(rest))
        params = [parse_rational(tok) for tok in rest.split(",")]
        if kind == "linear" and len(params) == 2:
            return cls.linear(*params)
        if kind == "geometric" and len(params) == 2:
            return cls.geometric(*params)
        raise ParseError(f"bad lambda spec {spec!r}")


class Kernel:
    """The closed-form coefficients of the composed triangle E and of its
    inverse for one weight sequence, as arrays grown on demand.

    With w_k = 1/(gap(k) f_k f_{k+1}), every entry is read from eight arrays
    whose index k holds the k-th coefficient:

    * ``lam`` and ``gap`` hold lambda_k and gap(k) = lambda_k - lambda_{k-1};
    * ``w`` holds w_k;
    * E has num_k / lambda_n below the diagonal, with the row-independent
      numerator num_k = (gap(k) f_k - gap(k+1) f_{k+2}) / f_{k+1} (``num``),
      and 1/diag_n on it;
    * the inverse of E has f_{n+1}^2 col_k below the diagonal, with
      col_k = lambda_k (w_k - w_{k+1}) (``col``), and
      diag_n = lambda_n f_{n+1}^2 w_n on it (``diag``);
    * pairing a sequence a against column k of the inverse up to row n gives
      abar_k(n) = a_k diag_k + col_k (T_n - T_k), with the prefix sums
      T_n = sum_{j<=n} f_{j+1}^2 a_j;
    * ``here`` holds lambda_k w_k and ``back`` holds -lambda_{k-1} w_k
      (0 at k = 0), the two signed coefficients of y_k and y_{k-1} in the
      inverse transform's term j = k.

    ``read(n)`` reads lambda_0..lambda_n into ``lam`` and ``gap`` alone, so
    these two may run ahead of the others; ``grow(n)`` reads the same values
    and then builds ``w``, ``here`` and ``back`` of indices 0..n,
    and ``col``, ``diag`` and ``num`` of 0..n-1.  Each coefficient is built
    as one ``Fraction`` from the integer numerators and denominators of
    lambda_k, gap(k) and f_k: with gap(k) = g/h, for instance, w_k is
    h / (g f_k f_{k+1}), reduced by one gcd instead of by the gcds of a
    ``Fraction`` product or quotient per factor.  The kernel reads lambda_k
    as ``value(k)`` and holds no reference to its sequence, so the two form
    no reference cycle.  It trusts lambda: the ``LambdaSeq`` constructors
    check it.
    """

    __slots__ = ("_value", "lam", "gap", "w", "here", "back", "col", "diag", "num")

    def __init__(self, value: Callable[[int], Fraction]):
        self._value = value
        self.lam: list[Fraction] = []
        self.gap: list[Fraction] = []
        self.w: list[Fraction] = []
        self.here: list[Fraction] = []
        self.back: list[Fraction] = []
        self.col: list[Fraction] = []
        self.diag: list[Fraction] = []
        self.num: list[Fraction] = []

    def read(self, n: int) -> "Kernel":
        """Make lambda and gap of indices 0..n available."""
        lam, gap = self.lam, self.gap
        for k in range(len(lam), n + 1):
            lam.append(to_fraction(self._value(k)))
            gap.append(lam[k] - lam[k - 1] if k else lam[k])
        return self

    def grow(self, n: int) -> "Kernel":
        """Make lambda, gap, w, here and back of indices 0..n and col, diag
        and num of indices 0..n-1 available."""
        w = self.w
        if n < len(w):
            return self
        lam, gap = self.read(n).lam, self.gap
        for k in range(len(w), n + 1):
            ln, ld = lam[k].numerator, lam[k].denominator
            pn, pd = (lam[k - 1].numerator, lam[k - 1].denominator) if k else (0, 1)
            gn, gd = gap[k].numerator, gap[k].denominator
            wd = gn * fib(k) * fib(k + 1)  # w_k = gd / wd
            w.append(Fraction(gd, wd))
            self.here.append(Fraction(ln * gd, ld * wd))
            self.back.append(Fraction(-pn * gd, pd * wd))
        for k in range(len(self.col), n):
            ln, ld = lam[k].numerator, lam[k].denominator
            gn, gd = gap[k].numerator, gap[k].denominator
            hn, hd = gap[k + 1].numerator, gap[k + 1].denominator
            w0, w1 = w[k], w[k + 1]
            bn = w0.numerator * w1.denominator - w1.numerator * w0.denominator
            bd = w0.denominator * w1.denominator  # w_k - w_{k+1} = bn / bd
            self.col.append(Fraction(ln * bn, ld * bd))
            self.diag.append(Fraction(ln * gd * fib(k + 1), ld * gn * fib(k)))
            self.num.append(Fraction(gn * fib(k) * hd - hn * fib(k + 2) * gd,
                                     gd * hd * fib(k + 1)))
        return self

    def e_entry(self, n: int, k: int) -> Fraction:
        """Entry (n, k) of E."""
        if k > n:
            return Fraction(0)
        self.grow(n + 1)
        if k == n:
            return 1 / self.diag[n]
        return self.num[k] / self.lam[n]

    def inverse_entry(self, n: int, k: int) -> Fraction:
        """Entry (n, k) of the inverse of E; needs the coefficients up to
        index k only."""
        if k > n:
            return Fraction(0)
        self.grow(k + 1)
        if k == n:
            return self.diag[n]
        return fib_sq(n + 1) * self.col[k]

    def partial_sums(self, a) -> list[Fraction]:
        """T_n = sum_{j<=n} f_{j+1}^2 a_j for every index n of a."""
        sums, acc = [], Fraction(0)
        for j, v in enumerate(a):
            acc = acc + fib_sq(j + 1) * v
            sums.append(acc)
        return sums

    def limit_row(self, a) -> list[Fraction]:
        """abar_k(n) for large n and every index k of a, when a holds the
        whole support: the inner sums run to the end of a.

        The row is scaled once to integers A_j = D a_j over the lcm D of
        its denominators, so the prefix sums S_n = D T_n are integers and
        each abar_k = (A_k diag_k + col_k (S_last - S_k)) / D is built as
        one ``Fraction`` (Knuth, TAOCP Vol. 2, 4.5.1)."""
        self.grow(len(a))
        den = math.lcm(*(v.denominator for v in a))
        scaled = [v.numerator * (den // v.denominator) for v in a]
        sums, acc = [], 0
        for j, v in enumerate(scaled):
            f = fib(j + 1)
            acc += f * f * v
            sums.append(acc)
        row = []
        for k, v in enumerate(scaled):
            d, c = self.diag[k], self.col[k]
            row.append(Fraction(
                v * d.numerator * c.denominator + c.numerator * (acc - sums[k]) * d.denominator,
                den * d.denominator * c.denominator,
            ))
        return row


# ---------------------------------------------------------------------------
# Finite windows and prefix generators


@dataclass(frozen=True)
class SeqWindow:
    """A finite prefix (x_0, ..., x_{N-1})."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise DomainError("empty sequence window")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class PrefixGenerator:
    """A sequence given by its ability to produce any prefix.

    A prefix must be prefix-exact: ``prefix(n)`` equals the first n entries
    of ``prefix(m)`` for every m >= n, so a sweep reads each point's prefix
    from one window built at its deepest point.

    ``support`` bounds the nonzero entries when the sequence is finitely
    supported (entries vanish at indices >= support); None means unknown.
    ``image_support`` plays the same role for the sequence's image under
    the composed triangle, when the generator knows it.
    """

    name: str
    fn: Callable[[int], tuple]
    support: int | None = None
    image_support: int | None = None

    def prefix(self, n: int) -> SeqWindow:
        if n < 1:
            raise DomainError(f"window length must be >= 1, got {n}")
        values = tuple(self.fn(n))
        if len(values) != n:
            raise DomainError(f"generator {self.name!r} returned wrong length")
        return SeqWindow(values)


def zero_seq() -> PrefixGenerator:
    return PrefixGenerator("zero", lambda n: (Fraction(0),) * n, support=0)


def unit_seq(k: int) -> PrefixGenerator:
    if k < 0:
        raise DomainError("unit index must be >= 0")
    return PrefixGenerator(
        f"unit:{k}",
        lambda n: tuple(Fraction(1 if i == k else 0) for i in range(n)),
        support=k + 1,
    )


def ones_seq() -> PrefixGenerator:
    return PrefixGenerator("e", lambda n: (Fraction(1),) * n)


def from_values(values: Sequence, name: str = "values") -> PrefixGenerator:
    vals = tuple(Fraction(v) for v in values)
    support = len(vals)
    while support > 0 and vals[support - 1] == 0:
        support -= 1

    def fn(n: int) -> tuple:
        if n <= len(vals):
            return vals[:n]
        return vals + (Fraction(0),) * (n - len(vals))

    return PrefixGenerator(name, fn, support=support)


def inv_fib_pow(m: int) -> PrefixGenerator:
    """a_k = 1 / f(k+1) ** m; decays fast enough to tame f(j+1)^2 weights for m >= 3."""
    if m < 1:
        raise DomainError("power must be >= 1")
    return PrefixGenerator(
        f"inv-fib-pow:{m}",
        lambda n: tuple(Fraction(1, fib(k + 1) ** m) for k in range(n)),
    )


def read_input(path: str) -> str:
    """The text of an input file; ParseError when it cannot be read as text
    (missing, a directory, a NUL in the path, not UTF-8)."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None


def read_rationals(path: str) -> list[Fraction]:
    """One rational per nonblank line of an input file."""
    return [parse_rational(line) for line in read_input(path).split("\n") if line.strip()]


# Largest index accepted from matrix JSON (row, band size, band offset) and
# from a "unit:<k>" spec, so that a short input cannot ask for a huge window.
MATRIX_INDEX_LIMIT = 10_000

# Largest power m accepted in an "inv-fib-pow:<m>" spec: the entries have
# about 0.7·m·k bits, and a window-16 beta-dual check takes 2 s at m = 1000
# but more than 2 min at m = 10000.
INV_FIB_POW_LIMIT = 1000


def parse_index(text: str, spec: str) -> int:
    """The integer parameter of a spec such as "unit:<k>"; ParseError otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad integer {text!r} in spec {spec!r}") from None


def parse_generator_spec(spec: str) -> PrefixGenerator:
    """Parse "zero" | "e" | "unit:<k>" | "inv-fib-pow:<m>" | "values:a,b,..." | "file:<path>"."""
    spec = spec.strip()
    if spec == "zero":
        return zero_seq()
    if spec == "e":
        return ones_seq()
    kind, _, rest = spec.partition(":")
    if kind == "unit" and rest:
        k = parse_index(rest, spec)
        if k > MATRIX_INDEX_LIMIT:
            raise ParseError(f"unit index in {spec!r} exceeds {MATRIX_INDEX_LIMIT}")
        return unit_seq(k)
    if kind == "inv-fib-pow" and rest:
        m = parse_index(rest, spec)
        if m > INV_FIB_POW_LIMIT:
            raise ParseError(f"power in {spec!r} exceeds {INV_FIB_POW_LIMIT}")
        return inv_fib_pow(m)
    if kind == "values" and rest:
        return from_values([parse_rational(tok) for tok in rest.split(",")])
    if kind == "file" and rest:
        return from_values(read_rationals(rest), name=f"file:{rest}")
    raise ParseError(f"bad sequence spec {spec!r}")
