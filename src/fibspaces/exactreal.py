"""Exact scalars: rationals, conjugate exponents, and certified reals.

Everything in this package that can be a ``fractions.Fraction`` is one.
Floating behaviour enters in exactly one place: :class:`CertifiedReal`, a
rational approximation paired with a rigorous absolute error bound, used
whenever a quantity such as ``|x| ** (3/2)`` is irrational.  Error bounds
are themselves exact rationals and are propagated through every operation,
so a test can always ask "are these two quantities equal up to certified
error" instead of comparing against an arbitrary epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import NegativeBaseError, ParseError

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
# Largest command-line precision: `norm --x witness:power-law -N 32 --p
# 100/99` takes 1.8 s at 256 bits and 15 s at 1024 (2-CPU x86-64 host).
PRECISION_LIMIT = 1024
# Largest numerator and denominator of an exponent a/b read from text: x ** a
# is formed exactly, so p = 1e40 never ends, and `dual --a inv-fib-pow:3
# --space lp:<p> --window 32` takes 6.6 s at p = 100 and 12 s at p = 128.
EXPONENT_TERM_LIMIT = 100
DECIMAL_DIGITS = 24

RationalLike = Union[int, Fraction]


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"int"`` (e.g. ``"21/2"``, ``"-7"``)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def _digits(n: int) -> str:
    """str(n) at any size: past the interpreter's int-to-str digit limit the
    halves of n are converted apart, and the limit is left as it is."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _digits(-n)
        half = n.bit_length() * 3 // 20  # about half of n's decimal digits
        high, low = divmod(n, 10**half)
        return _digits(high) + _digits(low).zfill(half)


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


# The least magnitude that rounds past the largest float (halfway to 2 ** 1024).
_FLOAT_OVERFLOW = 2**1024 - 2**970


def to_float(q: RationalLike) -> float:
    """float(q) for a rational, or +-inf when q rounds past the float range."""
    if abs(q.numerator) >= _FLOAT_OVERFLOW * q.denominator:
        return math.inf if q > 0 else -math.inf
    return float(q)


def _format_error(err: Fraction) -> str:
    """A positive error bound as f"{float(err):.3e}", built from integers
    when the bound is past the float range."""
    if to_float(err) < math.inf:
        return f"{float(err):.3e}"
    # 10 ** exp <= err < 10 ** (exp + 1), counted up from an estimate below.
    bits = err.numerator.bit_length() - err.denominator.bit_length()
    exp = int((bits - 1) * math.log10(2)) - 1
    while 10 ** (exp + 1) <= err:
        exp += 1
    digits = round(err / 10 ** (exp - 3))  # 1000 <= digits <= 10 ** 4
    if digits == 10**4:
        digits, exp = 10**3, exp + 1
    return f"{digits // 1000}.{digits % 1000:03d}e+{exp}"


# ---------------------------------------------------------------------------
# Exponents


@dataclass(frozen=True)
class Exponent:
    """An exponent p with p >= 1, either rational or infinite.

    ``value`` is None exactly when the exponent is infinite.
    """

    value: Fraction | None

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", Fraction(self.value))
            if self.value < 1:
                raise ParseError(f"exponent must satisfy p >= 1, got {self.value}")

    @classmethod
    def of(cls, p: "Exponent | RationalLike | str") -> "Exponent":
        if isinstance(p, Exponent):
            return p
        if isinstance(p, str):
            return cls.parse(p)
        return cls(Fraction(p))

    @classmethod
    def infinity(cls) -> "Exponent":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "Exponent":
        """"inf", or a rational p >= 1 whose numerator and denominator are
        at most ``EXPONENT_TERM_LIMIT``."""
        text = text.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return cls.infinity()
        p = cls(parse_rational(text))
        if max(p.value.numerator, p.value.denominator) > EXPONENT_TERM_LIMIT:
            raise ParseError(f"exponent {text!r} has a numerator or denominator "
                             f"past {EXPONENT_TERM_LIMIT}")
        return p

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def as_fraction(self) -> Fraction:
        if self.value is None:
            raise ParseError("infinite exponent has no rational value")
        return self.value

    def conjugate(self) -> "Exponent":
        if self.is_infinite:
            return Exponent(Fraction(1))
        p = self.value
        if p == 1:
            return Exponent.infinity()
        return Exponent(p / (p - 1))

    def __str__(self) -> str:
        return "inf" if self.is_infinite else format_rational(self.value)


P_ONE = Exponent(Fraction(1))
P_INF = Exponent.infinity()


def conjugate(p: Exponent | RationalLike | str) -> Exponent:
    """The conjugate exponent q with 1/p + 1/q = 1 (1 <-> inf)."""
    return Exponent.of(p).conjugate()


# ---------------------------------------------------------------------------
# Certified reals


ZERO = Fraction(0)


def to_fraction(v) -> Fraction:
    """v as a ``Fraction``: a ``Fraction`` passes through unchanged (the
    same object), anything else is converted exactly as ``Fraction(v)``
    converts it.  A ``Fraction`` is immutable, so sharing it is safe, and
    converting one again goes through the ``numbers.Rational`` check."""
    return v if isinstance(v, Fraction) else Fraction(v)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


@dataclass(frozen=True)
class CertifiedReal:
    """A rational value with a certified absolute error bound.

    The represented real r satisfies |r - value| <= err.  err == 0 means
    the value is exact.
    """

    value: Fraction
    err: Fraction = ZERO

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not isinstance(self.err, Fraction):
            object.__setattr__(self, "err", Fraction(self.err))
        # A Fraction's denominator is positive, so its sign is its numerator's.
        if self.err.numerator < 0:
            raise ValueError("error bound must be nonnegative")

    # -- constructors

    @classmethod
    def exact(cls, q: RationalLike) -> "CertifiedReal":
        return cls(to_fraction(q), ZERO)

    @classmethod
    def from_interval(cls, lo: Fraction, hi: Fraction) -> "CertifiedReal":
        if hi < lo:
            raise ValueError("empty interval")
        mid = (lo + hi) / 2
        return cls(mid, hi - mid)

    @classmethod
    def wrap(cls, x) -> "CertifiedReal":
        if isinstance(x, CertifiedReal):
            return x
        return cls.exact(_as_fraction(x))

    @classmethod
    def max_of(cls, values) -> "CertifiedReal":
        """Enclosure of the maximum of finitely many certified values
        ([max of lows, max of highs]); exact when every input is."""
        values = [cls.wrap(v) for v in values]
        if not values:
            return cls.exact(0)
        return cls.from_interval(
            max(v.lo for v in values), max(v.hi for v in values)
        )

    # -- interval views

    @property
    def lo(self) -> Fraction:
        return self.value - self.err if self.err else self.value

    @property
    def hi(self) -> Fraction:
        return self.value + self.err if self.err else self.value

    @property
    def is_exact(self) -> bool:
        return self.err == 0

    # -- arithmetic

    def __add__(self, other) -> "CertifiedReal":
        if isinstance(other, (Fraction, int)):
            # Equal to adding CertifiedReal.exact(other), without wrapping it.
            return CertifiedReal(self.value + other, self.err)
        o = CertifiedReal.wrap(other)
        return CertifiedReal(self.value + o.value, self.err + o.err)

    __radd__ = __add__

    def __neg__(self) -> "CertifiedReal":
        return CertifiedReal(-self.value, self.err)

    def __sub__(self, other) -> "CertifiedReal":
        return self + (-CertifiedReal.wrap(other))

    def __rsub__(self, other) -> "CertifiedReal":
        return CertifiedReal.wrap(other) + (-self)

    def __mul__(self, other) -> "CertifiedReal":
        if isinstance(other, (Fraction, int)):
            # Equal to multiplying by CertifiedReal.exact(other), without
            # wrapping it: the error terms with a zero factor drop out.
            return CertifiedReal(self.value * other, abs(other) * self.err)
        o = CertifiedReal.wrap(other)
        err = abs(self.value) * o.err + abs(o.value) * self.err + self.err * o.err
        return CertifiedReal(self.value * o.value, err)

    __rmul__ = __mul__

    def divided_by(self, d: RationalLike) -> "CertifiedReal":
        d = _as_fraction(d)
        if d == 0:
            raise ZeroDivisionError("division by zero rational")
        return CertifiedReal(self.value / d, self.err / abs(d))

    def __abs__(self) -> "CertifiedReal":
        return CertifiedReal(abs(self.value), self.err)

    def square(self) -> "CertifiedReal":
        return self * self

    # -- certified comparisons

    def certainly_le(self, other) -> bool:
        o = CertifiedReal.wrap(other)
        return self.hi <= o.lo

    def contains(self, q: RationalLike) -> bool:
        q = _as_fraction(q)
        return self.lo <= q <= self.hi

    def agrees_with(self, other) -> bool:
        """True when the two enclosures overlap (cannot be distinguished)."""
        o = CertifiedReal.wrap(other)
        return abs(self.value - o.value) <= self.err + o.err

    def distance_from(self, other) -> Fraction:
        """A certified lower bound on |self - other| (0 if they overlap)."""
        o = CertifiedReal.wrap(other)
        gap = abs(self.value - o.value) - (self.err + o.err)
        return gap if gap > 0 else Fraction(0)

    # -- rendering

    def decimal(self) -> str:
        """The value rounded to DECIMAL_DIGITS places after the point."""
        scale = 10**DECIMAL_DIGITS
        num = self.value * scale
        rounded = Fraction(round(num), scale)
        sign = "-" if rounded < 0 else ""
        rounded = abs(rounded)
        whole, frac = divmod(rounded.numerator * scale // rounded.denominator, scale)
        return f"{sign}{_digits(whole)}.{str(frac).zfill(DECIMAL_DIGITS)}"

    def __str__(self) -> str:
        if self.is_exact:
            return f"{format_rational(self.value)} (exact)"
        return f"{self.decimal()} ± {_format_error(self.err)}"

    def __float__(self) -> float:
        return float(self.value)


def dot(pairs) -> Fraction | CertifiedReal:
    """The exact sum of c * v over (c, v) pairs: c rational, v rational or
    certified.

    The sum is one integer numerator over the lcm of the term denominators,
    reduced once at the end instead of by the gcds of a ``Fraction``
    multiply and add per term (Knuth, TAOCP Vol. 2, 4.5.1).  A certified v
    adds |c| * err to a second sum, so the result equals the term-by-term
    fold of v * c: a certified real once any v is one, else a ``Fraction``.
    """
    num, den = 0, 1
    errs = []
    for c, v in pairs:
        if isinstance(v, CertifiedReal):
            errs.append((abs(c), v.err))
            v = v.value
        n = c.numerator * v.numerator
        if n:
            d = c.denominator * v.denominator
            g = math.gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    total = Fraction(num, den)
    return CertifiedReal(total, dot(errs)) if errs else total


# ---------------------------------------------------------------------------
# Roots and rational powers


def integer_nth_root(n: int, b: int) -> int:
    """floor(n ** (1/b)) for n >= 0, b >= 1, computed exactly."""
    if n < 0:
        raise ValueError("negative radicand")
    if b < 1:
        raise ValueError("root index must be >= 1")
    if n == 0:
        return 0
    if b == 1:
        return n
    if b % 2 == 0:
        # floor(floor(n ** (1/2)) ** (2/b)) = floor(n ** (1/b)).
        root = math.isqrt(n)
        return root if b == 2 else integer_nth_root(root, b // 2)
    # Newton iteration from an over-estimate; monotone decreasing to the floor root.
    x = 1 << (-(-n.bit_length() // b))
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


def _root_interval(t: Fraction, b: int, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of t ** (1/b) for t >= 0, width <~ 3 * 2**-precision.

    Perfect b-th powers of rationals are detected and returned exactly.
    """
    if t < 0:
        raise NegativeBaseError("root of a negative rational")
    if t == 0:
        return Fraction(0), Fraction(0)
    num, den = t.numerator, t.denominator
    rn, rd = integer_nth_root(num, b), integer_nth_root(den, b)
    if rn**b == num and rd**b == den:
        r = Fraction(rn, rd)
        return r, r
    scale = 1 << precision
    big = (num * scale**b) // den
    lo = Fraction(integer_nth_root(big, b), scale)
    hi = Fraction(integer_nth_root(big + 1, b) + 1, scale)
    return lo, hi


def _rational_pow_interval(
    x: Fraction, p: Fraction, precision: int
) -> tuple[Fraction, Fraction]:
    a, b = p.numerator, p.denominator
    if b == 1:
        if x == 0 and a < 0:
            raise ZeroDivisionError("0 ** negative")
        v = x**a
        return v, v
    if x < 0:
        raise NegativeBaseError(f"({x}) ** ({p}) with non-integer exponent")
    if x == 0:
        if a < 0:
            raise ZeroDivisionError("0 ** negative")
        return Fraction(0), Fraction(0)
    return _root_interval(x**a, b, precision)


def _pow_interval(x, p: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of x ** p for rational (or certified) x: the
    endpoints that :func:`rpow` wraps."""
    if isinstance(x, CertifiedReal) and not x.is_exact:
        # Monotone on [lo, hi] once the sign of p is fixed and lo >= 0.
        lo_b, hi_b = x.lo, x.hi
        if p.denominator != 1 and lo_b < 0:
            raise NegativeBaseError("uncertain base may be negative")
        if p.denominator == 1 and lo_b < 0 <= hi_b and p.numerator % 2 == 0:
            ends = [Fraction(0), lo_b**p.numerator, hi_b**p.numerator]
            return min(ends), max(ends)
        lo1, hi1 = _rational_pow_interval(lo_b, p, precision)
        lo2, hi2 = _rational_pow_interval(hi_b, p, precision)
        return min(lo1, lo2), max(hi1, hi2)
    if isinstance(x, CertifiedReal):
        x = x.value
    return _rational_pow_interval(to_fraction(x), p, precision)


def _checked_exponent(p, precision: int) -> Fraction:
    if precision < MIN_PRECISION:
        raise ParseError(f"precision must be >= {MIN_PRECISION} bits")
    if isinstance(p, Exponent):
        p = p.as_fraction()
    return Fraction(p)


def rpow(x, p, precision: int = DEFAULT_PRECISION) -> CertifiedReal:
    """|certified| x ** p for rational (or certified) x and rational p.

    Exact whenever the result is rational (integer p, or perfect roots);
    otherwise an enclosure of width about 2 ** -precision.
    """
    p = _checked_exponent(p, precision)
    return CertifiedReal.from_interval(*_pow_interval(x, p, precision))


def power_sum(values, p, precision: int = DEFAULT_PRECISION) -> CertifiedReal:
    """sum |v| ** p over rationals or certified reals, as one certified real.

    Equal, value and error, to adding the :func:`rpow` terms one by one:
    the interval of the summed endpoints has the summed midpoints as its
    value and the summed half-widths as its error.  Exact zeros contribute
    [0, 0] for p > 0 and are skipped, and a rational to an integer power
    is an exact term, added once.
    """
    p = _checked_exponent(p, precision)
    skip_zero = p > 0
    power = p.numerator if p.denominator == 1 else None
    exact = lo = hi = Fraction(0)
    for v in values:
        v = abs(v)
        if skip_zero and v == 0:
            continue
        if power is not None and isinstance(v, Fraction):
            exact += v if power == 1 else v ** power
        else:
            t_lo, t_hi = _pow_interval(v, p, precision)
            lo += t_lo
            hi += t_hi
    if not (lo or hi):
        return CertifiedReal(exact)
    return CertifiedReal.from_interval(exact + lo, exact + hi)


# ---------------------------------------------------------------------------
# Window norms


def window_norm(
    x: Sequence,
    p: Exponent | RationalLike | str,
    precision: int = DEFAULT_PRECISION,
) -> CertifiedReal:
    """The p-norm of a finite window.

    For p = inf the result is the exact maximum of |x_k| (error 0 when the
    entries are exact).  For finite p it is (sum |x_k|^p) ** (1/p) with a
    certified error bound; exact whenever every power and the final root
    are rational.
    """
    if len(x) == 0:
        raise ParseError("window_norm of an empty window")
    if precision < MIN_PRECISION:
        raise ParseError(f"precision must be >= {MIN_PRECISION} bits")
    p = Exponent.of(p)

    if p.is_infinite:
        return CertifiedReal.max_of([abs(CertifiedReal.wrap(v)) for v in x])
    pf = p.as_fraction()
    term_precision = precision + max(8, len(x).bit_length() + 2)
    return rpow(power_sum(x, pf, term_precision), 1 / pf, precision)
