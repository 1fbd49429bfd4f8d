"""Independent reference values for checking CLI outputs.

Nothing here imports fibspaces: the forward transform below is the
rank-one, linear-time form of the composed triangle, written from its
closed-form coefficients, and the real-valued truths are computed with
the standard ``decimal`` module.  A check that agrees with the program
therefore agrees with a second route, not with the program itself.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 60
# CertifiedReal renders its value with 24 decimal places, so a printed
# enclosure is only as tight as that rounding.
RENDER_SLACK = Fraction(1, 10**24)


def fibs(n: int) -> list[int]:
    """f_0..f_{n-1} with f_0 = f_1 = 1."""
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out[:n]


def lambda_values(spec: str, n: int) -> list[Fraction]:
    """lambda_0..lambda_{n-1} for "linear:a,b" or "geometric:r,c"."""
    kind, _, rest = spec.partition(":")
    a, b = (Fraction(t) for t in rest.split(","))
    if kind == "linear":
        return [a * i + b for i in range(n)]
    if kind == "geometric":
        return [b * a**i for i in range(n)]
    raise ValueError(f"unsupported lambda spec {spec!r}")


def forward(x: list[Fraction], lam_spec: str) -> list[Fraction]:
    """y = E x as one running sum: y_n = (c_0 x_0 + ... + c_{n-1} x_{n-1}
    + d_n x_n) / lambda_n, with c_j = gap_j f_j/f_{j+1} - gap_{j+1}
    f_{j+2}/f_{j+1} and d_n = gap_n f_n/f_{n+1}."""
    n = len(x)
    lam = lambda_values(lam_spec, n + 1)
    gap = [lam[0]] + [lam[i] - lam[i - 1] for i in range(1, n + 1)]
    f = fibs(n + 2)
    out, acc = [], Fraction(0)
    for k in range(n):
        d = gap[k] * Fraction(f[k], f[k + 1])
        out.append((acc + d * x[k]) / lam[k])
        acc += (d - gap[k + 1] * Fraction(f[k + 2], f[k + 1])) * x[k]
    return out


def to_decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def power(q: Fraction, p: Fraction) -> Decimal:
    """|q| ** p to about DIGITS significant digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        base = abs(to_decimal(q))
        if base == 0:
            return Decimal(0)
        return base ** (Decimal(p.numerator) / Decimal(p.denominator))


def p_norm(values: list[Fraction], p: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DIGITS
        total = sum((power(v, p) for v in values), Decimal(0))
        return total ** (Decimal(p.denominator) / Decimal(p.numerator))


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def parse_enclosure(text: str) -> tuple[Fraction, Fraction]:
    """(value, error) from a rendered CertifiedReal: "1.25 ± 3.0e-40",
    "5/4 (exact)", or a plain rational."""
    text = text.strip()
    if "±" in text:
        value, err = text.split("±")
        # The error is printed to three digits; widen it by one part in a
        # thousand so that rounding cannot shrink it.
        return Fraction(value.strip()), Fraction(err.strip()) * Fraction(1001, 1000)
    return Fraction(text.replace("(exact)", "").strip()), Fraction(0)


def encloses(text: str, truth: Decimal) -> bool:
    value, err = parse_enclosure(text)
    return abs(value - Fraction(truth)) <= err + RENDER_SLACK


_INT_TOKEN = re.compile(r"(?<![.\d])\d+(?![.\de])")


def max_bits(text: str) -> int:
    """Largest bit length of an integer (numerator or denominator) in the
    text; digits inside decimals and float exponents are skipped."""
    return max((int(tok).bit_length() for tok in _INT_TOKEN.findall(text)), default=0)
