"""Named witness sequences, each defined by its image under the composed
triangle and computed by exact inversion of that image.

The displayed closed forms for the first of these witnesses are constant
from some index on; the exact inverse shows the true sequences grow like a
Fibonacci square factor, and the two agree only on the first few indices.
The defining property (the image) is what this module computes; the early
closed-form values are kept in the test-suite as cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MissingExponent, UnknownWitness
from .exactreal import DEFAULT_PRECISION, Exponent, rpow
from .sequences import LambdaSeq, SeqWindow
from .triangles import inverse_transform


def _target_image(name: str, p: Exponent | None, n: int, precision: int) -> list:
    if name == "u":
        return [Fraction(1 if i < 2 else 0) for i in range(n)]
    if name == "v-hilbert":
        return [Fraction(1), Fraction(-1)][:n] + [Fraction(0)] * max(0, n - 2)
    if name == "t":
        return [Fraction(1)] * n
    if name == "v-e0":
        return [Fraction(1 if i == 0 else 0) for i in range(n)]
    if name == "alternating":
        return [Fraction(-1) ** i for i in range(n)]
    if name == "power-law":
        if p is None or p.is_infinite:
            raise MissingExponent("power-law witness needs a finite exponent p")
        inv_p = -1 / p.as_fraction()
        return [rpow(Fraction(i + 1), inv_p, precision) for i in range(n)]
    raise UnknownWitness(f"unknown witness {name!r}")


def gen_witness(
    name: str,
    lam: LambdaSeq,
    n: int,
    p: Exponent | None = None,
    precision: int = DEFAULT_PRECISION,
) -> SeqWindow:
    """Window of the named witness sequence: the exact inverse image of its
    target under the composed triangle.  The power-law witness is the one
    certified-real (inexact) case.
    """
    if n < 1:
        raise UnknownWitness("witness window length must be >= 1")
    if p is not None:
        p = Exponent.of(p)
    target = _target_image(name, p, n, precision)
    return inverse_transform(SeqWindow(tuple(target)), lam)
