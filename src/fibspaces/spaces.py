"""Norms of the transformed sequence spaces and their inclusion bounds.

The norm of a sequence in the lambda-Fibonacci space is the classical
p-norm of its image under the composed triangle.  On a window this is
prefix-exact, so golden identities about the norm can be asserted with
zero tolerance whenever the image is rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergentTail, ParseError
from .exactreal import (
    DEFAULT_PRECISION,
    P_INF,
    P_ONE,
    CertifiedReal,
    Exponent,
    power_sum,
    rpow,
    to_float,
    window_norm,
)
from .sequences import LambdaSeq, PrefixGenerator, SeqWindow
from .triangles import forward_transform
from .verdicts import Status, Verdict, classify_growth, classify_to_zero
from .witnesses import gen_witness

DEFAULT_SWEEP = (8, 12, 16, 24, 32, 48, 64)
SPACE_KINDS = ("l1", "lp", "linf", "c", "c0")
# Float powers are kept below 2 ** FLOAT_SCORE_BITS (floats overflow past 2 ** 1024).
FLOAT_SCORE_BITS = 1000


def _scale_shift(values, q: float) -> int:
    """The s for which values scaled by 2 ** -s keep the sum of their float
    q-th powers below 2 ** FLOAT_SCORE_BITS; 0 whenever unscaled ones do."""
    # |v| < 2 ** top for every entry v (bit lengths of its numerator and
    # denominator), so the sum is below len(values) * 2 ** (q * (top + 1)).
    top = max(
        (v.numerator.bit_length() - v.denominator.bit_length() + 1
         for v in values if v),
        default=None,
    )
    if top is None:
        return 0
    room = FLOAT_SCORE_BITS - len(values).bit_length()
    if q * (top + 1) < room:
        return 0
    return math.ceil(top + 1 - room / q) + 1


def normalize_space(space: str) -> tuple[str, Exponent | None]:
    """The canonical (kind, exponent) of a space spec: "lp:<p>", or a kind
    of ``SPACE_KINDS`` other than "lp".

    lp with p = 1 is l1 and with p = inf is linf, so the exponent is None
    for every kind but "lp"; callers check the kinds they support.
    """
    space = space.strip()
    kind, colon, text = space.partition(":")
    if (colon and kind != "lp") or kind not in SPACE_KINDS:
        raise ParseError(f"bad space spec {space!r}")
    if kind != "lp":
        return kind, None
    if not colon:
        raise ParseError("space 'lp' needs an exponent")
    p = Exponent.parse(text)
    if p.is_infinite:
        return "linf", None
    if p.as_fraction() == 1:
        return "l1", None
    return "lp", p


@dataclass
class NormEstimate:
    """A window norm plus a tail diagnostic.

    For finite p, ``tail_fraction`` is the share of sum |y_k|^p carried by
    the last quarter of the window (small means the window looks deep
    enough); for p = inf, ``sup_index`` is where the supremum is attained.
    """

    value: CertifiedReal
    window: int
    tail_fraction: float | None = None
    sup_index: int | None = None

    def to_json(self) -> dict:
        out = {
            "value": str(self.value),
            "error_bound": to_float(self.value.err),
            "window": self.window,
        }
        if self.tail_fraction is not None:
            out["tail_fraction"] = self.tail_fraction
        if self.sup_index is not None:
            out["sup_index"] = self.sup_index
        return out


def space_norm(
    x, lam: LambdaSeq, p, precision: int = DEFAULT_PRECISION
) -> NormEstimate:
    """Norm of x in the lambda-Fibonacci space: the p-norm of its image."""
    p = Exponent.of(p)
    image = forward_transform(x, lam)
    value = window_norm(image.values, p, precision)
    n = len(image)
    sizes = [abs(CertifiedReal.wrap(v).value) for v in image.values]
    if p.is_infinite:
        best = max(range(n), key=lambda i: sizes[i])
        return NormEstimate(value, n, sup_index=best)
    pf = p.as_fraction()
    # The fraction is scale-free; scale only when a power could overflow.
    shift = _scale_shift(sizes, float(pf))
    if shift:
        sizes = [v / (1 << shift) for v in sizes]
    powers = [float(v) ** float(pf) for v in sizes]
    total = sum(powers)
    tail = sum(powers[-max(1, n // 4):])
    frac = tail / total if total > 0 else 0.0
    return NormEstimate(value, n, tail_fraction=frac)


def parallelogram_check(
    lam: LambdaSeq, p, precision: int = DEFAULT_PRECISION
) -> dict:
    """Evaluate both sides of the parallelogram identity on the two
    witnesses whose images are (1,1,0,...) and (1,-1,0,...).

    The left side is 8 for every p; the right side is 4 * 2^(2/p), so the
    identity holds exactly when p = 2.
    """
    p = Exponent.of(p)
    n = 8
    u = gen_witness("u", lam, n)
    v = gen_witness("v-hilbert", lam, n)
    plus = SeqWindow(tuple(a + b for a, b in zip(u.values, v.values)))
    minus = SeqWindow(tuple(a - b for a, b in zip(u.values, v.values)))

    def sq_norm(w) -> CertifiedReal:
        # (sum |y_k|^p) ** (2/p) keeps rational cases exact (p = 2 above all),
        # where norm-then-square would not.
        image = forward_transform(w, lam)
        if p.is_infinite:
            return window_norm(image.values, p, precision).square()
        pf = p.as_fraction()
        return rpow(power_sum(image.values, pf, precision), 2 / pf, precision)

    lhs = sq_norm(plus) + sq_norm(minus)
    rhs = (sq_norm(u) + sq_norm(v)) * Fraction(2)
    equal = lhs.agrees_with(rhs) and lhs.is_exact and rhs.is_exact
    separation = lhs.distance_from(rhs)
    return {
        "p": str(p),
        "lhs": lhs,
        "rhs": rhs,
        "equal": bool(equal and not separation > 0),
        "separation": separation,
    }


def tail_constant(lam: LambdaSeq) -> Verdict:
    """sup_k gap(k) * sum_{n >= k} 1/lambda_n for the one reciprocal-summable
    family, lambda_n = c r^n: the tail sum is r^(1-k) / (c (r - 1)), so the
    product is r/(r - 1) at k = 0 and 1 at every k >= 1."""
    if not lam.reciprocal_summable:
        raise DivergentTail(
            f"reciprocals of family {lam.family!r} are not summable"
        )
    r, _ = lam.params
    return Verdict(Status.HOLDS_EXACTLY, value=CertifiedReal.exact(r / (r - 1)),
                   detail={"reason": "geometric closed form"})


def inclusion_bounds_check(
    x, lam: LambdaSeq, p=None, precision: int = DEFAULT_PRECISION
) -> dict:
    """Evaluate the two norm inequalities that witness the inclusions.

    Always checks sup-norm domination (space sup-norm <= 4 * sup |x_k|);
    when the weight family is reciprocal-summable and p is finite, also
    checks the p-norm bound with the 4 * M^(1/p) constant.
    """
    # "certified" means the enclosures themselves prove lhs <= rhs; "holds"
    # only says the enclosures do not certify a violation.
    def comparison(lhs: CertifiedReal, rhs: CertifiedReal) -> dict:
        return {
            "lhs": lhs,
            "rhs": rhs,
            "certified": lhs.certainly_le(rhs) or (lhs.hi == rhs.lo),
            "holds": lhs.lo <= rhs.hi,
        }

    report: dict = {}
    sup_lhs = space_norm(x, lam, Exponent.infinity(), precision).value
    sup_rhs = window_norm(list(x), Exponent.infinity(), precision) * Fraction(4)
    report["sup"] = comparison(sup_lhs, sup_rhs)
    if p is not None and lam.reciprocal_summable:
        p = Exponent.of(p)
        if not p.is_infinite:
            m = tail_constant(lam).value
            factor = rpow(m, 1 / p.as_fraction(), precision) * Fraction(4)
            lhs = space_norm(x, lam, p, precision).value
            rhs = factor * window_norm(list(x), p, precision)
            report["p"] = comparison(lhs, rhs)
            report["p"]["constant"] = m
    return report


def membership_evidence(
    gen: PrefixGenerator,
    lam: LambdaSeq,
    space: str,
    sweep=DEFAULT_SWEEP,
    precision: int = DEFAULT_PRECISION,
) -> Verdict:
    """Finite evidence that the generated sequence lies in the named space.

    ``space`` is a spec read by ``normalize_space``: "l1" or "lp:<p>" (the
    p-norm of the image must stay bounded), "linf" (image sup bounded) or
    "c0" (image entries tend to zero).  When the generator's image is known
    to be finitely supported the quantity is finitely determined and the
    verdict is exact.
    """
    space, p = normalize_space(space)
    if space not in ("l1", "lp", "linf", "c0"):
        raise ParseError(f"unknown space {space!r}")

    deepest = max(sweep)
    image_support = gen.image_support

    if space == "c0":
        image = forward_transform(gen.prefix(deepest), lam)
        points = [
            (n + 1, abs(to_float(CertifiedReal.wrap(v).value)))
            for n, v in enumerate(image.values)
        ]
        # Claimed finite image support is verified on the window, not assumed.
        exact = image_support is not None and all(
            CertifiedReal.wrap(v).is_exact and CertifiedReal.wrap(v).value == 0
            for v in image.values[image_support:]
        )
        return classify_to_zero(points, stabilized_exactly=exact)

    norm_p = {"l1": P_ONE, "linf": P_INF}.get(space, p)
    # A prefix is prefix-exact, so one window at the deepest point serves
    # every point; a point below 1 raises what building it raises.
    lowest = min(sweep)
    window = gen.prefix(lowest if lowest < 1 else deepest).values
    points = []
    exact_values = []
    for n in sorted(sweep):
        est = space_norm(window[:n], lam, norm_p, precision)
        points.append((n, to_float(est.value.value)))
        exact_values.append(est.value.value)
    stabilized = False
    if image_support is not None and min(sweep) >= image_support:
        stabilized = all(v == exact_values[-1] for v in exact_values)
    return classify_growth(points, stabilized_exactly=stabilized)
