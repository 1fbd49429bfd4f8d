"""Dual-set machinery: the pairing matrices, the kernel quantities, and the
eight membership conditions d1..d8.

Given a candidate sequence a, pairing a against a space element x turns
into a triangle acting on the image y = Ex.  Two triangles appear: one for
absolute summability of (a_k x_k) (entries are inverse-column entries
scaled by a_n) and one for convergence of the partial sums (its kernel is
the quantity abar_k(n) below).  The conditions d1..d8 are suprema, series
and limits built from those triangles.  This module gives each one's value
at depth w; :func:`~fibspaces.matclasses._evidence`, the rule the class
conditions use, decides it: exactly at support + 1 for a finitely
supported candidate, else over nested windows up to the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import DomainError, ParseError
from .exactreal import CertifiedReal, Exponent, conjugate, dot, power_sum, to_fraction
from .matclasses import _column_power_sup, _evidence, _row_sup, _subset_sup
from .sequences import LambdaSeq, PrefixGenerator, fib_sq
from .spaces import normalize_space
from .triangles import DenseWindow
from .verdicts import Verdict, conjunction

CONDITION_IDS = ("d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8")


def _g_rows(a_vals, lam: LambdaSeq) -> list[list[Fraction]]:
    """Rows of the absolute-pairing triangle: inverse row n scaled by a_n,
    that is (a_n f_{n+1}^2) col_k below the diagonal and a_n diag_n on it,
    one product per entry from a kernel grown once, through len(a_vals)."""
    kern = lam.kernel.grow(len(a_vals))
    col, diag = kern.col, kern.diag
    rows = []
    for n, an in enumerate(a_vals):
        scale = an * fib_sq(n + 1)
        rows.append([scale * col[k] for k in range(n)] + [an * diag[n]])
    return rows


def alpha_matrix(a, lam: LambdaSeq) -> DenseWindow:
    """Pairing triangle for absolute summability: row n is the n-th
    inverse-triangle row scaled by a_n, so that row n applied to y = Ex
    gives a_n x_n exactly."""
    values = [to_fraction(v) for v in list(a)]
    return DenseWindow(tuple(tuple(row) for row in _g_rows(values, lam)))


def abar(a, lam: LambdaSeq, k: int, n: int) -> Fraction:
    """The kernel quantity for partial-sum pairing:

    lambda_k [ a_k f_{k+1}^2 / (gap(k) f_k f_{k+1})
               + (1/(gap(k) f_k f_{k+1}) - 1/(gap(k+1) f_{k+1} f_{k+2}))
                 * sum_{j=k+1}^{n} f_{j+1}^2 a_j ].

    Defined for 0 <= k < n within the window; any other (k, n) raises
    ``DomainError``.  This sums the tail directly, one entry at a time;
    :func:`_abar_table` is the fast route to whole tables.
    """
    values = list(a)
    if not 0 <= k < n:
        raise DomainError(f"need 0 <= k < n, got k={k}, n={n}")
    if n >= len(values):
        raise DomainError(f"index n={n} outside window of length {len(values)}")
    kern = lam.kernel.grow(k + 1)
    tail = dot((fib_sq(j + 1), Fraction(values[j])) for j in range(k + 1, n + 1))
    head = Fraction(values[k]) * fib_sq(k + 1) * kern.w[k]
    return kern.lam[k] * (head + (kern.w[k] - kern.w[k + 1]) * tail)


def beta_matrix(a, lam: LambdaSeq) -> DenseWindow:
    """Partial-sum pairing triangle: abar_k(n) below the diagonal, the
    diagonal weight scaled by a_n on it."""
    values = [to_fraction(v) for v in list(a)]
    diag = lam.kernel.grow(len(values)).diag
    rows = _abar_table(values, lam, len(values))
    return DenseWindow(tuple(
        tuple(row) + (diag[n] * values[n],) for n, row in enumerate(rows)
    ))


def apply_dense_row(window: DenseWindow, y, n: int):
    """Dot product of stored row n against a window (exact).  Zero entries
    are skipped, so a zero row gives Fraction(0) whatever y holds."""
    if not 0 <= n < window.size:
        raise DomainError(f"row {n} outside the stored {window.size}-window")
    return dot((c, y[k]) for k, c in enumerate(window.rows[n]) if c)


# ---------------------------------------------------------------------------
# Conditions d1..d8


@dataclass
class DualReport:
    condition: str
    verdict: Verdict
    sweep: tuple
    value: CertifiedReal | None
    lower_bound_only: bool
    params: dict

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict.to_json(),
            "sweep": [[float(a), float(b)] for a, b in self.sweep],
            "value": str(self.value) if self.value is not None else None,
            "lower_bound_only": self.lower_bound_only,
            "params": {k: str(v) for k, v in self.params.items()},
        }


def _abar_table(a_vals, lam, w) -> list[list[Fraction]]:
    """abar_k(n) for all k < n < w, in O(w^2) operations: w rows, row n
    holding n entries.  :func:`beta_matrix` and d4 at a non-integer q read
    it; d4 at an integer q, d6 and d8 take their row sizes from
    :func:`_rank_one_sizes` instead.

    With the prefix sums T_n = sum_{j<=n} f_{j+1}^2 a_j, abar_k(n) is
    base_k + col_k T_n, where base_k = a_k diag_k - col_k T_k.
    """
    if len(a_vals) < w:
        raise DomainError(f"window of length {len(a_vals)} is shorter than {w}")
    kern = lam.kernel.grow(w)
    a = [to_fraction(v) for v in a_vals[:w]]
    sums = kern.partial_sums(a)
    col = kern.col
    base = [a[k] * kern.diag[k] - col[k] * sums[k] for k in range(w)]
    return [[base[k] + col[k] * sums[n] for k in range(n)] for n in range(w)]


def _rank_one_sizes(a_vals, lam, w, q: int | None) -> list[Fraction]:
    """The size of each abar row n < w without building the row: the power
    sum sum_{k<n} |abar_k(n)|^q at an integer q >= 1, or max_{k<n}
    |abar_k(n)| for q None.  Each is the rational the table gives.

    Entry k of every row is base_k + col_k T_n (see :func:`_abar_table`).
    Over one positive denominator D_k, base_k = B_k / D_k and col_k =
    C_k / D_k, so at T_n = t/u the entry is (B_k u + C_k t) / (D_k u): its
    sign, and its size against another entry, are integer products.  The
    power sum is sum_i M_i(n) T_n^i, with the moments M_i(n) = sum_{k<n}
    s_k C(q,i) base_k^(q-i) col_k^i kept as running sums.  An even q needs
    no sign s_k; at an odd q a term moves the moments only when its sign
    flips, and a zero entry keeps its sign, since its term is 0 either way.
    """
    kern = lam.kernel.grow(w)
    a = [to_fraction(v) for v in a_vals[:w]]
    sums = kern.partial_sums(a)
    ints, shares, positive = [], [], []
    moments = [Fraction(0)] * (q + 1) if q else []
    sizes = [Fraction(0)]
    for n in range(1, w):
        col = kern.col[n - 1]
        base = a[n - 1] * kern.diag[n - 1] - col * sums[n - 1]
        d = lcm(base.denominator, col.denominator)
        ints.append((base.numerator * (d // base.denominator),
                     col.numerator * (d // col.denominator), d))
        t, u = sums[n].numerator, sums[n].denominator
        if q is None:
            top, bottom = 0, 1
            for b, c, den in ints:
                v = abs(b * u + c * t)
                if v * bottom > top * den:
                    top, bottom = v, den
            sizes.append(Fraction(top, bottom * u))
            continue
        shares.append([comb(q, i) * base ** (q - i) * col ** i for i in range(q + 1)])
        positive.append(True)
        moments = [m + s for m, s in zip(moments, shares[-1])]
        if q % 2:
            for k, (b, c, _) in enumerate(ints):
                v = b * u + c * t
                if v and (v > 0) != positive[k]:
                    positive[k] = v > 0
                    step = 2 if positive[k] else -2
                    moments = [m + step * s for m, s in zip(moments, shares[k])]
        size = Fraction(0)
        for m in reversed(moments):
            size = size * sums[n] + m
        sizes.append(size)
    return sizes


def dual_condition(
    a: PrefixGenerator,
    lam: LambdaSeq,
    condition: str,
    window: int = 32,
    p=None,
) -> DualReport:
    """Evaluate one membership condition by the rule of
    :func:`~fibspaces.matclasses._evidence`; this function gives only each
    condition's value at depth w, read from rows n < w of the pairing
    triangles.

    d1: subset-sup of column sums of the absolute-pairing triangle G (needs q);
    d2: sup over columns of absolute column sums of G;
    d3: convergence of the Fibonacci-square weighted series of a, read as
        the distance |T_{w-1} - T_{w//2}| between its partial sums;
    d4: sup over n of the q-power row sums of abar;
    d5: sup of the scaled diagonal;   d6: sup of |abar| over all (n, k);
    d7: the l1-distance between abar rows w - 1 and w // 2 tends to zero:
        d3's distance times sum_{k<w//2} |col_k|;
    d8: sup over n of absolute abar row sums, d4 at q = 1.

    A candidate with finite support s is read to s + 1 whatever the window:
    past s the rows of G are zero and every abar row is row s padded with
    zeros, so each condition takes one exact evaluation there and holds
    exactly, except a d1 whose subset search did not settle.  Any other
    candidate is read on nested windows up to the window, and its d1
    searches share one node budget.  d6, d8 and d4 at an integer q take
    the abar row sizes from their rank-one form (:func:`_rank_one_sizes`);
    only d4 at a non-integer q builds the rows.
    """
    if condition not in CONDITION_IDS:
        raise DomainError(f"unknown condition {condition!r}")
    if window < 4:
        raise DomainError("window must be >= 4")
    q = Fraction(1) if condition == "d8" else None
    if condition in ("d1", "d4"):
        if p is None:
            raise DomainError(f"{condition} needs the space exponent p")
        q = conjugate(p)
        if q.is_infinite:
            raise DomainError(f"{condition} with q = inf is not a sum condition")
        q = q.as_fraction()

    finite = a.support is not None
    bound = a.support + 1 if finite else window
    vals = [to_fraction(v) for v in a.prefix(bound)]
    params = {"lambda": lam.describe(), "window": window, "p": p}
    if condition == "d1":
        g_rows = _g_rows(vals, lam)
        found, value, verdict = _subset_sup(finite, bound, lambda w: g_rows[:w], q)
        return DualReport(condition, verdict, verdict.sweep, value, not found.enumerated, params)
    if condition in ("d3", "d7"):
        sums = lam.kernel.partial_sums(vals)

        def value_at(w):
            dist = abs(sums[w - 1] - sums[w // 2])
            if condition == "d7":
                dist *= sum(map(abs, lam.kernel.grow(w // 2).col[:w // 2]), Fraction(0))
            return CertifiedReal.exact(dist)
    elif condition == "d2":
        value_at = _column_power_sup(_g_rows(vals, lam).__getitem__, 1)
    else:
        if condition == "d5":
            diag = lam.kernel.grow(bound).diag
            sizes = [abs(diag[n] * an) for n, an in enumerate(vals)]
        elif condition == "d6" or q.denominator == 1:
            sizes = _rank_one_sizes(vals, lam, bound, None if condition == "d6" else q.numerator)
        else:
            sizes = [power_sum(row, q) for row in _abar_table(vals, lam, bound)]
        value_at = _row_sup(sizes.__getitem__)
    verdict = _evidence(finite, bound, value_at, to_zero=condition in ("d3", "d7"))
    # d3 reports the weighted series from j = 1: T_n less its j = 0 term
    value = (CertifiedReal.exact(sums[-1] - sums[0]) if condition == "d3"
             else verdict.value if finite else value_at(bound))
    return DualReport(condition, verdict, verdict.sweep, value, False, params)


# ---------------------------------------------------------------------------
# Combined dual membership


_BETA_TABLE = {
    "lp": ("d3", "d4", "d5"),
    "l1": ("d3", "d5", "d6"),
    "linf": ("d7", "d8"),
}
_GAMMA_TABLE = {
    "l1": ("d5", "d6"),
    "lp": ("d5", "d8"),
    "linf": ("d5", "d8"),
}


def dual_membership(
    a: PrefixGenerator,
    lam: LambdaSeq,
    space: str,
    kind: str,
    window: int = 32,
) -> dict:
    """Combined alpha/beta/gamma dual membership evidence.

    The condition set is the classical characterization for the given
    space and dual kind; the result carries the per-condition reports
    and their conjunction.  ``space`` is a spec read by ``normalize_space``,
    such as "l1" or "lp:2"; the space must be l1, lp or linf.
    """
    space, p_norm = normalize_space(space)
    if space not in _BETA_TABLE:
        raise ParseError(f"unknown space {space!r}")
    if kind == "alpha":
        conditions = ("d2",) if space == "l1" else ("d1",)
    elif kind == "beta":
        conditions = _BETA_TABLE[space]
    elif kind == "gamma":
        conditions = _GAMMA_TABLE[space]
    else:
        raise ParseError(f"unknown dual kind {kind!r}")

    # d1/d4 consume the conjugate exponent: lp asks for both, linf for d1
    # alone, with q = 1 for the sup-normed space.
    p_for_q = p_norm if p_norm is not None else Exponent.infinity()
    reports = [
        dual_condition(a, lam, cond, window=window,
                       p=p_for_q if cond in ("d1", "d4") else None)
        for cond in conditions
    ]
    combined = conjunction([r.verdict for r in reports], label=f"{kind}-dual:{space}")
    return {
        "space": space,
        "kind": kind,
        "p": str(p_norm) if p_norm else None,
        "conditions": reports,
        "verdict": combined,
    }
