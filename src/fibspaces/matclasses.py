"""Matrix mapping classes, operator norms, and Hausdorff
measure-of-noncompactness estimates.

Everything here runs through one transformed matrix: given a source matrix
A and a weight family, row n of A is paired against the inverse triangle,
so hat(n, k) is the pairing quantity abar_k of the row a = (a_nj)_j with
its inner sum run to the end of the row (see
:class:`~fibspaces.sequences.Kernel`).

For the matrices accepted here (row-windowed, or triangles) every row is
finitely supported, so the inner series truncates and each hat entry is an
exact rational.  When the whole matrix has finitely many nonzero rows,
every mapping criterion, norm and noncompactness quantity below is finitely
determined; a triangle source instead yields nested-window evidence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import subsetsup
from .errors import (
    AlphaLimitUndetermined,
    DomainError,
    UnsupportedPair,
    UnsupportedTarget,
)
from .exactreal import (
    DEFAULT_PRECISION,
    P_INF,
    P_ONE,
    CertifiedReal,
    Exponent,
    conjugate,
    power_sum,
    rpow,
    to_float,
)
from .sequences import LambdaSeq
from .spaces import normalize_space
from .subsetsup import subset_power_sum
from .triangles import RowWindowedMatrix, Triangle
from .verdicts import (
    Status,
    Verdict,
    classify_growth,
    classify_to_zero,
    conjunction,
    sweep_points,
)

SOURCES = ("l1", "lp", "linf")


class HatMatrix:
    """Memoized table of transformed rows for a source matrix."""

    def __init__(self, source, lam: LambdaSeq):
        if not isinstance(source, (Triangle, RowWindowedMatrix)):
            raise DomainError("source must be a Triangle or RowWindowedMatrix")
        self.source = source
        self.lam = lam
        self._rows: dict[int, tuple[Fraction, ...]] = {}

    @property
    def finite_rows(self) -> bool:
        return self.source.row_bound is not None

    def effective_bound(self, window: int) -> int:
        bound = self.source.row_bound
        return bound if bound is not None else window

    def row(self, n: int) -> tuple[Fraction, ...]:
        cached = self._rows.get(n)
        if cached is not None:
            return cached
        if n < 0:
            raise DomainError(f"row index must be >= 0, got {n}")
        # Row n is finitely supported, so the series over j > k truncates.
        entries = self.lam.kernel.limit_row(
            [self.source.entry(n, j) for j in range(self.source.row_support(n))])
        while entries and entries[-1] == 0:
            entries.pop()
        row = tuple(entries)
        self._rows[n] = row
        return row

    def entry(self, n: int, k: int) -> Fraction:
        if k < 0:
            raise DomainError(f"column index must be >= 0, got {k}")
        row = self.row(n)
        if k >= len(row):
            return Fraction(0)
        return row[k]


def _check_window(window: int):
    """A sweep window must hold at least one row: an empty one would report
    the empty supremum 0 as an exact result."""
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")


def hat_entry(source, lam: LambdaSeq, n: int, k: int) -> Fraction:
    """The transformed entry hat(n, k)."""
    return HatMatrix(source, lam).entry(n, k)


# ---------------------------------------------------------------------------
# Hat-matrix quantities shared by the class checks, norms and noncompactness


def _evidence(finite: bool, bound: int, value_at, *, to_zero=False) -> Verdict:
    """The Verdict on a condition whose value at depth w is ``value_at(w)``,
    a certified real, on its supremum or, with ``to_zero``, on its limit 0.

    A ``finite`` source, whose rows past row bound - 1 are zero or repeat
    it (finitely many nonzero hat rows, a finitely supported dual
    candidate), takes one exact evaluation at the bound, and a limit is
    then exactly 0 and reads no value at all.  Any other source is read on
    the nested windows w of ``sweep_points(bound)``.  A sup-type value is
    the supremum over rows n < w, so it never decreases in w; its growth is
    classified.  A limit-type value reads row w - 1 against row w // 2, or
    against zero, a column condition only the columns k <= w / 4, which are
    already in their tail, and a noncompactness tail the norm of the rows
    w // 2 <= n < w; its decay is classified.  No value reads an index that
    runs into the window edge."""
    if finite:
        value = CertifiedReal.exact(0) if to_zero else value_at(bound)
        return Verdict(Status.HOLDS_EXACTLY, ((bound, to_float(value.value)),), value=value)
    sweep = [(w, to_float(value_at(w).value)) for w in sweep_points(bound)]
    return (classify_to_zero if to_zero else classify_growth)(sweep)


def _row_sup(per_row, *, tail=False):
    """``value_at`` for sup per_row(n) over the rows n < w or, with
    ``tail``, over w // 2 <= n < w; each row's size is computed once."""
    size = functools.cache(per_row)
    return lambda w: CertifiedReal.max_of(map(size, range(w // 2 if tail else 0, w)))


def _row_quantity_fn(hat: HatMatrix, p: Exponent, precision: int = DEFAULT_PRECISION):
    """Per-row size in the sup-target norm: row 1-norm for p = inf, row
    q-norm for finite p > 1, plain entry sup for p = 1."""
    if p.is_infinite:
        return lambda n: CertifiedReal.exact(
            sum((abs(v) for v in hat.row(n)), Fraction(0))
        )
    if p == P_ONE:
        return lambda n: CertifiedReal.exact(
            max((abs(v) for v in hat.row(n)), default=Fraction(0))
        )
    q = conjugate(p).as_fraction()
    inv_q = 1 / q
    return lambda n: rpow(power_sum(hat.row(n), q, precision), inv_q, precision)


def _column_power_sup(row, power):
    """``value_at`` for sup_k sum_{n < w} |row(n)[k]|^power: each column's
    sum runs on from the last w, adding the power sum of its new rows."""
    sums, done = {}, [0]

    def value_at(w):
        for k, col in enumerate(_columns(row, w, done[0])):
            sums[k] = sums.get(k, 0) + power_sum(col, power)
        done[0] = w
        return CertifiedReal.max_of(sums.values())

    return value_at


def _columns(row, bound: int, start: int = 0) -> list[list[Fraction]]:
    """Columns of the rows ``row(n)`` for start <= n < bound, zero-padded."""
    rows = [row(n) for n in range(start, bound)]
    width = max((len(row) for row in rows), default=0)
    return [[row[k] if k < len(row) else Fraction(0) for row in rows] for k in range(width)]


def _gap(hat: HatMatrix, w: int, *, cauchy: bool, columns: bool) -> CertifiedReal:
    """The distance a limit condition reads at depth w: row w - 1 against
    row w // 2 (``cauchy``) or against zero, as its largest entry over the
    columns k <= w / 4 (``columns``) or as its l1 norm over the whole row."""
    gaps = [abs(hat.entry(w - 1, k) - (hat.entry(w // 2, k) if cauchy else 0))
            for k in range(w // 4 + 1 if columns else w)]
    return CertifiedReal.exact(max(gaps) if columns else sum(gaps, Fraction(0)))


def _subset_searches(bound: int, rows_at, q, precision: int = DEFAULT_PRECISION):
    """``value_at`` for the power sum of the subset K that
    :func:`subset_power_sum` finds among the vectors ``rows_at(w)``, and
    the list of its (K, power sum) searches.  Each search takes an even
    part of the node budget (``subsetsup.NODE_LIMIT``, read at each call)
    the ones before it left, so a triangle's sweep costs about one search
    and a single search at the bound keeps the whole budget.  A search that
    did not settle gives a lower bound, never an exact value."""
    points, searches = sweep_points(bound), []

    def value_at(w):
        budget = subsetsup.NODE_LIMIT - sum(found.nodes for found, _ in searches)
        searches.append(subset_power_sum(
            rows_at(w), q, precision, budget // sum(1 for later in points if later >= w)))
        return searches[-1][1]

    return value_at, searches


def _subset_sup(finite: bool, bound: int, rows_at, q, precision: int = DEFAULT_PRECISION):
    """The subset K found among the vectors ``rows_at(w)`` read from rows
    n < w, its power sum, and the :func:`_evidence` Verdict on their
    supremum; K and the sum are those of the search at the bound."""
    value_at, searches = _subset_searches(bound, rows_at, q, precision)
    verdict = _evidence(finite, bound, value_at)
    found, value = searches[-1]
    if verdict.is_exact and not found.enumerated:
        verdict.status = Status.EVIDENCE_BOUNDED
    verdict.detail["enumerated"] = found.enumerated
    return found, value, verdict


# ---------------------------------------------------------------------------
# Mapping-class checks


@dataclass
class ClassReport:
    source: str
    target: str
    p: str | None
    target_p: str | None
    window: int
    conditions: list = field(default_factory=list)  # (condition id, Verdict)
    verdict: Verdict | None = None

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "p": self.p,
            "target_p": self.target_p,
            "window": self.window,
            "conditions": [[cid, v.to_json()] for cid, v in self.conditions],
            "verdict": self.verdict.to_json() if self.verdict else None,
        }


_CLASS_TABLE = {
    ("lp", "linf"): ("row-series-exists", "row-diag-scaled-bounded",
                     "row-qnorm-sup", "rows-in-beta-dual"),
    ("l1", "linf"): ("row-series-exists", "row-diag-scaled-bounded", "entry-sup"),
    ("linf", "linf"): ("row-series-exists", "row-diag-scaled-bounded",
                       "row-l1-sup", "partial-uniform"),
    ("l1", "c"): ("row-series-exists", "row-diag-scaled-bounded", "entry-sup",
                  "column-limits"),
    ("lp", "c"): ("row-series-exists", "row-diag-scaled-bounded", "row-qnorm-sup",
                  "rows-in-beta-dual", "column-limits"),
    ("linf", "c"): ("row-series-exists", "row-diag-scaled-bounded",
                    "partial-uniform", "row-l1-to-alpha"),
    ("l1", "c0"): ("row-series-exists", "row-diag-scaled-bounded", "entry-sup",
                   "column-limits-zero"),
    ("lp", "c0"): ("row-series-exists", "row-diag-scaled-bounded", "row-qnorm-sup",
                   "rows-in-beta-dual", "column-limits-zero"),
    ("linf", "c0"): ("row-series-exists", "row-diag-scaled-bounded",
                     "partial-uniform", "row-l1-limit-zero"),
    ("l1", "l1"): ("row-series-exists", "row-diag-scaled-bounded",
                   "entry-sup", "column-sum-sup"),
    ("lp", "l1"): ("row-series-exists", "row-diag-scaled-bounded", "row-qnorm-sup",
                   "rows-in-beta-dual", "row-subset-sup"),
    ("linf", "l1"): ("row-series-exists", "row-diag-scaled-bounded",
                     "partial-uniform", "row-subset-sup"),
    ("l1", "lp"): ("row-series-exists", "row-diag-scaled-bounded", "column-pnorm-sup"),
    ("linf", "lp"): ("row-series-exists", "row-diag-scaled-bounded",
                     "row-abs-converges", "column-subset-sup"),
}


def class_check(
    source_matrix,
    lam: LambdaSeq,
    source: str,
    target: str,
    window: int = 24,
) -> ClassReport:
    """Check the conditions of the governing mapping-class characterization
    for the pair (source space, target space), each with a Verdict.  Each
    space is a spec read by ``normalize_space``, such as "l1" or "lp:2"."""
    src, p_norm = normalize_space(source)
    tgt, tp_norm = normalize_space(target)
    if src not in SOURCES:
        raise UnsupportedPair(f"unsupported source {source!r}")
    key = (src, tgt)
    if key not in _CLASS_TABLE:
        raise UnsupportedPair(f"no characterization for {src} -> {tgt}")

    _check_window(window)
    hat = HatMatrix(source_matrix, lam)
    bound = hat.effective_bound(window)
    q_frac = conjugate(p_norm).as_fraction() if p_norm is not None else Fraction(1)

    conditions: list[tuple[str, Verdict]] = []
    for cid in _CLASS_TABLE[key]:
        conditions.append((cid, _evaluate_class_condition(
            cid, hat, lam, bound, q_frac=q_frac, tp_norm=tp_norm,
        )))
    overall = conjunction([v for _, v in conditions], label=f"{src}->{tgt}")
    return ClassReport(
        source=src, target=tgt,
        p=str(p_norm) if p_norm else None,
        target_p=str(tp_norm) if tp_norm else None,
        window=window, conditions=conditions, verdict=overall,
    )


def _evaluate_class_condition(cid, hat: HatMatrix, lam, bound, *, q_frac, tp_norm) -> Verdict:
    src_matrix = hat.source

    if cid in ("row-series-exists", "row-abs-converges", "rows-in-beta-dual",
               "partial-uniform"):
        # Every accepted source has finitely supported rows.  A finitely
        # supported row pairs with every x in a finite sum, so its weighted
        # series truncates and it lies in the beta-dual of every sequence
        # space.  Row n's partial rows equal row n once the stop m reaches
        # its support, so partial-uniform holds row by row; it asks for no
        # uniformity in n (E's distance at m = n - 1 grows with n).
        return Verdict(Status.HOLDS_EXACTLY,
                       detail={"reason": "rows finitely supported"})

    if cid == "row-diag-scaled-bounded":
        supports = [src_matrix.row_support(n) for n in range(bound)]
        diag = lam.kernel.grow(max(supports, default=0)).diag
        worst = max(
            (abs(diag[k] * src_matrix.entry(n, k))
             for n, support in enumerate(supports) for k in range(support)),
            default=Fraction(0),
        )
        return Verdict(Status.HOLDS_EXACTLY, value=CertifiedReal.exact(worst),
                       detail={"reason": "per-row finite support"})

    if cid == "row-qnorm-sup":
        return _evidence(hat.finite_rows, bound,
                         _row_sup(lambda n: power_sum(hat.row(n), q_frac)))

    if cid in ("entry-sup", "row-l1-sup"):
        p = P_ONE if cid == "entry-sup" else P_INF
        return _evidence(hat.finite_rows, bound, _row_sup(_row_quantity_fn(hat, p)))

    if cid in ("column-sum-sup", "column-pnorm-sup"):
        power = 1 if cid == "column-sum-sup" else tp_norm.as_fraction()
        return _evidence(hat.finite_rows, bound, _column_power_sup(hat.row, power))

    if cid in ("column-limits", "column-limits-zero", "row-l1-to-alpha", "row-l1-limit-zero"):
        # The column limits alpha, and Schur's row distance to them, are
        # read in Cauchy form; into c0 both are read against zero.
        cauchy, columns = not cid.endswith("zero"), cid.startswith("column")
        return _evidence(hat.finite_rows, bound,
                         lambda w: _gap(hat, w, cauchy=cauchy, columns=columns), to_zero=True)

    if cid in ("row-subset-sup", "column-subset-sup"):
        if cid == "row-subset-sup":
            rows_at, q = (lambda w: map(hat.row, range(w))), q_frac
        else:
            rows_at, q = (lambda w: _columns(hat.row, w)), tp_norm.as_fraction()
        found, value, verdict = _subset_sup(hat.finite_rows, bound, rows_at, q)
        verdict.value = value
        verdict.detail["subset"] = found.subset
        return verdict

    raise DomainError(f"unknown condition {cid!r}")


# ---------------------------------------------------------------------------
# Operator norms


@dataclass
class OpNormResult:
    kind: str  # "exact" | "bracket" | "evidence"
    value: CertifiedReal | None = None
    bracket: tuple[CertifiedReal, CertifiedReal] | None = None
    verdict: Verdict | None = None
    sweep: tuple = ()

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.value is not None:
            out["value"] = str(self.value)
        if self.bracket is not None:
            out["bracket"] = [str(self.bracket[0]), str(self.bracket[1])]
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_json()
        if self.sweep:
            out["sweep"] = [[float(a), float(b)] for a, b in self.sweep]
        return out


def operator_norm(
    source_matrix,
    lam: LambdaSeq,
    p,
    target: str = "linf",
    window: int = 32,
    precision: int = DEFAULT_PRECISION,
) -> OpNormResult:
    """Operator norm of the matrix map out of the weighted space.

    Into a sup-normed target the norm is the supremum of per-row sizes
    (exact for finitely supported matrices).  Into the absolutely summable
    target with p > 1 only the subset-supremum quantity v is available and
    the norm lies in [v, 4v]; for p = 1 the column-sum supremum is the norm
    exactly.
    """
    p = Exponent.of(p)
    _check_window(window)
    hat = HatMatrix(source_matrix, lam)
    bound = hat.effective_bound(window)

    if target in ("linf", "c", "c0"):
        verdict = _evidence(hat.finite_rows, bound,
                            _row_sup(_row_quantity_fn(hat, p, precision)))
    elif target == "l1" and p == P_ONE:
        verdict = _evidence(hat.finite_rows, bound, _column_power_sup(hat.row, 1))
    elif target == "l1":
        q_frac = conjugate(p).as_fraction()
        _, total, verdict = _subset_sup(
            hat.finite_rows, bound, lambda w: map(hat.row, range(w)), q_frac, precision
        )
        value = rpow(total, 1 / q_frac, precision)
        return OpNormResult(
            kind="bracket",
            bracket=(value, value * Fraction(4)),
            value=value,
            verdict=replace(verdict, value=None),  # it rates the power sum, not the norm
        )
    else:
        raise UnsupportedTarget(f"no operator-norm formula for target {target!r}")
    if hat.finite_rows:
        return OpNormResult(kind="exact", value=verdict.value, sweep=verdict.sweep)
    return OpNormResult(kind="evidence", verdict=verdict, sweep=verdict.sweep)


# ---------------------------------------------------------------------------
# Hausdorff measure of noncompactness

# The compactness label of each status of the noncompactness verdict.
_COMPACTNESS = {
    Status.HOLDS_EXACTLY: "compact",
    Status.EVIDENCE_BOUNDED: "evidence-compact",
    Status.EVIDENCE_DIVERGING: "evidence-noncompact",
    Status.INCONCLUSIVE: "inconclusive",
}


@dataclass
class MncEstimate:
    target: str
    p: str
    sweep: tuple  # (w, tail norm of the rows w // 2 <= n < w) pairs
    limit: CertifiedReal | None
    bracket: tuple[CertifiedReal, CertifiedReal] | None
    exact: bool
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "p": self.p,
            "sweep": [[int(r), float(v)] for r, v in self.sweep],
            "limit": str(self.limit) if self.limit is not None else None,
            "bracket": [str(self.bracket[0]), str(self.bracket[1])]
            if self.bracket
            else None,
            "exact": self.exact,
            "verdict": self.verdict.to_json(),
        }

    def compactness(self) -> Verdict:
        """Compactness of the matrix operator: exactly compact when the
        noncompactness measure is exactly zero, otherwise labelled from the
        verdict on its sweep."""
        inner = self.verdict
        return Verdict(inner.status, self.sweep, label=_COMPACTNESS[inner.status],
                       value=inner.value, growth=inner.growth)


def noncompactness_estimate(
    source_matrix,
    lam: LambdaSeq,
    p,
    target: str = "c0",
    r_max: int = 32,
    precision: int = DEFAULT_PRECISION,
) -> MncEstimate:
    """Sweep of the tail quantity whose limit is (or brackets) the Hausdorff
    measure of noncompactness of the matrix operator, and the
    :func:`_evidence` Verdict that it tends to zero.

    At each depth w of ``sweep_points(r_max + 8)`` the quantity is the
    operator norm of :func:`operator_norm` for the same p and target, read
    on the hat rows w // 2 <= n < w alone: the largest row size into "c0"
    and "c", the largest absolute column sum into "l1" at p = 1, and the
    q-th root of the subset supremum into "l1" at p > 1.  Its limit is the
    measure into "c0", brackets it within a factor of two into "c" (which
    needs exact column limits, available only for finitely supported
    matrices), is the measure into "l1" at p = 1, and brackets it within a
    factor of four at p > 1.  A matrix with finitely many nonzero rows has
    a tail that vanishes past them: its limit is exactly 0, and its sweep
    is the one point (row bound, 0).
    """
    if r_max < 4:
        raise DomainError("r_max must be >= 4")
    p = Exponent.of(p)
    hat = HatMatrix(source_matrix, lam)
    bound = hat.effective_bound(r_max + 8)

    if target not in ("c0", "c", "l1"):
        raise UnsupportedTarget(f"no noncompactness formula for target {target!r}")
    if target == "c" and not hat.finite_rows:
        raise AlphaLimitUndetermined(
            "target 'c' needs exact column limits (finitely supported matrix)"
        )

    if target in ("c0", "c"):
        value_at = _row_sup(_row_quantity_fn(hat, p, precision), tail=True)
    elif p == P_ONE:
        def value_at(w):
            return CertifiedReal.max_of(power_sum(col, 1) for col in _columns(hat.row, w, w // 2))
    else:
        q_frac = conjugate(p).as_fraction()
        power_sum_at, _ = _subset_searches(
            bound, lambda w: map(hat.row, range(w // 2, w)), q_frac, precision)

        def value_at(w):
            return rpow(power_sum_at(w), 1 / q_frac, precision)
    verdict = _evidence(hat.finite_rows, bound, value_at, to_zero=True)

    exact = verdict.is_exact
    limit = verdict.value  # exactly 0 for a finite matrix, else None
    brackets = exact and (target == "c" or (target == "l1" and p != P_ONE))
    return MncEstimate(
        target=target, p=str(p), sweep=verdict.sweep, limit=limit,
        bracket=(limit, limit) if brackets else None, exact=exact, verdict=verdict,
    )


def compactness_verdict(
    source_matrix,
    lam: LambdaSeq,
    p,
    target: str = "c0",
    r_max: int = 32,
    precision: int = DEFAULT_PRECISION,
) -> Verdict:
    """The compactness verdict of :meth:`MncEstimate.compactness`."""
    return noncompactness_estimate(
        source_matrix, lam, p, target, r_max, precision
    ).compactness()
