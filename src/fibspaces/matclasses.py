"""Matrix mapping classes, operator norms, and Hausdorff
measure-of-noncompactness estimates.

Everything here runs through one transformed matrix: given a source matrix
A and a weight family, row n of A is paired against the inverse triangle,
giving entries

    hat(n, k) = lambda_k [ f_{k+1}^2 a_nk / (gap(k) f_k f_{k+1})
                + (1/(gap(k) f_k f_{k+1}) - 1/(gap(k+1) f_{k+1} f_{k+2}))
                  * sum_{j>k} f_{j+1}^2 a_nj ].

For the matrices accepted here (row-windowed, or triangles) every row is
finitely supported, so the inner series truncates and each hat entry is an
exact rational.  When the whole matrix has finitely many nonzero rows,
every mapping criterion, norm and noncompactness quantity below is finitely
determined; a triangle source instead yields sweep-based evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .duals import _sweep_points, diag_coeff, dual_membership
from .errors import (
    AlphaLimitUndetermined,
    DomainError,
    UnsupportedPair,
    UnsupportedTarget,
)
from .exactreal import (
    DEFAULT_PRECISION,
    CertifiedReal,
    Exponent,
    conjugate,
    power_sum,
    rpow,
)
from .sequences import LambdaSeq, from_values, fib
from .subsetsup import RANDOM_SUBSETS, subset_sup
from .triangles import RowWindowedMatrix, Triangle
from .verdicts import (
    Status,
    Verdict,
    classify_growth,
    classify_to_zero,
    conjunction,
)

SOURCES = ("l1", "lp", "linf")
TARGETS = ("linf", "c", "c0", "l1", "lp")


def _row_support(a, n: int) -> int:
    if isinstance(a, Triangle):
        return n + 1
    return a.row_support(n)


def _row_bound(a) -> int | None:
    """Index past the last nonzero row, or None for a genuine triangle."""
    if isinstance(a, Triangle):
        return None
    return a.row_bound


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
        return _row_bound(self.source) is not None

    @property
    def row_bound(self) -> int | None:
        return _row_bound(self.source)

    def effective_bound(self, window: int) -> int:
        bound = _row_bound(self.source)
        return bound if bound is not None else window

    def row(self, n: int) -> tuple[Fraction, ...]:
        cached = self._rows.get(n)
        if cached is not None:
            return cached
        # Row n is finitely supported, so the series over j > k truncates.
        entries = self.lam.kernel.limit_row(self._source_row(n))
        while entries and entries[-1] == 0:
            entries.pop()
        row = tuple(entries)
        self._rows[n] = row
        return row

    def _source_row(self, n: int) -> list[Fraction]:
        return [self.source.entry(n, j) for j in range(_row_support(self.source, n))]

    def partial_row(self, n: int, m: int) -> list[Fraction]:
        """Row n with every inner sum stopped at j = m."""
        values = self._source_row(n)
        kern = self.lam.kernel.grow(len(values))
        sums = kern.partial_sums(values)
        stop = min(m, len(values) - 1)
        return [kern.abar(values, sums, k, max(k, stop)) for k in range(len(values))]

    def entry(self, n: int, k: int) -> Fraction:
        row = self.row(n)
        if k >= len(row):
            return Fraction(0)
        return row[k]


def hat_entry(source, lam: LambdaSeq, n: int, k: int, m: int | None = None) -> Fraction:
    """The transformed entry; with ``m`` given, the partial version whose
    inner sum stops at j = m."""
    hat = HatMatrix(source, lam)
    if m is None:
        return hat.entry(n, k)
    row = hat.partial_row(n, m)
    return row[k] if k < len(row) else Fraction(0)


def hat_entry_via_inverse(source, lam: LambdaSeq, n: int, k: int) -> Fraction:
    """Independent route: pair row n against column k of the closed-form
    inverse triangle (transpose pairing).  Must equal :func:`hat_entry`."""
    support = _row_support(source, n)
    return sum(
        (source.entry(n, j) * lam.kernel.inverse_entry(j, k) for j in range(k, support)),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# The lifted matrix for targets that are themselves triangle domains


class LiftedMatrix:
    """Row-averaged lift of a source matrix by a weight family:

    entry (n, k) = (1/lambda_n) sum_{i<=n} gap(i)
                   (f_i/f_{i+1} a_ik - f_{i+1}/f_i a_{i-1,k}).

    Equals the triangle product E . A, which is the standard reduction for
    mapping INTO a triangle domain.
    """

    def __init__(self, source, lam: LambdaSeq, name: str = "lifted"):
        self.source = source
        self.lam = lam
        self.name = name
        self._memo: dict[tuple[int, int], Fraction] = {}

    def entry(self, n: int, k: int) -> Fraction:
        key = (n, k)
        v = self._memo.get(key)
        if v is not None:
            return v
        lam = self.lam
        acc = Fraction(0)
        for i in range(n + 1):
            prev = self.source.entry(i - 1, k) if i >= 1 else Fraction(0)
            acc += lam.gap(i) * (
                Fraction(fib(i), fib(i + 1)) * self.source.entry(i, k)
                - Fraction(fib(i + 1), fib(i)) * prev
            )
        v = acc / lam.value(n)
        self._memo[key] = v
        return v

    def window(self, nrows: int, ncols: int) -> tuple:
        return tuple(
            tuple(self.entry(n, k) for k in range(ncols)) for n in range(nrows)
        )


def premultiply_e(source, lam: LambdaSeq) -> LiftedMatrix:
    """The lift against the given weight family (a second family gives the
    primed variant for domain-to-domain mappings)."""
    return LiftedMatrix(source, lam)


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
                       "column-sum-sup", "partial-uniform"),
    ("l1", "c"): ("row-series-exists", "row-diag-scaled-bounded", "column-limits"),
    ("lp", "c"): ("row-series-exists", "row-diag-scaled-bounded", "row-qnorm-sup",
                  "rows-in-beta-dual", "column-limits"),
    ("linf", "c"): ("row-series-exists", "row-diag-scaled-bounded",
                    "partial-uniform", "row-l1-to-alpha"),
    ("l1", "c0"): ("row-series-exists", "row-diag-scaled-bounded", "column-limits-zero"),
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


def _normalize_kind(kind: str, p) -> tuple[str, Exponent | None]:
    if kind == "lp":
        if p is None:
            raise DomainError("kind 'lp' needs an exponent")
        p = Exponent.of(p)
        if p.is_infinite:
            return "linf", None
        if p.as_fraction() == 1:
            return "l1", None
        return "lp", p
    if kind in ("l1", "linf", "c", "c0"):
        return kind, None
    raise DomainError(f"unknown space kind {kind!r}")


def _sup_condition(hat: HatMatrix, window: int, per_row, *, to_zero=False) -> Verdict:
    """Evaluate sup_n (or lim_n) of a per-row certified quantity; finitely
    determined when the matrix has finitely many nonzero rows."""
    bound = hat.effective_bound(window)
    values = [CertifiedReal.wrap(per_row(n)) for n in range(bound)]
    sweep = tuple((n, float(v.value)) for n, v in enumerate(values))
    if hat.finite_rows:
        if to_zero:
            # Rows vanish beyond the bound, so the limit is exactly zero.
            return Verdict(Status.HOLDS_EXACTLY, sweep, value=CertifiedReal.exact(0))
        return Verdict(Status.HOLDS_EXACTLY, sweep, value=CertifiedReal.max_of(values))
    points = [(n + 1, float(v.value)) for n, v in enumerate(values)]
    if to_zero:
        return classify_to_zero(points)
    running = []
    cur = 0.0
    for x, v in points:
        cur = max(cur, v)
        running.append((x, cur))
    return classify_growth(running)


def class_check(
    source_matrix,
    lam: LambdaSeq,
    source: str,
    target: str,
    p=None,
    target_p=None,
    window: int = 24,
    precision: int = DEFAULT_PRECISION,
    seed: int = 0,
) -> ClassReport:
    """Check the conditions of the governing mapping-class characterization
    for the pair (source space, target space), each with a Verdict."""
    src, p_norm = _normalize_kind(source, p)
    if src not in SOURCES:
        raise UnsupportedPair(f"unsupported source {source!r}")
    tgt, tp_norm = _normalize_kind(target, target_p)
    if tgt not in TARGETS:
        raise UnsupportedPair(f"unsupported target {target!r}")
    key = (src, tgt)
    if key not in _CLASS_TABLE:
        raise UnsupportedPair(f"no characterization for {src} -> {tgt}")
    if tgt == "lp" and tp_norm is None:
        raise UnsupportedPair("target 'lp' needs target_p strictly between 1 and inf")

    hat = HatMatrix(source_matrix, lam)
    bound = hat.effective_bound(window)
    q = conjugate(p_norm) if p_norm is not None else Exponent.of(1)
    q_frac = q.as_fraction() if not q.is_infinite else None

    conditions: list[tuple[str, Verdict]] = []
    for cid in _CLASS_TABLE[key]:
        conditions.append((cid, _evaluate_class_condition(
            cid, hat, lam, bound, window,
            q_frac=q_frac, p_norm=p_norm, tp_norm=tp_norm, seed=seed,
        )))
    overall = conjunction([v for _, v in conditions], label=f"{src}->{tgt}")
    return ClassReport(
        source=src, target=tgt,
        p=str(p_norm) if p_norm else None,
        target_p=str(tp_norm) if tp_norm else None,
        window=window, conditions=conditions, verdict=overall,
    )


def _evaluate_class_condition(
    cid, hat: HatMatrix, lam, bound, window, *, q_frac, p_norm, tp_norm, seed
) -> Verdict:
    src_matrix = hat.source

    if cid == "row-series-exists":
        # Every accepted source has finitely supported rows, so the weighted
        # row series truncates; this holds structurally for all rows.
        return Verdict(Status.HOLDS_EXACTLY,
                       detail={"reason": "rows finitely supported"})

    if cid == "row-diag-scaled-bounded":
        worst = Fraction(0)
        for n in range(bound):
            support = _row_support(src_matrix, n)
            for k in range(support):
                worst = max(worst, abs(diag_coeff(lam, k) * src_matrix.entry(n, k)))
        return Verdict(Status.HOLDS_EXACTLY, value=CertifiedReal.exact(worst),
                       detail={"reason": "per-row finite support"})

    if cid == "row-abs-converges":
        return Verdict(Status.HOLDS_EXACTLY,
                       detail={"reason": "rows finitely supported"})

    if cid == "row-qnorm-sup":
        if q_frac is None:
            raise UnsupportedPair("row q-norms need a finite conjugate exponent")
        return _sup_condition(
            hat, window,
            lambda n: power_sum(hat.row(n), q_frac),
        )

    if cid == "entry-sup":
        return _sup_condition(
            hat, window,
            lambda n: max((abs(v) for v in hat.row(n)), default=Fraction(0)),
        )

    if cid == "column-sum-sup":
        width = max((len(hat.row(n)) for n in range(bound)), default=0)
        sums = [Fraction(0)] * width
        for n in range(bound):
            for k, v in enumerate(hat.row(n)):
                sums[k] += abs(v)
        best = max(sums, default=Fraction(0))
        if hat.finite_rows:
            return Verdict(Status.HOLDS_EXACTLY, value=CertifiedReal.exact(best))
        return classify_growth(
            [(k + 1, float(s)) for k, s in enumerate(sums)]
        )

    if cid == "column-pnorm-sup":
        power = tp_norm.as_fraction()
        rows = [hat.row(n) for n in range(bound)]
        width = max((len(row) for row in rows), default=0)
        totals = [
            power_sum((row[k] for row in rows if k < len(row)), power)
            for k in range(width)
        ]
        if not totals:
            return Verdict(Status.HOLDS_EXACTLY, value=CertifiedReal.exact(0))
        if hat.finite_rows:
            return Verdict(Status.HOLDS_EXACTLY, value=CertifiedReal.max_of(totals))
        return classify_growth([(k + 1, float(t.value)) for k, t in enumerate(totals)])

    if cid == "rows-in-beta-dual":
        per_row = []
        exact = True
        for n in range(bound):
            support = _row_support(src_matrix, n)
            row = [src_matrix.entry(n, k) for k in range(support)]
            gen = from_values(row, name=f"row:{n}")
            space = "lp" if p_norm is not None else "linf"
            result = dual_membership(
                gen, lam, space, "beta",
                p=p_norm, window=max(8, min(window, support + 8)), seed=seed,
            )
            per_row.append(result["verdict"])
            exact = exact and result["verdict"].is_exact
        combined = conjunction(per_row, label="rows-in-beta-dual")
        if combined.is_exact and not hat.finite_rows:
            # Unchecked rows remain, so exactness cannot be claimed globally.
            combined = Verdict(Status.EVIDENCE_BOUNDED, combined.sweep,
                               label=combined.label, detail=combined.detail)
        return combined

    if cid == "partial-uniform":
        # D(m) = max_k sum_n |hat(n,k; m) - hat(n,k)|, which vanishes once m
        # clears every row support.
        max_support = max(
            (_row_support(src_matrix, n) for n in range(bound)), default=0
        )
        points = []
        exact_zero_seen = False
        for m in _sweep_points(max(window, max_support + 2)):
            total = Fraction(0)
            for n in range(bound):
                row = hat.row(n)
                partial = hat.partial_row(n, m)
                for k in range(len(row)):
                    total += abs(partial[k] - row[k])
            points.append((m, float(total)))
            if m >= max_support and total == 0:
                exact_zero_seen = True
        stabilized = hat.finite_rows and exact_zero_seen
        return classify_to_zero(points, stabilized_exactly=stabilized)

    if cid == "column-limits":
        return _column_limit_condition(hat, bound, window, reference="stable")

    if cid == "column-limits-zero":
        return _column_limit_condition(hat, bound, window, reference="zero")

    if cid == "row-l1-to-alpha":
        alpha = _alpha_vector(hat, bound, window)
        return _sup_condition(
            hat, window,
            lambda n: sum(
                (abs(v - alpha.get(k, Fraction(0))) for k, v in enumerate(hat.row(n))),
                Fraction(0),
            ) + sum(
                (abs(a) for k, a in alpha.items() if k >= len(hat.row(n))),
                Fraction(0),
            ),
            to_zero=True,
        )

    if cid == "row-l1-limit-zero":
        return _sup_condition(
            hat, window,
            lambda n: sum((abs(v) for v in hat.row(n)), Fraction(0)),
            to_zero=True,
        )

    if cid == "row-subset-sup":
        rows = [hat.row(n) for n in range(bound)]
        rows = [r for r in rows if any(r)]
        power = float(q_frac) if q_frac is not None else 1.0
        found = subset_sup(rows, power, seed=seed)
        val = power_sum(found.column_sums, q_frac if q_frac else Fraction(1))
        status = Status.HOLDS_EXACTLY if (found.enumerated and hat.finite_rows) \
            else Status.EVIDENCE_BOUNDED
        return Verdict(status, value=val,
                       detail={"enumerated": found.enumerated,
                               "subset": found.subset})

    if cid == "column-subset-sup":
        power = tp_norm.as_fraction()
        width = max((len(hat.row(n)) for n in range(bound)), default=0)
        cols = [
            [hat.entry(n, k) for n in range(bound)] for k in range(width)
        ]
        cols = [c for c in cols if any(c)]
        found = subset_sup(cols, float(power), seed=seed)
        val = power_sum(found.column_sums, power)
        status = Status.HOLDS_EXACTLY if (found.enumerated and hat.finite_rows) \
            else Status.EVIDENCE_BOUNDED
        return Verdict(status, value=val,
                       detail={"enumerated": found.enumerated,
                               "subset": found.subset})

    raise DomainError(f"unknown condition {cid!r}")


def _alpha_vector(hat: HatMatrix, bound: int, window: int) -> dict[int, Fraction]:
    """Column limits; exactly zero for finitely supported matrices (rows
    vanish beyond the bound), undetermined otherwise."""
    if not hat.finite_rows:
        raise AlphaLimitUndetermined(
            "column limits need finitely supported columns"
        )
    return {}


def _column_limit_condition(hat, bound, window, *, reference: str) -> Verdict:
    if hat.finite_rows:
        # All columns are eventually zero, so the limits exist (and are 0).
        value = CertifiedReal.exact(0)
        return Verdict(Status.HOLDS_EXACTLY, value=value,
                       detail={"alpha": "zero beyond row bound"})
    points = []
    if reference == "zero":
        for n in range(bound):
            row = hat.row(n)
            dist = max((abs(v) for v in row), default=Fraction(0))
            points.append((n + 1, float(dist)))
    else:
        # Cauchy-style evidence: entrywise distance between rows n and 2n.
        for n in range(1, bound):
            if 2 * n >= bound:
                break
            row, far = hat.row(n), hat.row(2 * n)
            width = max(len(row), len(far))
            dist = max(
                (
                    abs(
                        (row[k] if k < len(row) else Fraction(0))
                        - (far[k] if k < len(far) else Fraction(0))
                    )
                    for k in range(width)
                ),
                default=Fraction(0),
            )
            points.append((n + 1, float(dist)))
    return classify_to_zero(points)


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


def _row_quantity_fn(hat: HatMatrix, p: Exponent, precision):
    """Per-row size in the sup-target norm: row 1-norm for p = inf, row
    q-norm for finite p > 1, plain entry sup for p = 1."""
    if p.is_infinite:
        return lambda n: CertifiedReal.exact(
            sum((abs(v) for v in hat.row(n)), Fraction(0))
        )
    pf = p.as_fraction()
    if pf == 1:
        return lambda n: CertifiedReal.exact(
            max((abs(v) for v in hat.row(n)), default=Fraction(0))
        )
    q = conjugate(p).as_fraction()
    inv_q = 1 / q

    return lambda n: rpow(power_sum(hat.row(n), q, precision), inv_q, precision)


def operator_norm(
    source_matrix,
    lam: LambdaSeq,
    p,
    target: str = "linf",
    window: int = 32,
    precision: int = DEFAULT_PRECISION,
    seed: int = 0,
) -> OpNormResult:
    """Operator norm of the matrix map out of the weighted space.

    Into a sup-normed target the norm is the supremum of per-row sizes
    (exact for finitely supported matrices).  Into the absolutely summable
    target with p > 1 only the subset-supremum quantity v is available and
    the norm lies in [v, 4v]; for p = 1 the column-sum supremum is the norm
    exactly.
    """
    p = Exponent.of(p)
    hat = HatMatrix(source_matrix, lam)
    bound = hat.effective_bound(window)

    if target in ("linf", "c", "c0"):
        per_row = _row_quantity_fn(hat, p, precision)
        values = [per_row(n) for n in range(bound)]
        sweep = tuple((n, float(v.value)) for n, v in enumerate(values))
        if hat.finite_rows:
            return OpNormResult(
                kind="exact", value=CertifiedReal.max_of(values), sweep=sweep
            )
        running, cur = [], 0.0
        for n, v in sweep:
            cur = max(cur, v)
            running.append((n + 1, cur))
        return OpNormResult(
            kind="evidence", verdict=classify_growth(running), sweep=sweep
        )

    if target == "l1":
        if not p.is_infinite and p.as_fraction() == 1:
            width = max((len(hat.row(n)) for n in range(bound)), default=0)
            sums = [Fraction(0)] * width
            for n in range(bound):
                for k, v in enumerate(hat.row(n)):
                    sums[k] += abs(v)
            best = max(sums, default=Fraction(0))
            sweep = tuple((k, float(s)) for k, s in enumerate(sums))
            if hat.finite_rows:
                return OpNormResult(
                    kind="exact", value=CertifiedReal.exact(best), sweep=sweep
                )
            return OpNormResult(
                kind="evidence",
                verdict=classify_growth([(k + 1, float(s)) for k, s in enumerate(sums)]),
                sweep=sweep,
            )
        q = conjugate(p)
        q_frac = q.as_fraction()
        rows = [hat.row(n) for n in range(bound)]
        rows = [r for r in rows if any(r)]
        found = subset_sup(rows, float(q_frac), seed=seed)
        value = rpow(power_sum(found.column_sums, q_frac, precision), 1 / q_frac, precision)
        return OpNormResult(
            kind="bracket",
            bracket=(value, value * Fraction(4)),
            value=value,
            verdict=Verdict(
                Status.HOLDS_EXACTLY if found.enumerated and hat.finite_rows
                else Status.EVIDENCE_BOUNDED,
                detail={"enumerated": found.enumerated},
            ),
        )

    raise UnsupportedTarget(f"no operator-norm formula for target {target!r}")


# ---------------------------------------------------------------------------
# Hausdorff measure of noncompactness


@dataclass
class MncEstimate:
    target: str
    p: str
    sweep: tuple  # (r, s(r)) pairs
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
        noncompactness measure is exactly zero, otherwise classified from
        the tail sweep."""
        if self.exact and self.limit is not None and self.limit.value == 0:
            return Verdict(Status.HOLDS_EXACTLY, self.sweep, label="compact",
                           value=self.limit)
        inner = classify_to_zero(self.sweep)
        if inner.status is Status.EVIDENCE_BOUNDED:
            return Verdict(Status.EVIDENCE_BOUNDED, self.sweep,
                           label="evidence-compact", growth=inner.growth)
        if inner.status is Status.EVIDENCE_DIVERGING:
            return Verdict(Status.EVIDENCE_DIVERGING, self.sweep,
                           label="evidence-noncompact", growth=inner.growth)
        return Verdict(Status.INCONCLUSIVE, self.sweep, label="inconclusive",
                       growth=inner.growth)


def _tail_sweep(hat: HatMatrix, p: Exponent, target: str, bound: int, r_max: int,
                precision: int, seed: int) -> list[tuple[int, float]]:
    """The pairs (r, s(r)) for r <= r_max."""
    sweep: list[tuple[int, float]] = []
    if target in ("c0", "c"):
        # Column limits are exactly zero in the finite case, so both targets
        # share the same tail quantity.
        per_row = _row_quantity_fn(hat, p, precision)
        values = [per_row(n) for n in range(bound)]
        suffix: list[CertifiedReal] = [CertifiedReal.exact(0)] * (bound + 1)
        for n in range(bound - 1, -1, -1):
            suffix[n] = CertifiedReal.max_of((values[n], suffix[n + 1]))
        for r in range(r_max + 1):
            s_r = suffix[r] if r < bound else CertifiedReal.exact(0)
            sweep.append((r, float(s_r.value)))
    elif target == "l1":
        if not p.is_infinite and p.as_fraction() == 1:
            width = max((len(hat.row(n)) for n in range(bound)), default=0)
            for r in range(r_max + 1):
                sums = [Fraction(0)] * width
                for n in range(r, bound):
                    for k, v in enumerate(hat.row(n)):
                        sums[k] += abs(v)
                sweep.append((r, float(max(sums, default=Fraction(0)))))
        else:
            q_frac = conjugate(p).as_fraction()
            for r in range(r_max + 1):
                rows = [hat.row(n) for n in range(r, bound)]
                rows = [row for row in rows if any(row)]
                found = subset_sup(rows, float(q_frac), seed=seed,
                                   samples=min(RANDOM_SUBSETS, 2000))
                total = power_sum(found.column_sums, q_frac, precision)
                sweep.append((r, float(rpow(total, 1 / q_frac, precision).value)))
            # A subset feasible at r+1 is feasible at r, so tightening each
            # sampled lower bound by its successors keeps it a valid lower
            # bound and restores the monotonicity the true s(r) has.
            for i in range(len(sweep) - 2, -1, -1):
                r, v = sweep[i]
                sweep[i] = (r, max(v, sweep[i + 1][1]))
    return sweep


def noncompactness_estimate(
    source_matrix,
    lam: LambdaSeq,
    p,
    target: str = "c0",
    r_max: int = 32,
    precision: int = DEFAULT_PRECISION,
    seed: int = 0,
) -> MncEstimate:
    """Sweep of the tail quantity s(r) whose limit is (or brackets) the
    Hausdorff measure of noncompactness of the matrix operator.

    Targets: "c0" (limit equals the measure), "c" (limit brackets it within
    a factor of two; needs exact column limits, available only for finitely
    supported matrices), "l1" (p = 1 exact; p > 1 brackets within a factor
    of four via the subset supremum).
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

    sweep = _tail_sweep(hat, p, target, bound, r_max, precision, seed)
    # Tail suprema cannot grow as the tail shrinks.
    for (_, a), (_, b) in zip(sweep, sweep[1:]):
        if b > a + 1e-12:
            raise DomainError(f"tail sweep grows from {a!r} to {b!r}")

    if hat.finite_rows:
        # s(r) = 0 once r clears the last nonzero row: the limit is exact.
        limit: CertifiedReal | None = CertifiedReal.exact(0)
        exact = True
        verdict = Verdict(Status.HOLDS_EXACTLY, tuple(sweep),
                          value=limit, label="tail vanishes")
    else:
        limit = None
        exact = False
        verdict = classify_to_zero(sweep)

    bracket = None
    if limit is not None:
        if target == "c":
            bracket = (limit.divided_by(2) if limit.value else limit, limit)
        elif target == "l1" and (p.is_infinite or p.as_fraction() != 1):
            bracket = (limit, limit * Fraction(4))
    return MncEstimate(
        target=target, p=str(p), sweep=tuple(sweep),
        limit=limit, bracket=bracket, exact=exact, verdict=verdict,
    )


def compactness_verdict(
    source_matrix,
    lam: LambdaSeq,
    p,
    target: str = "c0",
    r_max: int = 32,
    precision: int = DEFAULT_PRECISION,
    seed: int = 0,
) -> Verdict:
    """The compactness verdict of :meth:`MncEstimate.compactness`."""
    return noncompactness_estimate(
        source_matrix, lam, p, target, r_max, precision, seed
    ).compactness()
