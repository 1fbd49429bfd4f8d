"""The golden-identity suite: every closed-form identity the library is
built around, checked end to end at full precision.

Each check is registered with an id and returns (passed, detail).  The CLI
exposes the suite as ``verify-paper``; the test-suite asserts the same
identities criterion by criterion.  All randomness is seeded, so a run is
reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .duals import alpha_matrix, apply_dense_row, beta_matrix, dual_membership
from .exactreal import CertifiedReal, Exponent, dot, rpow, to_fraction, window_norm
from .matclasses import (
    class_check,
    noncompactness_estimate,
    operator_norm,
)
from .sequences import LambdaSeq, SeqWindow, fib, unit_seq
from .spaces import parallelogram_check, space_norm, tail_constant
from .triangles import (
    RowWindowedMatrix,
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
    solve_triangle,
)
from .verdicts import Status
from .witnesses import gen_witness

LAMBDA_FAMILIES = (
    LambdaSeq.linear(1, 1),
    LambdaSeq.linear(2, 3),
    LambdaSeq.geometric(2, 1),
)
TRIALS = 100  # random cases per randomized check


@dataclass
class CheckResult:
    check_id: str
    description: str
    passed: bool
    detail: str


_REGISTRY: list[tuple[str, str, Callable]] = []


def _register(check_id: str, description: str):
    def wrap(fn):
        _REGISTRY.append((check_id, description, fn))
        return fn

    return wrap


def _random_window(rng: random.Random, n: int) -> SeqWindow:
    values = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)
    )
    return SeqWindow(values)


# -- Fibonacci layer --------------------------------------------------------


@_register("fib-cassini", "Cassini identity holds exactly for n in [1, 200]")
def _check_cassini(cfg):
    for n in range(1, 201):
        if fib(n - 1) * fib(n + 1) - fib(n) ** 2 != (-1) ** (n + 1):
            return False, f"fails at n={n}"
    return True, "200 indices, exact"


@_register("fib-ratio-bounds", "ratio bounds f_k/f_{k+1} <= 1 and f_{k+1}/f_k <= 2 for k <= 200")
def _check_ratios(cfg):
    for k in range(201):
        if Fraction(fib(k), fib(k + 1)) > 1 or Fraction(fib(k + 1), fib(k)) > 2:
            return False, f"fails at k={k}"
    return True, "201 indices, exact"


@_register("fib-golden-ratio", "f_101/f_100 is within 1e-12 of the golden ratio")
def _check_golden(cfg):
    ratio = CertifiedReal.exact(Fraction(fib(101), fib(100)))
    phi = (rpow(Fraction(5), Fraction(1, 2), 192) + 1).divided_by(2)
    gap = abs(ratio - phi)
    bound = Fraction(1, 10**12)
    ok = gap.hi < bound
    return ok, f"|ratio - phi| <= {float(gap.hi):.3e}"


# -- Triangle identities ----------------------------------------------------


@_register("inverse-identity", "composed triangle times its closed-form inverse is the identity")
def _check_inverse_identity(cfg):
    n = cfg.get("n", 64)
    ident = identity_triangle().window(n)
    for lam in LAMBDA_FAMILIES:
        e = e_matrix(lam)
        g = e_inverse_matrix(lam)
        if compose(e, g, n) != ident:
            return False, f"E * Einv != I for {lam.describe()}"
        if compose(g, e, n) != ident:
            return False, f"Einv * E != I for {lam.describe()}"
    return True, f"both orders, {n}x{n}, three weight families, bit-exact"


@_register("composition", "closed-form composed triangle equals the product of its factors")
def _check_composition(cfg):
    n = 40
    for lam in LAMBDA_FAMILIES:
        direct = e_matrix(lam).window(n)
        product = compose(lambda_matrix(lam), fhat_matrix(), n)
        if direct != product:
            return False, f"mismatch for {lam.describe()}"
    return True, f"{n}x{n}, three weight families, exact"


# -- Witness images ---------------------------------------------------------


@_register("witness-u", "image of witness u is (1,1,0,0,...)")
def _check_witness_u(cfg):
    lam = LambdaSeq.linear(1, 1)
    y = forward_transform(gen_witness("u", lam, 32), lam)
    expect = [Fraction(1), Fraction(1)] + [Fraction(0)] * 30
    return list(y.values) == expect, "N=32, exact"


@_register("witness-v-hilbert", "image of witness v is (1,-1,0,0,...)")
def _check_witness_v(cfg):
    lam = LambdaSeq.linear(1, 1)
    y = forward_transform(gen_witness("v-hilbert", lam, 32), lam)
    expect = [Fraction(1), Fraction(-1)] + [Fraction(0)] * 30
    return list(y.values) == expect, "N=32, exact"


@_register("witness-t", "image of witness t is the all-ones sequence")
def _check_witness_t(cfg):
    for lam in (LambdaSeq.linear(1, 1), LambdaSeq.geometric(2, 1)):
        y = forward_transform(gen_witness("t", lam, 65), lam)
        if any(v != 1 for v in y.values):
            return False, f"not all ones for {lam.describe()}"
    return True, "n <= 64, two weight families, exact"


@_register("witness-e0", "image of the first coordinate vector matches its closed form")
def _check_witness_e0(cfg):
    # Row zero is the diagonal rule (value 1); below it the closed form
    # (3 lambda_0 - 2 lambda_1) / lambda_n applies.
    for lam in LAMBDA_FAMILIES:
        e0 = SeqWindow((Fraction(1),) + (Fraction(0),) * 64)
        y = forward_transform(e0, lam)
        if y.values[0] != lam.gap(0) * fib(0) / (lam.value(0) * fib(1)):
            return False, "head entry mismatch"
        top = 3 * lam.value(0) - 2 * lam.value(1)
        for n in range(1, 65):
            if y.values[n] != top / lam.value(n):
                return False, f"fails at n={n} for {lam.describe()}"
    return True, "1 <= n <= 64 closed form + head entry, exact"


@_register("witness-alternating", "image of the alternating witness is ((-1)^n)")
def _check_witness_alternating(cfg):
    lam = LambdaSeq.linear(1, 1)
    y = forward_transform(gen_witness("alternating", lam, 65), lam)
    ok = all(v == Fraction(-1) ** n for n, v in enumerate(y.values))
    return ok, "n <= 64, exact"


@_register("witness-power-law", "image of the power-law witness is ((n+1)^(-1/p)) within 2^-128")
def _check_witness_power_law(cfg):
    lam = LambdaSeq.linear(1, 1)
    p = Exponent.of(2)
    x = gen_witness("power-law", lam, 65, p=p, precision=320)
    y = forward_transform(x, lam)
    bound = Fraction(1, 2**128)
    for n, v in enumerate(y.values):
        target = rpow(Fraction(n + 1), Fraction(-1, 2), 320)
        if not v.agrees_with(target):
            return False, f"value mismatch at n={n}"
        if v.err > bound:
            return False, f"certified error {float(v.err):.3e} too large at n={n}"
    return True, "n <= 64, certified error <= 2^-128"


# -- Inversion oracles ------------------------------------------------------


@_register("inverse-oracle", "double-sum inversion equals forward substitution on random windows")
def _check_inverse_oracle(cfg):
    rng = random.Random(cfg.get("seed", 1234))
    lam = LambdaSeq.linear(1, 1)
    e = e_matrix(lam)
    for trial in range(TRIALS):
        y = _random_window(rng, 32)
        by_sum = inverse_transform(y, lam)
        by_solve = solve_triangle(e, y)
        if tuple(by_sum.values) != tuple(by_solve.values):
            return False, f"mismatch on trial {trial}"
        back = forward_transform(by_sum, lam)
        if tuple(back.values) != tuple(y.values):
            return False, f"round trip fails on trial {trial}"
    return True, f"{TRIALS} random windows, N=32, exact both ways"


@_register("inverse-closed-form", "closed-form inverse equals the forward-substitution inverse")
def _check_inverse_closed_form(cfg):
    n = 32
    for lam in LAMBDA_FAMILIES:
        direct = invert_window(e_matrix(lam), n)
        closed = e_inverse_matrix(lam).window(n)
        if direct != closed:
            return False, f"mismatch for {lam.describe()}"
    return True, f"{n}x{n}, three weight families, exact"


# -- Norm identities --------------------------------------------------------


@_register("parallelogram", "parallelogram identity holds exactly iff p = 2")
def _check_parallelogram(cfg):
    lam = LambdaSeq.linear(1, 1)
    if cfg.get("p") is not None:
        p = Fraction(cfg["p"])
        rep = parallelogram_check(lam, p)
        verdict = "equal" if rep["equal"] else "not-equal"
        detail = f"p={p}: lhs={float(rep['lhs'].value):g}, rhs={float(rep['rhs'].value):g}, {verdict}"
        return rep["equal"] == (p == 2), detail
    rep = parallelogram_check(lam, 2)
    if not (rep["equal"] and rep["lhs"].value == 8 and rep["rhs"].value == 8):
        return False, "p=2 should give 8 = 8 exactly"
    for p in (Fraction(1), Fraction(3, 2), Fraction(3), Fraction(4)):
        rep = parallelogram_check(lam, p)
        lhs, rhs = rep["lhs"], rep["rhs"]
        expected_rhs = rpow(Fraction(2), Fraction(2) / p, 256) * 4
        if not rhs.agrees_with(expected_rhs):
            return False, f"rhs wrong at p={p}"
        if not (lhs.contains(8) and lhs.err < Fraction(1, 2**64)):
            return False, f"lhs wrong at p={p}"
        if abs(lhs.value - rhs.value) <= 10 * (lhs.err + rhs.err):
            return False, f"sides not separated at p={p}"
    return True, "p in {1, 3/2, 2, 3, 4}"


@_register("basis-reconstruction", "partial basis sums reproduce every window exactly")
def _check_basis(cfg):
    rng = random.Random(cfg.get("seed", 1234) + 1)
    lam = LambdaSeq.linear(1, 1)
    m = 24
    windows = [gen_witness("t", lam, m + 1)]
    windows += [_random_window(rng, m + 1) for _ in range(10)]
    basis = [basis_vector(k, lam, m + 1) for k in range(m + 1)]
    for w in windows:
        coeffs = forward_transform(w, lam).values
        acc = [dot((c, b.values[n]) for c, b in zip(coeffs, basis)) for n in range(m + 1)]
        if acc != list(w.values):
            return False, "reconstruction mismatch"
    return True, "witness t plus 10 random windows, m=24, exact"


@_register("norm-sup-inequality", "weighted sup norm is dominated by 4x the plain sup norm")
def _check_sup_inequality(cfg):
    rng = random.Random(cfg.get("seed", 1234) + 2)
    lam = LambdaSeq.linear(1, 1)
    for _ in range(TRIALS):
        x = SeqWindow(tuple(Fraction(rng.randint(-100, 100), 100) for _ in range(24)))
        lhs = space_norm(x, lam, Exponent.infinity()).value
        rhs = window_norm(x.values, Exponent.infinity()) * 4
        if lhs.value > rhs.value:
            return False, "sup bound violated"
    return True, f"{TRIALS} random bounded windows, exact comparison"


@_register("norm-tail-inequality", "p-norm bound with the reciprocal-tail constant")
def _check_tail_inequality(cfg):
    rng = random.Random(cfg.get("seed", 1234) + 3)
    lam = LambdaSeq.geometric(2, 1)
    m = tail_constant(lam)
    m_val = m.value
    if not (abs(m_val.value - 2) <= Fraction(1, 10**20) + m_val.err):
        return False, f"tail constant {m_val} not within 1e-20 of 2"
    factor = rpow(m_val, Fraction(1, 2), 256) * 4
    for _ in range(TRIALS):
        x = SeqWindow(tuple(Fraction(rng.randint(-100, 100), 100) for _ in range(24)))
        lhs = space_norm(x, lam, 2).value
        rhs = factor * window_norm(x.values, 2)
        if lhs.value - lhs.err > rhs.value + rhs.err:
            return False, "p-norm bound violated"
    return True, f"{TRIALS} random windows, constant certified near 2"


# -- Dual machinery ---------------------------------------------------------


@_register("abel-identity", "partial-sum pairing identity is exact for random data")
def _check_abel(cfg):
    rng = random.Random(cfg.get("seed", 1234) + 4)
    for lam in (LambdaSeq.linear(1, 1), LambdaSeq.geometric(2, 1)):
        for _ in range(TRIALS // 2):
            n = rng.randint(2, 24)
            a = _random_window(rng, n + 1)
            x = _random_window(rng, n + 1)
            y = forward_transform(x, lam)
            t = beta_matrix(a, lam)
            direct = dot(zip(a.values, x.values))
            if direct != apply_dense_row(t, list(y.values), n):
                return False, "pairing mismatch"
    return True, f"{TRIALS} random (a, x), n <= 24, two weight families, exact"


@_register("alpha-pairing", "componentwise pairing identity is exact for random data")
def _check_alpha_pairing(cfg):
    rng = random.Random(cfg.get("seed", 1234) + 5)
    lam = LambdaSeq.linear(1, 1)
    for _ in range(TRIALS):
        n = rng.randint(1, 24)
        a = _random_window(rng, n + 1)
        x = _random_window(rng, n + 1)
        y = forward_transform(x, lam)
        b = alpha_matrix(a, lam)
        for i in range(n + 1):
            if to_fraction(a.values[i]) * to_fraction(x.values[i]) != apply_dense_row(
                b, list(y.values), i
            ):
                return False, "pairing mismatch"
    return True, f"{TRIALS} random (a, x), componentwise, exact"


@_register("beta-dual-e0", "the first coordinate vector sits in the beta dual, exactly")
def _check_beta_e0(cfg):
    lam = LambdaSeq.linear(1, 1)
    result = dual_membership(unit_seq(0), lam, "lp:2", "beta", window=24)
    ok = result["verdict"].status is Status.HOLDS_EXACTLY
    status = ", ".join(r.verdict.status.value for r in result["conditions"])
    return ok, f"conditions: {status}"


# -- Mapping classes, norms, noncompactness ---------------------------------


def _single_row_matrix() -> RowWindowedMatrix:
    return RowWindowedMatrix([[Fraction(1)]], name="single-row-e0")


@_register("class-finite", "finite matrices make every mapping condition finitely determined")
def _check_class_finite(cfg):
    lam = LambdaSeq.linear(1, 1)
    report = class_check(_single_row_matrix(), lam, "lp:2", "linf", window=16)
    if not report.verdict.is_exact:
        return False, "single-row report not exact"
    bad = [cid for cid, v in report.conditions if not v.is_exact]
    if bad:
        return False, f"non-exact conditions: {bad}"
    return True, "single-row source, all conditions holds-exactly"


@_register("opnorm-single-row", "operator norm of the single-row unit matrix is exactly 1")
def _check_opnorm_single(cfg):
    lam = LambdaSeq.linear(1, 1)
    result = operator_norm(_single_row_matrix(), lam, 2, "linf")
    ok = result.kind == "exact" and result.value.is_exact and result.value.value == 1
    return ok, f"value {result.value}"


@_register("opnorm-two-row-bracket", "two equal rows give the subset-sup bracket [2, 8]")
def _check_opnorm_bracket(cfg):
    lam = LambdaSeq.linear(1, 1)
    two = RowWindowedMatrix([[Fraction(1)], [Fraction(1)]], name="two-rows")
    result = operator_norm(two, lam, 2, "l1")
    lo, hi = result.bracket
    ok = lo.is_exact and lo.value == 2 and hi.value == 8
    return ok, f"bracket [{lo}, {hi}]"


@_register("mnc-single-row", "finitely supported matrices are exactly compact")
def _check_mnc_single(cfg):
    lam = LambdaSeq.linear(1, 1)
    est = noncompactness_estimate(_single_row_matrix(), lam, 2, "c0", r_max=8)
    if not (est.exact and est.limit.value == 0):
        return False, "limit not exactly zero"
    if any(v != 0 for r, v in est.sweep if r >= 1):
        return False, "tail sweep not zero from r=1"
    verdict = est.compactness()
    ok = verdict.status is Status.HOLDS_EXACTLY and verdict.label == "compact"
    return ok, "limit exactly 0, verdict compact"


@_register("mnc-identity-hat", "the identity-hat instance stays at s(r) = 1 (noncompact evidence)")
def _check_mnc_identity(cfg):
    lam = LambdaSeq.linear(1, 1)
    est = noncompactness_estimate(e_matrix(lam), lam, 2, "c0", r_max=32)
    if any(abs(v - 1.0) > 1e-12 for _, v in est.sweep):
        return False, "s(r) deviates from 1"
    verdict = est.compactness()
    ok = verdict.label == "evidence-noncompact"
    return ok, "s(r) = 1 for r <= 32"


@_register("mnc-domination", "noncompactness never exceeds the operator norm")
def _check_domination(cfg):
    rng = random.Random(cfg.get("seed", 1234) + 6)
    lam = LambdaSeq.linear(1, 1)
    matrices = [
        _single_row_matrix(),
        RowWindowedMatrix([[Fraction(1)], [Fraction(1)]], name="two-rows"),
        RowWindowedMatrix(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)]
                for _ in range(8)
            ],
            name="random-8x8",
        ),
    ]
    for mat in matrices:
        norm = operator_norm(mat, lam, 2, "linf")
        mnc = noncompactness_estimate(mat, lam, 2, "c0", r_max=8)
        if mnc.limit.value > norm.value.hi:
            return False, f"domination fails for {mat.name}"
        if any(v > float(norm.value.hi) * (1 + 1e-9) for _, v in mnc.sweep):
            return False, f"sweep exceeds norm for {mat.name}"
    return True, "three finite instances, exact comparison"


# -- Runner -----------------------------------------------------------------


def run_checks(only: str | None = None, **config) -> list[CheckResult]:
    """Run the registered golden checks (optionally filtered by substring)."""
    results = []
    for check_id, description, fn in _REGISTRY:
        if only and only not in check_id:
            continue
        try:
            passed, detail = fn(config)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"error: {exc!r}"
        results.append(CheckResult(check_id, description, passed, detail))
    return results
