"""Acceptance gate: every criterion at its stated tolerance.

Each test evaluates one criterion end to end and records a PASS/FAIL line
(echoed in the terminal summary).  "Exact" means bit-for-bit equality of
rationals, zero tolerance; certified quantities compare through their
error bounds, never a hand-picked epsilon.
"""

import random
from fractions import Fraction

from fibspaces.duals import alpha_matrix, apply_dense_row, beta_matrix, dual_membership
from fibspaces.exactreal import CertifiedReal, Exponent, rpow, window_norm
from fibspaces.matclasses import (
    class_check,
    compactness_verdict,
    noncompactness_estimate,
    operator_norm,
)
from fibspaces.sequences import LambdaSeq, SeqWindow, fib, unit_seq
from fibspaces.spaces import parallelogram_check, space_norm, tail_constant
from fibspaces.triangles import (
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
from fibspaces.verdicts import Status
from fibspaces.witnesses import gen_witness

FAMILIES = (LambdaSeq.linear(1, 1), LambdaSeq.linear(2, 3), LambdaSeq.geometric(2, 1))
LIN = LambdaSeq.linear(1, 1)


def _random_window(rng, n):
    return SeqWindow(
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
    )


def test_criterion_01_inverse_identity(acceptance):
    ident = identity_triangle().window(64)
    ok = True
    for lam in FAMILIES:
        e, g = e_matrix(lam), e_inverse_matrix(lam)
        ok = ok and compose(e, g, 64) == ident
        ok = ok and compose(g, e, 64) == ident
    assert acceptance(1, "inverse identity, 64x64, three families, bit-exact", ok)


def test_criterion_02_composition_identity(acceptance):
    ok = True
    for lam in FAMILIES:
        ok = ok and e_matrix(lam).window(40) == compose(
            lambda_matrix(lam), fhat_matrix(), 40
        )
    assert acceptance(2, "composition identity, 40x40, exact", ok)


def test_criterion_03_golden_witnesses(acceptance):
    lam = LIN
    ok = True

    u_img = forward_transform(gen_witness("u", lam, 32), lam)
    ok = ok and list(u_img.values) == [1, 1] + [0] * 30
    v_img = forward_transform(gen_witness("v-hilbert", lam, 32), lam)
    ok = ok and list(v_img.values) == [1, -1] + [0] * 30

    t_img = forward_transform(gen_witness("t", lam, 65), lam)
    ok = ok and all(v == 1 for v in t_img.values)

    e0 = SeqWindow((Fraction(1),) + (Fraction(0),) * 64)
    e0_img = forward_transform(e0, lam)
    top = 3 * lam.value(0) - 2 * lam.value(1)
    ok = ok and e0_img.values[0] == lam.gap(0) * fib(0) / (lam.value(0) * fib(1))
    ok = ok and all(e0_img.values[n] == top / lam.value(n) for n in range(1, 65))

    alt_img = forward_transform(gen_witness("alternating", lam, 65), lam)
    ok = ok and all(v == Fraction(-1) ** n for n, v in enumerate(alt_img.values))

    pl = gen_witness("power-law", lam, 65, p=Exponent.of(2), precision=320)
    pl_img = forward_transform(pl, lam)
    bound = Fraction(1, 2**128)
    for n, v in enumerate(pl_img.values):
        target = rpow(Fraction(n + 1), Fraction(-1, 2), 320)
        ok = ok and v.agrees_with(target) and v.err <= bound
    assert acceptance(
        3, "golden witness images exact; power-law certified to 2^-128", ok
    )


def test_criterion_04_oracle_equivalence(acceptance):
    rng = random.Random(20260808)
    e = e_matrix(LIN)
    ok = True
    for _ in range(100):
        y = _random_window(rng, 32)
        ok = ok and inverse_transform(y, LIN).values == solve_triangle(e, y).values
    for lam in FAMILIES:
        ok = ok and invert_window(e_matrix(lam), 32) == e_inverse_matrix(lam).window(32)
    assert acceptance(
        4, "double-sum inverse = substitution solve (100x); closed-form inverse = window inverse", ok
    )


def test_criterion_05_parallelogram(acceptance):
    ok = True
    rep = parallelogram_check(LIN, 2)
    ok = ok and rep["equal"] and rep["lhs"].is_exact and rep["lhs"].value == 8
    ok = ok and rep["rhs"].is_exact and rep["rhs"].value == 8
    for p in (Fraction(1), Fraction(3, 2), Fraction(3), Fraction(4)):
        rep = parallelogram_check(LIN, p)
        lhs, rhs = rep["lhs"], rep["rhs"]
        ok = ok and lhs.contains(8)
        expected = rpow(Fraction(2), Fraction(2) / p) * 4
        ok = ok and rhs.agrees_with(expected)
        ok = ok and abs(lhs.value - rhs.value) > 10 * (lhs.err + rhs.err)
    assert acceptance(5, "parallelogram: equality at p=2 only, sides separated beyond 10x error", ok)


def test_criterion_06_basis_reconstruction(acceptance):
    rng = random.Random(20260809)
    m = 24
    ok = True
    windows = [gen_witness("t", LIN, m + 1)]
    windows += [_random_window(rng, m + 1) for _ in range(10)]
    basis = [basis_vector(k, LIN, m + 1) for k in range(m + 1)]
    for w in windows:
        coeffs = forward_transform(w, LIN)
        acc = [Fraction(0)] * (m + 1)
        for k in range(m + 1):
            for n in range(m + 1):
                acc[n] += coeffs.values[k] * basis[k].values[n]
        ok = ok and acc == list(w.values)
    assert acceptance(6, "basis reconstruction exact on 0..24 for witness t and 10 random windows", ok)


def test_criterion_07_norm_inequalities(acceptance):
    rng = random.Random(20260810)
    ok = True
    for _ in range(100):
        x = SeqWindow(
            tuple(Fraction(rng.randint(-100, 100), 100) for _ in range(24))
        )
        lhs = space_norm(x, LIN, Exponent.infinity()).value
        rhs = window_norm(x.values, Exponent.infinity()) * 4
        ok = ok and lhs.value <= rhs.value

    geo = LambdaSeq.geometric(2, 1)
    m_val = tail_constant(geo).value
    ok = ok and abs(m_val.value - 2) <= Fraction(1, 10**20) + m_val.err
    factor = rpow(m_val, Fraction(1, 2)) * 4
    for _ in range(100):
        x = SeqWindow(
            tuple(Fraction(rng.randint(-100, 100), 100) for _ in range(24))
        )
        lhs = space_norm(x, geo, 2).value
        rhs = factor * window_norm(x.values, 2)
        ok = ok and lhs.value - lhs.err <= rhs.value + rhs.err
    assert acceptance(
        7, "sup bound (100x) and tail-constant p-bound (100x, constant = 2 within 1e-20)", ok
    )


def test_criterion_08_dual_machinery(acceptance):
    rng = random.Random(20260811)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 24)
        a = _random_window(rng, n + 1)
        x = _random_window(rng, n + 1)
        y = forward_transform(x, LIN)
        t = beta_matrix(a, LIN)
        lhs = sum((a.values[k] * x.values[k] for k in range(n + 1)), Fraction(0))
        ok = ok and lhs == apply_dense_row(t, list(y.values), n)
        b = alpha_matrix(a, LIN)
        ok = ok and a.values[n] * x.values[n] == apply_dense_row(b, list(y.values), n)
    res = dual_membership(unit_seq(0), LIN, "lp:2", "beta", window=24)
    ok = ok and res["verdict"].status is Status.HOLDS_EXACTLY
    assert acceptance(
        8, "pairing identities exact (100x); unit vector beta-dual holds-exactly", ok
    )


def test_criterion_09_matrix_classes_and_mnc(acceptance):
    rng = random.Random(20260812)
    ok = True
    single = RowWindowedMatrix([[Fraction(1)]], name="single")
    two = RowWindowedMatrix([[Fraction(1)], [Fraction(1)]], name="two")
    rand8 = RowWindowedMatrix(
        [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)]
            for _ in range(8)
        ],
        name="rand8",
    )

    for mat in (single, two, rand8):
        rep = class_check(mat, LIN, "lp:2", "linf", window=12)
        ok = ok and all(v.is_exact for _, v in rep.conditions)
        # self-consistency: the q-norm-sup condition squares the norm value
        qsup = dict(rep.conditions)["row-qnorm-sup"].value
        norm = operator_norm(mat, LIN, 2, "linf").value
        ok = ok and (norm * norm).agrees_with(qsup)

    norm_single = operator_norm(single, LIN, 2, "linf")
    ok = ok and norm_single.value.is_exact and norm_single.value.value == 1

    est = noncompactness_estimate(single, LIN, 2, "c0", r_max=8)
    ok = ok and est.exact and est.limit.value == 0
    verdict = compactness_verdict(single, LIN, 2, "c0", r_max=8)
    ok = ok and verdict.status is Status.HOLDS_EXACTLY and verdict.label == "compact"

    hat_identity = noncompactness_estimate(e_matrix(LIN), LIN, 2, "c0", r_max=32)
    ok = ok and all(v == 1.0 for _, v in hat_identity.sweep)
    ok = ok and compactness_verdict(
        e_matrix(LIN), LIN, 2, "c0", r_max=32
    ).label == "evidence-noncompact"

    for mat in (single, two, rand8):
        norm = operator_norm(mat, LIN, 2, "linf")
        est = noncompactness_estimate(mat, LIN, 2, "c0", r_max=8)
        ok = ok and est.limit.value <= norm.value.hi
        ok = ok and all(v <= float(norm.value.hi) * (1 + 1e-12) for _, v in est.sweep)
    assert acceptance(
        9, "finite-matrix classes exact; norm 1; mnc 0 compact; identity-hat s(r)=1; mnc <= norm", ok
    )


def test_criterion_10_fibonacci_layer(acceptance):
    ok = all(
        fib(n - 1) * fib(n + 1) - fib(n) ** 2 == (-1) ** (n + 1) for n in range(1, 201)
    )
    ok = ok and all(
        Fraction(fib(k), fib(k + 1)) <= 1 and Fraction(fib(k + 1), fib(k)) <= 2
        for k in range(201)
    )
    ratio = CertifiedReal.exact(Fraction(fib(101), fib(100)))
    phi = (rpow(Fraction(5), Fraction(1, 2), 128) + 1).divided_by(2)
    ok = ok and abs(ratio - phi).hi < Fraction(1, 10**12)
    assert acceptance(10, "Cassini (n<=200), ratio bounds (k<=200), golden ratio within 1e-12", ok)
