"""The four workloads as cycles of CLI operations, each with its check.

A cycle is a fixed list of operations: which commands run, at which N and
window, never depends on the seed.  The seed (with the cycle index) only
draws the inputs: rational windows, weight families, matrices, basis
indices and the verify-paper seed.  A run repeats whole cycles, so every
run of a workload has the same mix of commands and sizes.

Each operation carries a check that reads the command's output after the
timed interval and returns None when the output agrees with a known truth,
or a one-line reason when it does not.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as ref

WORKLOADS = ("transform", "certified", "analysis", "verify-paper")

# Nominal seconds per cycle on a 2-CPU x86 sandbox under CPython 3.11.  The
# traced run replays round(--seconds / nominal) cycles, so its counts do
# not depend on timing, and the tail percentile is chosen for the sample
# count of a nominal run, so it does not change with the host's speed.
NOMINAL_CYCLE_S = {"transform": 3.4, "certified": 6.3, "analysis": 9.0, "verify-paper": 18.0}

# The golden check ids in registry order (fibspaces.golden).
GOLDEN_IDS = (
    "fib-cassini", "fib-ratio-bounds", "fib-golden-ratio", "inverse-identity",
    "composition", "witness-u", "witness-v-hilbert", "witness-t", "witness-e0",
    "witness-alternating", "witness-power-law", "inverse-oracle",
    "inverse-closed-form", "parallelogram", "basis-reconstruction",
    "norm-sup-inequality", "norm-tail-inequality", "abel-identity",
    "alpha-pairing", "beta-dual-e0", "class-finite", "opnorm-single-row",
    "opnorm-two-row-bracket", "mnc-single-row", "mnc-identity-hat",
    "mnc-domination",
)
VERIFY_CHECKS = GOLDEN_IDS

# Verdicts the program gets wrong today.  E's hat matrix is the identity,
# so E maps the l2-based space into c0 and into linf, but the class check
# reports evidence-diverging for both.  These operations stay in the mix
# and count as failed; they are expected failures, not unexpected ones.
KNOWN_FALSE = {
    "class --A E --X lp:2 --Y c0": "E maps lp:2 into c0, class check says otherwise",
    "class --A E --X lp:2 --Y linf": "E maps lp:2 into linf, class check says otherwise",
}

Check = Callable[[str, dict], "str | None"]


@dataclass
class Op:
    command: str
    argv: list[str]
    out: str
    check: Check
    known_false: str | None = None
    sizes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Seeded inputs


def _rational(rng: random.Random, top: int = 99) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _window(rng: random.Random, n: int) -> list[Fraction]:
    return [_rational(rng) for _ in range(n)]


def _spec(values) -> str:
    return "values:" + ",".join(str(v) for v in values)


def _lambda(rng: random.Random, family: str) -> str:
    if family == "linear":
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        return f"linear:{a},{b}"
    # r = a/b in lowest terms with 3 <= b <= 6 and 1 < r < 2: ten ratios of
    # similar bit size, so the cost of an op varies little with the draw.
    while True:
        b = rng.randint(3, 6)
        r = Fraction(rng.randint(b + 1, 2 * b - 1), b)
        if r.denominator == b:
            return f"geometric:{r},1"


def _dense_matrix(rng: random.Random, rows: int, path: str) -> str:
    cols = rng.randint(6, 10)
    entries = [[str(_rational(rng, 6)) for _ in range(cols)] for _ in range(rows)]
    # A nonzero last entry keeps the stored row count at `rows`.
    entries[-1][-1] = "1"
    with open(path, "w") as fh:
        json.dump({"kind": "dense", "entries": entries}, fh)
    return path


# ---------------------------------------------------------------------------
# Reading outputs


def _lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.strip()]


def _result(text: str):
    return json.loads(text)["result"]


def _status(text: str) -> str:
    return _result(text)["verdict"]["status"]


def _want_status(allowed: tuple[str, ...]) -> Check:
    def check(text, outs):
        status = _status(text)
        return None if status in allowed else f"verdict {status}, expected {'/'.join(allowed)}"

    return check


def _parses(text, outs):
    _result(text)
    return None


# ---------------------------------------------------------------------------
# transform: O(N^2) summation kernels, fresh weight family per op


# Many sizes, so that op costs form a continuum and the median latency
# does not sit in a gap between two size classes.
TRANSFORM_PAIRS = tuple(range(8, 89, 8))
TRANSFORM_WITNESSES = tuple(("t" if i % 2 == 0 else "alternating", n)
                            for i, n in enumerate(range(8, 65, 8)))
TRANSFORM_BASIS = tuple(range(24, 193, 24))


def _transform_cycle(rng, work, tag):
    ops = []
    for i, n in enumerate(TRANSFORM_PAIRS):
        lam = _lambda(rng, "linear" if i % 2 == 0 else "geometric")
        x = _window(rng, n)
        fwd = os.path.join(work, f"{tag}-fwd{i}.csv")
        ops.append(Op("transform", ["transform", "--x", _spec(x), "-N", str(n), "--lambda", lam],
                      fwd, _check_window_length(n), sizes={"N": n}))
        ops.append(Op("transform --inverse",
                      ["transform", "--inverse", "--y", f"file:{fwd}", "-N", str(n), "--lambda", lam],
                      os.path.join(work, f"{tag}-inv{i}.csv"), _check_round_trip(x),
                      sizes={"N": n}))
    for i, (name, n) in enumerate(TRANSFORM_WITNESSES):
        lam = _lambda(rng, "geometric" if i % 2 == 0 else "linear")
        ops.append(Op("transform", ["transform", "--x", f"witness:{name}", "-N", str(n), "--lambda", lam],
                      os.path.join(work, f"{tag}-wit{i}.csv"), _check_witness_image(name, n),
                      sizes={"N": n}))
    for i, n in enumerate(TRANSFORM_BASIS):
        lam = _lambda(rng, "linear" if i % 2 == 0 else "geometric")
        k = rng.randrange(n)
        ops.append(Op("basis", ["basis", "--k", str(k), "-N", str(n), "--lambda", lam],
                      os.path.join(work, f"{tag}-basis{i}.csv"), _check_basis(k, n, lam),
                      sizes={"N": n}))
    return ops


def _check_window_length(n: int) -> Check:
    def check(text, outs):
        got = len(_lines(text))
        return None if got == n else f"{got} entries, expected {n}"

    return check


def _check_round_trip(x: list[Fraction]) -> Check:
    def check(text, outs):
        back = [Fraction(v) for v in _lines(text)]
        if back == x:
            return None
        bad = next((i for i, (a, b) in enumerate(zip(back, x)) if a != b), min(len(back), len(x)))
        return f"inverse(forward(x)) differs from x at index {bad}"

    return check


def _check_witness_image(name: str, n: int) -> Check:
    expect = [Fraction(1)] * n if name == "t" else [Fraction((-1) ** i) for i in range(n)]

    def check(text, outs):
        return None if [Fraction(v) for v in _lines(text)] == expect else f"image of witness:{name} is wrong"

    return check


def _check_basis(k: int, n: int, lam: str) -> Check:
    def check(text, outs):
        column = [Fraction(v) for v in _lines(text)]
        image = ref.forward(column, lam)
        unit = [Fraction(1 if i == k else 0) for i in range(n)]
        return None if image == unit else f"E applied to basis column {k} is not e_{k}"

    return check


# ---------------------------------------------------------------------------
# certified: the same kernels on CertifiedReal entries, plus rpow/window_norm


CERT_TRANSFORMS = ((24, "5/4"), (32, "3/2"), (40, "3"), (48, "5/4"), (56, "3/2"), (64, "3"))
CERT_NORMS = ((28, "3"), (36, "5/4"), (44, "3/2"), (52, "3"), (60, "5/4"), (68, "3/2"))
CERT_PLOTS = (("16,32,48", "3/2"), ("24,48", "3"))
CERT_RATIONAL_NORMS = (48, 64, 96, 128)


def _certified_cycle(rng, work, tag):
    ops = []
    for i, (n, p) in enumerate(CERT_TRANSFORMS):
        lam = _lambda(rng, "linear" if i % 2 == 0 else "geometric")
        ops.append(Op("transform", ["transform", "--x", "witness:power-law", "--p", p, "-N", str(n),
                                    "--lambda", lam],
                      os.path.join(work, f"{tag}-pl{i}.csv"), _check_power_law_image(n, p),
                      sizes={"N": n}))
    for i, (n, p) in enumerate(CERT_NORMS):
        lam = _lambda(rng, "geometric" if i % 2 == 0 else "linear")
        ops.append(Op("norm", ["norm", "--x", "witness:power-law", "--p", p, "-N", str(n),
                               "--lambda", lam],
                      os.path.join(work, f"{tag}-plnorm{i}.json"), _check_harmonic_norm(n, p),
                      sizes={"N": n}))
    for i, (sweep, p) in enumerate(CERT_PLOTS):
        lam = _lambda(rng, "linear" if i % 2 == 0 else "geometric")
        ops.append(Op("plot-data", ["plot-data", "--quantity", "norm", "--x", "witness:power-law",
                                    "--p", p, "--sweep", sweep, "--lambda", lam],
                      os.path.join(work, f"{tag}-plot{i}.csv"), _check_harmonic_sweep(p),
                      sizes={"N": max(int(s) for s in sweep.split(","))}))
    for i, n in enumerate(CERT_RATIONAL_NORMS):
        lam = _lambda(rng, "linear" if i % 2 == 0 else "geometric")
        x = _window(rng, n)
        ops.append(Op("norm", ["norm", "--x", _spec(x), "--p", "3/2", "-N", str(n), "--lambda", lam],
                      os.path.join(work, f"{tag}-norm{i}.json"), _check_rational_norm(x, lam),
                      sizes={"N": n}))
    return ops


def _check_power_law_image(n: int, p: str) -> Check:
    exponent = -1 / Fraction(p)

    def check(text, outs):
        entries = _lines(text)
        if len(entries) != n:
            return f"{len(entries)} entries, expected {n}"
        for i, entry in enumerate(entries):
            if not ref.encloses(entry, ref.power(Fraction(i + 1), exponent)):
                return f"entry {i} does not enclose (n+1)^(-1/p)"
        return None

    return check


def _check_harmonic_norm(n: int, p: str) -> Check:
    # ||x||_p^p = sum (k+1)^(-1) = H_N for the power-law witness.
    truth = ref.power(ref.harmonic(n), 1 / Fraction(p))

    def check(text, outs):
        return None if ref.encloses(_result(text)["value"], truth) else "norm does not enclose H_N^(1/p)"

    return check


def _check_harmonic_sweep(p: str) -> Check:
    inv_p = 1 / Fraction(p)

    def check(text, outs):
        for row in _lines(text)[1:]:
            n, value = row.split(",")
            truth = float(ref.power(ref.harmonic(int(n)), inv_p))
            if abs(float(value) - truth) > 1e-12 * truth:
                return f"sweep value at n={n} is not H_n^(1/p)"
        return None

    return check


def _check_rational_norm(x: list[Fraction], lam: str) -> Check:
    def check(text, outs):
        truth = ref.p_norm(ref.forward(x, lam), Fraction(3, 2))
        return None if ref.encloses(_result(text)["value"], truth) else "norm does not enclose ||Ex||_3/2"

    return check


# ---------------------------------------------------------------------------
# analysis: duals, mapping classes, operator norms, noncompactness


# Windows up to 64 put a run of duals between 0.2 and 0.7 s, so the tail
# percentile falls among them rather than in the gap below the slowest ops.
DUALS = (  # (candidate kind, space, dual kind, window)
    ("values", "lp:2", "beta", 64),
    ("values", "lp:3", "alpha", 32),
    ("values", "l1", "gamma", 56),
    ("values", "linf", "beta", 64),
    ("values", "lp:3", "beta", 56),
    ("values", "linf", "gamma", 48),
    ("unit", "lp:2", "gamma", 40),
    ("unit", "linf", "alpha", 48),
    ("unit", "l1", "beta", 64),
    ("inv-fib-pow", "l1", "beta", 32),
    ("inv-fib-pow", "lp:3", "gamma", 48),
    ("inv-fib-pow", "lp:2", "beta", 40),
)
ENUM_ROWS = (8, 14)
SAMPLED_ROWS = (20, 24)
E_CLASS_WINDOW = 24


def _analysis_cycle(rng, work, tag):
    ops = []
    for i, (cand, space, kind, window) in enumerate(DUALS):
        lam = _lambda(rng, "linear" if i % 2 == 0 else "geometric")
        if cand == "values":
            support = rng.randint(3, 10)
            a = _window(rng, support - 1) + [Fraction(1)]
            spec = _spec(a)
        elif cand == "unit":
            support = rng.randint(1, 8)
            spec = f"unit:{support - 1}"
        else:
            support, spec = None, "inv-fib-pow:3"
        # A finitely supported candidate lies in every dual; with the window
        # past support + 2 the verdict is finitely determined.
        check = _want_status(("holds-exactly",)) if support is not None else _parses
        ops.append(Op("dual", ["dual", "--a", spec, "--space", space, "--kind", kind,
                               "--window", str(window), "--lambda", lam],
                      os.path.join(work, f"{tag}-dual{i}.json"), check, sizes={"window": window}))

    rows = rng.randint(*ENUM_ROWS)
    enum = _dense_matrix(rng, rows, os.path.join(work, f"{tag}-enum.json"))
    enum_size = {"rows": rows}
    rows = rng.randint(*SAMPLED_ROWS)
    sampled = _dense_matrix(rng, rows, os.path.join(work, f"{tag}-sampled.json"))
    sampled_size = {"rows": rows}
    exact = ("holds-exactly",)
    either = ("holds-exactly", "evidence-bounded")
    lam = _lambda(rng, "linear")
    ops += [
        Op("class", ["class", "--A", enum, "--X", "lp:2", "--Y", "c0", "--lambda", lam],
           os.path.join(work, f"{tag}-class-enum-c0.json"), _want_status(exact), sizes=enum_size),
        Op("class", ["class", "--A", enum, "--X", "l1", "--Y", "l1", "--lambda", lam],
           os.path.join(work, f"{tag}-class-enum-l1.json"), _want_status(exact), sizes=enum_size),
        Op("opnorm", ["opnorm", "--A", enum, "--p", "2", "--Y", "c0", "--lambda", lam],
           os.path.join(work, f"{tag}-opnorm-enum.json"), _check_opnorm_kind("exact"),
           sizes=enum_size),
        Op("mnc", ["mnc", "--A", enum, "--p", "2", "--Y", "c0", "--lambda", lam],
           os.path.join(work, f"{tag}-mnc-enum.json"), _check_compact(f"{tag}-opnorm-enum.json"),
           sizes=enum_size),
    ]
    lam = _lambda(rng, "geometric")
    # Past 16 rows subset_sup samples, so l1-target verdicts are lower bounds.
    ops += [
        Op("class", ["class", "--A", sampled, "--X", "lp:2", "--Y", "l1", "--lambda", lam],
           os.path.join(work, f"{tag}-class-sampled.json"), _want_status(either),
           sizes=sampled_size),
        Op("opnorm", ["opnorm", "--A", sampled, "--p", "2", "--Y", "l1", "--lambda", lam],
           os.path.join(work, f"{tag}-opnorm-sampled.json"), _check_opnorm_kind("bracket"),
           sizes=sampled_size),
        Op("mnc", ["mnc", "--A", sampled, "--p", "2", "--Y", "l1", "--lambda", lam],
           os.path.join(work, f"{tag}-mnc-sampled.json"),
           _check_compact(f"{tag}-opnorm-sampled.json"), sizes=sampled_size),
    ]
    for target in ("c0", "linf"):
        lam = _lambda(rng, "linear")
        ops.append(Op("class", ["class", "--A", "E", "--X", "lp:2", "--Y", target,
                                "--window", str(E_CLASS_WINDOW), "--lambda", lam],
                      os.path.join(work, f"{tag}-class-E-{target}.json"), _want_status(either),
                      known_false=f"class --A E --X lp:2 --Y {target}",
                      sizes={"window": E_CLASS_WINDOW}))
    lam = _lambda(rng, "linear")
    ops += [
        # E's hat matrix is the identity: every row norm and every tail
        # supremum s(r) is exactly 1.
        Op("opnorm", ["opnorm", "--A", "E", "--p", "2", "--Y", "linf", "--lambda", lam],
           os.path.join(work, f"{tag}-opnorm-E.json"), _check_unit_sweep),
        Op("mnc", ["mnc", "--A", "E", "--p", "2", "--Y", "c0", "--lambda", lam],
           os.path.join(work, f"{tag}-mnc-E.json"), _check_unit_sweep),
        Op("opnorm", ["opnorm", "--A", "fhat", "--p", "2", "--Y", "linf", "--lambda", lam],
           os.path.join(work, f"{tag}-opnorm-fhat.json"), _parses),
        Op("mnc", ["mnc", "--A", "fhat", "--p", "2", "--Y", "c0", "--lambda", lam],
           os.path.join(work, f"{tag}-mnc-fhat.json"), _parses),
    ]
    return ops


def _check_opnorm_kind(kind: str) -> Check:
    def check(text, outs):
        got = _result(text)["kind"]
        return None if got == kind else f"operator norm kind {got}, expected {kind}"

    return check


def _norm_upper(text: str) -> Fraction:
    result = _result(text)
    shown = result["bracket"][1] if "bracket" in result else result["value"]
    value, err = ref.parse_enclosure(shown)
    return value + err + ref.RENDER_SLACK


def _check_compact(opnorm_name: str) -> Check:
    def check(text, outs):
        result = _result(text)
        if result["compactness"]["status"] != "holds-exactly" or result["limit"] != "0 (exact)":
            return "finite matrix is not exactly compact"
        upper = float(_norm_upper(outs[opnorm_name]))
        if any(v > upper * (1 + 1e-12) for _, v in result["sweep"]):
            return "noncompactness sweep exceeds the operator norm"
        return None

    return check


def _check_unit_sweep(text, outs):
    sweep = _result(text)["sweep"]
    return None if sweep and all(v == 1.0 for _, v in sweep) else "sweep of E is not identically 1"


# ---------------------------------------------------------------------------
# verify-paper: the golden checks one by one


def _verify_cycle(rng, work, tag):
    seed = rng.randrange(10**6)
    return [
        Op("verify-paper", ["verify-paper", "--only", cid, "--json", "--seed", str(seed)],
           os.path.join(work, f"{tag}-{cid}.json"), _check_golden(cid))
        for cid in VERIFY_CHECKS
    ]


def _check_golden(cid: str) -> Check:
    def check(text, outs):
        rows = _result(text)
        if [r["id"] for r in rows] != [cid]:
            return f"--only {cid} ran {[r['id'] for r in rows]}"
        return None if rows[0]["passed"] else f"golden check {cid} failed: {rows[0]['detail']}"

    return check


_BUILDERS = {
    "transform": _transform_cycle,
    "certified": _certified_cycle,
    "analysis": _analysis_cycle,
    "verify-paper": _verify_cycle,
}


def build_cycle(workload: str, seed: int, index: int, work: str) -> list[Op]:
    """The operations of cycle `index`; inputs depend on (seed, index) only."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = _BUILDERS[workload](rng, work, f"c{index}")
    for op in ops:
        op.argv += ["--out", op.out]
    return ops
