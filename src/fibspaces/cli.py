"""Command-line front end.

Every command reads exact rationals, runs in exact mode by default, and
emits either CSV (sequence windows, sweep columns) or a JSON report with a
stable schema version.  Exit codes: 0 success, 1 verification failure,
2 malformed input, 3 domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .duals import dual_membership
from .errors import DomainError, ParseError
from .exactreal import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    PRECISION_LIMIT,
    CertifiedReal,
    Exponent,
    format_rational,
    to_float,
)
from .golden import run_checks
from .matclasses import (
    class_check,
    noncompactness_estimate,
    operator_norm,
)
from .sequences import MATRIX_INDEX_LIMIT, LambdaSeq, SeqWindow, parse_generator_spec, parse_index
from .spaces import space_norm
from .triangles import (
    RowWindowedMatrix,
    basis_vector,
    e_inverse_matrix,
    e_matrix,
    fhat_matrix,
    forward_transform,
    identity_triangle,
    inverse_transform,
    invert_window,
    lambda_matrix,
    load_matrix,
)
from .witnesses import gen_witness

SCHEMA_VERSION = 1


_CONFIG_SKIP = ("fn", "out", "command")


def _emit(text: str, out: str | None):
    if not out:
        # Flushed here, so that a reader that closed early raises
        # BrokenPipeError inside main and not at interpreter exit.
        print(text, flush=True)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ParseError(f"cannot write {out!r}: {exc}") from None


def _emit_report(args, result):
    """Emit the JSON report of a command: the options it ran with and its result."""
    config = {
        k: str(v) for k, v in vars(args).items() if v is not None and k not in _CONFIG_SKIP
    }
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "fibspaces",
        "command": args.command,
        "config": config,
        "result": result,
    }
    _emit(json.dumps(report, indent=2), args.out)


def _render_value(v, mode: str) -> str:
    if isinstance(v, CertifiedReal):
        if mode == "float":
            return repr(to_float(v.value))
        if v.is_exact:
            return format_rational(v.value)
        return str(v)
    if isinstance(v, Fraction):
        return repr(to_float(v)) if mode == "float" else format_rational(v)
    return str(v)


def _window_csv(window, mode: str) -> str:
    return "\n".join(_render_value(v, mode) for v in window)


def _parse_seq_spec(spec: str, lam: LambdaSeq, n: int, p, precision: int) -> SeqWindow:
    spec = spec.strip()
    if spec.startswith("witness:"):
        return gen_witness(spec.split(":", 1)[1], lam, n, p=p, precision=precision)
    return parse_generator_spec(spec).prefix(n)


def _parse_matrix_arg(spec: str, lam: LambdaSeq):
    spec = spec.strip()
    builtin = {
        "E": lambda: e_matrix(lam),
        "E-inverse": lambda: e_inverse_matrix(lam),
        "fhat": fhat_matrix,
        "lambda-matrix": lambda: lambda_matrix(lam),
        "identity": identity_triangle,
    }
    if spec in builtin:
        return builtin[spec]()
    if spec.startswith("file:"):
        spec = spec.split(":", 1)[1]
    return load_matrix(spec)


# ---------------------------------------------------------------------------
# Commands; each but verify-paper gets its --lambda parsed by main.


def cmd_transform(args, lam: LambdaSeq) -> int:
    p = Exponent.parse(args.p) if args.p else None
    if args.inverse:
        if not args.y:
            raise ParseError("--inverse needs --y")
        y = _parse_seq_spec(args.y, lam, args.n, p, args.precision)
        window = inverse_transform(y, lam)
    else:
        if not args.x:
            raise ParseError("transform needs --x (or --inverse with --y)")
        x = _parse_seq_spec(args.x, lam, args.n, p, args.precision)
        window = forward_transform(x, lam)
    if args.json:
        _emit_report(args, {
            "window": [_render_value(v, args.mode) for v in window],
            "n": args.n,
            "direction": "inverse" if args.inverse else "forward",
        })
    else:
        _emit(_window_csv(window, args.mode), args.out)
    return 0


def cmd_invert(args, lam: LambdaSeq) -> int:
    matrix = _parse_matrix_arg(args.matrix, lam)
    if isinstance(matrix, RowWindowedMatrix):
        matrix = matrix.as_triangle()
    window = invert_window(matrix, args.n)
    _emit_report(args, {
        "size": args.n,
        "rows": [[_render_value(v, args.mode) for v in row] for row in window.rows],
    })
    return 0


def cmd_norm(args, lam: LambdaSeq) -> int:
    p = Exponent.parse(args.p)
    x = _parse_seq_spec(args.x, lam, args.n, p, args.precision)
    est = space_norm(x, lam, p, args.precision)
    result = est.to_json()
    result["value"] = _render_value(est.value, args.mode)
    _emit_report(args, result)
    return 0


def cmd_basis(args, lam: LambdaSeq) -> int:
    window = basis_vector(args.k, lam, args.n)
    if args.json:
        _emit_report(args, {"k": args.k, "window": [_render_value(v, args.mode) for v in window]})
    else:
        _emit(_window_csv(window, args.mode), args.out)
    return 0


def cmd_dual(args, lam: LambdaSeq) -> int:
    gen = parse_generator_spec(args.a)
    result = dual_membership(gen, lam, args.space, args.kind, window=args.window)
    _emit_report(args, {
        "space": result["space"],
        "kind": result["kind"],
        "p": result["p"],
        "verdict": result["verdict"].to_json(),
        "conditions": [r.to_json() for r in result["conditions"]],
    })
    return 0


def cmd_class(args, lam: LambdaSeq) -> int:
    matrix = _parse_matrix_arg(args.matrix, lam)
    report = class_check(matrix, lam, args.source, args.target, window=args.window)
    _emit_report(args, report.to_json())
    return 0


def cmd_opnorm(args, lam: LambdaSeq) -> int:
    matrix = _parse_matrix_arg(args.matrix, lam)
    p = Exponent.parse(args.p)
    result = operator_norm(
        matrix, lam, p, args.target, window=args.window, precision=args.precision,
    )
    _emit_report(args, result.to_json())
    return 0


def cmd_mnc(args, lam: LambdaSeq) -> int:
    matrix = _parse_matrix_arg(args.matrix, lam)
    p = Exponent.parse(args.p)
    est = noncompactness_estimate(
        matrix, lam, p, args.target, r_max=args.rmax, precision=args.precision,
    )
    payload = est.to_json()
    payload["compactness"] = est.compactness().to_json()
    _emit_report(args, payload)
    return 0


def cmd_verify_paper(args) -> int:
    config = {"seed": args.seed}
    if args.n is not None:
        if args.n < 1:
            raise DomainError(f"window size -N must be >= 1, got {args.n}")
        config["n"] = args.n
    if args.p is not None:
        config["p"] = Exponent.parse(args.p).as_fraction()
    results = run_checks(only=args.only, **config)
    if not results:
        raise ParseError(f"no checks match {args.only!r}")
    failed = [r for r in results if not r.passed]
    if args.json:
        _emit_report(args, [
            {
                "id": r.check_id,
                "description": r.description,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ])
    else:
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark}  {r.check_id:24s} {r.description} [{r.detail}]")
        lines.append(
            f"{len(results) - len(failed)}/{len(results)} golden checks passed"
        )
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def cmd_plot_data(args, lam: LambdaSeq) -> int:
    rows = []
    if args.quantity == "norm":
        p = Exponent.parse(args.p)
        sweep = [parse_index(tok, args.sweep) for tok in args.sweep.split(",") if tok.strip()]
        if not sweep:
            raise ParseError(f"empty sweep {args.sweep!r}")
        header = "n,value"
        # Every input is prefix-exact, so one window at the deepest point
        # serves them all; a point below 1 raises what building it raises.
        short = [n for n in sweep if n < 1]
        x = _parse_seq_spec(args.x, lam, short[0] if short else max(sweep), p, args.precision)
        for n in sweep:
            est = space_norm(x.values[:n], lam, p, args.precision)
            rows.append(f"{n},{to_float(est.value.value)!r}")
    elif args.quantity == "mnc":
        p = Exponent.parse(args.p)
        matrix = _parse_matrix_arg(args.matrix, lam)
        est = noncompactness_estimate(
            matrix, lam, p, args.target, r_max=args.rmax, precision=args.precision,
        )
        header = "w,s"
        rows = [f"{int(w)},{v!r}" for w, v in est.sweep]
    else:
        raise ParseError(f"unknown quantity {args.quantity!r}")
    _emit("\n".join([header] + rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, when `command` names one, of that
    command alone, which takes about a seventh of the time to build."""
    parser = argparse.ArgumentParser(
        prog="fibspaces",
        description="Exact-arithmetic toolkit for Fibonacci-difference "
        "sequence spaces over weighted averaging triangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, mode=False, precision=False, window=False, rmax=False, matrix=False):
        p.add_argument("--lambda", dest="lam", default="linear:1,1",
                       help="weight family: linear:a,b | geometric:r,c | file:<path>")
        p.add_argument("--out", default=None, help="write output to a file")
        if mode:
            p.add_argument("--mode", choices=("exact", "float"), default="exact",
                           help="value rendering; computation is always exact")
        if precision:
            p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
        if window:
            p.add_argument("--window", type=int, default=32)
        if rmax:
            p.add_argument("--rmax", type=int, default=32,
                           help="depth of a triangle's sweep: hat rows n < rmax + 8")
        if matrix:
            p.add_argument("--A", dest="matrix", required=True,
                           help="matrix: JSON file path, or E | fhat | "
                           "lambda-matrix | identity | E-inverse")

    def transform(p):
        common(p, mode=True, precision=True)
        p.add_argument("--x", help="sequence spec: witness:<id> | unit:<k> | zero | e | "
                       "values:a,b,... | file:<path>")
        p.add_argument("--y", help="image spec for --inverse")
        p.add_argument("--inverse", action="store_true")
        p.add_argument("-N", dest="n", type=int, default=32)
        p.add_argument("--p", default=None, help="exponent for the power-law witness")
        p.add_argument("--json", action="store_true")

    def invert(p):
        common(p, mode=True)
        p.add_argument("--A", dest="matrix", default="E")
        p.add_argument("-N", dest="n", type=int, default=16)

    def norm(p):
        common(p, mode=True, precision=True)
        p.add_argument("--x", required=True)
        p.add_argument("--p", default="2")
        p.add_argument("-N", dest="n", type=int, default=32)

    def basis(p):
        common(p, mode=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("-N", dest="n", type=int, default=16)
        p.add_argument("--json", action="store_true")

    def dual(p):
        common(p, window=True)
        p.add_argument("--a", required=True, help="candidate sequence spec")
        p.add_argument("--space", default="lp:2", help="l1 | lp:<p> | linf")
        p.add_argument("--kind", choices=("alpha", "beta", "gamma"), default="beta")

    def class_(p):
        common(p, window=True, matrix=True)
        p.add_argument("--X", dest="source", default="lp:2", help="source: l1 | lp:<p> | linf")
        p.add_argument("--Y", dest="target", default="c0",
                       help="target: linf | c | c0 | l1 | lp:<p>")

    def opnorm(p):
        common(p, precision=True, window=True, matrix=True)
        p.add_argument("--p", default="2")
        p.add_argument("--Y", dest="target", default="linf", help="linf | c | c0 | l1")

    def mnc(p):
        common(p, precision=True, rmax=True, matrix=True)
        p.add_argument("--p", default="2")
        p.add_argument("--Y", dest="target", default="c0", help="c0 | c | l1")

    def verify_paper(p):
        p.add_argument("--only", default=None, help="substring filter on check ids")
        p.add_argument("-N", dest="n", type=int, default=None,
                       help="window size for the inverse-identity check")
        p.add_argument("--p", default=None,
                       help="restrict the parallelogram check to one exponent")
        p.add_argument("--seed", type=int, default=1234)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)

    def plot_data(p):
        common(p, precision=True, rmax=True)
        p.add_argument("--quantity", choices=("norm", "mnc"), required=True)
        p.add_argument("--x", default="witness:t")
        p.add_argument("--p", default="2")
        p.add_argument("--sweep", default="8,16,24,32,48,64")
        p.add_argument("--A", dest="matrix", default="E")
        p.add_argument("--Y", dest="target", default="c0")

    commands = {  # name: (help, option adder, handler), in the order --help lists them
        "transform": ("apply the composed triangle (or its inverse)", transform, cmd_transform),
        "invert": ("forward-substitution inverse of a triangle window", invert, cmd_invert),
        "norm": ("norm of a window in the weighted space", norm, cmd_norm),
        "basis": ("basis column of the weighted space", basis, cmd_basis),
        "dual": ("alpha/beta/gamma dual membership evidence", dual, cmd_dual),
        "class": ("matrix mapping-class membership check", class_, cmd_class),
        "opnorm": ("operator norm (exact, bracket, or evidence)", opnorm, cmd_opnorm),
        "mnc": ("Hausdorff noncompactness sweep and compactness verdict", mnc, cmd_mnc),
        "verify-paper": ("run the golden-identity suite (exit 1 on any failure)",
                         verify_paper, cmd_verify_paper),
        "plot-data": ("CSV sweep columns for external plotting", plot_data, cmd_plot_data),
    }
    for name, (help_text, add_options, fn) in commands.items():
        if command not in commands or command == name:
            p = sub.add_parser(name, help=help_text)
            add_options(p)
            p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extras = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if extras:  # the full parser words the error, listing every command
        args = build_parser().parse_args(argv)
    try:
        if "precision" in args and not MIN_PRECISION <= args.precision <= PRECISION_LIMIT:
            raise ParseError(f"precision must be between {MIN_PRECISION} and "
                             f"{PRECISION_LIMIT} bits, got {args.precision}")
        # A window size is bounded as a unit index is, so a short input cannot
        # ask for a prefix of millions of entries.
        for dest, flag in (("n", "-N"), ("window", "--window"), ("rmax", "--rmax")):
            if (getattr(args, dest, None) or 0) > MATRIX_INDEX_LIMIT:
                raise ParseError(f"{flag} must be at most {MATRIX_INDEX_LIMIT}, "
                                 f"got {getattr(args, dest)}")
        if "lam" in args:
            return args.fn(args, LambdaSeq.from_spec(args.lam))
        return args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader of stdout closed early (`| head`).  Stdout is pointed at
        # /dev/null so that the flush at exit cannot raise again, and the
        # status is the one a shell reports for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
