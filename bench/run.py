#!/usr/bin/env python3
"""The fibspaces benchmark: one closed-loop client driving the public CLI.

    python3 bench/run.py --workload transform --seed 1 --seconds 20 --trace 0

One process, one thread, one client: each CLI operation is
``fibspaces.cli.main(argv)`` called in-process, writing to ``--out`` in a
scratch directory, and the next operation starts when it returns.  The
benchmark draws every input from ``--seed``, repeats whole cycles of its
workload (see workloads.py) for about ``--seconds`` seconds, then checks
every output outside the timed interval.  Every reported time is scaled
to a reference host speed by calibration samples taken around and during
each operation (hostspeed.py), so that the shared host's drift in speed
does not move the metrics.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it replays a fixed number of cycles with spans and counters around every
module boundary (tracing.py), reports the per-layer metrics and the tracing
overhead, and writes the spans under ``.bench_work/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it print every
metric by name with its unit, the run descriptor and any failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import COUNTERS, Tracer  # noqa: E402

SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
STATUSES = ("holds-exactly", "evidence-bounded", "evidence-diverging", "inconclusive")


def import_cli():
    """Import fibspaces.cli from an empty module cache; returns the module
    and the seconds the import took, raw and scaled to the reference host
    speed by calibration samples taken just before and after it."""
    for name in [m for m in sys.modules if m == "fibspaces" or m.startswith("fibspaces.")]:
        del sys.modules[name]
    before = hostspeed.sample()
    start = perf_counter()
    cli = importlib.import_module("fibspaces.cli")
    seconds = perf_counter() - start
    scale, = hostspeed.scales([before, hostspeed.sample()], [[]])
    return cli, (seconds, seconds * scale)


def load_cli():
    """Import fibspaces.cli from this checkout's src/ SETUP_REPEATS times;
    returns the module and the (raw, scaled) import times."""
    if not (SRC / "fibspaces" / "cli.py").is_file():
        raise SystemExit(f"error: no fibspaces sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        cli, measured = import_cli()
        times.append(measured)
    if Path(cli.__file__).resolve().parent != SRC / "fibspaces":
        raise SystemExit(f"error: imported fibspaces from {cli.__file__}, not {SRC}")
    return cli, times


def run_op(main, op, index, tracer):
    """One closed-loop operation; returns (exit code or error, start, end,
    stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = tracer.op(index, main, op.argv) if tracer else main(op.argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        except Exception as exc:  # a traceback is a failed operation, not an abort
            rc = f"raised {exc!r}"
        end = perf_counter()
    return rc, start, end, err.getvalue()


def validate(ops, results, scales):
    """Check every output of one cycle; returns one record per operation,
    with its latency scaled by the operation's factor in `scales`."""
    outs = {}
    for op, (rc, _, _) in zip(ops, results):
        if rc == 0 and os.path.exists(op.out):
            with open(op.out) as fh:
                outs[os.path.basename(op.out)] = fh.read()
    records = []
    for op, (rc, elapsed, stderr), scale in zip(ops, results, scales):
        text = outs.get(os.path.basename(op.out))
        if rc != 0:
            reason = f"exit {rc}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}"
        elif text is None:
            reason = "no output file"
        else:
            try:
                reason = op.check(text, outs)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
        records.append({
            "command": op.command,
            "latency_s": elapsed * scale,
            "raw_latency_s": elapsed,
            "reason": reason,
            "known_false": op.known_false if reason else None,
            "sizes": op.sizes,
            "max_bits": reference.max_bits(text) if text else 0,
        })
    return records


def run_cycles(main, workload, seed, *, first, seconds=None, count=None, tracer=None,
               reload=None):
    """Run whole cycles from index `first`: `count` of them, or as many as
    fit in `seconds` judging by the mean cycle so far (at least one).
    Calibration samples (hostspeed.py) are taken between operations and,
    except in a traced run, during them, and each latency is scaled to the
    reference host speed.  After each cycle, outside the timed interval,
    `reload` (if given) returns the main function for the next one.
    Returns (records, scaled seconds of each cycle, calibration samples)."""
    records, cycle_s, samples = [], [], []
    wall = 0.0
    while True:
        work = tempfile.mkdtemp(prefix="cycle-", dir=WORK)
        try:
            ops = wl.build_cycle(workload, seed, first + len(cycle_s), work)
            calibrator = hostspeed.Calibrator()
            start = perf_counter()
            # A traced run gets no timer samples, which its spans would count.
            with contextlib.nullcontext() if tracer else calibrator:
                bounds, during, results = [calibrator.sample()], [], []
                for i, op in enumerate(ops):
                    rc, op_start, op_end, stderr = run_op(main, op, len(records) + i, tracer)
                    inside = calibrator.during(op_start, op_end)
                    results.append((rc, op_end - op_start - sum(inside), stderr))
                    during.append(inside)
                    bounds.append(calibrator.sample())
            wall += perf_counter() - start
            samples += bounds + [s for inside in during for s in inside]
            checked = validate(ops, results, hostspeed.scales(bounds, during))
            cycle_s.append(sum(r["latency_s"] for r in checked))
            records += checked
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if reload is not None:
            main = reload()
        done = len(cycle_s)
        if count is not None:
            if done >= count:
                break
        elif wall + wall / done > seconds:
            break
    return records, cycle_s, samples


def quantile(values, q, steps=16):
    """Harrell-Davis estimate of the q-quantile: the order statistics
    averaged with Beta((n+1)q, (n+1)(1-q)) weights.  With a few dozen
    samples it is far steadier than the one or two order statistics a
    plain sample quantile reads, and with many it agrees with them."""
    data = sorted(values)
    n = len(data)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = [(i + (j + 0.5) / steps) / n for i in range(n) for j in range(steps)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x) for x in grid]
    peak = max(logs)
    dens = [math.exp(v - peak) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, data)) / sum(weights)


def tail(latencies, nominal):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of
    `nominal` samples beyond it (p50 when even that has fewer).  Choosing
    it from the nominal count keeps it fixed when a slow or fast host runs
    fewer or more cycles."""
    pct = next((p for p in TAIL_LADDER if nominal * (1 - p / 100) >= TAIL_MIN_BEYOND), 50)
    value = quantile(latencies, pct / 100)
    return value, {"percentile": pct, "samples": len(latencies),
                   "beyond": sum(v > value for v in latencies)}


def descriptor(workload, seed, cycles, records, extra):
    per_cycle = Counter(r["command"] for r in records)
    sizes: dict = {}
    for r in records:
        for key, value in r["sizes"].items():
            sizes.setdefault(key, set()).add(value)
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "load": "closed loop, 1 client, 1 process, 1 thread",
        "cycles": cycles,
        "ops_per_cycle": {k: v // cycles for k, v in sorted(per_cycle.items())},
        "ops": dict(sorted(per_cycle.items())),
        "sizes": {k: sorted(v) for k, v in sorted(sizes.items())},
        "max_bits": max((r["max_bits"] for r in records), default=0),
        **extra,
    }


def judge(records):
    """(attempted, failed, correct, failure lines); correct means every
    failed operation is a documented known-false verdict."""
    failures = [r for r in records if r["reason"]]
    groups = Counter((r["known_false"] or r["command"], r["reason"]) for r in failures)
    lines = [
        f"known false x{count}: {key} ({wl.KNOWN_FALSE[key]}): {reason}" if key in wl.KNOWN_FALSE
        else f"FAILED x{count}: {key}: {reason}"
        for (key, reason), count in groups.items()
    ]
    return len(records), len(failures), all(r["known_false"] for r in failures), lines


def end_to_end(cli, setup_times, workload, seed, seconds):
    # Set-up is timed again after every cycle, and each next cycle runs on
    # the fresh import, so that setup_s samples the host across the run.
    setup_times = list(setup_times)

    def reload():
        fresh, times = import_cli()
        setup_times.append(times)
        return fresh.main

    records, cycle_s, samples = run_cycles(cli.main, workload, seed, first=0, seconds=seconds,
                                           reload=reload)
    cycles = len(cycle_s)
    latencies = [r["latency_s"] for r in records]
    nominal_cycles = max(1, int(seconds // wl.NOMINAL_CYCLE_S[workload]))
    tail_s, tail_info = tail(latencies, len(records) // cycles * nominal_cycles)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        # Every cycle runs the same commands at the same sizes, so the median
        # cycle gives a throughput that one slow stretch of the host cannot
        # drag down.
        "ops_per_s": len(records) / cycles / statistics.median(cycle_s),
        "latency_p50_ms": quantile(latencies, 0.5) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted, failed, correct, failure_lines = judge(records)
    raw = [r["raw_latency_s"] for r in records]
    desc = descriptor(workload, seed, cycles, records, {
        "cycle_s": cycle_s,
        "latency_tail": tail_info,
        "fail_ratio": failed / attempted,
        "host_speed": {
            "calibration_ms": statistics.median(samples) * 1000,
            "reference_ms": hostspeed.REFERENCE_S * 1000,
            "raw_setup_s": statistics.median(unscaled for unscaled, _ in setup_times),
            "raw_ops_per_s": len(raw) / sum(raw),
            "raw_latency_p50_ms": statistics.median(raw) * 1000,
        },
    })
    print(f"run {json.dumps(desc)}")
    for name, value in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{tail_info['percentile']:g} of {tail_info['samples']} ops, {tail_info['beyond']} beyond)"
        print(f"{name:<16} {value:>14.6f} {END_TO_END_UNITS[name]}{note}")
    print(f"{'fail_ratio':<16} {failed / attempted:>14.6f} ratio  ({failed}/{attempted})")
    for line in failure_lines:
        print(line)
    return attempted, failed, correct, {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()
    }


def per_layer(cli, workload, seed, seconds):
    """Trace the first `cycles` cycles, then time as many fresh cycles
    untraced to get the tracing overhead."""
    cycles = max(1, round(seconds / wl.NOMINAL_CYCLE_S[workload]))
    tracer = Tracer()
    tracer.install()
    try:
        records, traced, _ = run_cycles(cli.main, workload, seed, first=0, count=cycles,
                                        tracer=tracer)
    finally:
        tracer.uninstall()
    plain, untraced, _ = run_cycles(cli.main, workload, seed, first=cycles, count=cycles)
    traced_s, untraced_s = sum(traced), sum(untraced)
    tracer.write(str(WORK / f"spans-{workload}-seed{seed}.json"))

    spans = tracer.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("cli.calls", span("cli", "calls"), "count")
    put("cli.self_s", span("cli", "self_s"), "s")
    for layer in ("triangles.forward", "triangles.inverse"):
        put(f"{layer}.calls", span(layer, "calls"), "count")
        put(f"{layer}.self_s", span(layer, "self_s"), "s")
    put("triangles.basis.self_s", span("triangles.basis", "self_s"), "s")
    put("triangles.oracle.self_s", span("triangles.oracle", "self_s"), "s")
    put("triangles.max_bits", max((r["max_bits"] for r in records), default=0), "bits")
    for name in COUNTERS:
        put(f"{name}.calls", tracer.counts[name], "count")
    put("exactreal.rpow.calls", span("exactreal.rpow", "calls"), "count")
    for layer in ("exactreal.rpow", "exactreal.window_norm", "spaces.space_norm",
                  "spaces.membership", "spaces.other", "duals.matrix", "duals.membership",
                  "matclasses.class_check", "matclasses.operator_norm", "matclasses.mnc"):
        put(f"{layer}.self_s", span(layer, "self_s"), "s")
    for layer in ("witnesses.gen", "duals.condition", "subsetsup", "verdicts"):
        put(f"{layer}.calls", span(layer, "calls"), "count")
        put(f"{layer}.self_s", span(layer, "self_s"), "s")
    subset_calls = span("subsetsup", "calls")
    put("subsetsup.rows_max", tracer.subset_rows_max, "rows")
    put("subsetsup.enumerated_ratio",
        tracer.subset_enumerated / subset_calls if subset_calls else 0.0, "ratio")
    for status in STATUSES:
        put(f"verdicts.status.{status}", tracer.statuses[status], "count")
    for cid in wl.GOLDEN_IDS:
        name = f"golden.check.{cid}"
        calls = span(name, "calls")
        put(f"{name}.s", span(name, "total_s") / calls if calls else 0.0, "s")
    put("trace.overhead", traced_s / untraced_s, "ratio")

    attempted, failed, correct, failure_lines = judge(records + plain)
    desc = descriptor(workload, seed, cycles, records, {
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": len(tracer.spans),
        "fail_ratio": failed / attempted,
    })
    print(f"run {json.dumps(desc)}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    for line in failure_lines:
        print(line)
    return attempted, failed, correct, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, setup_times = load_cli()
    WORK.mkdir(exist_ok=True)
    if args.trace:
        attempted, failed, correct, metrics = per_layer(cli, args.workload, args.seed, args.seconds)
    else:
        attempted, failed, correct, metrics = end_to_end(cli, setup_times, args.workload, args.seed,
                                                         args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
