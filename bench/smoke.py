"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

It shrinks every workload's sizes, then checks that each workload prints
every metric by name with its unit, that a corrupted round trip is caught
and raises fail_ratio, and that the seed changes the inputs but not the
operation counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import types
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "TRANSFORM_PAIRS": (4, 6),
    "TRANSFORM_WITNESSES": (("t", 4), ("alternating", 5)),
    "TRANSFORM_BASIS": (5,),
    "CERT_TRANSFORMS": ((4, "5/4"),),
    "CERT_NORMS": ((5, "3"),),
    "CERT_PLOTS": (("2,4", "3/2"),),
    "CERT_RATIONAL_NORMS": (6,),
    "DUALS": (("values", "lp:2", "beta", 12), ("unit", "linf", "alpha", 12),
              ("inv-fib-pow", "l1", "gamma", 8)),
    "ENUM_ROWS": (3, 4),
    "SAMPLED_ROWS": (17, 17),
    "E_CLASS_WINDOW": 8,
    "VERIFY_CHECKS": ("fib-cassini", "class-finite"),
}


def invoke(argv):
    """run.main's stdout lines and its parsed result line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(argv)
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def end_to_end(workload, seed, wrap):
    """One end-to-end cycle with the CLI's main wrapped by `wrap`."""
    cli, setup_times = run.load_cli()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        attempted, failed, correct, _ = run.end_to_end(
            types.SimpleNamespace(main=wrap(cli.main)), setup_times, workload, seed, 0)
    return buf.getvalue().splitlines(), {"attempted": attempted, "failed": failed, "correct": correct}


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._saved = {name: getattr(wl, name) for name in TINY}
        for name, value in TINY.items():
            setattr(wl, name, value)
        run.WORK.mkdir(exist_ok=True)
        cls.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    @classmethod
    def tearDownClass(cls):
        for name, value in cls._saved.items():
            setattr(wl, name, value)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in wl.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = invoke(["--workload", workload, "--seed", "3",
                                            "--seconds", "0", "--trace", str(trace)])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    declared = {m["name"]: m["unit"] for m in self.bench[kind]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, unit in declared.items():
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        self.assertTrue(any(ln.split()[:1] == [name] and f" {unit}" in ln
                                            for ln in lines[:-1]), f"{name} not printed")
                    if trace == 0:
                        self.assertTrue(any(ln.startswith("fail_ratio ") for ln in lines))

    def test_corrupted_round_trip_is_caught(self):
        def corrupting(main):
            def wrapped(argv):
                rc = main(argv)
                if "--inverse" in argv:
                    out = argv[argv.index("--out") + 1]
                    with open(out) as fh:
                        values = fh.read().split()
                    values[0] = values[0][1:] if values[0].startswith("-") else "-" + values[0]
                    with open(out, "w") as fh:
                        fh.write("\n".join(values) + "\n")
                return rc
            return wrapped

        _, clean = end_to_end("transform", 5, lambda main: main)
        lines, bad = end_to_end("transform", 5, corrupting)
        self.assertEqual(clean["failed"], 0)
        pairs = len(wl.TRANSFORM_PAIRS)
        self.assertEqual(bad["failed"], pairs)
        self.assertFalse(bad["correct"])
        ratio = next(float(ln.split()[1]) for ln in lines if ln.startswith("fail_ratio "))
        self.assertAlmostEqual(ratio, pairs / bad["attempted"], places=5)
        self.assertTrue(any("inverse(forward(x)) differs" in ln for ln in lines))

    def test_seed_changes_inputs_not_op_counts(self):
        work = tempfile.mkdtemp(dir=run.WORK)
        try:
            for workload in wl.WORKLOADS:
                with self.subTest(workload=workload):
                    a = wl.build_cycle(workload, 1, 0, work)
                    b = wl.build_cycle(workload, 2, 0, work)
                    self.assertEqual(Counter(op.command for op in a), Counter(op.command for op in b))
                    self.assertNotEqual([op.argv for op in a], [op.argv for op in b])
                    self.assertEqual([op.argv for op in a],
                                     [op.argv for op in wl.build_cycle(workload, 1, 0, work)])
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_host_speed_scaling(self):
        ref = run.hostspeed.REFERENCE_S
        # A host at half the reference speed halves every time; one outlier
        # sample beside an operation does not move its factor, and samples
        # taken during a long operation outweigh those at its ends.
        self.assertEqual(run.hostspeed.scales([2 * ref] * 5, [[]] * 4), [0.5] * 4)
        self.assertEqual(run.hostspeed.scales([2 * ref] * 6 + [40 * ref], [[]] * 6), [0.5] * 6)
        self.assertEqual(run.hostspeed.scales([ref, ref], [[4 * ref] * 5]), [0.25])
        with run.hostspeed.Calibrator() as calibrator:
            start = run.perf_counter()
            while len(calibrator.ticks) < 3 and run.perf_counter() - start < 5:
                sum(range(1000))
            end = run.perf_counter()
        self.assertEqual(len(calibrator.during(start, end)), 3)

    def test_traced_counts_repeat_for_a_seed(self):
        def counts(seed):
            lines, result = invoke(["--workload", "analysis", "--seed", str(seed),
                                    "--seconds", "0", "--trace", "1"])
            run_line = json.loads(next(ln for ln in lines if ln.startswith("run "))[4:])
            exact = {k: v["value"] for k, v in result["metrics"].items()
                     if k.startswith("verdicts.status.") or k == "triangles.max_bits"}
            return exact, run_line["ops"]

        first, ops_first = counts(4)
        again, _ = counts(4)
        _, ops_other = counts(5)
        self.assertEqual(first, again)
        self.assertEqual(ops_first, ops_other)


if __name__ == "__main__":
    unittest.main()
