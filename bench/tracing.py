"""Spans and counters around the calls into each fibspaces module.

The tracer wraps functions from outside the package: for each traced
function it replaces every binding of that function object in every loaded
``fibspaces`` module namespace (``forward_transform`` is bound in the
triangles, spaces, golden and cli modules and in the package itself), and
the class attribute for methods.  ``uninstall`` puts the originals back.

Layer boundaries get spans (name, start, end, parent, op id) kept in
memory; the hot accessors get counters only, since a span per call would
cost more than the call.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute) pairs; "Class.method" names a method.
SPANS = {
    "triangles.forward": [("triangles", "forward_transform")],
    "triangles.inverse": [("triangles", "inverse_transform")],
    "triangles.basis": [("triangles", "basis_vector")],
    # The brute-force oracles; compose is lazy, so its cost lands in window().
    "triangles.oracle": [("triangles", "Triangle.window"), ("triangles", "solve_triangle"),
                         ("triangles", "invert_window"), ("triangles", "apply_triangle")],
    "exactreal.rpow": [("exactreal", "rpow")],
    "exactreal.window_norm": [("exactreal", "window_norm")],
    "witnesses.gen": [("witnesses", "gen_witness")],
    "spaces.space_norm": [("spaces", "space_norm")],
    "spaces.membership": [("spaces", "membership_evidence")],
    "spaces.other": [("spaces", "parallelogram_check"), ("spaces", "tail_constant"),
                     ("spaces", "inclusion_bounds_check")],
    "duals.condition": [("duals", "dual_condition")],
    "duals.membership": [("duals", "dual_membership")],
    "duals.matrix": [("duals", "alpha_matrix"), ("duals", "beta_matrix"), ("duals", "_abar_table")],
    "matclasses.class_check": [("matclasses", "class_check")],
    "matclasses.operator_norm": [("matclasses", "operator_norm")],
    "matclasses.mnc": [("matclasses", "noncompactness_estimate"),
                       ("matclasses", "compactness_verdict")],
    "subsetsup": [("subsetsup", "subset_sup")],
    "verdicts": [("verdicts", "classify_growth"), ("verdicts", "classify_to_zero"),
                 ("verdicts", "conjunction")],
}

COUNTERS = {
    "sequences.fib": [("sequences", "fib"), ("sequences", "fib_sq")],
    "sequences.lambda": [("sequences", "LambdaSeq.value"), ("sequences", "LambdaSeq.gap")],
    "duals.abar": [("duals", "abar")],
    "matclasses.hat_entry": [("matclasses", "hat_entry")],
    "matclasses.hat_row": [("matclasses", "HatMatrix.row")],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.statuses: Counter = Counter()
        self.subset_rows_max = 0
        self.subset_enumerated = 0
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def _span(self, fn, name, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def op(self, op_id: int, fn, *args):
        """Run one CLI operation as the root span "cli"."""
        self._op = op_id
        return self._span(fn, "cli")(*args)

    def _on_subset(self, args, result):
        self.subset_rows_max = max(self.subset_rows_max, len(args[0]))
        self.subset_enumerated += bool(result.enumerated)

    def _on_verdict(self, args, result):
        self.statuses[result.status.value] += 1

    # -- installing

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, module_name, attr, make):
        module = sys.modules[f"fibspaces.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self._replace(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "fibspaces" or name.startswith("fibspaces."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    def install(self):
        hooks = {"subsetsup": self._on_subset, "verdicts": self._on_verdict}
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._wrap(module, attr, lambda fn, n=name: self._span(fn, n, hooks.get(n)))
        for name, targets in COUNTERS.items():
            for module, attr in targets:
                self._wrap(module, attr, lambda fn, n=name: self._counter(fn, n))
        golden = sys.modules["fibspaces.golden"]
        registry = golden._REGISTRY
        self._restore.append((golden, "_REGISTRY", registry))
        golden._REGISTRY = [
            (cid, desc, self._span(fn, f"golden.check.{cid}")) for cid, desc, fn in registry
        ]

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summarising

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return dict(out)

    def write(self, path: str):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[n, s - origin, e - origin, p, o] for n, s, e, p, o in self.spans],
            }, fh)
