"""CLI behaviour: output formats, exit codes, determinism."""

import argparse
import collections
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fibspaces import cli, subsetsup
from fibspaces.cli import build_parser, main
from fibspaces.exactreal import DEFAULT_PRECISION, Exponent, to_float
from fibspaces.matclasses import HatMatrix
from fibspaces.sequences import LambdaSeq
from fibspaces.spaces import space_norm
from fibspaces.triangles import MATRIX_INDEX_LIMIT

DATA = Path(__file__).resolve().parent / "data"


def _pinned_commands():
    """(snapshot name, argv) per command line of the pinned-output manifest."""
    lines = (DATA / "pinned_commands.txt").read_text().splitlines()
    return [(name, tuple(argv)) for name, *argv in
            (line.split() for line in lines if line.strip() and not line.startswith("#"))]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransform:
    def test_witness_t_gives_ones(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--x", "witness:t", "--lambda", "linear:1,1", "-N", "8"
        )
        assert code == 0
        assert out.split() == ["1"] * 8

    def test_inverse_unit(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--inverse", "--y", "unit:0",
            "--lambda", "linear:1,1", "-N", "4",
        )
        assert code == 0
        assert out.split() == ["1", "2", "9/2", "25/2"]

    def test_zero_window(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--x", "zero", "-N", "4")
        assert code == 0
        assert out.split() == ["0"] * 4

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--x", "witness:u", "-N", "4", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["command"] == "transform"
        assert "fn" not in doc["config"]

    def test_float_mode_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--inverse", "--y", "unit:0", "-N", "3",
            "--mode", "float",
        )
        assert code == 0
        assert out.split() == ["1.0", "2.0", "4.5"]


class TestExitCodes:
    def test_reader_closing_early_exits_quietly(self, tmp_path):
        # 212 kB of output, more than a pipe buffers, so the write meets the
        # closed pipe whatever the scheduling.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with open(tmp_path / "err", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "fibspaces.cli", "basis", "--k", "3", "-N", "1000"],
                stdout=subprocess.PIPE, stderr=err, env=env,
            )
            assert proc.stdout.readline().strip() == b"0"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        assert (tmp_path / "err").read_bytes() == b""

    def test_unknown_witness_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--x", "witness:nope", "-N", "4")
        assert code == 3
        assert "domain error" in err

    def test_bad_rational_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "norm", "--x", "values:1,bogus", "--p", "2", "-N", "2")
        assert code == 2
        assert "input error" in err

    def test_bad_lambda_is_domain_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "transform", "--x", "witness:t", "--lambda", "linear:1,0", "-N", "4"
        )
        assert code == 3

    def test_missing_matrix_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "mnc", "--A", "/nonexistent.json", "--p", "2", "--Y", "c0"
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("transform", "--x", "unit:abc", "-N", "4"),
        ("dual", "--a", "unit:x", "--space", "l1", "--kind", "beta"),
        ("dual", "--a", "inv-fib-pow:3.5", "--space", "l1", "--kind", "beta"),
    ])
    def test_non_integer_spec_parameter_is_parse_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("argv", [
        ("transform", "--x", "unit:-1", "-N", "4"),
        ("norm", "--x", "unit:-1", "-N", "4"),
        ("dual", "--a", "unit:-1"),
    ])
    def test_negative_unit_index_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == "" and "unit index must be >= 0" in err

    @pytest.mark.parametrize("argv", [
        ("transform", "--x", "e", "-N", "3"),
        ("opnorm", "--A", "identity", "--window", "4"),
        ("verify-paper", "--only", "fib-cassini"),
    ])
    @pytest.mark.parametrize("target", ["/", "missing-dir/report.json"])
    def test_unwritable_out_is_parse_error(self, capsys, tmp_path, argv, target):
        out_path = target if target == "/" else str(tmp_path / target)
        code, out, err = run_cli(capsys, *argv, "--out", out_path)
        assert code == 2
        assert out == "" and err.startswith("input error: cannot write")

    @pytest.mark.parametrize("text", [
        "{not json", "[" * 100_000,
        # An integer literal past CPython's 4,300-digit int-to-str limit.
        pytest.param('{"kind": "dense", "entries": [[%s]]}' % ("9" * 5000), id="huge-int"),
    ])
    def test_malformed_matrix_file_is_parse_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "opnorm", "--A", str(path))
        assert code == 2
        assert "malformed matrix JSON" in err

    @pytest.mark.parametrize("argv", [
        ("opnorm", "--A", "E", "--p", "2", "--Y", "l1", "--window", "0"),
        ("opnorm", "--A", "E", "--p", "2", "--Y", "linf", "--window", "-1"),
        ("class", "--A", "E", "--window", "0"),
        ("class", "--A", "E", "--X", "linf", "--Y", "l1", "--window", "-2"),
    ])
    def test_empty_window_is_domain_error(self, capsys, argv):
        # E's hat matrix is the identity: an empty window would report the
        # empty supremum 0 as its norm, or a class condition holding with 0.
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == "" and "domain error" in err

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_window_length_below_one_is_domain_error(self, capsys, n):
        code, out, err = run_cli(capsys, "transform", "--inverse", "--y", "e", "-N", n)
        assert code == 3
        assert out == "" and f"window length must be >= 1, got {n}" in err

    @pytest.mark.parametrize("argv", [
        ("opnorm", "--p", "2", "--Y", "l1"),
        ("mnc", "--p", "2", "--Y", "l1", "--rmax", "4"),
    ])
    def test_entries_past_float_range(self, capsys, tmp_path, argv):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "dense", "entries": [[str(10**200)]]}))
        code, out, err = run_cli(capsys, *argv, "--A", str(path))
        assert code == 0, err
        assert json.loads(out)["result"]

    @pytest.mark.parametrize("argv", [
        ("class", "--A", "BIG", "--X", "lp:2", "--Y", "c0"),
        ("class", "--A", "BIG", "--X", "lp:2", "--Y", "l1"),
        ("class", "--A", "BIG", "--X", "lp:2", "--Y", "linf"),
        ("dual", "--a", f"values:{10**200}", "--space", "lp:2", "--kind", "beta"),
        ("dual", "--a", f"values:{10**200}", "--space", "lp:2", "--kind", "alpha"),
        ("norm", "--x", f"values:{10**200},1", "--p", "2", "-N", "2"),
        ("transform", "--x", f"values:{10**400},1", "-N", "2", "--mode", "float"),
        ("plot-data", "--quantity", "norm", "--x", f"values:{10**400},1", "--sweep", "2"),
    ])
    def test_values_past_float_range(self, capsys, tmp_path, argv):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "dense", "entries": [[str(10**200)]]}))
        argv = [str(path) if a == "BIG" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert err == ""
        if argv[0] in ("transform", "plot-data"):
            assert "inf" in out.split()[-1]
        else:
            assert json.loads(out)["result"]

    @pytest.mark.parametrize("doc", [
        {"kind": "rows", "rows": {"x": ["1"]}},
        {"kind": "band", "size": "abc"},
        {"kind": "dense", "entries": 5},
        {"kind": "rows", "rows": {"-1": ["1"]}},
        {"kind": "dense", "entries": [5]},
        {"kind": "band", "size": 3, "bands": {"one": ["1"]}},
        {"kind": "band", "size": 2.5},
        {"kind": "band", "size": True},
        {"kind": "rows", "rows": {str(MATRIX_INDEX_LIMIT + 1): ["1"]}},
        {"kind": "band", "size": MATRIX_INDEX_LIMIT + 1, "bands": {"0": ["1"]}},
        {"kind": "band", "size": 3, "bands": {str(-MATRIX_INDEX_LIMIT - 1): ["1"]}},
    ])
    def test_malformed_matrix_json_is_parse_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "opnorm", "--A", str(path), "--p", "2")
        assert code == 2
        assert "input error" in err


class TestSubsetMode:
    DUAL = ("dual", "--a", "inv-fib-pow:3", "--kind", "alpha", "--window", "40")

    @pytest.mark.parametrize("space", ["lp:2", "linf", "lp:3"])
    def test_exact_dual_settles_past_sixteen_rows(self, capsys, space):
        code, out, _ = run_cli(capsys, *self.DUAL, "--space", space)
        assert code == 0
        (d1,) = json.loads(out)["result"]["conditions"]
        assert d1["condition"] == "d1" and d1["lower_bound_only"] is False

    def test_dual_past_the_budget_is_a_lower_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(subsetsup, "NODE_LIMIT", 64)
        code, out, _ = run_cli(capsys, *self.DUAL, "--space", "lp:2")
        assert code == 0
        (d1,) = json.loads(out)["result"]["conditions"]
        assert d1["condition"] == "d1" and d1["lower_bound_only"] is True

    def test_subset_names_row_indices(self, capsys, tmp_path):
        """A zero row before the nonzero ones keeps its index in the
        printed subset."""
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"kind": "dense", "entries": [["0", "0"], ["1", "0"], ["0", "1"]]}
        ))
        code, out, _ = run_cli(capsys, "class", "--A", str(path), "--X", "lp:2", "--Y", "l1")
        assert code == 0
        conditions = dict(json.loads(out)["result"]["conditions"])
        assert conditions["row-subset-sup"]["detail"]["subset"] == "(1, 2)"
        assert conditions["row-subset-sup"]["value"] == "25 (exact)"

    @pytest.mark.parametrize("argv", [
        ("dual", "--a", "unit:0", "--subset-mode", "sample"),
        ("dual", "--a", "unit:0", "--seed", "3"),
        ("mnc", "--A", "E", "--seed", "3"),
        ("dual", "--a", "unit:0", "--subset-mode", "exact"),
    ])
    def test_sampler_options_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


def _subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _option_fields(parser):
    return [
        (a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.nargs, a.help)
        for a in parser._actions
    ]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on --help and on bad arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptions:
    # Every option a command accepts is one it reads.
    OPTIONS = {
        "transform": {"--lambda", "--out", "--mode", "--precision", "--x", "--y",
                      "--inverse", "-N", "--p", "--json"},
        "invert": {"--lambda", "--out", "--mode", "--A", "-N"},
        "norm": {"--lambda", "--out", "--mode", "--precision", "--x", "--p", "-N"},
        "basis": {"--lambda", "--out", "--mode", "--k", "-N", "--json"},
        "dual": {"--lambda", "--out", "--window", "--a", "--space", "--kind"},
        "class": {"--lambda", "--out", "--window", "--A", "--X", "--Y"},
        "opnorm": {"--lambda", "--out", "--precision", "--window", "--A", "--p", "--Y"},
        "mnc": {"--lambda", "--out", "--precision", "--rmax", "--A", "--p", "--Y"},
        "verify-paper": {"--only", "-N", "--p", "--seed", "--json", "--out"},
        "plot-data": {"--lambda", "--out", "--precision", "--rmax", "--quantity", "--x",
                      "--p", "--sweep", "--A", "--Y"},
    }

    def test_option_sets(self):
        found = {
            name: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            for name, parser in _subparsers(build_parser()).items()
        }
        assert found == self.OPTIONS
        assert sum(map(len, found.values())) == 70

    @pytest.mark.parametrize("argv", [
        ("class", "--A", "E", "--mode", "float"),
        ("dual", "--a", "unit:0", "--precision", "64"),
        ("invert", "--precision", "64"),
    ])
    def test_unread_options_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


class TestParser:
    """main builds only the invoked command's parser; nothing it prints may change."""

    ARGVS = [
        [], ["--help"], ["transform", "--help"], ["verify-paper", "-h"], ["bogus"],
        ["transform", "--bogus"], ["transform", "-N", "3", "--x", "e", "extra"],
        ["--lambda", "linear:1,1", "transform"], ["class", "--window", "8"],
        ["dual", "--a", "e", "--kind", "delta"], ["transform", "-N", "abc"],
        ["transform", "--x", "e", "-N", "3"], ["basis", "--k", "1", "-N", "4", "--json"],
        ["verify-paper", "--only", "fib-cassini"],
    ]

    def test_one_command_parser_matches_the_full_one(self):
        full = _subparsers(build_parser())
        for name, parser in full.items():
            alone = _subparsers(build_parser(name))
            assert list(alone) == [name]
            assert _option_fields(alone[name]) == _option_fields(parser), name
            assert alone[name].prog == parser.prog
            assert alone[name].get_default("fn") is parser.get_default("fn")

    def test_outputs_match_the_full_parser(self, capsys, monkeypatch):
        ours = [_outcome(capsys, list(argv)) for argv in self.ARGVS]
        full_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
        assert ours == [_outcome(capsys, list(argv)) for argv in self.ARGVS]

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fibspaces", "transform", "--x", "witness:t", "-N", "3"])
        assert main() == 0
        assert capsys.readouterr().out.split() == ["1"] * 3


class TestCommands:
    @pytest.fixture
    def single_row(self, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"kind": "rows", "rows": {"0": ["1"]}}))
        return str(path)

    def test_norm_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "norm", "--x", "witness:u", "--p", "2", "-N", "8"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["window"] == 8
        assert "1.41421" in doc["result"]["value"]

    def test_basis(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--k", "0", "-N", "3")
        assert code == 0
        assert out.split() == ["1", "2", "9/2"]

    def test_invert_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--A", "E", "-N", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["rows"][2][0] == "9/2"

    def test_dual_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "dual", "--a", "unit:0", "--space", "lp:2", "--kind", "beta",
            "--window", "24",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"]["status"] == "holds-exactly"
        assert [c["condition"] for c in doc["result"]["conditions"]] == ["d3", "d4", "d5"]

    def test_class_report(self, capsys, single_row):
        code, out, _ = run_cli(
            capsys, "class", "--A", single_row, "--X", "lp:2", "--Y", "c0",
            "--window", "12",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"]["status"] == "holds-exactly"

    def test_class_e_into_linf_is_not_diverging(self, capsys):
        code, out, _ = run_cli(
            capsys, "class", "--A", "E", "--X", "lp:2", "--Y", "linf", "--window", "32",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["verdict"]["status"] == "evidence-bounded"
        assert dict(result["conditions"])["rows-in-beta-dual"]["status"] == "holds-exactly"

    def test_class_identity_linf_linf_reads_schur_row_sums(self, capsys):
        """(linf : linf) asks for sup_n sum_k |hat_nk|.  The identity's hat
        matrix is the inverse of E, whose column 0 is unbounded, so its row
        sums diverge, as opnorm --p inf --Y linf says."""
        code, out, _ = run_cli(
            capsys, "class", "--A", "identity", "--X", "linf", "--Y", "linf",
            "--window", "16", "--lambda", "linear:1,1",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["verdict"]["status"] == "evidence-diverging"
        assert dict(result["conditions"])["row-l1-sup"]["status"] == "evidence-diverging"

    def test_opnorm_report(self, capsys, single_row):
        code, out, _ = run_cli(
            capsys, "opnorm", "--A", single_row, "--p", "2", "--Y", "linf"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["kind"] == "exact"
        assert doc["result"]["value"] == "1 (exact)"

    def test_mnc_report(self, capsys, single_row):
        code, out, _ = run_cli(
            capsys, "mnc", "--A", single_row, "--p", "2", "--Y", "c0", "--rmax", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["exact"] is True
        assert doc["result"]["compactness"]["label"] == "compact"
        assert doc["result"]["sweep"] == [[1, 0.0]]

    def test_mnc_reads_each_row_once_within_its_bound(self, capsys, monkeypatch):
        """A triangle's sweep reads only the hat rows n < rmax + 8 and
        computes each row's size once, though the windows overlap."""
        reads = collections.Counter()
        row = HatMatrix.row

        def counting(self, n):
            reads[n] += 1
            return row(self, n)

        monkeypatch.setattr(HatMatrix, "row", counting)
        code, out, _ = run_cli(capsys, "mnc", "--A", "E", "--p", "2", "--rmax", "6")
        assert code == 0
        assert max(reads) < 6 + 8 and set(reads.values()) == {1}
        assert json.loads(out)["result"]["compactness"]["label"] == "evidence-noncompact"

    def test_plot_data_mnc(self, capsys, single_row):
        code, out, _ = run_cli(
            capsys, "plot-data", "--quantity", "mnc", "--A", single_row,
            "--p", "2", "--Y", "c0", "--rmax", "4",
        )
        assert code == 0
        assert out.strip().splitlines() == ["w,s", "1,0.0"]

    def test_plot_data_norm_sweep_increases(self, capsys):
        code, out, _ = run_cli(
            capsys, "plot-data", "--quantity", "norm", "--x", "witness:t",
            "--p", "2", "--sweep", "4,8,16",
        )
        assert code == 0
        lines = out.strip().splitlines()
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values) and values[0] < values[-1]

    def test_out_file(self, capsys, tmp_path, single_row):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "opnorm", "--A", single_row, "--p", "2", "--Y", "linf",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["result"]["kind"] == "exact"


class TestVerifySuite:
    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "fib")
        assert code == 0
        assert out.count("PASS") == 3

    def test_unknown_filter(self, capsys):
        code, _, _ = run_cli(capsys, "verify-paper", "--only", "bogus-check")
        assert code == 2

    @pytest.mark.parametrize("argv, expected", [
        (("-N", "0"), 3),
        (("-N", "-2"), 3),
        (("--p", "0"), 2),
        (("--p", ""), 2),
    ])
    def test_bad_window_and_exponent_are_input_errors(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "verify-paper", "--only", "inverse-identity", *argv)
        assert code == expected
        assert out == "" and err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "fib-cassini", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"][0]["passed"] is True

    def test_full_json_report_is_pinned(self, capsys):
        # All 26 checks at the default seed, byte for byte; the snapshot was
        # written by `python -m fibspaces.cli verify-paper --json`.
        code, out, _ = run_cli(capsys, "verify-paper", "--json")
        assert code == 0
        assert out.encode() == (DATA / "verify_paper.json").read_bytes()

    # The printed certified bounds of the transforms, norms and pairings, byte
    # for byte, for each snapshot of the manifest.
    @pytest.mark.parametrize("name, argv", _pinned_commands())
    def test_command_output_is_pinned(self, capsys, name, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()

    def test_manifest_names_every_snapshot_once(self):
        # An orphaned snapshot would be compared by nothing, a duplicated
        # line would pin one file twice.
        names = [name for name, _ in _pinned_commands()]
        assert len(names) == len(set(names))
        files = {p.name for p in DATA.iterdir()} - {"verify_paper.json", "pinned_commands.txt"}
        assert set(names) == files

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "verify-paper", "--only", "inverse-oracle", "--seed", "7")
        _, second, _ = run_cli(capsys, "verify-paper", "--only", "inverse-oracle", "--seed", "7")
        assert first == second

    def test_mnc_determinism(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "dense", "entries": [["1", "-1/2"], ["1/3", "2"]]}))
        args = ("mnc", "--A", str(path), "--p", "2", "--Y", "l1", "--rmax", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestPlotDataEdges:
    @pytest.mark.parametrize("spec, p", [
        ("witness:power-law", "3/2"),
        ("witness:t", "2"),
        ("witness:alternating", "inf"),
        ("values:1,-2,3/4", "3"),
        ("inv-fib-pow:2", "2"),
    ])
    def test_norm_sweep_equals_the_per_point_norms(self, capsys, spec, p):
        """The sweep reads prefixes of one deep window; each row must be
        the norm of the window built at that point alone, for an unsorted
        sweep with a repeated point."""
        sweep = [12, 4, 20, 4, 9]
        lam = LambdaSeq.geometric(Fraction(3, 2), 1)
        code, out, _ = run_cli(
            capsys, "plot-data", "--quantity", "norm", "--x", spec, "--p", p,
            "--sweep", ",".join(map(str, sweep)), "--lambda", "geometric:3/2,1",
        )
        assert code == 0
        rows = []
        for n in sweep:
            x = cli._parse_seq_spec(spec, lam, n, Exponent.parse(p), DEFAULT_PRECISION)
            est = space_norm(x, lam, Exponent.parse(p), DEFAULT_PRECISION)
            rows.append(f"{n},{to_float(est.value.value)!r}")
        assert out == "\n".join(["n,value"] + rows) + "\n"

    def test_empty_sweep_is_parse_error(self, capsys):
        for sweep in ("", ",,", " , "):
            code, out, err = run_cli(
                capsys, "plot-data", "--quantity", "norm", "--x", "witness:t",
                "--p", "2", "--sweep", sweep,
            )
            assert code == 2, sweep
            assert out == "" and "input error" in err

    @pytest.mark.parametrize("sweep", ["4,x", "4.5", "8,1/2"])
    def test_non_integer_sweep_is_parse_error(self, capsys, sweep):
        code, out, err = run_cli(
            capsys, "plot-data", "--quantity", "norm", "--x", "witness:t",
            "--p", "2", "--sweep", sweep,
        )
        assert code == 2
        assert out == "" and "input error" in err
