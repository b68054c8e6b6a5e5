"""Command-line surface checks: worked examples, formats, exit codes,
and parse failures."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fivedecision.cli import build_parser, main
from fivedecision.decisions import _TARGETS, Procedure
from fivedecision.stattests import two_sample_t_raw

CHICK_SUMMARY = "10,205.6,65.2,10,258.9,70.3"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecideSummary:
    def test_worked_example_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--summary", CHICK_SUMMARY, "--alpha", "0.05"
        )
        assert code == 0
        assert "decision 4, reject H4" in out
        assert "no hypothesis rejected" in out  # directional two-sided
        assert "also rejects H5" in out

    def test_worked_example_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--summary", CHICK_SUMMARY, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["decisions"]["five_decision"]["index"] == 4
        assert payload["decisions"]["kaiser"]["index"] == 3
        assert payload["decisions"]["jones_tukey"]["index"] == 4
        assert payload["t_stat"] == pytest.approx(1.7579054325628478, abs=1e-9)
        assert payload["df"] == 18
        assert payload["p_two_sided"] == pytest.approx(0.09575610070933795, abs=1e-9)
        assert payload["ci"]["wide"][0] == pytest.approx(-10.4003235, abs=1e-5)
        assert payload["ci"]["narrow"][1] == pytest.approx(105.8771117, abs=1e-5)

    def test_alpha_variants(self, capsys):
        _, out_10, _ = run_cli(
            capsys,
            "decide",
            "--summary",
            CHICK_SUMMARY,
            "--alpha",
            "0.10",
            "--format",
            "json",
        )
        assert json.loads(out_10)["decisions"]["five_decision"]["index"] == 5
        _, out_01, _ = run_cli(
            capsys,
            "decide",
            "--summary",
            CHICK_SUMMARY,
            "--alpha",
            "0.01",
            "--format",
            "json",
        )
        assert json.loads(out_01)["decisions"]["five_decision"]["index"] == 3

    def test_identical_groups(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "--summary", "10,100,10,10,100,10")
        assert code == 0
        assert "decision 3, no hypothesis rejected" in out

    def test_malformed_summary(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--summary", "10,100,abc,10,100,10")
        assert code == 2
        assert "non-numeric" in err

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide"])
        assert exc.value.code == 2

    def test_bad_alpha_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "decide", "--summary", CHICK_SUMMARY, "--alpha", "0.7"
        )
        assert code == 2
        assert "alpha" in err

    def test_df_beyond_two_to_the_53_is_usage_error(self, capsys):
        n = 5 * 10**15  # df = 1e16 - 2
        code, out, err = run_cli(capsys, "decide", "--summary", f"{n},1,1,{n},2,1")
        assert (code, out) == (2, "")
        assert "df <= 2**53" in err


class TestDecideCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_direction_and_values(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            "group,value\nctrl,1.0\nctrl,2.0\nctrl,1.5\ntreat,2.5\ntreat,3.5\ntreat,3.0\n",
        )
        code, out, _ = run_cli(capsys, "decide", "--csv", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        # Second-appearing group minus first-appearing group.
        ref = two_sample_t_raw([2.5, 3.5, 3.0], [1.0, 2.0, 1.5])
        assert payload["direction"] == "treat minus ctrl"
        assert payload["t_stat"] == pytest.approx(ref.t_stat, abs=1e-12)
        assert payload["estimate"] == pytest.approx(1.5, abs=1e-12)

    def test_bom_and_crlf_read_like_plain_utf8(self, capsys, tmp_path):
        # As Excel saves "CSV UTF-8": a byte-order mark, and CRLF line ends.
        text = "group,value\nctrl,1.0\nctrl,2.0\ntreat,2.5\ntreat,3.5\n"
        outputs = []
        for prefix, newline in (("", "\n"), ("\ufeff", "\n"), ("\ufeff", "\r\n")):
            path = tmp_path / "data.csv"
            path.write_bytes((prefix + text.replace("\n", newline)).encode("utf-8"))
            code, out, err = run_cli(capsys, "decide", "--csv", str(path), "--format", "json")
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_bad_header(self, capsys, tmp_path):
        path = self._write(tmp_path, "a,b\nx,1\n")
        code, _, err = run_cli(capsys, "decide", "--csv", path)
        assert code == 2
        assert "line 1" in err

    def test_bad_value_reports_line(self, capsys, tmp_path):
        path = self._write(tmp_path, "group,value\na,1\na,2\nb,oops\nb,3\n")
        code, _, err = run_cli(capsys, "decide", "--csv", path)
        assert code == 2
        assert "line 4" in err

    def test_three_groups_rejected(self, capsys, tmp_path):
        path = self._write(tmp_path, "group,value\na,1\na,2\nb,1\nb,2\nc,1\nc,2\n")
        code, _, err = run_cli(capsys, "decide", "--csv", path)
        assert code == 2
        assert "2 distinct groups" in err

    def test_degenerate_data_exit_code(self, capsys, tmp_path):
        path = self._write(tmp_path, "group,value\na,1\na,1\nb,2\nb,2\n")
        code, _, err = run_cli(capsys, "decide", "--csv", path)
        assert code == 3
        assert "degenerate" in err

    def test_short_group_exit_code(self, capsys, tmp_path):
        path = self._write(tmp_path, "group,value\na,1\nb,2\nb,3\n")
        code, _, _ = run_cli(capsys, "decide", "--csv", path)
        assert code == 3

    def test_nan_theta0_is_usage_error(self, capsys, tmp_path):
        path = self._write(tmp_path, "group,value\na,1\na,2\nb,2\nb,4\n")
        for source in (["--summary", CHICK_SUMMARY], ["--csv", path]):
            code, _, err = run_cli(capsys, "decide", *source, "--theta0", "nan")
            assert code == 2
            assert "theta0 must be finite" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "decide", "--csv", "/nonexistent.csv")
        assert code == 2
        assert "cannot read" in err


class TestPower:
    def test_size_at_null(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "power",
            "--alpha",
            "0.05",
            "--effect",
            "0",
            "--target",
            "H4",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["power"]["H4"] == pytest.approx(0.05, abs=1e-12)

    def test_all_targets_reported(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--effect", "2.5", "--format", "json")
        assert code == 0
        power = json.loads(out)["power"]
        assert set(power) == {"H1", "H2", "H4", "H5"}
        assert power["H5"] == pytest.approx(0.705413902442457, abs=1e-12)
        assert power["H4"] == pytest.approx(0.8037649400154937, abs=1e-12)


class TestSampleSize:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "samplesize",
            "--alpha",
            "0.05",
            "--power",
            "0.80",
            "--delta",
            "0.5",
            "--tau-sq",
            "2",
        )
        assert code == 0
        assert "n = 63" in out
        assert "n = 50" in out
        assert "21%" in out

    def test_json_full_precision(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "samplesize",
            "--alpha",
            "0.05",
            "--power",
            "0.80",
            "--delta",
            "0.5",
            "--tau-sq",
            "2",
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert payload["non_strict"]["n"] == 63
        assert payload["strict"]["n"] == 50
        assert payload["non_strict"]["n_exact"] == pytest.approx(
            62.79103787479271, abs=1e-9
        )
        assert payload["reduction"] == pytest.approx(0.21230067968005517, abs=1e-12)

    def test_infeasible_power_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "samplesize",
            "--alpha",
            "0.05",
            "--power",
            "0.01",
            "--delta",
            "0.5",
            "--tau-sq",
            "2",
        )
        assert code == 2
        assert "power" in err

    def test_alpha_above_half_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "samplesize",
            "--alpha",
            "0.7",
            "--power",
            "0.80",
            "--delta",
            "0.5",
            "--tau-sq",
            "2",
        )
        assert code == 2
        assert "alpha must lie in (0, 0.5]" in err


class TestTable:
    PERCENTS = [
        [30, 21, 18, 17, 14],
        [18, 14, 13, 11, 10],
        [16, 12, 11, 10, 9],
        [12, 9, 9, 8, 7],
    ]

    def test_default_grid_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == 0
        assert json.loads(out)["percents"] == self.PERCENTS

    def test_default_grid_text(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "30%" in out and "7%" in out
        assert out.count("\n") == 5  # header + four alpha rows

    def test_custom_single_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--alphas", "0.05", "--powers", "0.8", "--format", "json"
        )
        assert json.loads(out)["percents"] == [[21]]

    def test_alpha_above_half_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--alphas", "0.7", "--powers", "0.99")
        assert code == 2
        assert "alpha must lie in (0, 0.5]" in err


class TestSimulate:
    def test_single_trial(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--n",
            "10",
            "--trials",
            "1",
            "--seed",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["freq"].values()) == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert payload["schema_version"] == 3

    def test_worker_count_invisible_in_json(self, capsys):
        argv = [
            "simulate",
            "--n",
            "12",
            "--effect",
            "0.3",
            "--trials",
            "70000",
            "--seed",
            "9",
            "--format",
            "json",
        ]
        code1, out1, _ = run_cli(capsys, *argv, "--workers", "1")
        code2, out2, _ = run_cli(capsys, *argv, "--workers", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_procedure_choices(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--n",
            "10",
            "--trials",
            "100",
            "--procedure",
            "jones-tukey",
            "--format",
            "json",
        )
        assert code == 0
        assert set(json.loads(out)["counts"]) == {"2", "3", "4"}

    def test_procedure_choices_follow_the_enum(self):
        (commands,) = [
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        option = next(
            a for a in commands.choices["simulate"]._actions if a.dest == "procedure"
        )
        assert list(option.choices) == [p.value for p in Procedure]

    def test_invalid_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--n", "10", "--trials", "10", "--seed", "-1"
        )
        assert code == 2
        assert "seed" in err


def test_shared_options_reach_every_subcommand():
    (commands,) = [
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        name: {a.dest: a for a in parser._actions}
        for name, parser in commands.choices.items()
    }
    for name, by_dest in options.items():
        assert {"format", "precision"} <= set(by_dest), name
    for name in ("decide", "power", "samplesize", "simulate"):
        assert options[name]["alpha"].default == 0.05, name
    targets = options["power"]["target"].choices
    assert list(targets) == [h.value for h in _TARGETS]


class TestRegions:
    def test_default_three_levels(self, capsys):
        code, out, _ = run_cli(capsys, "regions")
        assert code == 0
        assert out.count("alpha=") == 3
        assert "decision 3" in out

    def test_t18_boundaries(self, capsys):
        code, out, _ = run_cli(capsys, "regions", "--format", "json")
        payload = json.loads(out)
        by_alpha = {r["alpha"]: r["boundaries"] for r in payload["regions"]}
        q = by_alpha[0.05]
        assert [round(v, 2) for v in q] == [-2.10, -1.73, 1.73, 2.10]

    def test_df_beyond_two_to_the_53_is_usage_error(self, capsys):
        # The Pfaff tail there printed +-3.1153/+-3.3119 at alpha 0.001,
        # where the true boundaries are +-3.0902/+-3.2905.
        code, out, err = run_cli(capsys, "regions", "--df", "1e17", "--alpha", "0.001")
        assert (code, out) == (2, "")
        assert "df <= 2**53" in err

    def test_normal_boundaries(self, capsys):
        code, out, _ = run_cli(
            capsys, "regions", "--null", "normal", "--alpha", "0.05", "--format", "json"
        )
        q = json.loads(out)["regions"][0]["boundaries"]
        assert [round(v, 3) for v in q] == [-1.960, -1.645, 1.645, 1.960]

    def test_alpha_half_degenerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "regions", "--alpha", "0.5", "--format", "json"
        )
        q = json.loads(out)["regions"][0]["boundaries"]
        assert q[1] == q[2] == 0.0

    def test_tsv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "regions", "--format", "tsv")
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[0] == "alpha"
        assert len(lines) == 1 + 3 * 5  # header + 5 regions per level


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
def test_closed_stdout_ends_quietly(fmt):
    # The read end closes before the CLI writes, as `| head -0` would.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["-m", "fivedecision", "decide", "--summary", CHICK_SUMMARY, "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
