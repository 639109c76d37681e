"""End-to-end command line tests, run in process through main()."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kpwaves import cli
from kpwaves.cli import ConfigError, load_config, main
from kpwaves.ensemble import MomentReport

README = Path(__file__).resolve().parent.parent / "README.md"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = verify\nbogus = 1\n")
        assert main(["--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_line_names_position(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = verify\njust words\n")
        assert main(["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_command_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "box = 2 2\n")
        assert main(["--config", cfg]) == 2
        assert "command" in capsys.readouterr().err

    def test_bad_value_names_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = verify\neps = banana\n")
        assert main(["--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["--config", "/nonexistent/path.cfg"]) == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = load_config(write_cfg(
            tmp_path, "# a comment\n\ncommand = verify  # trailing\nbox = 3 3\n"))
        assert cfg.command == "verify"
        assert cfg.box == (3, 3)

    def test_flag_overrides_beat_file(self, tmp_path):
        path = write_cfg(tmp_path, "command = verify\nseed = 5\n"
                                   "out = original.csv\n")
        cfg = load_config(path, {"seed": 9, "out": "flagged.csv"})
        assert cfg.seed == 9
        assert cfg.out == "flagged.csv"

    def test_unknown_command_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = frobnicate\n")
        assert main(["--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["simulate", "remainder-scan",
                                         "box-limit", "theory-curves"])
    def test_missing_out_exits_2_before_running(self, tmp_path, capsys,
                                                monkeypatch, command):
        def never(cfg):
            raise AssertionError("the command ran without an output path")

        monkeypatch.setitem(cli._HANDLERS, command, never)
        cfg = write_cfg(tmp_path, f"command = {command}\n")
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: out:")

    def test_missing_out_stops_ensemble_before_sampling(self, tmp_path,
                                                        capsys, monkeypatch):
        def never(ecfg):
            raise RuntimeError("sampling started")

        monkeypatch.setattr(cli, "estimate_moments", never)
        cfg = write_cfg(tmp_path, "command = ensemble\nbox = 2 2\n")
        assert main(["--config", cfg]) == 2
        assert "out" in capsys.readouterr().err


def test_readme_example_configs_load(tmp_path):
    # Every `# name.cfg` code block of the README's Examples section.
    text = README.read_text(encoding="utf-8")
    section = text.split("### Examples", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```\n# (\S+\.cfg)\n(.*?)^```", section,
                        flags=re.M | re.S)
    commands = {load_config(write_cfg(tmp_path, body, name)).command
                for name, body in blocks}
    assert commands == set(cli._COMMANDS)


class TestVerify:
    def test_degenerate_box_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = verify\nbox = 1 0\n")
        assert main(["--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_default_box_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "command = verify\nbox = 4 4\neps = 0.1\nt = 0.7\n")
        assert main(["--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 7
        assert "FAIL" not in out

    def test_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "verify.csv"
        cfg = write_cfg(tmp_path, "command = verify\nbox = 2 2\n"
                                  f"out = {out_path}\n")
        assert main(["--config", cfg]) == 0
        text = out_path.read_text()
        assert text.startswith("# kpwaves-report-1")
        assert "check,residual,passed" in text


class TestSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        base = ("command = simulate\nbox = 2 2\neps = 0.1\n"
                "t_grid = 0 0.5 0.25\ndt = 0.05\nseed = 4\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["--config",
                     write_cfg(tmp_path, base + f"out = {out_a}\n",
                               "a.cfg")]) == 0
        assert main(["--config",
                     write_cfg(tmp_path, base + f"out = {out_b}\n",
                               "b.cfg")]) == 0
        a = out_a.read_text().replace(str(out_a), "OUT")
        b = out_b.read_text().replace(str(out_b), "OUT")
        assert a == b

    def test_requires_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "command = simulate\nbox = 2 2\n"
                                  "t = 0.5\ndt = 0.05\n")
        assert main(["--config", cfg]) == 2
        assert "out" in capsys.readouterr().err


class TestEnsemble:
    def test_zero_samples_give_empty_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        cfg = write_cfg(tmp_path,
                        "command = ensemble\nbox = 2 2\neps = 0.1\nt = 0.5\n"
                        "sample_count = 0\ndt = 0.05\nformat = json\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 0
        data = json.loads(out_path.read_text())
        assert data["version"] == "kpwaves-report-1"
        assert data["config"]["sample_count"] == "0"
        assert data["results"] == {"columns": list(MomentReport.COLUMNS),
                                   "rows": []}

    def test_small_run_writes_rows(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        cfg = write_cfg(tmp_path,
                        "command = ensemble\nbox = 2 2\neps = 0.1\nt = 0.5\n"
                        "sample_count = 16\ndt = 0.05\npairs = diag\n"
                        "triples = none\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# kpwaves-report-1"
        body = [l for l in lines if not l.startswith("#")]
        # header plus one diagonal pair row per mode
        assert len(body) == 1 + 20


class TestRemainderScan:
    def test_needs_grid_or_three_eps(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "command = remainder-scan\nbox = 2 1\neps = 0.1\n"
                        "sample_count = 8\ndt = 0.05\n"
                        f"out = {tmp_path / 'scan.csv'}\n")
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: eps:")

    @pytest.mark.parametrize("extra, key", [
        ("box = 1 1\n", "triple"),
        ("box = 2 2\ntriple = 1 0 1 0 -1 0\n", "triple"),
    ], ids=["outside-box", "nonzero-sum"])
    def test_triple_outside_box_or_plane_exits_2(self, tmp_path, capsys,
                                                   extra, key):
        cfg = write_cfg(tmp_path,
                        "command = remainder-scan\neps = 0.2 0.1 0.05\n"
                        "sample_count = 8\ndt = 0.05\n"
                        f"out = {tmp_path / 'scan.csv'}\n" + extra)
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("extra, key", [
        ("t_grid = 0 1 0.25\n", "t_grid"),
        ("eps = 0 0.14 0.1\n", "eps"),
        ("sample_count = 0\n", "sample_count"),
    ], ids=["t_grid-from-zero", "zero-eps", "zero-samples"])
    def test_bad_argument_exits_2_before_computing(self, tmp_path, capsys,
                                                   extra, key):
        out_path = tmp_path / "scan.csv"
        cfg = write_cfg(tmp_path,
                        "command = remainder-scan\nbox = 2 1\n"
                        "eps = 0.2 0.1 0.05\nsample_count = 8\n"
                        f"dt = 0.05\nrotations = 1\nout = {out_path}\n"
                        + extra)
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: {key}:")
        assert out == "" and not out_path.exists()

    def test_diverging_scan_prints_one_line(self, tmp_path):
        # Run as its own process, so that numpy warnings reach stderr
        # under Python's default filters, as they do for a user.
        cfg = write_cfg(tmp_path,
                        "command = remainder-scan\nbox = 2 2\n"
                        "normalize = false\nprofile = power_decay 50 0\n"
                        "eps = 1 0.7 0.5\ndt = 0.05\nsample_count = 8\n"
                        f"rotations = 1\nout = {tmp_path / 'scan.csv'}\n")
        src = Path(cli.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(src)
        run = subprocess.run([sys.executable, "-m", "kpwaves.cli",
                              "--config", cfg], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 3
        assert run.stderr == ("runtime failure: sample 0 diverged at "
                              "eps = 1.0\n")

    def test_noise_dominated_scan_exits_1(self, tmp_path, capsys):
        # Sub-resolution eps with a tiny ensemble: the pair remainder is
        # statistically indistinguishable from zero for this seed, so
        # the command must refuse to report a slope.
        out_path = tmp_path / "scan.csv"
        cfg = write_cfg(tmp_path,
                        "command = remainder-scan\nbox = 2 2\n"
                        "eps = 0.005 0.004 0.003\nt = 0.5\n"
                        "sample_count = 8\nseed = 1\n"
                        "dt = 0.005\nrotations = 1\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 1
        assert "# noise_dominated=1" in out_path.read_text().splitlines()


class TestBoxLimit:
    def test_wrong_law_suggests_canonical_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "command = box-limit\nlaw = steinhaus\nmode = 1 0\n"
                        "box_sizes = 4 8\nt = 1\n"
                        f"out = {tmp_path / 'bl.csv'}\n")
        assert main(["--config", cfg]) == 2
        assert "two_point" in capsys.readouterr().err

    def test_canonical_law_is_bounded(self, tmp_path, capsys):
        out_path = tmp_path / "bl.csv"
        cfg = write_cfg(tmp_path,
                        "command = box-limit\n"
                        "law = two_point 0 1.4142135623730951 0.5\n"
                        "mode = 1 0\nbox_sizes = 4 8 16\nt = 1\n"
                        "lambda_exponent = 0.25\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 0
        lines = out_path.read_text().splitlines()
        assert "# bounded=1" in lines
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "N,lambda,value,ratio"
        assert len(body) == 4


class TestTheoryCurves:
    def cfg_text(self, out_path, fmt="csv"):
        return ("command = theory-curves\nbox = 3 3\neps = 0.1\n"
                "t_grid = 0 2 0.5\nformat = " + fmt + "\n"
                f"out = {out_path}\n")

    def test_zero_time_row_is_zero(self, tmp_path, capsys):
        out_path = tmp_path / "tc.csv"
        assert main(["--config",
                     write_cfg(tmp_path, self.cfg_text(out_path))]) == 0
        lines = [l for l in out_path.read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["t"]) == 0.0
        for col in header[1:]:
            assert float(first[col]) == 0.0

    @pytest.mark.parametrize("extra, key", [
        ("box = 1 1\n", "triple"),
        ("box = 3 3\nmode = 5 0\n", "mode"),
    ], ids=["triple", "mode"])
    def test_mode_outside_box_exits_2(self, tmp_path, capsys, extra, key):
        cfg = write_cfg(tmp_path, "command = theory-curves\n"
                        f"out = {tmp_path / 'tc.csv'}\n" + extra)
        assert main(["--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")

    def test_json_structure_and_majorants(self, tmp_path, capsys):
        out_path = tmp_path / "tc.json"
        assert main(["--config",
                     write_cfg(tmp_path,
                               self.cfg_text(out_path, "json"))]) == 0
        data = json.loads(out_path.read_text())
        assert set(data) == {"version", "config", "results"}
        res = data["results"]
        assert res["columns"][0] == "t"
        assert len(res["rows"]) == 5
        pm = float(res["pair_majorant"])
        tm = float(res["triple_majorant"])
        for row in res["rows"]:
            rec = dict(zip(res["columns"], row))
            assert abs(rec["weighted_pair"]) <= pm + 1e-12
            assert abs(rec["weighted_triple"]) <= tm + 1e-12


def _read_csv_report(path):
    """(version, header dict, columns, rows) of a CSV report."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = {}
    i = 1
    while lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition("=")
        header[key] = val
        i += 1
    table = list(csv.reader(lines[i:]))
    return lines[0][2:], header, table[0], table[1:]


def _same(text, value) -> bool:
    """A CSV cell holds the JSON value; floats must round-trip exactly."""
    if isinstance(value, list):
        return text.split() == [str(v) for v in value]
    if isinstance(value, float):
        x = float(text)
        return x == value or (math.isnan(x) and math.isnan(value))
    return text == ("" if value is None else str(value))


_DIVERGING = ("normalize = false\nprofile = power_decay 10 0\neps = 1\n"
              "t = 1\ndt = 0.05\nsample_count = 8\n")


class TestReportLayout:
    """Every command writes one layout: CSV and JSON carry the same data."""

    @pytest.mark.parametrize("text", [
        "command = verify\nbox = 2 1\n",
        "command = simulate\nbox = 2 1\nt_grid = 0 0.5 0.25\ndt = 0.05\n",
        "command = ensemble\nbox = 2 1\nsample_count = 16\ndt = 0.05\n",
        "command = ensemble\nbox = 2 2\n" + _DIVERGING,
        "command = remainder-scan\nbox = 2 1\neps = 0.2 0.1 0.05\n"
        "t_grid = 1 3 1\nsample_count = 8\ndt = 0.05\nrotations = 1\n",
        "command = box-limit\nlaw = two_point 0 1.4142135623730951 0.5\n"
        "box_sizes = 4 8\n",
        "command = theory-curves\nbox = 2 2\nt_grid = 0 1 0.5\n",
    ], ids=["verify", "simulate", "ensemble", "ensemble-failed",
            "remainder-scan", "box-limit", "theory-curves"])
    def test_json_matches_csv(self, tmp_path, capsys, text):
        paths = {}
        for fmt in ("csv", "json"):
            paths[fmt] = tmp_path / f"report.{fmt}"
            assert main(["--config", write_cfg(tmp_path, text),
                         "--format", fmt, "--out", str(paths[fmt])]) in (0, 1)
        version, header, columns, rows = _read_csv_report(paths["csv"])
        data = json.loads(paths["json"].read_text(encoding="utf-8"))
        results = data["results"]
        assert version == data["version"] == cli.FORMAT_VERSION
        assert results.pop("columns") == columns
        json_rows = results.pop("rows")
        assert len(json_rows) == len(rows) > 0
        for json_row, row in zip(json_rows, rows):
            assert len(json_row) == len(row) == len(columns)
            assert all(_same(t, v) for t, v in zip(row, json_row))
        config = data["config"]
        config["format"] = "csv"
        config["out"] = str(paths["csv"])
        expected = {**config, **results}
        assert list(header) == list(expected)
        assert all(_same(header[k], v) for k, v in expected.items())
        if config["command"] == "ensemble":
            # The extra is written only when a sample failed.
            failed = [6, 7] if text.endswith(_DIVERGING) else None
            assert results.get("failed_samples") == failed
