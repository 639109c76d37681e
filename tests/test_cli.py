"""End-to-end command line tests, run in process through main()."""

import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from kpwaves import cli, dynamics, ensemble, lattice, picard, theory
from kpwaves.cli import ConfigError, load_config, main
from kpwaves.dynamics import calibrate_dt
from kpwaves.ensemble import MomentReport

from conftest import traced_peak

README = Path(__file__).resolve().parent.parent / "README.md"
WORKLOADS = README.parent / "perfbench" / "workloads"


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

    @pytest.mark.parametrize("line", [
        "t = nan", "dt = inf", "s = nan", "t_grid = 0 inf 0.5",
        "lambda_exponent = -inf", "law = clipped_gaussian 1 inf",
        "profile = power_decay nan 2"], ids=lambda line: line.split()[0])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, line):
        # nan and inf parse as floats but are no value of any key; each
        # is one config error line, before anything runs.
        out_path = tmp_path / "sim.csv"
        cfg = write_cfg(tmp_path, f"command = simulate\nbox = 2 1\n{line}\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        key, value = (part.strip() for part in line.split("="))
        if key in ("law", "profile"):
            value = value.split(None, 1)[1]
        assert err == (f"config error: {key}: expected finite numbers, "
                       f"got {value!r}\n")
        assert out == "" and not out_path.exists()

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        # The sampler keys its draws by a 64-bit seed.
        cfg = write_cfg(tmp_path, "command = verify\nbox = 2 1\n")
        assert main(["--config", cfg, "--seed", str(2 ** 64)]) == 2
        assert capsys.readouterr() == (
            "", f"config error: seed: must be <= {2 ** 64 - 1}, "
            f"got {2 ** 64}\n")
        path = write_cfg(tmp_path, f"command = verify\nseed = {2 ** 64}\n",
                         name="file.cfg")
        with pytest.raises(ConfigError, match="seed: must be <="):
            load_config(path)
        assert load_config(path, {"seed": 2 ** 64 - 1}).seed == 2 ** 64 - 1

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

    @pytest.mark.parametrize("extra, err", [
        ("profile = box_constant 0 1.0\n",
         "profile: profile is identically zero"),
        ("profile = power_decay 1 2 3\n",
         "profile: expected 2 values, got 3"),
        ("profile = single_mode 5 0 1.0\nnormalize = false\n",
         "profile: mode (5, 0) is outside LatticeBox(2, 1)"),
    ], ids=["zero-on-box", "wrong-count", "mode-outside-box"])
    def test_bad_profile_exits_2_with_one_prefix(self, tmp_path, capsys,
                                                 extra, err):
        cfg = write_cfg(tmp_path, "command = verify\nbox = 2 1\n" + extra)
        assert main(["--config", cfg]) == 2
        out, got = capsys.readouterr()
        assert got == f"config error: {err}\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["verify", "simulate", "ensemble",
                                         "box-limit", "theory-curves"])
    def test_eps_list_exits_2_outside_scan(self, tmp_path, capsys, command):
        # Only remainder-scan reads more than the first value.
        out_path = tmp_path / "report.csv"
        cfg = write_cfg(tmp_path, f"command = {command}\nbox = 2 1\n"
                        "eps = 0.1 0.5\nt = 0.5\nsample_count = 8\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists()
        assert err == (f"config error: eps: {command} takes one value, "
                       "got 2; a list is for remainder-scan\n")

    def test_missing_out_stops_ensemble_before_sampling(self, tmp_path,
                                                        capsys, monkeypatch):
        def never(*args, **kwargs):
            raise RuntimeError("sampling started")

        monkeypatch.setattr(ensemble, "estimate_moments", never)
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


def test_benchmark_workload_configs_load():
    # The benchmark runs these files as they are; a key the parser stops
    # accepting fails here rather than in a benchmark run.
    workloads = sorted(WORKLOADS.glob("*.cfg"))
    assert workloads
    for path in workloads:
        assert load_config(str(path)).command in cli._COMMANDS, path.name


def test_readme_key_table_matches_config():
    # The README's "Common keys" table names every key but command once,
    # with a default that the key's own parser reads as the field default.
    text = README.read_text(encoding="utf-8")
    table = text.split("Common keys", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|", table, flags=re.M)
    keys = {f.name: f for f in dataclasses.fields(cli.ExperimentConfig)}
    assert sorted(key for key, _ in rows) == sorted(set(keys) - {"command"})
    for key, cell in rows:
        cell = cell.strip().strip("`")
        value = (None if cell in ("unset", "auto")
                 else keys[key].metadata["parse"](key, cell))
        assert value == keys[key].default, key


def test_readme_memory_figures_match_count():
    # The pre-flight figures README gives for verify's 8 fields are the
    # Picard contraction's count, the larger of its build and pass stages,
    # in GB to two significant digits.
    text = " ".join(README.read_text(encoding="utf-8").split())
    figures = re.findall(r"([\d.]+) GB at `(\d+) \2`",
                         text.split("for `verify` about", 1)[1][:120])
    assert [int(n) for _, n in figures] == [8, 10, 11]
    for value, n in figures:
        box = cli.LatticeBox(int(n), int(n))
        need = max(picard._build_bytes(box), picard._pass_bytes(box, 8))
        assert value == f"{need / 1e9:.2g}", n


def test_readme_pre_flight_figures_match_constants():
    # The pre-flight paragraphs give the constants of the counts: the
    # bytes per moment, the box-sized arrays per sample of an ensemble
    # batch (its state and the stepper's arrays) and per field past the
    # states, simulate's bytes a row and box-limit's bytes a point.
    text = " ".join(README.read_text(encoding="utf-8").split())

    def figure(pattern):
        found = re.findall(pattern, text)
        assert len(found) == 1, pattern
        return int(found[0])

    assert figure(r"(\d+) bytes per moment") == ensemble._MOMENT_BYTES
    assert (figure(r"(\d+) box-sized arrays per sample of each batch")
            == dynamics._EVOLVE_ARRAYS + 1)
    assert (figure(r"(\d+) box-sized arrays per field past the states")
            == dynamics._EVOLVE_ARRAYS)
    assert figure(r"\((\d+) bytes a row\)") == cli._SIMULATE_ROW_BYTES
    assert figure(r"at (\d+) bytes a point") == theory._BOX_LIMIT_POINT_BYTES


def _benchmark_check():
    """The benchmark's output check, perfbench/check.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", WORKLOADS.parent / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(WORKLOADS.glob("*.cfg")),
                         ids=lambda path: path.stem)
def test_benchmark_workload_matches_reference(tmp_path, monkeypatch, capsys,
                                              path):
    # Each workload as the benchmark runs it, at seed 1 when it takes a
    # seed, against its stored reference report; verify's identity
    # residuals are roundoff and take an absolute tolerance.  verify-6x6
    # runs at every seed that has a reference, 0 to 5: its w-decomposition
    # state is built from the seed's own samples.
    check = _benchmark_check()
    monkeypatch.chdir(tmp_path)
    argv = ["--config", str(path), "--out", "report.csv"]
    seeds = {"curves-6x6": [None], "verify-6x6": range(6)}.get(path.stem, [1])
    for seed in seeds:
        flags = [] if seed is None else ["--seed", str(seed)]
        assert main(argv + flags) == 0
        name = path.stem if seed is None else f"{path.stem}-seed{seed}"
        reference = WORKLOADS.parent / "reference" / f"{name}.csv.gz"
        report = (tmp_path / "report.csv").read_text(encoding="utf-8")
        assert check.compare(report, check.read_reference(reference),
                             {"residual": 1e-10}) == [], seed


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

    def test_report_ignores_dt(self, tmp_path, monkeypatch, capsys):
        # verify never steps, so its report is the same whatever dt is,
        # apart from the echoed dt; a step that once made the evolved
        # sample diverge on these unnormalized data passes as well.
        monkeypatch.chdir(tmp_path)
        base = ("command = verify\nbox = 2 2\nseed = 1\neps = 0.1\n"
                "normalize = false\nprofile = power_decay 5 0\nt = 5\n"
                "out = report.csv\n")
        reports = []
        for dt_line in ("", "dt = 0.01\n", "dt = 0.5\n"):
            assert main(["--config", write_cfg(tmp_path, base + dt_line)]) == 0
            assert "verify: 7/7 checks passed" in capsys.readouterr().out
            report = (tmp_path / "report.csv").read_text(encoding="utf-8")
            reports.append([x for x in report.splitlines()
                            if not x.startswith("# dt=")])
        assert reports[0] == reports[1] == reports[2]

    def test_debug_reraises_runtime_failure(self, tmp_path, capsys):
        # --debug turns the one-line exit 3 into the exception and its
        # traceback; a configuration error still exits 2.
        cfg = write_cfg(tmp_path, "command = verify\nbox = 2 2\nseed = 1\n"
                        "eps = 1\nnormalize = false\n"
                        "profile = power_decay 50 0\nt = 1\n")
        with pytest.raises(picard.NonContractionError,
                           match=r"^residual (inf|nan) is not contracting; "
                                 r"eps=1\.0 is likely outside the "
                                 r"contraction regime$"):
            main(["--config", cfg, "--debug"])
        assert capsys.readouterr() == ("", "")
        bad = write_cfg(tmp_path, "command = verify\neps = banana\n",
                        name="bad.cfg")
        assert main(["--config", bad, "--debug"]) == 2
        assert capsys.readouterr().err.startswith("config error: eps:")

    def test_never_evolves_or_calibrates(self, tmp_path, capsys, monkeypatch):
        # The w-decomposition holds for any state, so verify checks it at
        # an algebraic state and neither evolves nor calibrates, whether
        # dt is set or not.
        def refuse(*args, **kwargs):
            raise AssertionError("verify stepped a sample")

        monkeypatch.setattr(dynamics, "evolve_coeffs", refuse)
        monkeypatch.setattr(dynamics, "calibrate_dt", refuse)
        for dt_line in ("", "dt = 0.01\n"):
            cfg = write_cfg(tmp_path, "command = verify\nbox = 2 2\n"
                            + dt_line)
            assert main(["--config", cfg]) == 0
            assert "FAIL" not in capsys.readouterr().out

    def test_non_finite_roundtrip_exits_3_with_one_line(self, tmp_path):
        # Data far outside the contraction regime overflow the lambda
        # round trip at its first iterate: one line, no numpy warnings
        # (run as its own process, so that they would reach stderr).
        cfg = write_cfg(tmp_path, "command = verify\nbox = 2 2\nseed = 1\n"
                        "eps = 1\nnormalize = false\n"
                        "profile = power_decay 50 0\nt = 1\n")
        src = Path(cli.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(src)
        run = subprocess.run([sys.executable, "-m", "kpwaves.cli",
                              "--config", cfg], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 3
        assert run.stdout == ""
        assert re.fullmatch(r"runtime failure: residual (inf|nan) is not "
                            r"contracting; eps=1\.0 is likely outside the "
                            r"contraction regime\n", run.stderr)

    def test_zero_eps_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "verify.csv"
        cfg = write_cfg(tmp_path, "command = verify\nbox = 2 2\neps = 0\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: eps:")
        assert out == "" and not out_path.exists()

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

    def test_diverged_sample_exits_3(self, tmp_path, capsys):
        out_path = tmp_path / "sim.csv"
        cfg = write_cfg(tmp_path, "command = simulate\nbox = 2 2\nseed = 1\n"
                        "eps = 0.1\nnormalize = false\n"
                        "profile = power_decay 5 0\ndt = 0.5\n"
                        f"t_grid = 0 5 1\nout = {out_path}\n")
        assert main(["--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert re.fullmatch(r"runtime failure: sample 0 diverged by "
                            r"t = \d\.0\n", err)
        assert out == "" and not out_path.exists()

    def test_time_past_int64_steps_exits_3(self, tmp_path, capsys):
        # 1e302 steps of 0.01 do not fit a step count: the run fails
        # before stepping instead of writing the free rotation.
        out_path = tmp_path / "sim.csv"
        cfg = write_cfg(tmp_path, "command = simulate\nbox = 2 1\n"
                        f"t = 1e300\ndt = 0.01\nout = {out_path}\n")
        assert main(["--config", cfg]) == 3
        assert capsys.readouterr() == (
            "", "runtime failure: a segment needs 1e+302 steps of "
            "dt = 0.01, more than int64 holds\n")
        assert not out_path.exists()

    def test_missed_calibration_exits_3(self, tmp_path, capsys,
                                        monkeypatch):
        # A calibration that runs out of halvings is a runtime failure
        # reported in one line, not a step that missed its target.
        # The step rule passes its own target, so a wrapper forces both.
        monkeypatch.setattr(dynamics, "calibrate_dt", lambda *a, **k:
                            calibrate_dt(*a, **{**k, "target": 1e-30,
                                                "max_halvings": 3}))
        out_path = tmp_path / "sim.csv"
        cfg = write_cfg(tmp_path, "command = simulate\nbox = 2 2\n"
                        f"eps = 0.3\nt = 1\nout = {out_path}\n")
        assert main(["--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert re.fullmatch(r"runtime failure: step calibration missed its "
                            r"target 1\.0e-30 within 3 halvings: step-halving "
                            r"error \S+ at dt = 0\.00694444\n", err)
        assert out == "" and not out_path.exists()

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

    def test_zero_samples_skip_the_calibration(self, tmp_path, monkeypatch,
                                               capsys):
        # With no dt the step would be calibrated on sample 0, which a
        # zero-sample ensemble never draws.
        def fail(*args, **kwargs):
            raise dynamics.CalibrationError("calibrated")

        monkeypatch.setattr(dynamics, "calibrate_dt", fail)
        out_path = tmp_path / "report.json"
        cfg = write_cfg(tmp_path,
                        "command = ensemble\nbox = 3 3\neps = 0.1\nt = 20\n"
                        "sample_count = 0\nformat = json\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        data = json.loads(out_path.read_text())
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

    def test_repeated_moment_keeps_its_row(self, tmp_path, capsys):
        # One row per requested moment, in request order: the pre-flight
        # counts a repeated moment twice, and the report writes it twice.
        out_path = tmp_path / "report.csv"
        cfg = write_cfg(tmp_path,
                        "command = ensemble\nbox = 2 2\neps = 0.1\nt = 0.5\n"
                        "sample_count = 16\ndt = 0.05\n"
                        "pairs = 2 1 2 1; 1 0 1 0; 2 1 2 1\n"
                        "triples = 1 0 1 0 -2 0; 1 0 1 0 -2 0\n"
                        f"out = {out_path}\n")
        assert main(["--config", cfg]) == 0
        assert "3 pair and 2 triple moments" in capsys.readouterr().out
        rows = list(csv.reader(l for l in out_path.read_text().splitlines()
                               if not l.startswith("#")))[1:]
        assert [row[:7] for row in rows] == [
            ["pair", "2", "1", "2", "1", "", ""],
            ["pair", "1", "0", "1", "0", "", ""],
            ["pair", "2", "1", "2", "1", "", ""],
            ["triple", "1", "0", "1", "0", "-2", "0"],
            ["triple", "1", "0", "1", "0", "-2", "0"]]
        assert rows[0] == rows[2] and rows[3] == rows[4]
        box, config = cli.LatticeBox(2, 2), load_config(cfg)
        assert len(rows) == ensemble._moment_count(
            box, cli._parse_mode_groups("pairs", config.pairs, 2, box),
            cli._parse_mode_groups("triples", config.triples, 3, box))

    @pytest.mark.parametrize("extra, key", [
        ("pairs = 1 0 1 0; 5 0 5 0\ntriples = none\n", "pairs"),
        ("pairs = none\ntriples = 3 0 -1 0 -2 0\n", "triples"),
    ], ids=["pairs", "triples"])
    def test_mode_outside_box_exits_2_before_sampling(self, tmp_path, capsys,
                                                      monkeypatch, extra,
                                                      key):
        def never(*args, **kwargs):
            raise RuntimeError("sampling started")

        monkeypatch.setattr(ensemble, "estimate_moments", never)
        out_path = tmp_path / "report.csv"
        cfg = write_cfg(tmp_path,
                        "command = ensemble\nbox = 2 1\neps = 0.1\nt = 0.5\n"
                        f"sample_count = 4\ndt = 0.05\nout = {out_path}\n"
                        + extra)
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: {key}: mode ")
        assert "is outside LatticeBox(2, 1)" in err
        assert out == "" and not out_path.exists()


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
        # A repeated eps would accumulate its point's samples twice.
        ("eps = 0.2 0.2 0.1\n", "eps"),
        ("sample_count = 0\n", "sample_count"),
        ("t = 0\n", "t"),
    ], ids=["t_grid-from-zero", "zero-eps", "repeated-eps", "zero-samples",
            "zero-t"])
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
        assert err.count("\n") == 1
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

    @pytest.mark.parametrize("extra, failure", [
        ("eps = 1\nt_grid = 0.25 1 0.25\n", "sample 5 diverged by t = 0.25"),
        ("eps = 1 0.7 0.5\nt = 1\nrotations = 1\n",
         "sample 4 diverged at eps = 1.0"),
    ], ids=["growth", "scan"])
    def test_divergence_names_calibrated_step(self, tmp_path, capsys,
                                              extra, failure):
        # Sample 0 draws the small modulus at every mode, so the step
        # calibrated on it is too long for samples drawing the large one.
        text = ("command = remainder-scan\nbox = 2 1\nnormalize = false\n"
                "law = two_point 0.001 1 0.2\nprofile = power_decay 100 0\n"
                f"sample_count = 8\nseed = 5\nout = {tmp_path / 'r.csv'}\n"
                + extra)
        assert main(["--config", write_cfg(tmp_path, text)]) == 3
        assert capsys.readouterr().err == (
            f"runtime failure: {failure} with dt = 0.0138889, calibrated on "
            "sample 0; set dt to override it\n")
        # A configured step is not named; a shorter one gets through.
        cfg = write_cfg(tmp_path, text + "dt = 0.0138889\n")
        assert main(["--config", cfg]) == 3
        assert capsys.readouterr().err == f"runtime failure: {failure}\n"
        assert main(["--config", write_cfg(tmp_path, text + "dt = 0.001\n")]) \
            in (0, 1)

    def test_growth_rows_name_the_first_eps(self, tmp_path):
        # With an eps list the growth fit runs at the first value alone:
        # its rows are those of that value, and their eps cell names it.
        def growth_rows(eps):
            out_path = tmp_path / "scan.csv"
            cfg = write_cfg(tmp_path, "command = remainder-scan\nbox = 2 1\n"
                            f"eps = {eps}\nt_grid = 0.5 1.5 0.5\n"
                            f"sample_count = 16\nout = {out_path}\n")
            assert main(["--config", cfg]) in (0, 1)
            _, _, columns, rows = _read_csv_report(out_path)
            return [dict(zip(columns, r)) for r in rows if r[0] == "growth"]

        listed = growth_rows("0.2 0.1 0.05")
        assert len(listed) == 3
        assert all(float(r["eps"]) == 0.2 for r in listed)
        assert listed == growth_rows("0.2")

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

    @pytest.mark.parametrize("extra, key", [
        ("mode = 5 0\nbox_sizes = 1 2\nt = 1\n", "box_sizes"),
        ("mode = 1 0\nbox_sizes = 4 8\nt = 0\n", "t"),
    ], ids=["mode-out-of-reach", "zero-t"])
    def test_vanishing_first_ratio_exits_2(self, tmp_path, capsys, extra,
                                           key):
        # No split within a box of half-width 1 or 2 reaches mode (5, 0),
        # and every correction vanishes at t = 0: the first ratio is 0 and
        # cannot scale the others.
        out_path = tmp_path / "bl.csv"
        cfg = write_cfg(tmp_path,
                        "command = box-limit\n"
                        "law = two_point 0 1.4142135623730951 0.5\n"
                        f"out = {out_path}\n" + extra)
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists()
        assert err.startswith(f"config error: {key}: ")
        assert err.count("\n") == 1

    def test_size_beyond_memory_exits_2(self, tmp_path, capsys):
        # A grid of 4e40 points is a configuration error, not numpy's.
        out_path = tmp_path / "bl.csv"
        cfg = write_cfg(tmp_path,
                        "command = box-limit\n"
                        "law = two_point 0 1.4142135623730951 0.5\n"
                        f"box_sizes = {10 ** 20}\nout = {out_path}\n")
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists()
        assert err.startswith(f"config error: box_sizes: the grid of "
                              f"N = {10 ** 20} at mode (1, 0) needs ")
        assert err.count("\n") == 1

    def test_every_size_is_counted_before_the_first_runs(
            self, tmp_path, capsys, monkeypatch):
        # The grid of N = 4 at mode (1, 0) fits and that of N = 8 does
        # not: no size runs and no report is written.
        need = theory._BOX_LIMIT_POINT_BYTES * (2 * 9 + 1) * (2 * 8 + 1)
        memory = need - 1
        assert theory._BOX_LIMIT_POINT_BYTES * 11 * 9 <= memory
        monkeypatch.setattr(lattice, "_physical_memory", lambda: memory)
        monkeypatch.setattr(theory, "box_limit_f2",
                            lambda *a, **k: pytest.fail("a size ran"))
        out_path = tmp_path / "bl.csv"
        cfg = write_cfg(tmp_path,
                        "command = box-limit\n"
                        "law = two_point 0 1.4142135623730951 0.5\n"
                        f"mode = 1 0\nbox_sizes = 4 8\nout = {out_path}\n")
        assert main(["--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert err == (f"config error: box_sizes: the grid of N = 8 at mode "
                       f"(1, 0) needs {need} bytes, more than the {memory} "
                       "bytes of physical memory\n")
        assert out == "" and not out_path.exists()


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
        # The inputs are built before the modes are checked against them.
        ("box = 3 3\nmode = 5 0\nlaw = bogus\n", "law"),
    ], ids=["triple", "mode", "law-before-mode"])
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


@pytest.mark.parametrize("text", [
    "command = verify\n",
    "command = remainder-scan\neps = 0.2 0.1 0.05\n",
    "command = remainder-scan\neps = 0.1\nt_grid = 0.5 1 0.25\n",
], ids=["verify", "scan", "growth"])
def test_table_beyond_memory_exits_2_before_building(tmp_path, capsys,
                                                     monkeypatch, text):
    monkeypatch.setattr(lattice, "_physical_memory", lambda: 1000)
    picard._nested_plan.cache_clear()
    box = cli.LatticeBox(3, 2)
    # verify contracts 8 fields; the scan and growth 8 samples each.  The
    # build's count, checked before the build, fails first.
    need = picard._build_bytes(box)
    out_path = tmp_path / "report.csv"
    cfg = write_cfg(tmp_path, text + "box = 3 2\nsample_count = 8\n"
                    f"dt = 0.05\nout = {out_path}\n")
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert err == (f"config error: Picard contraction of LatticeBox(3, 2) "
                   f"over 8 samples needs {need} bytes, more than the 1000 "
                   "bytes of physical memory\n")
    assert out == "" and not out_path.exists()
    assert picard._nested_plan.cache_info().currsize == 0


def test_memory_check_counts_batch_arrays(tmp_path, capsys, monkeypatch):
    # B, C and F hold 48 B per sample and mode past the batch-independent
    # working set.  A machine that holds a pass over one sample cannot
    # hold a scan batch of 1024 at 4x4, and nothing is built.
    box = cli.LatticeBox(4, 4)
    single = picard._pass_bytes(box, 1)
    need = picard._pass_bytes(box, 1024)
    assert need - single == 3 * 16 * 1023 * box.size
    memory = (single + need) // 2
    monkeypatch.setattr(lattice, "_physical_memory", lambda: memory)
    picard._nested_plan.cache_clear()
    picard._check_contraction(box, 1)
    with pytest.raises(ValueError, match=f"needs {need} bytes"):
        picard._check_contraction(box, 1024)
    out_path = tmp_path / "report.csv"
    cfg = write_cfg(tmp_path, "command = remainder-scan\nbox = 4 4\n"
                    "eps = 0.2 0.1 0.05\nsample_count = 1024\n"
                    f"dt = 0.05\nout = {out_path}\n")
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert err == (
        f"config error: Picard contraction of {box!r} over 1024 samples "
        f"needs {need} bytes, more than the {memory} bytes of physical "
        "memory\n")
    assert out == "" and not out_path.exists()
    assert picard._nested_plan.cache_info().currsize == 0


@pytest.mark.parametrize("command, eps", [("verify", "0.2"),
                                          ("remainder-scan", "0.2 0.1 0.05")],
                         ids=["verify", "remainder-scan"])
def test_phase_key_overflow_exits_2(tmp_path, capsys, command, eps):
    # lcm(1..37) 37^3 does not fit in int64.
    out_path = tmp_path / "report.csv"
    cfg = write_cfg(tmp_path, f"command = {command}\nbox = 37 0\n"
                    f"eps = {eps}\nout = {out_path}\n")
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not out_path.exists()
    assert err.startswith("config error: four-wave phase keys of "
                          "LatticeBox(37, 0) reach ")
    assert err.endswith(", past int64\n")


_TRIPLE = ((1, 0), (1, 0), (-2, 0))


def _both_stages(box, batch):
    """Memory that holds the build and the pass of box over batch."""
    return max(picard._build_bytes(box), picard._pass_bytes(box, batch))


@pytest.mark.parametrize("memory, check", [
    (lambda: 1000, lambda: lattice._check_memory(1001, "need")),
    (lambda: 1000,
     lambda: picard._check_contraction(cli.LatticeBox(3, 2), 8)),
    (lambda: picard._build_bytes(cli.LatticeBox(4, 4)),
     lambda: picard._check_contraction(cli.LatticeBox(4, 4), 10 ** 6)),
    (None, lambda: picard._check_contraction(cli.LatticeBox(37, 0), 8)),
    (None, lambda: ensemble._check_scan(cli.LatticeBox(2, 1), (0.1, 0.2),
                                        1.0, 8, _TRIPLE, 1)),
    (lambda: _both_stages(cli.LatticeBox(2, 1), 8),
     lambda: ensemble._check_scan(cli.LatticeBox(2, 1), (0.05, 0.1, 0.2),
                                  1.0, 8, _TRIPLE, 1)),
    (None, lambda: ensemble._check_growth(cli.LatticeBox(2, 1), 0.0,
                                          (0.5, 1.0, 1.5), 8)),
    (lambda: _both_stages(cli.LatticeBox(2, 1), 8),
     lambda: ensemble._check_growth(cli.LatticeBox(2, 1), 0.1,
                                    (0.5, 1.0, 1.5), 8)),
    (lambda: 1000,
     lambda: ensemble._check_moments(cli.LatticeBox(2, 1), 8, 3, 1)),
    (lambda: 1000, lambda: theory._check_box_limit((1, 0), (4,))),
], ids=["memory", "contraction-build", "contraction-pass", "key-overflow",
        "scan-arguments", "scan-memory", "growth-arguments", "growth-memory",
        "moments", "box-limit"])
def test_pre_flights_raise_config_error(monkeypatch, memory, check):
    # Exit 2 is the type: main maps ConfigError to it, and no handler
    # converts a layer's ValueError.
    picard._nested_plan.cache_clear()
    if memory is not None:
        limit = memory()
        monkeypatch.setattr(lattice, "_physical_memory", lambda: limit)
    with pytest.raises(ConfigError):
        check()


@pytest.mark.parametrize("check, need", [
    (lambda box: ensemble._check_scan(box, np.linspace(0.05, 0.2, 24), 0.05,
                                      2048, _TRIPLE, 1),
     lambda box: _scan_count(box, 24, 2048)),
    (lambda box: ensemble._check_growth(box, 0.1, (0.5, 1.0, 1.5), 2048),
     lambda box: _growth_count(box, 3, 2048)),
], ids=["scan", "growth"])
def test_failed_batch_pre_flight_caches_no_plan(monkeypatch, check, need):
    # The contraction passes and builds the plan; the pass with what the
    # estimator holds across it does not, and the plan goes with the run.
    box = cli.LatticeBox(2, 1)
    memory = need(box) - 1
    assert _both_stages(box, 2048) <= memory
    monkeypatch.setattr(lattice, "_physical_memory", lambda: memory)
    picard._nested_plan.cache_clear()
    with pytest.raises(ConfigError, match="^sample_count: "):
        check(box)
    assert picard._nested_plan.cache_info().currsize == 0


def test_estimator_defaults_are_config_defaults():
    # An estimator keyword that names a configuration key defaults to that
    # key's default, so a call that leaves it out runs what a config file
    # that leaves the key unset runs.
    defaults = {f.name: f.default
                for f in dataclasses.fields(cli.ExperimentConfig)}
    checked = set()
    for estimator in (ensemble.estimate_moments, ensemble.remainder_scan,
                      ensemble.remainder_growth):
        for name, param in inspect.signature(estimator).parameters.items():
            if (param.default is inspect.Parameter.empty
                    or name not in defaults):
                continue
            assert param.default == defaults[name], (estimator, name)
            checked.add(name)
    assert checked == {"seed", "dt", "threads", "triple", "rotations", "s",
                       "pairs", "triples"}


def _growth_count(box, grid_times, count):
    """One batch's Picard pass and its states at every grid time with the
    stepper's count: the growth fit holds both at once."""
    batch = min(ensemble._BATCH, count)
    return (picard._pass_bytes(box, batch)
            + dynamics._evolve_bytes(box, batch, grid_times))


def test_growth_beyond_memory_exits_2_before_sampling(tmp_path, capsys,
                                                      monkeypatch):
    # The contraction of one batch fits; its pass with that batch kept at
    # three grid times does not, and nothing is sampled or evolved.
    box = cli.LatticeBox(2, 1)
    batch = ensemble._BATCH
    need = _growth_count(box, 3, 10 ** 6)
    memory = need - 1
    assert max(picard._build_bytes(box),
               picard._pass_bytes(box, batch)) <= memory
    monkeypatch.setattr(lattice, "_physical_memory", lambda: memory)
    monkeypatch.setattr(ensemble, "remainder_growth",
                        lambda *a, **k: pytest.fail("growth ran"))
    picard._nested_plan.cache_clear()
    out_path = tmp_path / "report.csv"
    cfg = write_cfg(tmp_path, "command = remainder-scan\nbox = 2 1\n"
                    "eps = 0.1\nt_grid = 0.5 1 0.25\nsample_count = 1000000\n"
                    f"dt = 0.05\nout = {out_path}\n")
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert err == (f"config error: sample_count: a batch of {batch} samples "
                   f"of {box!r} over 3 grid times needs {need} bytes, more "
                   f"than the {memory} bytes of physical memory\n")
    assert out == "" and not out_path.exists()


def test_streamed_growth_fits_where_whole_ensemble_did_not(tmp_path, capsys,
                                                           monkeypatch):
    # Growth streams its samples in batches, so a million samples of 2x1
    # over three grid times pass the pre-flight on a machine that holds
    # the Picard contraction of the whole ensemble but not its states.
    box = cli.LatticeBox(2, 1)
    memory = max(picard._build_bytes(box), picard._pass_bytes(box, 10 ** 6))
    monkeypatch.setattr(lattice, "_physical_memory", lambda: memory)
    calls = []

    def growth(profile, law, eps, grid, sample_count, **kwargs):
        calls.append(sample_count)
        return ensemble.GrowthFit(times=tuple(grid), max_norms=(1.0,) * 3,
                                  exponent=0.0, stderr=0.0)

    monkeypatch.setattr(ensemble, "remainder_growth", growth)
    out_path = tmp_path / "report.csv"
    cfg = write_cfg(tmp_path, "command = remainder-scan\nbox = 2 1\n"
                    "eps = 0.1\nt_grid = 0.5 1 0.25\nsample_count = 1000000\n"
                    f"dt = 0.05\nout = {out_path}\n")
    assert main(["--config", cfg]) == 0
    assert calls == [10 ** 6]
    assert "# growth_exponent=0" in out_path.read_text().splitlines()


@pytest.mark.parametrize("box, count", [("4 4", 512), ("5 5", 256),
                                        ("6 6", 128)],
                         ids=["4x4-512", "5x5-256", "6x6-128"])
def test_growth_count_bounds_traced_peak(tmp_path, capsys, box, count):
    # The growth fit holds one batch's states at every grid time while it
    # runs the Picard pass at each: the count of both bounds the handler's
    # traced peak, report included, within a factor of 2.  The states and
    # the pass counted apart each fell below it.  A first run loads the
    # modules; the plan is built again inside the traced run, as in a
    # fresh process.
    out_path = tmp_path / "growth.csv"
    cfg = write_cfg(tmp_path, f"command = remainder-scan\nbox = {box}\n"
                    "eps = 0.1\nt_grid = 0.5 1.5 0.5\n"
                    f"sample_count = {count}\ndt = 0.05\nout = {out_path}\n")
    assert main(["--config", cfg]) == 0
    picard._nested_plan.cache_clear()
    picard._key_ranks.cache_clear()
    peak = traced_peak(main, ["--config", cfg])
    need = _growth_count(cli.LatticeBox(*map(int, box.split())), 3, count)
    assert peak <= need <= 2 * peak
    capsys.readouterr()


def _scan_cfg(tmp_path, box, eps_count, count, rotations):
    """A remainder-scan config over eps_count values from 0.05 to 0.2."""
    out_path = tmp_path / "scan.csv"
    eps = " ".join(f"{e:.6g}" for e in np.linspace(0.05, 0.2, eps_count))
    return out_path, write_cfg(
        tmp_path, f"command = remainder-scan\nbox = {box}\neps = {eps}\n"
        f"sample_count = {count}\nrotations = {rotations}\nt = 0.05\n"
        f"dt = 0.01\nout = {out_path}\n")


def _scan_count(box, eps_count, count):
    batch = min(ensemble._BATCH, count)
    return (picard._pass_bytes(box, batch)
            + ensemble._scan_bytes(box, eps_count, count))


@pytest.mark.parametrize("box, eps_count, count, rotations", [
    ("4 4", 24, 512, 1),
    ("2 1", 24, 2048, 2),
], ids=["4x4-24-eps-stacked", "2x1-2-rotations"])
def test_scan_count_bounds_traced_peak(tmp_path, capsys, box, eps_count,
                                       count, rotations):
    # The scan's count, one batch's pass and its own arrays, bounds the
    # handler's traced peak, report included; 512 samples step 4 eps per
    # call.  Counting the pass alone read 9.4 MiB against a peak of
    # 155.6 MiB at 4x4 over 24 eps and 2048 samples: the accumulators and
    # the block-sum rows of the batch over every eps.
    out_path, cfg = _scan_cfg(tmp_path, box, eps_count, count, rotations)
    assert main(["--config", cfg]) in (0, 1)
    peak = traced_peak(main, ["--config", cfg])
    lattice = cli.LatticeBox(*map(int, box.split()))
    assert peak <= _scan_count(lattice, eps_count, count)
    capsys.readouterr()


def test_scan_beyond_memory_exits_2_before_sampling(tmp_path, capsys,
                                                    monkeypatch):
    # The contraction of one batch fits; its pass with the scan's arrays
    # over 24 eps does not, and no sample is drawn.
    box = cli.LatticeBox(2, 1)
    need = _scan_count(box, 24, 2048)
    memory = need - 1
    assert max(picard._build_bytes(box),
               picard._pass_bytes(box, 2048)) <= memory
    monkeypatch.setattr(lattice, "_physical_memory", lambda: memory)
    monkeypatch.setattr(ensemble, "sample_g_batch",
                        lambda *a, **k: pytest.fail("sampled"))
    out_path, cfg = _scan_cfg(tmp_path, "2 1", 24, 2048, 1)
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert err == (f"config error: sample_count: a batch of 2048 samples "
                   f"of {box!r} over 24 eps values needs {need} bytes, more "
                   f"than the {memory} bytes of physical memory\n")
    assert out == "" and not out_path.exists()


def _simulate_count(box, times):
    return (dynamics._evolve_bytes(box, 1, times)
            + times * box.size * cli._SIMULATE_ROW_BYTES)


def test_simulate_beyond_memory_exits_2_before_stepping(tmp_path, capsys,
                                                        monkeypatch):
    # 2001 grid times of 3x3: 84,042 report rows besides the states; the
    # step is neither calibrated nor taken.
    box = cli.LatticeBox(3, 3)
    need = _simulate_count(box, 2001)
    monkeypatch.setattr(lattice, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(dynamics, "_step",
                        lambda *a, **k: pytest.fail("calibrated"))
    monkeypatch.setattr(dynamics, "evolve_coeffs",
                        lambda *a, **k: pytest.fail("stepped"))
    out_path = tmp_path / "traj.csv"
    cfg = write_cfg(tmp_path, "command = simulate\nbox = 3 3\n"
                    f"t_grid = 0 1 0.0005\nout = {out_path}\n")
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert err == (f"config error: t_grid: 2001 grid times of {box!r} needs "
                   f"{need} bytes, more than the {need - 1} bytes of "
                   "physical memory\n")
    assert out == "" and not out_path.exists()


def test_simulate_count_bounds_traced_peak(tmp_path, capsys):
    # The states and about 250 B per report row (10,020 rows here).
    out_path = tmp_path / "traj.csv"
    cfg = write_cfg(tmp_path, "command = simulate\nbox = 2 2\n"
                    f"t_grid = 0 0.5 0.001\ndt = 0.001\nout = {out_path}\n")
    assert main(["--config", cfg]) == 0
    peak = traced_peak(main, ["--config", cfg])
    assert peak <= _simulate_count(cli.LatticeBox(2, 2), 501)
    capsys.readouterr()


def _ensemble_cfg(tmp_path, box, pairs, triples, count, threads=1):
    out_path = tmp_path / "moments.csv"
    return out_path, write_cfg(
        tmp_path, f"command = ensemble\nbox = {box}\n"
        "profile = power_decay 1.0 1.5\neps = 0.1\nt = 1.0\ndt = 0.05\n"
        f"sample_count = {count}\npairs = {pairs}\ntriples = {triples}\n"
        f"threads = {threads}\nout = {out_path}\n")


def test_ensemble_beyond_memory_exits_2_before_sampling(tmp_path, capsys,
                                                        monkeypatch):
    # Every pair and zero-sum triple of 3x3 (903 + 666 moments) over two
    # batches on two threads: one byte short, nothing is sampled.
    box = cli.LatticeBox(3, 3)
    need = ensemble._moment_bytes(box, 4000, 1569, 2)
    assert need == (2 * dynamics._evolve_bytes(box, 2048, 1)
                    + 64 * 16 * (3 * 256 + 2 * box.size)
                    + 1569 * ensemble._MOMENT_BYTES)
    monkeypatch.setattr(lattice, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(ensemble, "sample_g_batch",
                        lambda *a, **k: pytest.fail("a sample was drawn"))
    out_path, cfg = _ensemble_cfg(tmp_path, "3 3", "all", "zero-sum", 4000,
                                  threads=2)
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert err == (f"config error: ensemble: 1569 moments of {box!r} over "
                   "batches of 2048 samples on 2 threads needs "
                   f"{need} bytes, more than the {need - 1} bytes of "
                   "physical memory\n")
    assert out == "" and not out_path.exists()


def test_ensemble_counts_moments_without_forming_them(tmp_path, capsys,
                                                      monkeypatch):
    # 60x60 has 14,520 modes: every pair and zero-sum triple would take
    # gigabytes of mode tuples before the first sample.  The pre-flight
    # counts them from the box alone.
    box = cli.LatticeBox(60, 60)
    moments = box.size * (box.size + 1) // 2 + theory._zero_sum_count(box)
    monkeypatch.setattr(lattice, "_physical_memory", lambda: 10 ** 9)
    for module, name in ((ensemble, "_moment_indices"),
                         (theory, "zero_sum_triples")):
        monkeypatch.setattr(module, name,
                            lambda *a: pytest.fail("moments were formed"))
    out_path, cfg = _ensemble_cfg(tmp_path, "60 60", "all", "zero-sum", 10)
    assert main(["--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: ensemble: {moments} moments of "
                          f"{box!r} over batches of 10 samples on 1 thread "
                          "needs ")
    assert err.count("\n") == 1 and out == "" and not out_path.exists()


def test_ensemble_pre_flight_passes_what_fits(tmp_path, capsys, monkeypatch):
    # Exactly the counted bytes: the run goes ahead.
    box = cli.LatticeBox(2, 2)
    need = ensemble._moment_bytes(box, 100, 3, 1)
    monkeypatch.setattr(lattice, "_physical_memory", lambda: need)
    out_path, cfg = _ensemble_cfg(
        tmp_path, "2 2", "1 0 1 0; 2 1 2 1", "1 0 1 0 -2 0", 100)
    assert main(["--config", cfg]) == 0
    assert "2 pair and 1 triple moments" in capsys.readouterr().out


def test_ensemble_checks_and_parses_its_request_once(tmp_path, capsys,
                                                     monkeypatch):
    # The estimator owns the moment request: the handler parses each key's
    # groups once, and the memory is checked once, from the estimator.
    calls = {"check": [], "pairs": 0, "triples": 0}
    check, parse = ensemble._check_moments, cli._parse_mode_groups

    def spy_check(*args):
        calls["check"].append(args)
        return check(*args)

    def spy_parse(key, *args):
        calls[key] += 1
        return parse(key, *args)

    monkeypatch.setattr(ensemble, "_check_moments", spy_check)
    monkeypatch.setattr(cli, "_parse_mode_groups", spy_parse)
    _, cfg = _ensemble_cfg(tmp_path, "2 2", "1 0 1 0; 2 1 2 1",
                           "1 0 1 0 -2 0", 4)
    assert main(["--config", cfg]) == 0
    assert "2 pair and 1 triple moments" in capsys.readouterr().out
    assert calls == {"check": [(cli.LatticeBox(2, 2), 4, 3, 1)],
                     "pairs": 1, "triples": 1}


@pytest.mark.parametrize("box, pairs, triples, count, threads, batch", [
    pytest.param("2 2", "diag", "none", 1, 1, None, id="2x2-diag-1"),
    pytest.param("2 2", "diag", "none", 1000, 1, None, id="2x2-diag-1000"),
    pytest.param("3 3", "all", "zero-sum", 1, 1, None, id="3x3-all-1"),
    pytest.param("3 3", "all", "zero-sum", 1000, 1, None,
                 id="3x3-all-1000"),
    pytest.param("3 3", "all", "zero-sum", 1000, 2, 256,
                 id="3x3-all-1000-threads"),
    pytest.param("4 4", "all", "zero-sum", 256, 1, None,
                 id="4x4-all-256"),
    # 23,676 moments of one sample: the bytes per moment are most of the
    # count.
    pytest.param("6 6", "all", "zero-sum", 1, 1, None, id="6x6-all-1"),
])
def test_ensemble_count_bounds_traced_peak(tmp_path, capsys, monkeypatch,
                                           box, pairs, triples, count,
                                           threads, batch):
    # The whole handler, report included, with the zero-sum triples
    # formed afresh; a first run loads the modules and the box's tables.
    if batch is not None:
        monkeypatch.setattr(ensemble, "_BATCH", batch)
    out_path, cfg = _ensemble_cfg(tmp_path, box, pairs, triples, count,
                                  threads)
    assert main(["--config", cfg]) == 0
    theory.zero_sum_triples.cache_clear()
    peak = traced_peak(main, ["--config", cfg])
    lattice = cli.LatticeBox(*map(int, box.split()))
    moments = ensemble._moment_count(lattice, pairs, triples)
    assert peak <= ensemble._moment_bytes(lattice, count, moments, threads)
    capsys.readouterr()
