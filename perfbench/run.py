"""kpwaves benchmark: README example workloads run as fresh CLI processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--claim]

Run from the root of a kpwaves checkout; the package is imported from its
``src`` directory.  Every repetition is a new ``kpwaves`` process (see
child.py) with OMP_NUM_THREADS and OPENBLAS_NUM_THREADS pinned to 1, bound
to one core (CHILD_CPU).

Untraced (--trace 0): runs of the checkout's package (current) alternate
with runs of the baseline package, the sources stored in
reference/kpwaves-baseline.zip, which ran the same work at the commit that
defined the benchmark; which side goes first alternates from pair to pair.
First four pairs of set-up-only processes (stopped on entering the
command handler, after one unmeasured warm-up of each side), then pairs of
full runs while the median pair still fits in S seconds (at least
MIN_PAIRS).  Reported as medians:

  cpu_norm_s   CPU time (user + system) of a full current run, from
               process start to exit, over that of the baseline run next to
               it, times the baseline's CPU time on the defining machine
               (Workload.ref_cpu_s): current CPU seconds at that machine's
               speed
  setup_s      the same for the CPU time used up to command-handler entry
               (interpreter start, ``import kpwaves``, config resolution),
               over set-up-only and full runs, times REF_SETUP_S
  peak_rss_mb  ru_maxrss of the current workload process

and, in the printed row only, the raw medians cpu_s, baseline_cpu_s and
wall_s (current run, process start to exit), samples_per_s (ensemble and
scan: sample trajectories per second of wall time after command-handler
entry) and failed_fraction.

The benchmark runs on a few cores of a shared host.  CPU time leaves out
the time a process waits for a core, on the machine or on the host
(steal); the ratio to the baseline run next to it takes out the drift of
the host's speed.  Over ten runs of each workload spread across 18 minutes
on 2 cores of a shared host, the quartile distance of the run medians was
0.22-0.27 of their median for raw CPU time and 0.05-0.10 for cpu_norm_s.

Traced (--trace 1): pairs of an untraced and a traced current run, the
same way; the per-layer metrics (layers.PER_LAYER) are medians over the
traced runs and trace.overhead_s is the traced minus the untraced median
wall time.

Every full run is checked: exit code 0, no failed samples reported, and a
report matching reference/ (check.py) within roundoff.  --seed N selects
the workload seed N mod 5 (references exist for 0..4); --claim selects the
held-out seed 5 instead, kept for checking a performance claim on a seed
not used while the change was written.  The last line of standard output
is the JSON result; the environment is printed on the line before it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zipfile
from pathlib import Path

import check
import layers

HERE = Path(__file__).resolve().parent
SEED_POOL = 5
CLAIM_SEED = 5
BASELINE_ZIP = HERE / "reference" / "kpwaves-baseline.zip"
SETUP_PAIRS = 4
MIN_PAIRS = 3
RUN_LIMIT_S = 170.0
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
# Every workload process runs on this one core, so that the two runs of a
# pair are timed on the same core.
CHILD_CPU = max(os.sched_getaffinity(0))
# Median set-up CPU time of the baseline on the machine the benchmark was
# defined on (2 cores of a shared host); setup_s is in its seconds.
REF_SETUP_S = 0.25


def _ensemble_samples(header: dict, stdout: str) -> int:
    return int(re.search(r"ensemble: (\d+) samples", stdout).group(1))


def _scan_samples(header: dict, stdout: str) -> int:
    return (int(header["sample_count"]) * int(header["rotations"])
            * len(header["eps"].split()))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    ref_cpu_s: float              # baseline median CPU time, defining machine
    samples: object = None        # (header, stdout) -> sample trajectories
    abs_tol: tuple = ()           # (column, absolute tolerance) pairs

    @property
    def config(self) -> Path:
        return HERE / "workloads" / f"{self.name}.cfg"

    def config_seed(self, seed: int, claim: bool) -> int | None:
        if not self.seeded:
            return None
        return CLAIM_SEED if claim else seed % SEED_POOL

    def reference(self, config_seed: int | None) -> Path:
        tag = "" if config_seed is None else f"-seed{config_seed}"
        return HERE / "reference" / f"{self.name}{tag}.csv.gz"


WORKLOADS = {w.name: w for w in (
    Workload("ensemble-3x3", seeded=True, ref_cpu_s=3.0,
             samples=_ensemble_samples),
    Workload("scan-2x2", seeded=True, ref_cpu_s=1.6, samples=_scan_samples),
    Workload("verify-6x6", seeded=True, ref_cpu_s=5.0,
             abs_tol=(("residual", 1e-10),)),
    Workload("curves-6x6", seeded=False, ref_cpu_s=1.6),
)}


@dataclasses.dataclass
class Rep:
    side: str
    mode: str
    wall_s: float
    cpu_s: float
    setup_s: float | None
    setup_wall_s: float | None
    rss_mb: float
    rc: int
    problems: list
    samples: int | None = None
    report_bytes: int = 0
    trace: dict | None = None


def child_env(src: Path) -> dict:
    return {**os.environ, **PINNED_ENV, "PYTHONPATH": str(src)}


def extract_baseline(root: Path) -> Path:
    """Unpack the baseline package; returns the directory to import it from."""
    dest = root / ".perfbench" / "baseline"
    if dest.exists():
        shutil.rmtree(dest)
    with zipfile.ZipFile(BASELINE_ZIP) as archive:
        archive.extractall(dest)
    return dest


@dataclasses.dataclass
class Process:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    info: dict
    stdout: str
    report: str | None


def spawn(wl: Workload, src: Path, work: Path, config_seed, mode: str,
          deadline: float, tag: str = "") -> Process:
    """Run one kpwaves process, importing the package from src, in work/."""
    report = work / "report.csv"
    sidecar = work / f"sidecar{tag}.json"
    for path in (report, sidecar):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar), mode, "--",
           "--config", str(wl.config), "--out", report.name]
    if config_seed is not None:
        cmd += ["--seed", str(config_seed)]
    with open(work / "stdout.txt", "w") as out, \
            open(work / "stderr.txt", "w") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(
            cmd, cwd=work, env=child_env(src), stdout=out, stderr=err,
            preexec_fn=lambda: os.sched_setaffinity(0, {CHILD_CPU}))
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        info = json.loads(sidecar.read_text())
    except (OSError, ValueError):
        info = {}
    if "handler_ns" in info:
        info["setup_wall_s"] = (info["handler_ns"] - t0) / 1e9
    try:
        text = report.read_text()
    except OSError:
        text = None
    return Process(rc=proc.returncode, wall_s=(t1 - t0) / 1e9,
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, info=info,
                   stdout=(work / "stdout.txt").read_text(), report=text)


def run_rep(wl: Workload, side: str, src: Path, work: Path, config_seed,
            mode: str, deadline: float, tag: str = "") -> Rep:
    """Run one kpwaves process and check its exit code and report."""
    p = spawn(wl, src, work, config_seed, mode, deadline, tag)
    problems = [] if p.rc == 0 else [f"exit code {p.rc}, expected 0"]
    if not p.info:
        problems.append("no sidecar written")
    if p.info and not p.info.get("kpwaves_file", "").startswith(
            str(src) + os.sep):
        problems.append(f"kpwaves imported from {p.info.get('kpwaves_file')}")
    rep = Rep(side=side, mode=mode, wall_s=p.wall_s, cpu_s=p.cpu_s,
              setup_s=p.info.get("handler_cpu_s"),
              setup_wall_s=p.info.get("setup_wall_s"), rss_mb=p.rss_mb,
              rc=p.rc, problems=problems, trace=p.info.get("trace"))
    if mode == "setup":
        if rep.setup_s is None:
            problems.append("command handler never entered")
        return rep
    failed = re.search(r"(\d+) failed", p.stdout)
    if failed and int(failed.group(1)):
        problems.append(f"{failed.group(1)} failed samples")
    if p.report is None:
        problems.append("no report written")
        return rep
    rep.report_bytes = len(p.report.encode())
    problems += check.compare(p.report, check.read_reference(
        wl.reference(config_seed)), dict(wl.abs_tol))
    if wl.samples is not None and not problems:
        rep.samples = wl.samples(check.parse_report(p.report)[1], p.stdout)
    return rep


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0


def ratio_median(pairs, attr: str) -> float:
    """Median over pairs of the first rep's attr over the second's."""
    return median(getattr(a, attr) / getattr(b, attr) for a, b in pairs
                  if getattr(a, attr) and getattr(b, attr))


def measure(wl: Workload, root: Path, baseline: Path | None, seed: int,
            seconds: float, trace: bool, claim: bool) -> dict:
    work = root / ".perfbench" / wl.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config_seed = wl.config_seed(seed, claim)
    deadline = time.monotonic() + RUN_LIMIT_S
    current = ("current", root / "src")
    count = itertools.count()

    def pair(i: int, first, second, mode_first: str, mode_second: str):
        """Run both sides once, in turn first or second; (first, second)."""
        jobs = [(first, mode_first), (second, mode_second)]
        reps = [run_rep(wl, side, src, work, config_seed, mode, deadline,
                        tag=f"-{next(count)}")
                for (side, src), mode in (jobs if i % 2 == 0 else jobs[::-1])]
        return tuple(reps if i % 2 == 0 else reps[::-1])

    if trace:
        sides = (current, current, "run", "trace")
    else:
        sides = (current, ("baseline", baseline), "run", "run")
    setup_pairs = []
    if not trace:
        # One unmeasured run of each side first, so bytecode caches are warm.
        for _, src in sides[:2]:
            spawn(wl, src, work, config_seed, "setup", deadline)
        setup_pairs = [pair(i, *sides[:2], "setup", "setup")
                       for i in range(SETUP_PAIRS)]
    pairs = []
    start = time.monotonic()
    # Start a pair only while the median pair still fits in the window.
    while (time.monotonic() - start
           + median(a.wall_s + b.wall_s for a, b in pairs) <= seconds
           or len(pairs) < MIN_PAIRS):
        pairs.append(pair(len(pairs), *sides))
    all_reps = [r for p in setup_pairs + pairs for r in p]
    failed = sum(1 for r in all_reps if r.problems)
    res = {
        "workload": wl.name, "seed": seed, "config_seed": config_seed,
        "attempted": len(all_reps), "failed": failed,
        "problems": sorted({p for r in all_reps for p in r.problems})[:20],
        "reps": [{k: v for k, v in dataclasses.asdict(r).items()
                  if k != "trace"} for r in all_reps],
    }
    plain = [a for a, _ in pairs]
    if not trace:
        res["metrics"] = {
            "cpu_norm_s": (wl.ref_cpu_s * ratio_median(pairs, "cpu_s"), "s",
                           len(pairs)),
            "setup_s": (REF_SETUP_S * ratio_median(setup_pairs + pairs,
                                                   "setup_s"), "s",
                        len(setup_pairs) + len(pairs)),
            "peak_rss_mb": (median(r.rss_mb for r in plain), "MB",
                            len(plain)),
        }
        rates = [r.samples / (r.wall_s - r.setup_wall_s) for r in plain
                 if r.samples is not None and r.setup_wall_s is not None]
        res["row_only"] = {
            "cpu_s": (median(r.cpu_s for r in plain), "s", len(plain)),
            "baseline_cpu_s": (median(b.cpu_s for _, b in pairs), "s",
                               len(pairs)),
            "wall_s": (median(r.wall_s for r in plain), "s", len(plain)),
            "failed_fraction": (failed / res["attempted"], "",
                                res["attempted"]),
        }
        if wl.samples is not None:
            res["row_only"]["samples_per_s"] = (median(rates), "1/s",
                                                len(rates))
        return res
    traced = [b for _, b in pairs]
    per_rep = [layers.layer_metrics(r.trace["spans"]) for r in traced
               if r.trace is not None]
    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        vals = [m[name] for m in per_rep if name in m]
        metrics[name] = (median(vals), unit, len(vals))
    metrics["cli.report_bytes"] = (median(r.report_bytes for r in traced),
                                   "B", len(traced))
    metrics["trace.overhead_s"] = (
        median(r.wall_s for r in traced) - median(r.wall_s for r in plain),
        "s", len(traced))
    res["metrics"] = metrics
    res["per_rep_layers"] = per_rep
    res["untraced_targets"] = sorted({t for r in traced if r.trace
                                      for t in r.trace.get("missing", [])})
    for i, r in enumerate(traced):
        if r.trace is not None:
            (work / f"spans-{i}.json").write_text(json.dumps(r.trace))
    return res


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kpwaves").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "child_cpu": CHILD_CPU,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "baseline_sha256": hashlib.sha256(
            BASELINE_ZIP.read_bytes()).hexdigest(),
        **PINNED_ENV,
        "claim_seed": CLAIM_SEED,
        "seed_pool": SEED_POOL,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(res: dict, trace: bool) -> None:
    """One row of end-to-end metrics, or one line per per-layer metric."""
    items = list(res["metrics"].items()) + list(res.get("row_only",
                                                         {}).items())
    cells = []
    for name, (value, unit, n) in items:
        if name == "failed_fraction":
            cells.append(f"{name} {_fmt(value)} "
                         f"({res['failed']}/{res['attempted']} runs)")
        else:
            cells.append(f"{name} {_fmt(value)} {unit} (n={n})")
    if trace:
        print(f"{res['workload']} per-layer metrics, medians over traced runs:")
        for cell in cells:
            print(f"  {cell}")
    else:
        print("  ".join([f"{res['workload']:<13}"] + cells))
    for problem in res["problems"]:
        print(f"  {res['workload']}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--claim", action="store_true",
                        help="use the held-out claim-check seed")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "kpwaves" / "cli.py").is_file():
        print(f"perfbench: no kpwaves sources under {root / 'src'}; run "
              "from the root of a kpwaves checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    baseline = None if args.trace else extract_baseline(root)
    results = [measure(WORKLOADS[n], root, baseline, args.seed, args.seconds,
                       bool(args.trace), args.claim) for n in names]
    env = {**environment(root), "seed": args.seed, "claim": args.claim}
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for res in results:
        (out_dir / f"{res['workload']}-seed{args.seed}-trace{args.trace}"
         f"-{stamp}.json").write_text(json.dumps({"env": env, **res},
                                                 indent=1))
        print_result(res, bool(args.trace))
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        for name, (value, unit, _) in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
