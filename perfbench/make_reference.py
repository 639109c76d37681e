"""Write the reference reports and the baseline package.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout of the commit the references should
describe.  Writes the reports the output check compares against and, when
no workload is named, reference/kpwaves-baseline.zip: the package's
sources, which the benchmark runs alternately with the checkout's to
measure the machine's momentary speed.  The stored files were made from
the package as it stood when the benchmark was defined; regenerating them
on a later commit re-baselines the output check and the speed reference,
which a performance change must not do.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import time
import zipfile
from pathlib import Path

import run


def write_baseline(root: Path) -> None:
    """Zip src/kpwaves/*.py with fixed timestamps, so the file is reproducible."""
    sources = sorted((root / "src" / "kpwaves").glob("*.py"))
    with zipfile.ZipFile(run.BASELINE_ZIP, "w", zipfile.ZIP_DEFLATED) as zf:
        for path in sources:
            info = zipfile.ZipInfo(f"kpwaves/{path.name}",
                                   (1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            zf.writestr(info, path.read_bytes())
    print(f"{len(sources)} sources -> {run.BASELINE_ZIP.name}")


def main(argv) -> int:
    root = Path.cwd()
    if not argv:
        write_baseline(root)
    names = argv or sorted(run.WORKLOADS)
    work = root / ".perfbench" / "reference"
    for name in names:
        wl = run.WORKLOADS[name]
        seeds = (list(range(run.SEED_POOL)) + [run.CLAIM_SEED]
                 if wl.seeded else [None])
        for seed in seeds:
            if work.exists():
                shutil.rmtree(work)
            work.mkdir(parents=True)
            p = run.spawn(wl, root / "src", work, seed, "run",
                          time.monotonic() + 600.0)
            if p.rc != 0 or p.report is None:
                print(f"{name} seed {seed}: exit code {p.rc}; not stored",
                      file=sys.stderr)
                return 1
            dest = wl.reference(seed)
            dest.parent.mkdir(exist_ok=True)
            with open(dest, "wb") as raw, \
                    gzip.GzipFile(filename="", fileobj=raw, mode="wb",
                                  mtime=0) as fh:
                fh.write(p.report.encode())
            print(f"{name} seed {seed}: {p.wall_s:.2f} s -> {dest.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
