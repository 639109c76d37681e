"""Output check: compare a kpwaves CSV report with a stored reference.

A report is a format-version line, ``# key=value`` header lines (the
echoed configuration, then result extras) and a CSV table.  Text must match
exactly.  Numbers must match within ``RTOL`` of their scale: for a table
column, the largest magnitude of that column among the reference rows of
the same kind, with ``re_X``/``im_X`` columns sharing one scale; for a
header value, its own magnitude, except that the error ``X_err`` of a
header value ``X`` takes the larger of the two magnitudes.  A slope's
standard error comes from the small residuals of a near-exact fit, so
roundoff moves it by far more than RTOL of itself: an FFT convolution
moved the scan's pair_slope_err by 1.0e-8 of itself, 7e-12 of pair_slope.
RTOL passes roundoff-level changes to the arithmetic and fails a changed
step size, a changed sample draw or a changed formula.  Measured on the
benchmark's workloads: an FFT convolution or summing each convolution
segment in another order passes; a step size 10% smaller moves several
values by 1e-6 or more of their scale.  Columns whose values are roundoff
themselves (the identity residuals of ``verify``) take an absolute
tolerance instead.  Every number in a report must be finite.
"""

from __future__ import annotations

import csv
import gzip
import io
import math

RTOL = 1e-8


def parse_report(text: str):
    """Split a CSV report into (version, header dict, columns, rows)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("report has no format-version line")
    version = lines[0][2:]
    header = {}
    i = 1
    while i < len(lines) and lines[i].startswith("# "):
        key, _, val = lines[i][2:].partition("=")
        header[key] = val
        i += 1
    table = list(csv.reader(io.StringIO("\n".join(lines[i:]))))
    if not table:
        raise ValueError("report has no table")
    return version, header, table[0], table[1:]


def read_reference(path) -> str:
    with gzip.open(path, "rt", encoding="utf-8", newline="") as fh:
        return fh.read()


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(x: float, ref: float, tol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(x)
    return math.isfinite(x) and abs(x - ref) <= tol


def _scale_key(column: str) -> str:
    if column.startswith(("re_", "im_")):
        return column[3:]
    return column


def compare(text: str, reference: str, abs_tol: dict | None = None) -> list:
    """Problems found in a report against its reference; empty if it passes."""
    abs_tol = abs_tol or {}
    try:
        version, header, cols, rows = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    r_version, r_header, r_cols, r_rows = parse_report(reference)
    problems = []
    if version != r_version:
        problems.append(f"format version {version!r} != {r_version!r}")
    if list(header) != list(r_header):
        problems.append(f"header keys {list(header)} != {list(r_header)}")
    for key in r_header.keys() & header.keys():
        val, ref = header[key], r_header[key]
        if val == ref:
            continue
        xs = [_number(t) for t in val.split()]
        rs = [_number(t) for t in ref.split()]
        of = _number(r_header.get(key[:-4], "")) if key.endswith("_err") \
            else None
        floor = abs(of) if of is not None and math.isfinite(of) else 0.0
        if (len(xs) != len(rs) or None in xs or None in rs
                or not all(_close(x, r, RTOL * max(abs(r), floor))
                           for x, r in zip(xs, rs))):
            problems.append(f"header {key}: {val!r} != reference {ref!r}")
    if cols != r_cols:
        return problems + [f"columns {cols} != {r_cols}"]
    if len(rows) != len(r_rows):
        return problems + [f"{len(rows)} rows != reference {len(r_rows)}"]

    # Scale of each (row kind, column group) over the reference rows.
    kind_col = 0 if r_rows and _number(r_rows[0][0]) is None else None
    scale = {}
    for row in r_rows:
        kind = row[kind_col] if kind_col is not None else ""
        for col, cell in zip(cols, row):
            num = _number(cell)
            if num is not None and math.isfinite(num):
                key = (kind, _scale_key(col))
                scale[key] = max(scale.get(key, 0.0), abs(num))

    for lineno, (row, ref_row) in enumerate(zip(rows, r_rows), start=1):
        kind = ref_row[kind_col] if kind_col is not None else ""
        for col, cell, ref in zip(cols, row, ref_row):
            x, r = _number(cell), _number(ref)
            if x is None or r is None:
                if cell != ref:
                    problems.append(f"row {lineno} {col}: {cell!r} != {ref!r}")
                continue
            if not math.isfinite(x):
                problems.append(f"row {lineno} {col}: non-finite {cell}")
                continue
            tol = abs_tol.get(col, RTOL * scale.get((kind, _scale_key(col)),
                                                    0.0))
            if not _close(x, r, tol):
                problems.append(f"row {lineno} {col}: {cell} != reference "
                                f"{ref} (tolerance {tol:.3g})")
    return problems
