"""Command-line driver for reproducible experiments.

Configuration is a flat key=value file plus a handful of flag
overrides.  Every emitted file echoes the resolved configuration and a
format-version line, so any result can be traced back to the run that
produced it.

Exit codes: 0 success, 1 scientific-check failure, 2 configuration
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .lattice import LatticeBox, SpectralField
from .operators import pair_table
from .picard import resonance_margin, identity_residuals, w_residual
from .dynamics import calibrate_dt, evolve_coeffs, NonFiniteError
from .ensemble import (RandomLaw, SpectrumProfile, normalize_profile,
                       sample_u0, EnsembleConfig, MomentReport,
                       estimate_moments, ScanConfig, remainder_scan,
                       remainder_growth, _check_scan, _check_growth)
from . import theory

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]

FORMAT_VERSION = "kpwaves-report-1"
IDENTITY_TOL = 1e-10


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Resolved settings of one run; defaults cover every optional key."""

    command: str = ""
    box: tuple = (4, 4)
    s: float = 1.0
    eps: tuple = (0.1,)
    t: float = 1.0
    t_grid: tuple | None = None
    law: str = "steinhaus"
    profile: str = "power_decay 1.0 2.0"
    normalize: bool = True
    sample_count: int = 1000
    seed: int = 0
    dt: float | None = None
    out: str = ""
    format: str = "csv"
    threads: int = 1
    pairs: str = "diag"
    triples: str = "zero-sum"
    mode: tuple = (1, 0)
    box_sizes: tuple = (4, 8, 16, 32)
    lambda_exponent: float = 0.25
    triple: tuple = ((1, 0), (1, 0), (-2, 0))
    rotations: int = 4


_COMMANDS = ("verify", "simulate", "ensemble", "remainder-scan",
             "box-limit", "theory-curves")


# ---------------------------------------------------------------------------
# configuration parsing

def _split(text: str) -> list:
    return text.replace(",", " ").split()


def _floats(key: str, text: str, count: int | None = None) -> tuple:
    toks = _split(text)
    try:
        vals = tuple(float(x) for x in toks)
    except ValueError:
        raise ConfigError(f"{key}: expected numbers, got {text!r}") from None
    if count is not None and len(vals) != count:
        raise ConfigError(f"{key}: expected {count} values, got {len(vals)}")
    if not vals:
        raise ConfigError(f"{key}: empty value")
    return vals


def _ints(key: str, text: str, count: int | None = None) -> tuple:
    toks = _split(text)
    try:
        vals = tuple(int(x) for x in toks)
    except ValueError:
        raise ConfigError(f"{key}: expected integers, got {text!r}") from None
    if count is not None and len(vals) != count:
        raise ConfigError(f"{key}: expected {count} values, got {len(vals)}")
    if not vals:
        raise ConfigError(f"{key}: empty value")
    return vals


def _one_float(key: str, text: str) -> float:
    return _floats(key, text, 1)[0]


def _one_int(key: str, text: str) -> int:
    return _ints(key, text, 1)[0]


def _bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_command(text: str) -> str:
    if text not in _COMMANDS:
        raise ConfigError(
            f"command: unknown command {text!r}; choose from "
            + ", ".join(_COMMANDS))
    return text


def _parse_box(text: str) -> tuple:
    n1, n2 = _ints("box", text, 2)
    if n1 < 1 or n2 < 0:
        raise ConfigError(f"box: need n1_max >= 1 and n2_max >= 0, got {text!r}")
    return (n1, n2)


def _parse_eps(text: str) -> tuple:
    vals = _floats("eps", text)
    for e in vals:
        if not 0.0 <= e <= 1.0:
            raise ConfigError(f"eps: values must lie in [0, 1], got {e}")
    return vals


def _parse_t_grid(text: str) -> tuple:
    start, stop, step = _floats("t_grid", text, 3)
    if step <= 0 or stop < start:
        raise ConfigError(f"t_grid: need start <= stop and step > 0, got {text!r}")
    return (start, stop, step)


def _parse_mode(text: str) -> tuple:
    a, b = _ints("mode", text, 2)
    if a == 0:
        raise ConfigError("mode: n1 = 0 is outside the phase space")
    return (a, b)


def _parse_triple(text: str) -> tuple:
    v = _ints("triple", text, 6)
    return ((v[0], v[1]), (v[2], v[3]), (v[4], v[5]))


def _parse_box_sizes(text: str) -> tuple:
    vals = _ints("box_sizes", text)
    if any(n < 1 for n in vals):
        raise ConfigError(f"box_sizes: sizes must be >= 1, got {text!r}")
    return vals


def _positive_int(key: str, minimum: int):
    def parse(text: str) -> int:
        val = _one_int(key, text)
        if val < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
        return val
    return parse


def _positive_float(key: str):
    def parse(text: str) -> float:
        val = _one_float(key, text)
        if val <= 0:
            raise ConfigError(f"{key}: must be positive, got {val}")
        return val
    return parse


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {text!r}")
    return text


_KEY_PARSERS = {
    "command": _parse_command,
    "box": _parse_box,
    "s": lambda v: _one_float("s", v),
    "eps": _parse_eps,
    "t": lambda v: _one_float("t", v),
    "t_grid": _parse_t_grid,
    "law": lambda v: v.strip(),
    "profile": lambda v: v.strip(),
    "normalize": lambda v: _bool("normalize", v),
    "sample_count": _positive_int("sample_count", 0),
    "seed": _positive_int("seed", 0),
    "dt": _positive_float("dt"),
    "out": lambda v: v.strip(),
    "format": _parse_format,
    "threads": _positive_int("threads", 1),
    "pairs": lambda v: v.strip(),
    "triples": lambda v: v.strip(),
    "mode": _parse_mode,
    "box_sizes": _parse_box_sizes,
    "lambda_exponent": lambda v: _one_float("lambda_exponent", v),
    "triple": _parse_triple,
    "rotations": _positive_int("rotations", 1),
}


def _read_kv_file(path) -> dict:
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"config: line {lineno}: expected key=value, got {raw.strip()!r}")
        key, val = line.split("=", 1)
        entries[key.strip()] = val.strip()
    return entries


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge a key=value file with flag overrides into a typed config."""
    raw = _read_kv_file(path) if path else {}
    for key, val in (overrides or {}).items():
        raw[key] = str(val)
    if "command" not in raw:
        raise ConfigError("command: missing (pass --command or a command= line)")
    parsed = {}
    for key, text in raw.items():
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{key}: unknown configuration key")
        parsed[key] = parser(text)
    cfg = ExperimentConfig(**parsed)
    if cfg.command != "verify" and not cfg.out:
        raise ConfigError("out: this command requires an output path")
    return cfg


def build_law(cfg: ExperimentConfig) -> RandomLaw:
    toks = _split(cfg.law)
    if not toks:
        raise ConfigError("law: empty value")
    name, args = toks[0], toks[1:]
    arity = {"steinhaus": 0, "constant": 1, "two_point": 3,
             "clipped_gaussian": 2}
    if name not in arity:
        raise ConfigError(f"law: unknown kind {name!r}")
    if len(args) != arity[name]:
        raise ConfigError(
            f"law: {name} takes {arity[name]} parameters, got {len(args)}")
    vals = _floats("law", " ".join(args)) if args else ()
    try:
        return getattr(RandomLaw, name)(*vals)
    except ValueError as exc:
        raise ConfigError(f"law: {exc}") from None


def build_profile(cfg: ExperimentConfig, box: LatticeBox,
                  law: RandomLaw) -> SpectrumProfile:
    toks = _split(cfg.profile)
    if not toks:
        raise ConfigError("profile: empty value")
    name, args = toks[0], toks[1:]
    try:
        if name == "power_decay":
            amp, decay = _floats("profile", " ".join(args), 2)
            prof = SpectrumProfile.power_decay(box, amp, decay)
        elif name == "box_constant":
            if len(args) != 2:
                raise ConfigError("profile: box_constant takes 2 parameters")
            prof = SpectrumProfile.box_constant(
                box, _one_int("profile", args[0]),
                _one_float("profile", args[1]))
        elif name == "single_mode":
            if len(args) != 3:
                raise ConfigError("profile: single_mode takes 3 parameters")
            n = (_one_int("profile", args[0]), _one_int("profile", args[1]))
            prof = SpectrumProfile.single_mode(
                box, n, _one_float("profile", args[2]))
        else:
            raise ConfigError(f"profile: unknown kind {name!r}")
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from None
    if cfg.normalize:
        prof = normalize_profile(prof, law, cfg.s)
    return prof


def _check_in_box(key: str, modes, box: LatticeBox) -> None:
    for n in modes:
        if n not in box:
            raise ConfigError(f"{key}: mode {n} is outside {box!r}")


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    start, stop, step = cfg.t_grid
    return np.arange(start, stop + 0.5 * step, step)


# ---------------------------------------------------------------------------
# output

def _flag(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (tuple, list)):
        flat = []
        for item in x:
            flat.extend(item if isinstance(item, (tuple, list)) else [item])
        return " ".join(_flag(v) for v in flat)
    return str(x)


def config_echo(cfg: ExperimentConfig) -> dict:
    """The resolved configuration as flat printable strings."""
    out = {}
    for field in fields(cfg):
        val = getattr(cfg, field.name)
        out[field.name] = "" if val is None else _flag(val)
    return out


def _cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (tuple, list)):
        return " ".join(_cell(v) for v in x)
    return "" if x is None else str(x)


def emit_table(cfg: ExperimentConfig, columns: tuple | list, rows: list,
               extras: dict | None = None) -> None:
    """Write a result table with the echoed config, as CSV or JSON.

    The one report writer: version, config echo, extras, then the table.
    """
    extras = extras or {}
    if cfg.format == "json":
        obj = {
            "version": FORMAT_VERSION,
            "config": config_echo(cfg),
            "results": {
                **extras,
                "columns": columns,
                "rows": [[row.get(c) for c in columns] for row in rows],
            },
        }
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        return
    with open(cfg.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {FORMAT_VERSION}\n")
        for key, val in config_echo(cfg).items():
            fh.write(f"# {key}={val}\n")
        for key, val in extras.items():
            fh.write(f"# {key}={_cell(val)}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


# ---------------------------------------------------------------------------
# commands

def cmd_verify(cfg: ExperimentConfig) -> int:
    """Exact-identity suite: structural checks that hold to roundoff."""
    box = LatticeBox(*cfg.box)
    law = build_law(cfg)
    profile = build_profile(cfg, box, law)
    eps = cfg.eps[0] if cfg.eps[0] > 0 else 0.1
    t = cfg.t
    margin = resonance_margin(box)
    n_splits = len(pair_table(box))
    checks = [("resonance-bound", max(0.0, -margin),
               f"min |Delta| - 3|n1 k1 l1| = {margin:.3e} over {n_splits} "
               "splits" if n_splits else "no interacting splits")]

    n_fields = 8
    worst = {}
    for i in range(n_fields):
        u = sample_u0(profile, law, cfg.seed, 2 * i)
        v = sample_u0(profile, law, cfg.seed, 2 * i + 1)
        for name, r in identity_residuals(u, v, t, eps).items():
            worst[name] = max(worst.get(name, 0.0), r)
    notes = {
        "commutator": f"max rel residual over {n_fields} field pairs",
        "cubic-composition": "f_map against -s_map(., dx_product)",
        "b-decomposition": "first corrector against its two-term form",
        "c-decomposition": "second corrector against -2 s_map(a, b) + f",
        "lambda-roundtrip": "invert_lambda_eps after lambda_eps",
    }
    checks.extend((name, worst[name], note) for name, note in notes.items())

    # One evolved sample: the cubic remainder decomposition of the
    # normal-form variable must close against the integrated state.
    u0 = sample_u0(profile, law, cfg.seed, 0)
    dt = cfg.dt or calibrate_dt(box, u0, eps, t)
    u_t = SpectralField(box, evolve_coeffs(box, u0.coeffs, eps, [t], dt)[0])
    checks.append(("w-decomposition", w_residual(u_t, u0, t, eps),
                   "evolved-state decomposition of the normal form"))

    failures = 0
    for name, residual, note in checks:
        ok = residual <= IDENTITY_TOL
        failures += 0 if ok else 1
        print(f"{name:<18} {'PASS' if ok else 'FAIL'}  "
              f"residual {residual:.3e}  ({note})")
    print(f"verify: {len(checks) - failures}/{len(checks)} checks passed "
          f"on {box!r}")
    if cfg.out:
        emit_table(cfg, ["check", "residual", "passed"],
                   [{"check": n, "residual": r,
                     "passed": int(r <= IDENTITY_TOL)}
                    for n, r, _ in checks],
                   extras={"identity_tol": IDENTITY_TOL})
    return 1 if failures else 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Integrate one seeded sample and write its trajectory."""
    box = LatticeBox(*cfg.box)
    law = build_law(cfg)
    profile = build_profile(cfg, box, law)
    u0 = sample_u0(profile, law, cfg.seed, 0)
    eps = cfg.eps[0]
    times = _time_grid(cfg) if cfg.t_grid is not None else np.array([cfg.t])
    dt = cfg.dt or calibrate_dt(box, u0, eps, float(times[-1]) or 1.0)
    states = evolve_coeffs(box, u0.coeffs, eps, times, dt)
    if not np.isfinite(states.view(float)).all():
        raise NonFiniteError("trajectory left the finite range")
    rows = []
    for i, t in enumerate(times):
        for j in range(box.size):
            rows.append({"t": float(t), "n1": int(box.n1[j]),
                         "n2": int(box.n2[j]),
                         "re": float(states[i, j].real),
                         "im": float(states[i, j].imag)})
    emit_table(cfg, ["t", "n1", "n2", "re", "im"], rows,
               extras={"dt_used": dt})
    return 0


def _parse_mode_groups(key: str, text: str, group: int) -> list:
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _ints(key, chunk, 2 * group)
        modes = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(group))
        out.append(modes)
    if not out:
        raise ConfigError(f"{key}: no mode groups in {text!r}")
    return out


def _select_pairs(cfg: ExperimentConfig, box: LatticeBox) -> tuple:
    text = cfg.pairs
    if text == "none":
        return ()
    if text == "diag":
        return tuple(((int(a), int(b)), (int(a), int(b)))
                     for a, b in box.modes)
    if text == "all":
        modes = [tuple(int(x) for x in m) for m in box.modes]
        out = [(n, n) for n in modes]
        out.extend((modes[i], modes[j])
                   for i in range(len(modes)) for j in range(i + 1, len(modes)))
        return tuple(out)
    return tuple(_parse_mode_groups("pairs", text, 2))


def _select_triples(cfg: ExperimentConfig, box: LatticeBox) -> tuple:
    text = cfg.triples
    if text == "none":
        return ()
    if text == "zero-sum":
        i_n, i_m, i_p = theory.zero_sum_triples(box)
        return tuple(
            (tuple(int(x) for x in box.modes[a]),
             tuple(int(x) for x in box.modes[b]),
             tuple(int(x) for x in box.modes[c]))
            for a, b, c in zip(i_n, i_m, i_p))
    return tuple(_parse_mode_groups("triples", text, 3))


def cmd_ensemble(cfg: ExperimentConfig) -> int:
    """Monte Carlo moment estimation against the closed-form predictions."""
    box = LatticeBox(*cfg.box)
    law = build_law(cfg)
    profile = build_profile(cfg, box, law)
    ecfg = EnsembleConfig(profile=profile, law=law, eps=cfg.eps[0], t=cfg.t,
                          sample_count=cfg.sample_count,
                          pairs=_select_pairs(cfg, box),
                          triples=_select_triples(cfg, box),
                          seed=cfg.seed, dt=cfg.dt, threads=cfg.threads)
    report = estimate_moments(ecfg)
    extras = ({"failed_samples": list(report.failed_samples)}
              if report.failed_samples else None)
    emit_table(cfg, MomentReport.COLUMNS, report.rows(), extras=extras)
    print(f"ensemble: {report.sample_count} samples, "
          f"{len(report.failed_samples)} failed, "
          f"{len(report.pair_moments)} pair and "
          f"{len(report.triple_moments)} triple moments -> {cfg.out}")
    return 0


def cmd_remainder_scan(cfg: ExperimentConfig) -> int:
    """Scaling of the expansion remainders in eps, and growth in t."""
    box = LatticeBox(*cfg.box)
    law = build_law(cfg)
    profile = build_profile(cfg, box, law)
    scan_cfg = None
    if len(cfg.eps) >= 3:
        scan_cfg = ScanConfig(
            profile=profile, law=law, eps_grid=cfg.eps, t=cfg.t,
            sample_count=cfg.sample_count, triple=cfg.triple,
            seed=cfg.seed, dt=cfg.dt, rotations=cfg.rotations)
    grid = _time_grid(cfg) if cfg.t_grid is not None else None
    if scan_cfg is None and grid is None:
        raise ConfigError(
            "eps: need at least three values for a slope fit, "
            "or a t_grid for the growth fit")
    try:
        if scan_cfg is not None:
            _check_scan(scan_cfg)
        if grid is not None:
            _check_growth(cfg.eps[0], grid, cfg.sample_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = []
    extras = {}
    status = 0
    if scan_cfg is not None:
        scan = remainder_scan(scan_cfg)
        rows.extend({"kind": "scan", **asdict(p)} for p in scan.points)
        extras.update(pair_slope=scan.pair_slope,
                      pair_slope_err=scan.pair_slope_err,
                      triple_slope=scan.triple_slope,
                      triple_slope_err=scan.triple_slope_err,
                      noise_dominated=int(scan.noise_dominated))
        if scan.noise_dominated:
            print("remainder-scan: noise-dominated, no reliable slope",
                  file=sys.stderr)
            status = 1
        else:
            print(f"remainder-scan: pair slope {scan.pair_slope:.3f} "
                  f"+/- {scan.pair_slope_err:.3f}, triple slope "
                  f"{scan.triple_slope:.3f} +/- {scan.triple_slope_err:.3f}")
    if grid is not None:
        fit = remainder_growth(profile, law, cfg.eps[0], grid,
                               cfg.sample_count, seed=cfg.seed, s=cfg.s,
                               dt=cfg.dt)
        for t, norm in zip(fit.times, fit.max_norms):
            rows.append({"kind": "growth", "t": t, "max_norm": norm})
        extras.update(growth_exponent=fit.exponent,
                      growth_stderr=fit.stderr)
        print(f"remainder-scan: growth exponent {fit.exponent:.3f} "
              f"+/- {fit.stderr:.3f}")
    emit_table(cfg, ["kind", "eps", "t", "pair_value", "pair_error",
                     "triple_value", "triple_error", "max_norm"],
               rows, extras=extras)
    return status


def cmd_box_limit(cfg: ExperimentConfig) -> int:
    """Pair correction across growing boxes with a flat shrinking spectrum."""
    law = build_law(cfg)
    m2, m4 = law.moments()
    if abs(m2 - 1.0) > 1e-9 or abs(m4 - 2.0) > 1e-9:
        raise ConfigError(
            f"law: box-limit requires E|g|^2 = 1 and E|g|^4 = 2, "
            f"got ({m2:.6g}, {m4:.6g}); two_point 0 {np.sqrt(2):.17g} 0.5 "
            f"is one such law")
    rows = []
    ratios = []
    values = []
    for n_side in cfg.box_sizes:
        lam = float(n_side) ** (-cfg.lambda_exponent)
        val = theory.box_limit_f2(cfg.mode, n_side, lam, cfg.t, m2=m2, m4=m4)
        ratio = val / lam ** 4
        rows.append({"N": n_side, "lambda": lam, "value": val,
                     "ratio": ratio})
        values.append(abs(val))
        ratios.append(abs(ratio))
    bounded = max(ratios) <= 10.0 * ratios[0]
    extras = {"ratio_first": ratios[0], "ratio_max": max(ratios),
              "bounded": int(bounded)}
    emit_table(cfg, ["N", "lambda", "value", "ratio"], rows, extras=extras)
    print("box-limit: |value| "
          + " -> ".join(f"{v:.3e}" for v in values)
          + f", ratio spread max/first = {max(ratios) / ratios[0]:.3f}")
    if not bounded:
        print("box-limit: ratio column is not bounded by 10x its first entry",
              file=sys.stderr)
        return 1
    return 0


def cmd_theory_curves(cfg: ExperimentConfig) -> int:
    """Closed-form moment curves and weighted sums over a time grid."""
    box = LatticeBox(*cfg.box)
    _check_in_box("mode", [cfg.mode], box)
    _check_in_box("triple", cfg.triple, box)
    law = build_law(cfg)
    profile = build_profile(cfg, box, law)
    ctx = theory.TheoryContext.from_profile(profile, law)
    grid = _time_grid(cfg) if cfg.t_grid is not None \
        else np.arange(0.0, 100.0 + 0.25, 0.5)
    pair_sums = theory.weighted_sum_pair(ctx, cfg.s, grid)
    triple_sums = theory.weighted_sum_triple(ctx, cfg.s, grid)
    rows = []
    for t, w2, w3 in zip(grid, pair_sums, triple_sums):
        val3 = theory.f3(ctx, *cfg.triple, float(t))
        rows.append({
            "t": float(t),
            "pair_correction": theory.f2_diag(ctx, cfg.mode, float(t)),
            "re_triple": val3.real,
            "im_triple": val3.imag,
            "weighted_pair": float(w2),
            "weighted_triple": float(w3),
        })
    extras = {"pair_majorant": theory.pair_majorant(ctx, cfg.s),
              "triple_majorant": theory.triple_majorant(ctx, cfg.s)}
    emit_table(cfg, ["t", "pair_correction", "re_triple", "im_triple",
                     "weighted_pair", "weighted_triple"], rows, extras=extras)
    print(f"theory-curves: {len(rows)} grid points -> {cfg.out}")
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "remainder-scan": cmd_remainder_scan,
    "box-limit": cmd_box_limit,
    "theory-curves": cmd_theory_curves,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kpwaves",
        description="Reproducible experiments on the truncated wave system.")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--command", choices=_COMMANDS,
                        help="experiment to run (overrides the config file)")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--out", help="override the output path")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="override the output format")
    parser.add_argument("--threads", type=int,
                        help="override the sampling thread count")
    args = parser.parse_args(argv)

    overrides = {}
    for key in ("command", "seed", "out", "format", "threads"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    try:
        cfg = load_config(args.config, overrides)
        return _HANDLERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
