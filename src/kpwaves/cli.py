"""Command-line driver for reproducible experiments.

Configuration is a flat key=value file plus a handful of flag
overrides.  Every emitted file echoes the resolved configuration and a
format-version line, so any result can be traced back to the run that
produced it.

Exit codes: 0 success, 1 scientific-check failure, 2 configuration
error (lattice.ConfigError, from the parser or a layer's pre-flight
check), 3 runtime failure.  Each command handler imports the layers it
runs, so a command loads no code it never calls.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .lattice import ConfigError, LatticeBox, _check_memory
from .sampling import (RandomLaw, SpectrumProfile, normalize_profile,
                       sample_g_batch, sample_u0)

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]

FORMAT_VERSION = "kpwaves-report-1"
IDENTITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# configuration parsing

def _split(text: str) -> list:
    return text.replace(",", " ").split()


def _numbers(key: str, text: str, kind, count: int | None = None) -> tuple:
    """The numbers of a value, each parsed by kind (float or int); nan and
    inf are not numbers of any key."""
    toks = _split(text)
    try:
        vals = tuple(kind(x) for x in toks)
        if kind is float and not np.isfinite(vals).all():
            raise ValueError
    except ValueError:
        what = "integers" if kind is int else "finite numbers"
        raise ConfigError(f"{key}: expected {what}, got {text!r}") from None
    if count is not None and len(vals) != count:
        raise ConfigError(f"{key}: expected {count} values, got {len(vals)}")
    if not vals:
        raise ConfigError(f"{key}: empty value")
    return vals


def _text(key: str, text: str) -> str:
    return text.strip()


def _float(key: str, text: str) -> float:
    return _numbers(key, text, float, 1)[0]


def _bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_command(key: str, text: str) -> str:
    if text not in _COMMANDS:
        raise ConfigError(
            f"{key}: unknown command {text!r}; choose from "
            + ", ".join(_COMMANDS))
    return text


def _parse_box(key: str, text: str) -> tuple:
    n1, n2 = _numbers(key, text, int, 2)
    if n1 < 1 or n2 < 0:
        raise ConfigError(
            f"{key}: need n1_max >= 1 and n2_max >= 0, got {text!r}")
    return (n1, n2)


def _parse_eps(key: str, text: str) -> tuple:
    vals = _numbers(key, text, float)
    for e in vals:
        if not 0.0 <= e <= 1.0:
            raise ConfigError(f"{key}: values must lie in [0, 1], got {e}")
    return vals


def _parse_t_grid(key: str, text: str) -> tuple:
    start, stop, step = _numbers(key, text, float, 3)
    if step <= 0 or stop < start:
        raise ConfigError(
            f"{key}: need start <= stop and step > 0, got {text!r}")
    return (start, stop, step)


def _parse_mode(key: str, text: str) -> tuple:
    a, b = _numbers(key, text, int, 2)
    if a == 0:
        raise ConfigError(f"{key}: n1 = 0 is outside the phase space")
    return (a, b)


def _parse_triple(key: str, text: str) -> tuple:
    v = _numbers(key, text, int, 6)
    return ((v[0], v[1]), (v[2], v[3]), (v[4], v[5]))


def _parse_box_sizes(key: str, text: str) -> tuple:
    vals = _numbers(key, text, int)
    if any(n < 1 for n in vals):
        raise ConfigError(f"{key}: sizes must be >= 1, got {text!r}")
    return vals


def _int_from(minimum: int):
    def parse(key: str, text: str) -> int:
        val, = _numbers(key, text, int, 1)
        if val < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
        return val
    return parse


def _parse_seed(key: str, text: str) -> int:
    """A seed of the sampler's 64-bit counter hash."""
    val = _int_from(0)(key, text)
    if val >= 2 ** 64:
        raise ConfigError(f"{key}: must be <= {2 ** 64 - 1}, got {val}")
    return val


def _positive(key: str, text: str) -> float:
    val = _float(key, text)
    if val <= 0:
        raise ConfigError(f"{key}: must be positive, got {val}")
    return val


def _parse_format(key: str, text: str) -> str:
    if text not in ("csv", "json"):
        raise ConfigError(f"{key}: expected csv or json, got {text!r}")
    return text


def _key(default, parse):
    """A configuration key: its default and parse(key, text), its parser."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class ExperimentConfig:
    """Resolved settings of one run; defaults cover every optional key."""

    command: str = _key("", _parse_command)
    box: tuple = _key((4, 4), _parse_box)
    s: float = _key(1.0, _float)
    eps: tuple = _key((0.1,), _parse_eps)
    t: float = _key(1.0, _float)
    t_grid: tuple | None = _key(None, _parse_t_grid)
    law: str = _key("steinhaus", _text)
    profile: str = _key("power_decay 1.0 2.0", _text)
    normalize: bool = _key(True, _bool)
    sample_count: int = _key(1000, _int_from(0))
    seed: int = _key(0, _parse_seed)
    dt: float | None = _key(None, _positive)
    out: str = _key("", _text)
    format: str = _key("csv", _parse_format)
    threads: int = _key(1, _int_from(1))
    pairs: str = _key("diag", _text)
    triples: str = _key("zero-sum", _text)
    mode: tuple = _key((1, 0), _parse_mode)
    box_sizes: tuple = _key((4, 8, 16, 32), _parse_box_sizes)
    lambda_exponent: float = _key(0.25, _float)
    triple: tuple = _key(((1, 0), (1, 0), (-2, 0)), _parse_triple)
    rotations: int = _key(4, _int_from(1))


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
    parsers = {f.name: f.metadata["parse"] for f in fields(ExperimentConfig)}
    parsed = {}
    for key, text in raw.items():
        if key not in parsers:
            raise ConfigError(f"{key}: unknown configuration key")
        parsed[key] = parsers[key](key, text)
    cfg = ExperimentConfig(**parsed)
    if cfg.command != "verify" and not cfg.out:
        raise ConfigError("out: this command requires an output path")
    if cfg.command != "remainder-scan" and len(cfg.eps) > 1:
        raise ConfigError(
            f"eps: {cfg.command} takes one value, got {len(cfg.eps)}; "
            "a list is for remainder-scan")
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
    vals = _numbers("law", " ".join(args), float) if args else ()
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
            amp, decay = _numbers("profile", " ".join(args), float, 2)
            prof = SpectrumProfile.power_decay(box, amp, decay)
        elif name == "box_constant":
            if len(args) != 2:
                raise ConfigError("profile: box_constant takes 2 parameters")
            prof = SpectrumProfile.box_constant(
                box, _numbers("profile", args[0], int)[0],
                _numbers("profile", args[1], float)[0])
        elif name == "single_mode":
            if len(args) != 3:
                raise ConfigError("profile: single_mode takes 3 parameters")
            n = tuple(_numbers("profile", a, int)[0] for a in args[:2])
            _check_in_box("profile", [n], box)
            prof = SpectrumProfile.single_mode(
                box, n, _numbers("profile", args[2], float)[0])
        else:
            raise ConfigError(f"profile: unknown kind {name!r}")
        if cfg.normalize:
            prof = normalize_profile(prof, law, cfg.s)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from None
    return prof


def _inputs(cfg: ExperimentConfig) -> tuple:
    """The box, the modulus law and the spectrum profile of a run."""
    box = LatticeBox(*cfg.box)
    law = build_law(cfg)
    return box, law, build_profile(cfg, box, law)


def _check_in_box(key: str, modes, box: LatticeBox) -> None:
    for n in modes:
        if n not in box:
            raise ConfigError(f"{key}: mode {n} is outside {box!r}")


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    start, stop, step = cfg.t_grid
    return np.arange(start, stop + 0.5 * step, step)


# ---------------------------------------------------------------------------
# output

def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, (tuple, list)):
        return " ".join(_cell(v) for v in x)
    return "" if x is None else str(x)


def _column_format(values):
    """The formatter of one table column, chosen once from its cells' types:
    _cell's float or str branch when every cell takes it, else _cell."""
    kinds = set(map(type, values))
    if kinds <= {float, np.float64}:
        return "{:.17g}".format
    if kinds <= {int, str}:
        return str
    return _cell


def config_echo(cfg: ExperimentConfig) -> dict:
    """The resolved configuration as flat printable strings."""
    return {field.name: _cell(getattr(cfg, field.name))
            for field in fields(cfg)}


def emit_table(cfg: ExperimentConfig, columns: tuple | list, rows: list,
               extras: dict | None = None) -> None:
    """Write a result table with the echoed config, as CSV or JSON.

    The one report writer: version, config echo, extras, then the table.
    Each row is a sequence of cells in the order of columns; None leaves a
    cell empty (null in JSON).
    """
    extras = extras or {}
    if cfg.format == "json":
        import json
        obj = {
            "version": FORMAT_VERSION,
            "config": config_echo(cfg),
            "results": {
                **extras,
                "columns": columns,
                "rows": rows,
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
        cells = [map(_column_format(col), col) for col in zip(*rows)]
        writer.writerows(zip(*cells))


# ---------------------------------------------------------------------------
# commands

def cmd_verify(cfg: ExperimentConfig) -> int:
    """Exact-identity suite: structural checks that hold to roundoff."""
    from .operators import pair_table
    from .picard import (PicardBundle, resonance_margin, identity_residuals,
                         w_residual, _check_contraction)
    eps = cfg.eps[0]
    if eps == 0:
        raise ConfigError("eps: the remainder is undefined at eps = 0")
    box, law, profile = _inputs(cfg)
    margin = resonance_margin(box)
    n_splits = len(pair_table(box))
    checks = [("resonance-bound", max(0.0, -margin),
               f"min |Delta| - 3|n1 k1 l1| = {margin:.3e} over {n_splits} "
               "splits" if n_splits else "no interacting splits")]

    n_fields = 8
    _check_contraction(box, n_fields)
    # Samples 2 i and 2 i + 1 form pair i; one pass builds the bundles of
    # the first field of every pair.
    samples = profile.lambdas() * sample_g_batch(
        box, law, cfg.seed, np.arange(2 * n_fields))
    bundles = PicardBundle.build_batch(box, samples[0::2], cfg.t, eps)
    worst = {}
    for bundle, v in zip(bundles, samples[1::2]):
        for name, r in identity_residuals(bundle, v).items():
            worst[name] = max(worst.get(name, 0.0), r)
    notes = {
        "commutator": f"max rel residual over {n_fields} field pairs",
        "cubic-composition": "f_map against its own body: always 0",
        "b-decomposition": "first corrector against its two-term form",
        "c-decomposition": "second corrector against -2 s_map(a, b) + f",
        "lambda-roundtrip": "invert_lambda_eps after lambda_eps",
    }
    checks.extend((name, worst[name], note) for name, note in notes.items())

    # The cubic remainder decomposition is algebraic and holds for any
    # state: it is checked at a + eps b + eps^2 c + eps^3 v, the bundle of
    # pair 0 and its second field, so that the remainder d is v.
    b0 = bundles[0]
    u_t = b0.a + eps * b0.b + eps ** 2 * b0.c + eps ** 3 * samples[1]
    checks.append(("w-decomposition", w_residual(u_t, b0),
                   "normal-form decomposition at a + eps b + eps^2 c "
                   "+ eps^3 v"))

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
                   [(n, r, int(r <= IDENTITY_TOL)) for n, r, _ in checks],
                   extras={"identity_tol": IDENTITY_TOL})
    return 1 if failures else 0


# Bytes per row of a simulate report past its state: the row's tuple and
# values, and its column entries while the writer formats them.  The
# handler's tracemalloc peak on boxes 2x1 to 4x4 over 201 to 2001 grid
# times read 190-270 B per row; rounded up.
_SIMULATE_ROW_BYTES = 320


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Integrate one seeded sample and write its trajectory."""
    from .dynamics import (_diverged, _evolve_bytes, _step, evolve_coeffs,
                           NonFiniteError)
    box, law, profile = _inputs(cfg)
    eps = cfg.eps[0]
    times = _time_grid(cfg) if cfg.t_grid is not None else np.array([cfg.t])
    # The stepper's count of the sample over every grid time and the
    # report's rows, before the step is calibrated or taken.
    _check_memory(_evolve_bytes(box, 1, len(times))
                  + len(times) * box.size * _SIMULATE_ROW_BYTES,
                  f"t_grid: {len(times)} grid times of {box!r}")
    u0 = sample_u0(profile, law, cfg.seed, 0)
    dt, _ = _step(profile, law, cfg.seed, eps, float(times[-1]) or 1.0,
                  cfg.dt)
    states = evolve_coeffs(box, u0, eps, times, dt)
    bad = _diverged(states)
    if bad.any():
        raise NonFiniteError(
            f"sample 0 diverged by t = {float(times[np.argmax(bad)])}")
    rows = []
    for i, t in enumerate(times):
        for j in range(box.size):
            rows.append((float(t), int(box.n1[j]), int(box.n2[j]),
                         float(states[i, j].real), float(states[i, j].imag)))
    emit_table(cfg, ["t", "n1", "n2", "re", "im"], rows,
               extras={"dt_used": dt})
    return 0


def _parse_mode_groups(key: str, text: str, group: int,
                       box: LatticeBox) -> list:
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _numbers(key, chunk, int, 2 * group)
        modes = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(group))
        _check_in_box(key, modes, box)
        out.append(modes)
    if not out:
        raise ConfigError(f"{key}: no mode groups in {text!r}")
    return out


def _select_pairs(cfg: ExperimentConfig, box: LatticeBox):
    text = cfg.pairs
    if text == "none":
        return ()
    diag = np.arange(box.size)
    if text == "diag":
        return box.modes[np.stack([diag, diag], axis=1)]
    if text == "all":
        i, j = np.triu_indices(box.size, 1)
        return box.modes[np.stack([np.concatenate([diag, i]),
                                   np.concatenate([diag, j])], axis=1)]
    return tuple(_parse_mode_groups("pairs", text, 2, box))


def _select_triples(cfg: ExperimentConfig, box: LatticeBox):
    text = cfg.triples
    if text == "none":
        return ()
    if text == "zero-sum":
        from .theory import zero_sum_triples
        return box.modes[np.stack(zero_sum_triples(box), axis=1)]
    return tuple(_parse_mode_groups("triples", text, 3, box))


def _moment_count(cfg: ExperimentConfig, box: LatticeBox) -> int:
    """The number of moments the pairs and triples keys select, counted
    without forming the modes of `all` and `zero-sum`."""
    from .theory import _zero_sum_count
    size = box.size
    pairs = {"none": 0, "diag": size, "all": size * (size + 1) // 2}
    triples = {"none": 0, "zero-sum": _zero_sum_count(box)}
    return ((pairs[cfg.pairs] if cfg.pairs in pairs
             else len(_select_pairs(cfg, box)))
            + (triples[cfg.triples] if cfg.triples in triples
               else len(_select_triples(cfg, box))))


def cmd_ensemble(cfg: ExperimentConfig) -> int:
    """Monte Carlo moment estimation against the closed-form predictions."""
    from .ensemble import MomentReport, estimate_moments, _check_moments
    box, law, profile = _inputs(cfg)
    _check_moments(box, cfg.sample_count, _moment_count(cfg, box),
                   cfg.threads)
    report = estimate_moments(profile, law, cfg.eps[0], cfg.t,
                              cfg.sample_count,
                              pairs=_select_pairs(cfg, box),
                              triples=_select_triples(cfg, box),
                              seed=cfg.seed, dt=cfg.dt, threads=cfg.threads)
    extras = ({"failed_samples": list(report.failed_samples)}
              if report.failed_samples else None)
    emit_table(cfg, MomentReport.COLUMNS, report.rows(), extras=extras)
    print(f"ensemble: {report.sample_count} samples, "
          f"{len(report.failed_samples)} failed, "
          f"{len(report.pair_index)} pair and "
          f"{len(report.triple_index)} triple moments -> {cfg.out}")
    return 0


def cmd_remainder_scan(cfg: ExperimentConfig) -> int:
    """Scaling of the expansion remainders in eps, and growth in t."""
    from .ensemble import (remainder_scan, remainder_growth, _check_scan,
                           _check_growth)
    box, law, profile = _inputs(cfg)
    scanning = len(cfg.eps) >= 3
    grid = _time_grid(cfg) if cfg.t_grid is not None else None
    if not scanning and grid is None:
        raise ConfigError(
            "eps: need at least three values for a slope fit, "
            "or a t_grid for the growth fit")
    if scanning:
        _check_scan(box, cfg.eps, cfg.t, cfg.sample_count, cfg.triple,
                    cfg.rotations)
    if grid is not None:
        _check_growth(box, cfg.eps[0], grid, cfg.sample_count)
    rows = []
    extras = {}
    status = 0
    if scanning:
        scan = remainder_scan(profile, law, cfg.eps, cfg.t, cfg.sample_count,
                              triple=cfg.triple, seed=cfg.seed, dt=cfg.dt,
                              rotations=cfg.rotations)
        rows.extend(("scan", p.eps, None, p.pair_value, p.pair_error,
                     p.triple_value, p.triple_error, None)
                    for p in scan.points)
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
            rows.append(("growth", cfg.eps[0], t, None, None, None, None,
                         norm))
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
    from .theory import box_limit_f2, _check_box_limit
    law = build_law(cfg)
    m2, m4 = law.moments()
    if abs(m2 - 1.0) > 1e-9 or abs(m4 - 2.0) > 1e-9:
        raise ConfigError(
            f"law: box-limit requires E|g|^2 = 1 and E|g|^4 = 2, "
            f"got ({m2:.6g}, {m4:.6g}); two_point 0 {np.sqrt(2):.17g} 0.5 "
            f"is one such law")
    if cfg.t == 0:
        raise ConfigError("t: the pair correction vanishes at t = 0; "
                          "need t != 0")
    _check_box_limit(cfg.mode, cfg.box_sizes)
    rows = []
    ratios = []
    values = []
    for n_side in cfg.box_sizes:
        lam = float(n_side) ** (-cfg.lambda_exponent)
        val = box_limit_f2(cfg.mode, n_side, lam, cfg.t, m2=m2, m4=m4)
        ratio = val / lam ** 4
        rows.append((n_side, lam, val, ratio))
        values.append(abs(val))
        ratios.append(abs(ratio))
    if ratios[0] == 0:
        raise ConfigError(
            f"box_sizes: the pair correction at mode {cfg.mode} is 0 at the "
            f"first size N = {cfg.box_sizes[0]}, so it cannot scale the "
            "ratios; start with a larger box")
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
    from . import theory
    box, law, profile = _inputs(cfg)
    _check_in_box("mode", [cfg.mode], box)
    _check_in_box("triple", cfg.triple, box)
    ctx = theory.TheoryContext.from_profile(profile, law)
    grid = _time_grid(cfg) if cfg.t_grid is not None \
        else np.arange(0.0, 100.0 + 0.25, 0.5)
    pair = theory.f2_diag(ctx, cfg.mode, grid)
    triple = theory.f3(ctx, *cfg.triple, grid)
    rows = list(zip(grid.tolist(), pair.tolist(), triple.real.tolist(),
                    triple.imag.tolist(),
                    theory.weighted_sum_pair(ctx, cfg.s, grid).tolist(),
                    theory.weighted_sum_triple(ctx, cfg.s, grid).tolist()))
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
_COMMANDS = tuple(_HANDLERS)


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
    parser.add_argument("--debug", action="store_true",
                        help="re-raise a runtime failure with its traceback")
    args = vars(parser.parse_args(argv))
    path, debug = args.pop("config"), args.pop("debug")

    # Every other flag overrides the configuration key of its name.
    overrides = {key: val for key, val in args.items() if val is not None}
    try:
        cfg = load_config(path, overrides)
        return _HANDLERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if debug:
            raise
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
