"""Per-layer metrics computed from the spans of one traced run.

A span's self time is its duration minus the durations of its direct
children.  Counts come from the ``extra`` fields the tracer computed from
call arguments, so they repeat exactly; times are wall-clock.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# (name, unit, better) in report order; cli.report_bytes and
# trace.overhead_s are filled in by the caller.
PER_LAYER = [
    ("operators.convolve.calls", "count", "lower"),
    ("operators.convolve.s", "s", "lower"),
    ("operators.convolve.products", "count", "lower"),
    ("operators.convolve.ns_per_product", "ns", "lower"),
    ("operators.convolve.p50_us", "us", "lower"),
    ("operators.convolve.pmax_us", "us", "lower"),
    ("dynamics.evolve.self_s", "s", "lower"),
    ("dynamics.rk4_steps", "count", "lower"),
    ("dynamics.rk4_sample_steps", "count", "lower"),
    ("dynamics.calibrate_dt.s", "s", "lower"),
    ("dynamics.calibrate_dt.halvings", "count", "lower"),
    ("dynamics.dt", "model_time", "higher"),
    ("operators.pair_table.build_s", "s", "lower"),
    ("operators.pair_table.entries", "count", "lower"),
    ("operators.pair_table.bytes", "B", "lower"),
    ("operators.triple_table.build_s", "s", "lower"),
    ("operators.triple_table.entries", "count", "lower"),
    ("operators.triple_table.bytes", "B", "lower"),
    ("operators.s_apply.calls", "count", "lower"),
    ("operators.s_apply.s", "s", "lower"),
    ("picard.phi1.calls", "count", "lower"),
    ("picard.phi1.s", "s", "lower"),
    ("picard.b_coeffs.calls", "count", "lower"),
    ("picard.b_coeffs.s", "s", "lower"),
    ("picard.c_coeffs.calls", "count", "lower"),
    ("picard.c_coeffs.s", "s", "lower"),
    ("picard.f_integral.calls", "count", "lower"),
    ("picard.f_integral.s", "s", "lower"),
    ("picard.triple_products", "count", "lower"),
    ("picard.invert.iterations", "count", "lower"),
    ("ensemble.sample_g_batch.s", "s", "lower"),
    ("ensemble.samples", "count", "higher"),
    ("ensemble.batches", "count", "lower"),
    ("ensemble.reduce_self_s", "s", "lower"),
    ("ensemble.predict_s", "s", "lower"),
    ("ensemble.failed_samples", "count", "lower"),
    ("theory.f2_diag.calls", "count", "lower"),
    ("theory.f2_diag.s", "s", "lower"),
    ("theory.f3.calls", "count", "lower"),
    ("theory.f3.s", "s", "lower"),
    ("theory.f2_diag_all.calls", "count", "lower"),
    ("theory.f2_diag_all.s", "s", "lower"),
    ("theory.kron_terms.calls", "count", "lower"),
    ("theory.kron_terms.s", "s", "lower"),
    ("theory.f3_all.calls", "count", "lower"),
    ("theory.f3_all.s", "s", "lower"),
    ("theory.weighted_sum_pair.calls", "count", "lower"),
    ("theory.weighted_sum_pair.s", "s", "lower"),
    ("theory.weighted_sum_triple.calls", "count", "lower"),
    ("theory.weighted_sum_triple.s", "s", "lower"),
    ("theory.majorants.calls", "count", "lower"),
    ("theory.majorants.s", "s", "lower"),
    ("lattice.lookup.calls", "count", "lower"),
    ("lattice.lookup.s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.report_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Counts that must repeat exactly between traced runs of one workload.
EXACT_COUNTS = [name for name, unit, _ in PER_LAYER
                if unit in ("count", "B", "model_time")]

# Ensemble entry points; their self time is the reduction work.
_ENSEMBLE_ENTRIES = ("ensemble.estimate_moments", "ensemble.remainder_scan",
                     "ensemble.remainder_growth")


def layer_metrics(spans: list) -> dict:
    """Metrics of one traced process, from its span list."""
    by_id = {}
    groups = defaultdict(list)
    child_ns = defaultdict(int)
    for sid, name, start, end, parent, extra in spans:
        span = (name, end - start, parent, extra if isinstance(extra, dict)
                else {})
        by_id[sid] = span
        groups[name].append((sid,) + span)
    for _, dur, parent, _ in by_id.values():
        child_ns[parent] += dur

    def parent_name(parent):
        return by_id[parent][0] if parent in by_id else None

    def calls(*names):
        return sum(len(groups[n]) for n in names)

    def secs(*names):
        return sum(s[2] for n in names for s in groups[n]) / 1e9

    def self_s(*names):
        return sum(s[2] - child_ns[s[0]] for n in names for s in groups[n]) / 1e9

    def total(name, key, parents=None):
        return sum(s[4].get(key, 0) for s in groups[name]
                   if parents is None or parent_name(s[3]) in parents)

    m = {}
    conv_us = sorted(s[2] / 1e3 for s in groups["operators.convolve"])
    products = total("operators.convolve", "products")
    m["operators.convolve.calls"] = len(conv_us)
    m["operators.convolve.s"] = secs("operators.convolve")
    m["operators.convolve.products"] = products
    m["operators.convolve.ns_per_product"] = (
        secs("operators.convolve") * 1e9 / products if products else 0.0)
    m["operators.convolve.p50_us"] = (statistics.median(conv_us)
                                      if conv_us else 0.0)
    # Highest percentile with at least ten calls beyond it.
    m["operators.convolve.pmax_us"] = (
        conv_us[-11] if len(conv_us) > 10 else (conv_us[-1] if conv_us
                                                else 0.0))

    evolve = groups["dynamics.evolve"]
    m["dynamics.evolve.self_s"] = self_s("dynamics.evolve")
    m["dynamics.rk4_steps"] = total("dynamics.evolve", "steps")
    m["dynamics.rk4_sample_steps"] = sum(
        s[4].get("steps", 0) * s[4].get("batch", 0) for s in evolve)
    m["dynamics.calibrate_dt.s"] = secs("dynamics.calibrate_dt")
    m["dynamics.calibrate_dt.halvings"] = total("dynamics.calibrate_dt",
                                                "halvings")
    outer_dt = [s[4]["dt"] for s in evolve
                if "dt" in s[4]
                and parent_name(s[3]) != "dynamics.calibrate_dt"]
    m["dynamics.dt"] = min(outer_dt) if outer_dt else 0.0

    for table in ("pair_table", "triple_table"):
        name = f"operators.{table}"
        m[f"{name}.build_s"] = secs(name)
        m[f"{name}.entries"] = total(name, "entries")
        m[f"{name}.bytes"] = total(name, "bytes")
    m["operators.s_apply.calls"] = calls("operators.s_apply")
    m["operators.s_apply.s"] = secs("operators.s_apply")

    for part in ("phi1", "b_coeffs", "c_coeffs", "f_integral"):
        m[f"picard.{part}.calls"] = calls(f"picard.{part}")
        m[f"picard.{part}.s"] = secs(f"picard.{part}")
    m["picard.triple_products"] = (total("picard.c_coeffs", "products")
                                   + total("picard.f_integral", "products"))
    m["picard.invert.iterations"] = sum(
        1 for s in groups["picard.lambda_eps"]
        if parent_name(s[3]) == "picard.invert")

    m["ensemble.sample_g_batch.s"] = secs("ensemble.sample_g_batch")
    m["ensemble.samples"] = total("dynamics.evolve", "batch",
                                  _ENSEMBLE_ENTRIES)
    m["ensemble.batches"] = sum(
        1 for s in groups["ensemble.sample_g_batch"]
        if parent_name(s[3]) in _ENSEMBLE_ENTRIES)
    m["ensemble.reduce_self_s"] = self_s(*_ENSEMBLE_ENTRIES)
    m["ensemble.predict_s"] = sum(
        s[2] for n in ("theory.pair_prediction", "theory.triple_prediction")
        for s in groups[n] if parent_name(s[3]) in _ENSEMBLE_ENTRIES) / 1e9
    m["ensemble.failed_samples"] = total("ensemble.estimate_moments",
                                         "failed")

    for fn in ("f2_diag", "f3", "f2_diag_all", "kron_terms", "f3_all",
               "weighted_sum_pair", "weighted_sum_triple"):
        m[f"theory.{fn}.calls"] = calls(f"theory.{fn}")
        m[f"theory.{fn}.s"] = secs(f"theory.{fn}")
    majorants = ("theory.pair_majorant", "theory.triple_majorant")
    m["theory.majorants.calls"] = calls(*majorants)
    m["theory.majorants.s"] = secs(*majorants)
    m["lattice.lookup.calls"] = calls("lattice.lookup")
    m["lattice.lookup.s"] = secs("lattice.lookup")

    m["cli.config_s"] = secs("cli.load_config")
    m["cli.emit_s"] = secs("cli.emit_table", "ensemble.report_csv",
                           "ensemble.report_json")
    return m
