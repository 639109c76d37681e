"""In-memory span recorder for traced benchmark runs.

The recorder wraps the functions one kpwaves layer calls in another, from
outside the package: every module-level name in a kpwaves module that is
bound to a wrapped function is rebound to the wrapper, so a call through
any importing namespace (``kpwaves.dynamics.convolve``,
``kpwaves.ensemble.evolve_coeffs``, ...) records a span.  A span is
``(id, name, start_ns, end_ns, parent_id, extra)``; all spans of one
process share the run id.  ``extra`` holds counts computed from the call's
arguments and result (products, steps, table sizes), so they repeat
exactly from run to run.

Targets that a later version of the package no longer has are skipped and
listed in ``Tracer.missing``; their metrics then read zero.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time

import numpy as np

DROP = object()


class Tracer:
    """Collects spans in memory; ``dump`` returns them for writing out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.missing: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, extra=None):
        """Return fn wrapped in a span; extra(args, kwargs, result) -> dict,
        None, or DROP to discard the span (used for cache hits)."""
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, clock(), parent, "error"))
                raise
            finally:
                stack.pop()
            end = clock()
            info = extra(args, kwargs, result) if extra is not None else None
            if info is not DROP:
                spans.append((sid, name, start, end, parent, info))
            return result

        return traced

    def patch_function(self, name: str, module: str, attr: str, extra=None):
        """Wrap module.attr and rebind it in every kpwaves namespace."""
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            self.missing.append(name)
            return
        wrapped = self.wrap(name, orig, extra)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "kpwaves"
                                 or mname.startswith("kpwaves.")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)

    def patch_method(self, name: str, module: str, cls: str, attr: str,
                     extra=None):
        """Wrap a plain method on a kpwaves class."""
        owner = getattr(sys.modules.get(module), cls, None)
        orig = owner.__dict__.get(attr) if owner is not None else None
        if orig is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(name, orig, extra))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "missing": self.missing,
                "spans": [list(s) for s in self.spans]}


# ---------------------------------------------------------------------------
# computed counts

def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _batch(shape) -> int:
    return int(np.prod(shape[:-1], dtype=np.int64))


def _table_bytes(table) -> int:
    return int(sum(v.nbytes for v in vars(table).values()
                   if isinstance(v, np.ndarray)))


def _rk4_steps(times, dt, t0) -> int:
    """Steps evolve_coeffs takes: each segment is cut into whole steps."""
    steps = 0
    t = float(t0)
    for target in np.atleast_1d(np.asarray(times, dtype=float)):
        span = float(target) - t
        if span != 0.0:
            steps += max(1, int(math.ceil(abs(span) / dt - 1e-12)))
        t = float(target)
    return steps


def install(run_id: str) -> Tracer:
    """Import kpwaves, wrap its layer boundaries and return the tracer."""
    import kpwaves  # noqa: F401  (loads every submodule)
    from kpwaves import dynamics, operators

    tracer = Tracer(run_id)
    pair_table = operators.pair_table
    triple_table = getattr(operators, "triple_table", None)
    evolve = dynamics.evolve_coeffs
    calibrate = dynamics.calibrate_dt

    def built_once():
        seen = set()

        def extra(args, kwargs, table):
            if id(table) in seen:
                return DROP
            seen.add(id(table))
            return {"entries": len(table), "bytes": _table_bytes(table)}
        return extra

    def convolve_extra(args, kwargs, result):
        box, U, V = args[:3]
        batch = _batch(np.broadcast_shapes(np.shape(U), np.shape(V)))
        return {"products": batch * len(pair_table(box))}

    def triple_extra(args, kwargs, result):
        box, U0 = args[:2]
        entries = len(triple_table(box)) if triple_table is not None else 0
        return {"products": _batch(np.shape(U0)) * entries}

    def evolve_extra(args, kwargs, result):
        a = _bind(evolve, args, kwargs)
        steps = _rk4_steps(a["times"], a["dt"], a["t0"])
        return {"steps": steps, "batch": _batch(np.shape(a["U0"])),
                "dt": float(a["dt"])}

    def calibrate_extra(args, kwargs, dt):
        a = _bind(calibrate, args, kwargs)
        dt0 = a["dt0"] if a["dt0"] is not None \
            else dynamics.default_dt(a["box"])
        return {"dt": float(dt), "halvings": int(round(math.log2(dt0 / dt)))}

    def batch_extra(args, kwargs, result):
        return {"samples": len(args[3] if len(args) > 3
                               else kwargs["indices"])}

    def moments_extra(args, kwargs, report):
        return {"failed": len(report.failed_samples)}

    F = tracer.patch_function
    F("operators.convolve", "kpwaves.operators", "convolve", convolve_extra)
    F("operators.s_apply", "kpwaves.operators", "_s_apply")
    F("operators.pair_table", "kpwaves.operators", "pair_table",
      built_once())
    F("operators.triple_table", "kpwaves.operators", "triple_table",
      built_once())
    F("dynamics.evolve", "kpwaves.dynamics", "evolve_coeffs", evolve_extra)
    F("dynamics.calibrate_dt", "kpwaves.dynamics", "calibrate_dt",
      calibrate_extra)
    F("picard.phi1", "kpwaves.picard", "phi1")
    F("picard.b_coeffs", "kpwaves.picard", "_picard_b_coeffs")
    F("picard.c_coeffs", "kpwaves.picard", "_picard_c_coeffs", triple_extra)
    F("picard.f_integral", "kpwaves.picard", "_f_integral_coeffs",
      triple_extra)
    F("picard.lambda_eps", "kpwaves.picard", "lambda_eps")
    F("picard.invert", "kpwaves.picard", "invert_lambda_eps")
    F("ensemble.sample_g_batch", "kpwaves.ensemble", "sample_g_batch",
      batch_extra)
    F("ensemble.sample_u0", "kpwaves.ensemble", "sample_u0")
    F("ensemble.estimate_moments", "kpwaves.ensemble", "estimate_moments",
      moments_extra)
    F("ensemble.remainder_scan", "kpwaves.ensemble", "remainder_scan")
    F("ensemble.remainder_growth", "kpwaves.ensemble", "remainder_growth")
    F("theory.pair_prediction", "kpwaves.theory", "pair_prediction")
    F("theory.triple_prediction", "kpwaves.theory", "triple_prediction")
    F("theory.f2_diag", "kpwaves.theory", "f2_diag")
    F("theory.f3", "kpwaves.theory", "f3")
    F("theory.f2_diag_all", "kpwaves.theory", "f2_diag_all")
    F("theory.kron_terms", "kpwaves.theory", "_kron_terms")
    F("theory.f3_all", "kpwaves.theory", "_f3_all")
    F("theory.weighted_sum_pair", "kpwaves.theory", "weighted_sum_pair")
    F("theory.weighted_sum_triple", "kpwaves.theory", "weighted_sum_triple")
    F("theory.pair_majorant", "kpwaves.theory", "pair_majorant")
    F("theory.triple_majorant", "kpwaves.theory", "triple_majorant")
    F("cli.load_config", "kpwaves.cli", "load_config")
    F("cli.emit_table", "kpwaves.cli", "emit_table")
    M = tracer.patch_method
    M("lattice.lookup", "kpwaves.lattice", "LatticeBox", "lookup")
    M("ensemble.report_csv", "kpwaves.ensemble", "MomentReport", "to_csv")
    M("ensemble.report_json", "kpwaves.ensemble", "MomentReport", "to_json")
    return tracer
