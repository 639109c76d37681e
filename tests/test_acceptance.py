"""Full-stack gates for the package, one verdict line per test.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
gate states its tolerance next to the assertion and carries the measured
margin in the printed detail.
"""

import csv

import numpy as np
import pytest

from kpwaves.lattice import LatticeBox, SpectralField, apply_free_flow
from kpwaves.operators import pair_table
from kpwaves.picard import (
    identity_residuals,
    resonance_margin,
    w_residual,
    _picard_b_coeffs,
)
from kpwaves.dynamics import evolve_coeffs
from kpwaves.theory import (
    TheoryContext,
    box_limit_f2,
    f3,
    pair_majorant,
    pair_prediction,
    triple_majorant,
    triple_prediction,
    weighted_sum_pair,
    weighted_sum_triple,
    zero_sum_triples,
)
from kpwaves.ensemble import (
    EnsembleConfig,
    RandomLaw,
    ScanConfig,
    SpectrumProfile,
    estimate_moments,
    normalize_profile,
    remainder_growth,
    remainder_scan,
    sample_g_batch,
)


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_three_wave_bound():
    box = LatticeBox(8, 8)
    pt = pair_table(box)
    margin = resonance_margin(box)
    i_n = box.index((2, 0))
    i_k = box.index((1, 0))
    hit = (pt.out_idx == i_n) & (pt.k_idx == i_k) & (pt.l_idx == i_k)
    assert hit.sum() == 1
    d_eq = float(pt.delta[hit][0])
    ok = margin >= -1e-9 and abs(d_eq + 6.0) < 1e-12
    _gate("three-wave bound", ok,
          f"min |Delta| - 3|n1 k1 l1| = {margin:.3e} over {len(pt)} splits, "
          f"saturating split (1,0)+(1,0)->(2,0) has Delta = {d_eq:+.1f}")


def test_exact_identity_suite():
    box = LatticeBox(4, 4)
    rng = np.random.default_rng(42)
    t, eps = 0.7, 0.05

    def field(scale=1.0):
        z = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
        return SpectralField(box, scale * z)

    worst = 0.0
    for _ in range(50):
        u, v = field(), field()
        worst = max(worst, *identity_residuals(u, v, t, eps).values())
        worst = max(worst, w_residual(field(), u, t, eps))

    _gate("exact identities", worst <= 1e-10,
          f"max relative residual {worst:.3e} <= 1e-10 "
          f"over 50 random fields on a 4x4 box")


def test_integrator(box33, make_field):
    u0 = make_field(box33, hermitian=True)

    grid = 0.25 * np.arange(1, 9)
    free = evolve_coeffs(box33, u0.coeffs, 0.0, grid, 0.01)
    dev_free = max(float(np.abs(U - apply_free_flow(u0, t).coeffs).max())
                   for U, t in zip(free, grid))

    states = evolve_coeffs(box33, u0.coeffs, 0.1, grid, 1e-3)
    m0 = np.sum(np.abs(u0.coeffs) ** 2)
    drift = float(np.abs(np.sum(np.abs(states) ** 2, axis=-1) - m0).max()
                  / m0)

    eps, t_end = 0.3, 1.0
    ref = evolve_coeffs(box33, u0.coeffs, eps, [t_end], 1.0 / 1024)[0]
    errs = [float(np.linalg.norm(
        evolve_coeffs(box33, u0.coeffs, eps, [t_end], dt)[0] - ref))
        for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    ok = dev_free <= 1e-12 and drift <= 1e-8 and min(orders) >= 3.8
    _gate("integrator", ok,
          f"free-flow deviation {dev_free:.2e} <= 1e-12, "
          f"relative L2 drift {drift:.2e} <= 1e-8 over t=2 at eps=0.1, "
          f"step-halving orders {orders[0]:.2f}/{orders[1]:.2f} >= 3.8")


def test_normal_form_residual_convergence(box33, make_field,
                                          normal_form_residual):
    u0 = make_field(box33, hermitian=True)
    eps, t_center = 0.1, 0.1

    def window_residual(e, h, dt_approach):
        start = t_center - 2.0 * h
        end = t_center + 2.0 * h
        lead = evolve_coeffs(box33, u0.coeffs, e, [start], dt_approach)
        # Sixteen steps across the window, recorded every fourth, give
        # five samples spaced h apart; deriving dt from the rounded span
        # keeps the step count exact.
        dt = (end - start) / 16.0
        times = start + 4.0 * dt * np.arange(5)
        win = evolve_coeffs(box33, lead[0], e, times[1:], dt, t0=start)
        return normal_form_residual(box33, times,
                                    np.concatenate([lead, win]), e, s=1.0)

    hs = (4e-3, 2e-3, 1e-3)
    res = [window_residual(eps, h, h / 4.0) for h in hs]
    orders = [float(np.log2(res[i] / res[i + 1])) for i in range(2)]

    # At h = 1e-6 the h^2 truncation term has dropped below the floating
    # point floor of the centered difference, so the residual should be
    # indistinguishable from the same differencing applied to the free
    # flow; a systematic error in the cubic target would leave an
    # h-independent floor far above that baseline.
    fine = window_residual(eps, 1e-6, 3e-5)
    base = window_residual(0.0, 1e-6, 3e-5)
    ratio = fine / base

    ok = min(orders) >= 1.9 and ratio <= 10.0
    _gate("gauged-flow residual", ok,
          f"sampling-step orders {orders[0]:.2f}/{orders[1]:.2f} >= 1.9, "
          f"residual at h=1e-6 is {fine:.3e} = {ratio:.2f} x "
          f"the eps=0 differencing baseline {base:.3e} (<= 10x)")


EPS_MOMENTS = 0.1
T_MOMENTS = 1.0


@pytest.fixture(scope="module")
def moment_run():
    """One shared 4000-sample ensemble on a 3x3 box at eps=0.1, t=1."""
    box = LatticeBox(3, 3)
    law = RandomLaw.steinhaus()
    profile = normalize_profile(SpectrumProfile.power_decay(box, 1.0, 1.5),
                                law, s=1.0)
    modes = [tuple(int(x) for x in m) for m in box.modes]
    pairs = [(modes[i], modes[j]) for i in range(len(modes))
             for j in range(i, len(modes))]
    i_n, i_m, i_p = zero_sum_triples(box)
    zero_sum = [(modes[a], modes[b], modes[c])
                for a, b, c in zip(i_n, i_m, i_p)]
    rng = np.random.default_rng(7)
    free = []
    while len(free) < 30:
        a, b, c = (modes[i] for i in rng.integers(0, len(modes), 3))
        if (a[0] + b[0] + c[0], a[1] + b[1] + c[1]) != (0, 0):
            free.append((a, b, c))
    cfg = EnsembleConfig(profile=profile, law=law, eps=EPS_MOMENTS,
                         t=T_MOMENTS, sample_count=4000,
                         pairs=tuple(pairs), triples=tuple(zero_sum + free),
                         seed=0, batch_size=1024)
    report = estimate_moments(cfg)
    ctx = TheoryContext.from_profile(profile, law)
    return ctx, report, len(zero_sum)


def test_pair_moment_match(moment_run):
    ctx, report, _ = moment_run
    budget = 10.0 * EPS_MOMENTS ** 4
    worst_diag = worst_off = 0.0
    fails = 0
    for entry in report.pair_moments.values():
        n, m = entry.modes
        pred = pair_prediction(ctx, n, m, T_MOMENTS, EPS_MOMENTS)
        dev = abs(entry.estimate - pred)
        allow = 4.0 * entry.std_error + budget
        if dev > allow:
            fails += 1
        if n == m:
            worst_diag = max(worst_diag, dev / allow)
        else:
            worst_off = max(worst_off, dev / allow)
    n_total = len(report.pair_moments)
    _gate("pair moments", fails == 0,
          f"all {n_total} pair moments within 4 SE + 10 eps^4; "
          f"worst margin use: diagonal {worst_diag:.3f}, "
          f"off-diagonal {worst_off:.3f}")


def test_triple_moment_match(moment_run):
    ctx, report, n_zero_sum = moment_run
    budget = 10.0 * EPS_MOMENTS ** 3
    worst = 0.0
    fails = 0
    for entry in report.triple_moments.values():
        n, m, p = entry.modes
        if (n[0] + m[0] + p[0], n[1] + m[1] + p[1]) == (0, 0):
            pred = triple_prediction(ctx, n, m, p, T_MOMENTS, EPS_MOMENTS)
            allow = 4.0 * entry.std_error + budget
        else:
            pred = 0.0
            allow = 4.0 * entry.std_error
        dev = abs(entry.estimate - pred)
        if dev > allow:
            fails += 1
        worst = max(worst, dev / allow)

    # The budget above is generous enough that it cannot distinguish the
    # coefficient conventions by itself, so the convention is pinned by a
    # sharper instrument: the phase-rotation-averaged mean of the three
    # single-b products is exactly the quantity the closed form predicts,
    # and averaging over 4 rotations removes the odd-winding noise that
    # dominates the raw triple estimates.
    box = LatticeBox(2, 2)
    law = RandomLaw.steinhaus()
    profile = normalize_profile(SpectrumProfile.power_decay(box, 1.0, 2.0),
                                law, s=1.0)
    lam = profile.lambdas()
    triple = ((1, 0), (1, 0), (-2, 0))
    tri = [box.index(n) for n in triple]
    t = 1.0
    phase = np.exp(1j * box.dispersion().values * t)
    rotations = 4
    half_sign = np.where(box.n1 > 0, 1.0, -1.0)
    total = 0.0 + 0.0j
    total_sq = 0.0
    count = 2000
    for start in range(0, count, 1000):
        G0 = sample_g_batch(box, law, 0, np.arange(start, start + 1000))
        acc = np.zeros(1000, dtype=np.complex128)
        for k in range(rotations):
            rot = np.exp(2j * np.pi * (k / rotations) * half_sign)
            U0 = G0 * rot * lam
            A = (U0 * phase)[:, tri]
            B = _picard_b_coeffs(box, U0, t)[:, tri]
            acc += (B[:, 0] * A[:, 1] * A[:, 2] + A[:, 0] * B[:, 1] * A[:, 2]
                    + A[:, 0] * A[:, 1] * B[:, 2]) / rotations
        total += acc.sum()
        total_sq += float((np.abs(acc) ** 2).sum())
    mean = total / count
    se = float(np.sqrt(max(total_sq / count - abs(mean) ** 2, 0.0) / count))
    ctx22 = TheoryContext.from_profile(profile, law)
    z_chosen = abs(mean - f3(ctx22, *triple, t)) / se
    z_sign = abs(mean - f3(ctx22, *triple, t, sign=-1.0)) / se
    z_kron = abs(mean - f3(ctx22, *triple, t, kron="repeated")) / se

    ok = (fails == 0 and z_chosen <= 4.0
          and z_sign >= 25.0 and z_kron >= 25.0)
    _gate("triple moments", ok,
          f"{n_zero_sum} zero-sum triples within 4 SE + 10 eps^3 and "
          f"{len(report.triple_moments) - n_zero_sum} free triples within "
          f"4 SE (worst margin use {worst:.3f}); convention check: "
          f"half_opposite/+1 at {z_chosen:.1f} SE, sign flip {z_sign:.0f} SE "
          f"away, repeated-kron {z_kron:.0f} SE away")


def test_remainder_scaling():
    box = LatticeBox(2, 2)
    law = RandomLaw.steinhaus()
    profile = normalize_profile(SpectrumProfile.power_decay(box, 1.0, 2.0),
                                law, s=1.0)
    cfg = ScanConfig(profile=profile, law=law,
                     eps_grid=(0.2, 0.14, 0.1, 0.07), t=1.0,
                     sample_count=2000, seed=0, rotations=4)
    res = remainder_scan(cfg)
    ok = (not res.noise_dominated
          and res.pair_slope is not None and res.triple_slope is not None
          and abs(res.pair_slope - 4.0) <= 0.7
          and abs(res.triple_slope - 3.0) <= 0.7)
    _gate("remainder scaling", ok,
          f"pair slope {res.pair_slope:.3f} in 4.0 +/- 0.7, "
          f"triple slope {res.triple_slope:.3f} in 3.0 +/- 0.7 "
          f"over eps in {cfg.eps_grid}")


def test_weighted_sums_bounded(tmp_path):
    box = LatticeBox(6, 6)
    law = RandomLaw.steinhaus()
    profile = normalize_profile(SpectrumProfile.power_decay(box, 1.0, 2.0),
                                law, s=1.0)
    ctx = TheoryContext.from_profile(profile, law)
    s = 1.0
    bound_pair = pair_majorant(ctx, s)
    bound_triple = triple_majorant(ctx, s)
    grid = np.arange(0.0, 100.5, 0.5)
    pair_curve = weighted_sum_pair(ctx, s, grid)
    triple_curve = weighted_sum_triple(ctx, s, grid)

    out = tmp_path / "weighted_sums.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# pair_majorant={bound_pair:.17g}\n")
        fh.write(f"# triple_majorant={bound_triple:.17g}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "weighted_pair", "weighted_triple"])
        for t, a, b in zip(grid, pair_curve, triple_curve):
            writer.writerow([f"{t:.17g}", f"{a:.17g}", f"{b:.17g}"])

    max_pair = max(pair_curve)
    max_triple = max(triple_curve)
    ok = (max_pair <= bound_pair and max_triple <= bound_triple
          and sum(1 for _ in open(out)) == len(grid) + 3)
    _gate("weighted sums", ok,
          f"max over t in [0,100]: pair {max_pair:.4f} <= {bound_pair:.4f}, "
          f"triple {max_triple:.4f} <= {bound_triple:.4f}; "
          f"curves written to {out.name}")


def test_flat_spectrum_box_limit():
    sizes = (4, 8, 16, 32)
    values = []
    ratios = []
    for N in sizes:
        lam = N ** -0.25
        val = abs(box_limit_f2((1, 0), N, lam, 1.0, m2=1.0, m4=2.0))
        values.append(val)
        ratios.append(val / lam ** 4)
    decreasing = all(values[i] > values[i + 1] for i in range(len(values) - 1))
    spread_ok = max(ratios) <= 10.0 * ratios[0]
    _gate("flat-spectrum limit", decreasing and spread_ok,
          f"|F(1,0)| at N={sizes}: "
          + " > ".join(f"{v:.3e}" for v in values)
          + f"; ratio |F|/lambda^4 peaks at {max(ratios):.4f} "
          f"<= 10 x first ({ratios[0]:.4f})")


def test_remainder_growth_exponent():
    box = LatticeBox(2, 2)
    law = RandomLaw.steinhaus()
    profile = normalize_profile(SpectrumProfile.power_decay(box, 1.0, 2.0),
                                law, s=1.0)
    fit = remainder_growth(profile, law, eps=0.05,
                           times=np.arange(1.0, 20.5, 1.0),
                           sample_count=12, seed=0, s=1.0)
    ok = fit.exponent <= 1.6
    _gate("remainder growth", ok,
          f"log(1+t) exponent {fit.exponent:.3f} +/- {fit.stderr:.3f} <= 1.6 "
          f"over t in [1, 20] at eps=0.05")
