"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 3-5 are Monte Carlo checks with fixed seeds; their DGP layouts
are frozen here so reruns are bit-reproducible.
"""

import time

import numpy as np
import pytest

from multirdd.data_model import Dataset, EstimationConfig, ModelSpec
from multirdd.discontinuities import cell_table, plugin_estimator, relevance
from multirdd.errors import EstimationError, SingularDesignError, UnderIdentifiedError
from multirdd.estimator import (
    build_design,
    cluster_covariance,
    estimate,
    first_stage_diagnostics,
    j_test,
    weighted_2sls,
)
from multirdd.kernels import KernelKind
from multirdd.montecarlo import DgpSpec, generate, population_targets, run_study
from oracles import (
    cluster_sandwich_oracle,
    design_blocks,
    j_oracle,
    partial_f_oracle,
    tsls_oracle,
)
from synthetic import random_cell_table, random_dataset
from test_estimator import ATTEMPTS, build_random, subset_dataset


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status}: {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


COVERAGE_DGP = DgpSpec(
    cell_probs=(0.4, 0.35, 0.25),
    base_levels=((0.55, 0.25), (0.50, 0.25), (0.70, 0.15)),
    jumps=((0.40, 0.10), (0.15, 0.40), (0.05, 0.55)),
    betas=((0.5, -0.3),) * 3,
    intercepts=(0.2, 0.4, -0.1),
    slope_left=0.3,
    slope_right=0.5,
    noise_sd=0.35,
    seed=7,
)

JSIZE_DGP = DgpSpec(
    cell_probs=(0.22, 0.2, 0.18, 0.15, 0.15, 0.1),
    base_levels=(
        (0.55, 0.25),
        (0.50, 0.20),
        (0.65, 0.15),
        (0.60, 0.20),
        (0.45, 0.25),
        (0.70, 0.10),
    ),
    jumps=(
        (0.40, 0.05),
        (0.10, 0.40),
        (0.25, 0.25),
        (0.30, 0.15),
        (0.15, 0.30),
        (0.20, 0.10),
    ),
    betas=((0.5, -0.3),) * 6,
    intercepts=(0.2, 0.4, -0.1, 0.3, 0.0, 0.1),
    slope_left=0.3,
    slope_right=0.5,
    noise_sd=0.35,
    seed=7,
)

JPOWER_DGP = DgpSpec(
    cell_probs=(0.4, 0.35, 0.25),
    base_levels=((0.55, 0.25), (0.50, 0.25), (0.70, 0.15)),
    jumps=((0.40, 0.10), (0.40, 0.35), (0.05, 0.55)),
    betas=((0.2, -0.3), (0.7, -0.3), (0.45, -0.3)),  # beta_1 separated by 0.5
    intercepts=(0.2, 0.4, -0.1),
    slope_left=0.3,
    slope_right=0.5,
    noise_sd=0.35,
    seed=7,
)

NOISELESS_DGP = DgpSpec(
    cell_probs=(0.4, 0.35, 0.25),
    base_levels=((0.55, 0.25), (0.50, 0.25), (0.70, 0.15)),
    jumps=((0.40, 0.10), (0.15, 0.40), (0.05, 0.55)),
    betas=((0.5, -0.3),) * 3,
    intercepts=(0.2, 0.4, -0.1),
    slope_left=0.3,
    slope_right=0.5,
    noise_sd=0.0,
    seed=7,
)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    started = time.perf_counter()
    worst = {"beta": 0.0, "cov": 0.0, "j": 0.0, "f": 0.0}
    instances = 0
    while instances < 100:
        d = int(rng.integers(1, 3))
        m = int(rng.integers(d, 4))  # keep at least one over-identifying restriction
        ds, dm = build_random(rng, n=int(rng.integers(35, 51)), d=d, m=m, noise=0.4)
        fit = weighted_2sls(dm)
        y, endogenous, instruments, controls = design_blocks(dm)
        coef, xhat, resid, zmat = tsls_oracle(y, endogenous, instruments, controls, dm.weights)
        err_beta = np.linalg.norm(fit.beta - coef[: dm.k_endogenous]) / max(
            1.0, np.linalg.norm(coef[: dm.k_endogenous])
        )

        own = np.arange(fit.n_effective)
        cov = cluster_covariance(fit, dm)
        cov_ref = cluster_sandwich_oracle(xhat, resid, own)
        err_cov = np.abs(cov - cov_ref).max() / max(1.0, np.abs(cov_ref).max())

        j_stat, dof, _ = j_test(fit, dm)
        j_ref, _ = j_oracle(zmat, resid, own, dof)
        err_j = abs(j_stat - j_ref) / max(1.0, abs(j_ref))

        fs = first_stage_diagnostics(dm)
        mask = dm.weights > 0
        sw = np.sqrt(dm.weights[mask])
        zfull = np.column_stack([instruments, controls])[mask] * sw[:, None]
        ctrl = controls[mask] * sw[:, None]
        df_denom = mask.sum() - zfull.shape[1]
        err_f = 0.0
        for j in range(dm.k_endogenous):
            col = endogenous[mask][:, j] * sw
            want = partial_f_oracle(col, zfull, ctrl, dm.n_instruments, df_denom)
            err_f = max(err_f, abs(fs.f_stats[j] - want) / max(1.0, abs(want)))

        worst["beta"] = max(worst["beta"], err_beta)
        worst["cov"] = max(worst["cov"], err_cov)
        worst["j"] = max(worst["j"], err_j)
        worst["f"] = max(worst["f"], err_f)
        instances += 1
    elapsed = time.perf_counter() - started
    ok = all(v < 1e-8 for v in worst.values()) and elapsed < 10.0
    report(
        1,
        "oracle equivalence on randomized small instances",
        ok,
        f"{instances} instances, worst rel errors "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_2_noiseless_exactness():
    started = time.perf_counter()
    targets = population_targets(NOISELESS_DGP)
    ds = generate(NOISELESS_DGP, 3000, 20240602)
    worst = 0.0
    for kernel in KernelKind:
        for h in (0.1, 0.25, 0.5, 1.0):
            fit = estimate(ds, ModelSpec(), EstimationConfig(bandwidth=h, kernel=kernel))
            worst = max(worst, float(np.abs(fit.beta - targets.beta_bar).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 5.0
    report(
        2,
        "noiseless piecewise-linear exactness across kernels and bandwidths",
        ok,
        f"worst |beta - target| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_coverage():
    started = time.perf_counter()
    res = run_study(COVERAGE_DGP, n=5000, reps=500, seed=2024)
    elapsed = time.perf_counter() - started
    cover_ok = all(0.91 <= c <= 0.98 for c in res.coverage)
    bias_bounds = [float(max(0.02, 3 * s / np.sqrt(res.reps))) for s in res.sd]
    bias_ok = all(abs(b) < bound for b, bound in zip(res.bias, bias_bounds))
    ok = cover_ok and bias_ok and res.failures == 0 and elapsed < 300.0
    report(
        3,
        "normal-approximation coverage, homogeneous effects (d=2, q=3)",
        ok,
        f"coverage={tuple(round(c, 3) for c in res.coverage)}, "
        f"bias={tuple(round(b, 4) for b in res.bias)}, "
        f"bounds={tuple(round(b, 4) for b in bias_bounds)}, {elapsed:.0f}s",
    )


def test_criterion_4_j_size():
    res = run_study(JSIZE_DGP, n=5000, reps=500, seed=2024)
    assert res.j_dof == 4
    rate = res.j_rejection_rate
    ok = 0.02 <= rate <= 0.10 and res.failures == 0
    report(
        4,
        "over-identification test size with four restrictions",
        ok,
        f"rejection rate at nominal 5% = {rate:.3f} (dof={res.j_dof})",
    )


def test_criterion_5_j_power():
    res = run_study(JPOWER_DGP, n=20_000, reps=200, seed=2024)
    rate = res.j_rejection_rate
    ok = rate > 0.5 and res.failures == 0
    report(
        5,
        "over-identification test power against heterogeneous effects",
        ok,
        f"rejection rate = {rate:.3f} with margin-1 effects separated by 0.5",
    )


def test_criterion_6_separation_identity():
    rng = np.random.default_rng(20240606)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(d, d + 4))
        ct = random_cell_table(rng, q=q, d=d, require_passing=True)
        tw = relevance(ct)
        total = sum(p * o for p, o in zip(ct.p_hat, tw.omega))
        worst = max(worst, float(np.abs(total - np.eye(d)).max()))
    ok = worst < 1e-10
    report(
        6,
        "separation-in-expectation identity on randomized weight tables",
        ok,
        f"worst ||sum p*omega - I||_inf = {worst:.2e} over 1000 tables",
    )


def test_criterion_7_rank_and_impossibility():
    rng = np.random.default_rng(20240607)
    worst_orth = 0.0
    worst_res = 0.0
    for _ in range(1000):
        delta = rng.uniform(-1, 1, size=2)
        while np.linalg.norm(delta) < 1e-3:
            delta = rng.uniform(-1, 1, size=2)
        beta0 = rng.uniform(-1, 1, size=2)
        dy = float(beta0 @ delta)
        null_dir = np.array([delta[1], -delta[0]])
        worst_orth = max(worst_orth, abs(float(null_dir @ delta)))
        res0 = abs(dy - float(beta0 @ delta))
        res1 = abs(dy - float((beta0 + null_dir) @ delta))
        worst_res = max(worst_res, abs(res0 - res1))
    rank_ok = True
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(1, 6))
        tw = relevance(random_cell_table(rng, q=q, d=d))
        if tw.rank > min(d, q):
            rank_ok = False
            break
    ok = worst_orth < 1e-12 and worst_res < 1e-12 and rank_ok
    report(
        7,
        "single-cell null direction and rank subadditivity",
        ok,
        f"worst |n'delta| = {worst_orth:.2e}, worst residual change = {worst_res:.2e}, "
        f"rank bound held = {rank_ok}",
    )


def test_criterion_8_conditional_equivalence():
    rng = np.random.default_rng(20240608)
    cfg = EstimationConfig(bandwidth=1.0)
    worst = 0.0
    done = tries = 0
    last = None
    while done < 50:
        tries += 1
        assert tries <= ATTEMPTS, f"{done} of 50 usable draws in {ATTEMPTS}; last error: {last!r}"
        ds0 = random_dataset(rng, n=420, d=2, m=2, noise=0.4)
        r_col = rng.integers(0, 2, size=ds0.n).astype(float)
        ds = Dataset(
            y=ds0.y,
            z=ds0.z,
            x=ds0.x,
            cells=ds0.cells,
            cell_labels=ds0.cell_labels,
            aux={"grp": r_col},
        )
        try:
            stacked = weighted_2sls(
                build_design(ds, ModelSpec(kind="conditional", r_column="grp"), cfg)
            )
            dm = build_design(ds, ModelSpec(kind="conditional", r_column="grp"), cfg)
        except (SingularDesignError, UnderIdentifiedError, EstimationError) as err:
            last = err
            continue
        gap = 0.0
        usable = True
        for lev in (0.0, 1.0):
            sub = subset_dataset(ds, r_col == lev)
            try:
                sub_fit = weighted_2sls(build_design(sub, ModelSpec(), cfg))
            except (SingularDesignError, UnderIdentifiedError, EstimationError) as err:
                last = err
                usable = False
                break
            tag = f"grp={lev:g}"
            idx = [k for k, lab in enumerate(dm.endogenous_labels) if lab.endswith(tag)]
            gap = max(gap, float(np.abs(stacked.beta[idx] - sub_fit.beta).max()))
        if not usable:
            continue
        worst = max(worst, gap)
        done += 1
    ok = worst < 1e-8
    report(
        8,
        "stacked conditional fit equals per-stratum fits",
        ok,
        f"worst coefficient gap = {worst:.2e} over 50 randomized designs",
    )


def test_criterion_9_plugin_vs_2sls_agreement():
    # saturated dummies with q = d: the 2SLS moments solve the per-cell jump
    # equations exactly, so the two estimators coincide up to rounding; the
    # statistical bound is floored at 1e-8, far below either estimator's
    # Monte Carlo standard error
    dgp = DgpSpec(
        cell_probs=(0.55, 0.45),
        base_levels=((0.55, 0.25), (0.50, 0.20)),
        jumps=((0.40, 0.10), (0.15, 0.45)),
        betas=((0.5, -0.3),) * 2,
        intercepts=(0.2, -0.1),
        slope_left=0.3,
        slope_right=0.5,
        noise_sd=0.35,
        seed=7,
    )
    cfg = EstimationConfig(bandwidth=0.25)
    spec = ModelSpec()
    gaps = []
    for rep in range(100):
        ds = generate(dgp, 20_000, np.random.SeedSequence(entropy=20240609, spawn_key=(rep,)))
        fit = weighted_2sls(build_design(ds, spec, cfg))
        ct = cell_table(ds, cfg)
        beta_plug = plugin_estimator(ct, relevance(ct))
        gaps.append(float(np.abs(fit.beta - beta_plug).max()))
    gaps = np.asarray(gaps)
    mean_gap = float(gaps.mean())
    se_gap = float(gaps.std(ddof=1) / np.sqrt(len(gaps)))
    bound = max(3 * se_gap, 1e-8)
    ok = mean_gap < bound
    report(
        9,
        "plug-in and 2SLS agree on saturated just-identified designs",
        ok,
        f"mean |gap| = {mean_gap:.2e}, bound = {bound:.2e} over {len(gaps)} replications",
    )
