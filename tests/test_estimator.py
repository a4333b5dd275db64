from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multirdd.data_model import Dataset, EstimationConfig, ModelSpec, TableSchema, load_table
from multirdd.errors import (
    EstimationError,
    SingularDesignError,
    UnderIdentifiedError,
)
from multirdd.estimator import (
    DesignMatrices,
    build_design,
    chi2_sf,
    cluster_covariance,
    estimate,
    first_stage_diagnostics,
    j_test,
    weighted_2sls,
)
from multirdd.kernels import weights_vector
from oracles import cluster_sandwich_oracle, j_oracle, partial_f_oracle, tsls_oracle
from synthetic import piecewise_linear_dataset, random_dataset

CFG = EstimationConfig(bandwidth=1.0)
SAMPLE_CSV = Path(__file__).parent.parent / "sample_data" / "insurance_style.csv"


def build_random(rng, n=None, d=None, m=None, noise=0.4, max_cond=1e6, kernel="uniform"):
    """Random dataset plus design, retried until comfortably conditioned."""
    while True:
        d_ = d if d is not None else int(rng.integers(1, 3))
        m_ = m if m is not None else int(rng.integers(max(d_ - 1, 0), 4))
        if m_ + 1 < d_:
            continue
        n_ = n if n is not None else int(rng.integers(30, 51))
        ds = random_dataset(rng, n=n_, d=d_, m=m_, noise=noise)
        cfg = EstimationConfig(bandwidth=1.0, kernel=kernel)
        try:
            dm = build_design(ds, ModelSpec(), cfg)
        except (SingularDesignError, UnderIdentifiedError, EstimationError):
            continue
        mask = dm.weights > 0
        sw = np.sqrt(dm.weights[mask])
        exog = np.column_stack([dm.instruments, dm.controls])[mask] * sw[:, None]
        if np.linalg.cond(exog) > max_cond:
            continue
        xfull = np.column_stack([dm.endogenous, dm.controls])[mask] * sw[:, None]
        if np.linalg.cond(xfull) > max_cond:
            continue
        return ds, dm


def subset_dataset(ds, keep):
    return Dataset(
        y=ds.y[keep],
        z=ds.z[keep],
        x=ds.x[keep],
        cells=ds.cells[keep],
        cell_labels=ds.cell_labels,
        w_dummies=ds.w_dummies[keep],
        cluster=None if ds.cluster is None else ds.cluster[keep],
        aux={k: v[keep] for k, v in ds.aux.items()},
    )


# ---------------------------------------------------------------- build_design


def test_design_column_counts_homogeneous():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    dm = build_design(ds, ModelSpec(), CFG)  # d=2, m=1
    assert dm.controls.shape[1] == 6
    assert dm.instruments.shape[1] == 2
    assert dm.instruments.shape[1] + dm.controls.shape[1] == 8


def test_design_parametric_counts_and_constraint():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, n=400, d=2, m=5, noise=0.2)
    wt1 = rng.normal(size=ds.n)
    wt2 = rng.normal(size=ds.n)
    ds = Dataset(
        y=ds.y,
        z=ds.z,
        x=ds.x,
        cells=ds.cells,
        cell_labels=ds.cell_labels,
        w_dummies=ds.w_dummies,
        aux={"wt1": wt1, "wt2": wt2},
    )
    spec = ModelSpec(kind="parametric", wtilde_columns=("wt1", "wt2"))
    dm = build_design(ds, spec, CFG)
    assert dm.k_endogenous == 6  # d(1+c) = 2 * 3
    assert dm.n_instruments == 6  # 1 + m


def test_design_parametric_under_identified():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, n=200, d=2, m=1, noise=0.2)
    ds = Dataset(
        y=ds.y,
        z=ds.z,
        x=ds.x,
        cells=ds.cells,
        cell_labels=ds.cell_labels,
        w_dummies=ds.w_dummies,
        aux={"wt1": rng.normal(size=ds.n)},
    )
    spec = ModelSpec(kind="parametric", wtilde_columns=("wt1",))
    with pytest.raises(UnderIdentifiedError, match="under-identified"):
        build_design(ds, spec, CFG)


def test_design_homogeneous_under_identified():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, n=100, d=2, m=0, noise=0.2)
    with pytest.raises(UnderIdentifiedError, match="q=m\\+1=1 < d=2"):
        build_design(ds, ModelSpec(), CFG)


def test_design_rank_deficient_cell_within_bandwidth():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3], z_max=1.0)
    # push one cell entirely outside the window
    z = ds.z.copy()
    z[ds.cells == 1] = z[ds.cells == 1] * 10.0
    broken = Dataset(
        y=ds.y,
        z=z,
        x=ds.x,
        cells=ds.cells,
        cell_labels=ds.cell_labels,
        w_dummies=ds.w_dummies,
    )
    with pytest.raises(SingularDesignError, match="rank deficient"):
        build_design(broken, ModelSpec(), EstimationConfig(bandwidth=1.0))

    # only the left side of cell001 leaves the window: the error names both
    z = ds.z.copy()
    z[(ds.cells == 1) & (ds.z < 0)] -= 5.0
    one_side = Dataset(
        y=ds.y, z=z, x=ds.x, cells=ds.cells, cell_labels=ds.cell_labels, w_dummies=ds.w_dummies
    )
    with pytest.raises(SingularDesignError, match="rank deficient") as err:
        build_design(one_side, ModelSpec(), EstimationConfig(bandwidth=1.0))
    assert "cell 'cell001' has no observations on the left side" in str(err.value)
    assert "cell000" not in str(err.value) and "right side" not in str(err.value)


def test_span_equivalence_with_two_sided_basis():
    # fitted values on [D, D*W, C] equal those on the per-side local-linear basis
    rng = np.random.default_rng(3)
    for _ in range(10):
        ds, dm = build_random(rng)
        mask = dm.weights > 0
        sw = np.sqrt(dm.weights[mask])
        exog = np.column_stack([dm.instruments, dm.controls])[mask] * sw[:, None]
        d_ind = (ds.z >= 0).astype(float)
        one_w = np.column_stack([np.ones(ds.n), ds.w_dummies])
        s_plus = d_ind[:, None] * np.column_stack([one_w, ds.z[:, None] * one_w])
        s_minus = (1 - d_ind)[:, None] * np.column_stack([one_w, ds.z[:, None] * one_w])
        s_basis = np.column_stack([s_plus, s_minus])[mask] * sw[:, None]
        assert exog.shape[1] == s_basis.shape[1]
        target = rng.normal(size=mask.sum())
        fit_a = exog @ np.linalg.lstsq(exog, target, rcond=None)[0]
        fit_b = s_basis @ np.linalg.lstsq(s_basis, target, rcond=None)[0]
        assert np.abs(fit_a - fit_b).max() < 1e-9


# --------------------------------------------------------------- weighted_2sls


def test_exogenous_case_reduces_to_wls():
    rng = np.random.default_rng(4)
    ds, dm = build_random(rng, d=2, m=2)
    dm_exo = DesignMatrices(
        y=dm.y,
        endogenous=dm.endogenous,
        instruments=dm.endogenous,
        controls=dm.controls,
        weights=dm.weights,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.endogenous_labels,
        control_labels=dm.control_labels,
    )
    fit = weighted_2sls(dm_exo)
    mask = dm.weights > 0
    sw = np.sqrt(dm.weights[mask])
    design = np.column_stack([dm.endogenous, dm.controls])[mask] * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, dm.y[mask] * sw, rcond=None)
    assert np.allclose(fit.beta, coef[: dm.k_endogenous], atol=1e-10)


def test_tiny_just_identified_matches_direct_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ds, dm = build_random(rng, n=8, d=1, m=0, noise=0.3)
        fit = weighted_2sls(dm)
        coef, *_ = tsls_oracle(dm.y, dm.endogenous, dm.instruments, dm.controls, dm.weights)
        assert np.abs(fit.beta - coef[:1]).max() < 1e-10


def test_row_duplication_with_halved_weights():
    rng = np.random.default_rng(6)
    ds, dm = build_random(rng)
    doubled = DesignMatrices(
        y=np.concatenate([dm.y, dm.y]),
        endogenous=np.vstack([dm.endogenous, dm.endogenous]),
        instruments=np.vstack([dm.instruments, dm.instruments]),
        controls=np.vstack([dm.controls, dm.controls]),
        weights=np.concatenate([dm.weights, dm.weights]) / 2.0,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
    )
    assert np.allclose(weighted_2sls(dm).beta, weighted_2sls(doubled).beta, atol=1e-10)


def test_hand_built_zero_weight_rows_are_ignored():
    rng = np.random.default_rng(27)
    ds, dm = build_random(rng, n=50, d=2, m=2)
    junk = 7
    padded = DesignMatrices(
        y=np.concatenate([dm.y, rng.normal(size=junk)]),
        endogenous=np.vstack([dm.endogenous, rng.integers(0, 2, size=(junk, 2))]),
        instruments=np.vstack([dm.instruments, rng.normal(size=(junk, dm.n_instruments))]),
        controls=np.vstack([dm.controls, rng.normal(size=(junk, dm.n_controls))]),
        weights=np.concatenate([dm.weights, np.zeros(junk)]),
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
        cluster=np.concatenate([np.arange(dm.n) % 25, np.zeros(junk)]),
    )
    clustered = replace(dm, cluster=np.arange(dm.n) % 25)
    fit_a, fit_b = weighted_2sls(clustered), weighted_2sls(padded)
    assert padded.n_effective == dm.n
    assert np.allclose(fit_a.beta, fit_b.beta, rtol=1e-12, atol=0)
    cov_a, cov_b = cluster_covariance(fit_a, clustered), cluster_covariance(fit_b, padded)
    assert np.allclose(cov_a, cov_b, rtol=1e-10)
    assert j_test(fit_a, clustered)[0] == pytest.approx(j_test(fit_b, padded)[0], rel=1e-10)
    f_a, f_b = first_stage_diagnostics(clustered).f_stats, first_stage_diagnostics(padded).f_stats
    assert np.allclose(f_a, f_b, rtol=1e-10)


def test_zero_weight_rows_rejected():
    rng = np.random.default_rng(7)
    ds, dm = build_random(rng)
    dead = DesignMatrices(
        y=dm.y,
        endogenous=dm.endogenous,
        instruments=dm.instruments,
        controls=dm.controls,
        weights=np.zeros_like(dm.weights),
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
    )
    with pytest.raises(EstimationError, match="weight-positive"):
        weighted_2sls(dead)


def test_singular_first_stage_reports_rcond():
    n = 30
    z = np.linspace(-1, 1, n)
    instr = np.column_stack([(z >= 0).astype(float), (z >= 0).astype(float)])
    dm = DesignMatrices(
        y=np.random.default_rng(0).normal(size=n),
        endogenous=np.column_stack([z < 0, z < 0.5]).astype(float),
        instruments=instr,
        controls=np.column_stack([np.ones(n), z]),
        weights=np.ones(n),
        endogenous_labels=("x1", "x2"),
        instrument_labels=("d", "d2"),
        control_labels=("const", "z"),
    )
    with pytest.raises(SingularDesignError, match="rcond"):
        weighted_2sls(dm)


# --------------------------------------------------------- cluster_covariance


def test_own_cluster_matches_sandwich_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        ds, dm = build_random(rng)
        fit = weighted_2sls(dm)
        cov = cluster_covariance(fit, dm)
        _, xhat, resid, _ = tsls_oracle(dm.y, dm.endogenous, dm.instruments, dm.controls, dm.weights)
        want = cluster_sandwich_oracle(xhat, resid, np.arange(fit.n_effective))
        scale = max(np.abs(want).max(), 1e-12)
        assert np.abs(cov - want).max() / scale < 1e-8


def test_grouped_clusters_match_sandwich_oracle():
    rng = np.random.default_rng(9)
    ds, dm = build_random(rng, n=50, d=1, m=1)
    ids = rng.integers(0, 9, size=dm.n)
    fit = weighted_2sls(dm)
    cov = cluster_covariance(fit, dm, cluster_ids=ids)
    _, xhat, resid, _ = tsls_oracle(dm.y, dm.endogenous, dm.instruments, dm.controls, dm.weights)
    want = cluster_sandwich_oracle(xhat, resid, ids[dm.weights > 0])
    scale = max(np.abs(want).max(), 1e-12)
    assert np.abs(cov - want).max() / scale < 1e-8


def test_zero_residuals_zero_covariance():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    dm = build_design(ds, ModelSpec(), EstimationConfig(bandwidth=2.0))
    fit = weighted_2sls(dm)
    cov = cluster_covariance(fit, dm)
    assert np.abs(cov).max() < 1e-20


def test_covariance_permutation_invariant():
    rng = np.random.default_rng(10)
    ds, dm = build_random(rng)
    ids = rng.integers(0, 7, size=dm.n)
    perm = rng.permutation(dm.n)
    dm_perm = DesignMatrices(
        y=dm.y[perm],
        endogenous=dm.endogenous[perm],
        instruments=dm.instruments[perm],
        controls=dm.controls[perm],
        weights=dm.weights[perm],
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
    )
    cov_a = cluster_covariance(weighted_2sls(dm), dm, cluster_ids=ids)
    cov_b = cluster_covariance(weighted_2sls(dm_perm), dm_perm, cluster_ids=ids[perm])
    assert np.allclose(cov_a, cov_b, atol=1e-10)


def test_single_cluster_rejected():
    rng = np.random.default_rng(11)
    ds, dm = build_random(rng)
    fit = weighted_2sls(dm)
    with pytest.raises(EstimationError, match="2 clusters"):
        cluster_covariance(fit, dm, cluster_ids=np.zeros(dm.n))


def test_covariance_psd():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ds, dm = build_random(rng)
        fit = weighted_2sls(dm)
        cov = cluster_covariance(fit, dm)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)


# ----------------------------------------------------------------------- j_test


def test_j_just_identified_flagged():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    dm = build_design(ds, ModelSpec(), EstimationConfig(bandwidth=2.0))
    fit = weighted_2sls(dm)  # d=2, m=1
    j_stat, dof, pvalue = j_test(fit, dm)
    assert (j_stat, dof, pvalue) == (0.0, 0, 1.0)


def test_j_dof_counts_instruments_minus_endogenous():
    rng = np.random.default_rng(13)
    ds, dm = build_random(rng, n=None, d=2, m=5)
    fit = weighted_2sls(dm)
    _, dof, _ = j_test(fit, dm)
    assert dof == 4  # (1 + 5) - 2, the race-by-education layout


def test_j_matches_loop_oracle():
    rng = np.random.default_rng(14)
    for _ in range(5):
        ds, dm = build_random(rng, n=50, d=1, m=2)
        fit = weighted_2sls(dm)
        j_stat, dof, pvalue = j_test(fit, dm)
        _, _, resid, zmat = tsls_oracle(dm.y, dm.endogenous, dm.instruments, dm.controls, dm.weights)
        want_stat, want_p = j_oracle(zmat, resid, np.arange(fit.n_effective), dof)
        assert j_stat == pytest.approx(want_stat, rel=1e-8, abs=1e-10)
        assert pvalue == pytest.approx(want_p, abs=1e-10)


def test_j_cluster_aggregated_matches_oracle():
    rng = np.random.default_rng(15)
    ds, dm = build_random(rng, n=50, d=1, m=1)
    ids = rng.integers(0, 25, size=dm.n)  # more clusters than moment conditions
    dm_ids = DesignMatrices(
        y=dm.y,
        endogenous=dm.endogenous,
        instruments=dm.instruments,
        controls=dm.controls,
        weights=dm.weights,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
        cluster=ids,
    )
    fit = weighted_2sls(dm_ids)
    j_stat, dof, _ = j_test(fit, dm_ids)
    _, _, resid, zmat = tsls_oracle(dm.y, dm.endogenous, dm.instruments, dm.controls, dm.weights)
    want_stat, _ = j_oracle(zmat, resid, ids[dm.weights > 0], dof)
    assert j_stat == pytest.approx(want_stat, rel=1e-8, abs=1e-10)


def test_j_singular_weighting_matrix_rejected():
    rng = np.random.default_rng(16)
    ds, dm = build_random(rng, n=50, d=1, m=2)
    ids = (np.arange(dm.n) % 2).astype(float)  # 2 clusters, 10 moment conditions
    fit = weighted_2sls(dm)
    with pytest.raises(SingularDesignError, match="singular"):
        j_test(fit, dm, cluster_ids=ids)


def test_j_exact_fit_degenerates_to_zero():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1), (1, 1)], jumps_y=[0.5, -0.3, 0.2])
    dm = build_design(ds, ModelSpec(), EstimationConfig(bandwidth=2.0))
    fit = weighted_2sls(dm)  # d=2, m=2: one over-identifying restriction
    j_stat, dof, pvalue = j_test(fit, dm)
    assert dof == 1
    assert j_stat == 0.0
    assert pvalue == 1.0


# --------------------------------------------------------------- first stages


def test_first_stage_constant_column_flagged():
    rng = np.random.default_rng(17)
    ds, dm = build_random(rng, d=1, m=1)
    dm_const = DesignMatrices(
        y=dm.y,
        endogenous=np.ones((dm.n, 1)),
        instruments=dm.instruments,
        controls=dm.controls,
        weights=dm.weights,
        endogenous_labels=("x1",),
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
    )
    report = first_stage_diagnostics(dm_const)
    assert report.f_stats[0] == 0.0
    assert report.flags[0] == "constant"


def test_first_stage_exact_fit_flagged():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    dm = build_design(ds, ModelSpec(), EstimationConfig(bandwidth=2.0))
    report = first_stage_diagnostics(dm)
    assert all(flag == "exact fit" for flag in report.flags)
    assert all(f > 1e6 for f in report.f_stats)


def test_first_stage_matches_f_oracle():
    rng = np.random.default_rng(18)
    for _ in range(5):
        ds, dm = build_random(rng, n=45, d=2, m=2)
        report = first_stage_diagnostics(dm)
        mask = dm.weights > 0
        sw = np.sqrt(dm.weights[mask])
        zfull = np.column_stack([dm.instruments, dm.controls])[mask] * sw[:, None]
        ctrl = dm.controls[mask] * sw[:, None]
        df_denom = mask.sum() - zfull.shape[1]
        for j in range(dm.k_endogenous):
            col = dm.endogenous[mask][:, j] * sw
            want = partial_f_oracle(col, zfull, ctrl, dm.n_instruments, df_denom)
            assert report.f_stats[j] == pytest.approx(want, rel=1e-8)


# ----------------------------------------------------- invariance properties


def test_kernel_scale_invariance():
    rng = np.random.default_rng(19)
    ds, dm = build_random(rng, d=2, m=2)
    scaled = DesignMatrices(
        y=dm.y,
        endogenous=dm.endogenous,
        instruments=dm.instruments,
        controls=dm.controls,
        weights=dm.weights * 37.5,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
    )
    fit_a, fit_b = weighted_2sls(dm), weighted_2sls(scaled)
    assert np.abs(fit_a.beta - fit_b.beta).max() < 1e-9
    cov_a = cluster_covariance(fit_a, dm)
    cov_b = cluster_covariance(fit_b, scaled)
    assert np.abs(cov_a - cov_b).max() / max(np.abs(cov_a).max(), 1e-12) < 1e-9
    ja, _, _ = j_test(fit_a, dm)
    jb, _, _ = j_test(fit_b, scaled)
    assert ja == pytest.approx(jb, rel=1e-9, abs=1e-12)


def test_affine_outcome_equivariance():
    rng = np.random.default_rng(20)
    ds, dm = build_random(rng, d=2, m=3)
    a, b = -2.5, 4.0
    shifted = DesignMatrices(
        y=a * dm.y + b,
        endogenous=dm.endogenous,
        instruments=dm.instruments,
        controls=dm.controls,
        weights=dm.weights,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
    )
    fit_a, fit_b = weighted_2sls(dm), weighted_2sls(shifted)
    assert np.abs(a * fit_a.beta - fit_b.beta).max() < 1e-9
    ja, _, pa = j_test(fit_a, dm)
    jb, _, pb = j_test(fit_b, shifted)
    assert ja == pytest.approx(jb, rel=1e-9, abs=1e-9)
    assert pa == pytest.approx(pb, abs=1e-9)


def test_conditional_fit_equals_per_stratum_fits():
    rng = np.random.default_rng(21)
    done = 0
    while done < 5:
        ds = random_dataset(rng, n=400, d=2, m=2, noise=0.4)
        r_col = rng.integers(0, 2, size=ds.n).astype(float)
        ds = Dataset(
            y=ds.y,
            z=ds.z,
            x=ds.x,
            cells=ds.cells,
            cell_labels=ds.cell_labels,
            w_dummies=ds.w_dummies,
            aux={"grp": r_col},
        )
        spec = ModelSpec(kind="conditional", r_column="grp")
        try:
            dm = build_design(ds, spec, CFG)
            stacked = weighted_2sls(dm)
        except (SingularDesignError, UnderIdentifiedError, EstimationError):
            continue
        ok = True
        for lev in (0.0, 1.0):
            keep = r_col == lev
            sub = subset_dataset(ds, keep)
            try:
                sub_fit = weighted_2sls(build_design(sub, ModelSpec(), CFG))
            except (SingularDesignError, UnderIdentifiedError, EstimationError):
                ok = False
                break
            tag = f"grp={lev:g}"
            idx = [k for k, lab in enumerate(dm.endogenous_labels) if lab.endswith(tag)]
            assert len(idx) == 2
            assert np.abs(stacked.beta[idx] - sub_fit.beta).max() < 1e-8
        if ok:
            done += 1


def test_conditional_rejects_missing_r_values():
    rng = np.random.default_rng(23)
    ds0 = random_dataset(rng, n=60, d=1, m=1)
    r_col = np.asarray(["a", ""] * 30, dtype=object)
    ds = Dataset(
        y=ds0.y,
        z=ds0.z,
        x=ds0.x,
        cells=ds0.cells,
        cell_labels=ds0.cell_labels,
        w_dummies=ds0.w_dummies,
        aux={"grp": r_col},
    )
    from multirdd.errors import InputError

    with pytest.raises(InputError, match="missing values"):
        build_design(ds, ModelSpec(kind="conditional", r_column="grp"), CFG)


@pytest.mark.parametrize("dtype", [str, object])
def test_text_cluster_ids_must_not_be_empty(dtype):
    from multirdd.errors import InputError

    rng = np.random.default_rng(24)
    ds0, _ = build_random(rng, n=60, d=1, m=1)
    ids = np.asarray(["", "a", "b"] * 20, dtype=dtype)
    ds = Dataset(
        y=ds0.y, z=ds0.z, x=ds0.x, cells=ds0.cells, cell_labels=ds0.cell_labels,
        w_dummies=ds0.w_dummies, cluster=ids,
    )
    with pytest.raises(InputError, match="cluster id missing for weight-positive row 0"):
        estimate(ds, ModelSpec(), CFG)


def test_estimate_pipeline_populates_everything():
    rng = np.random.default_rng(22)
    ds, dm = build_random(rng, n=50, d=2, m=2)
    fit = estimate(ds, ModelSpec(), CFG)
    assert fit.cov is not None and fit.se is not None
    assert fit.j_dof == 1
    assert fit.first_stage is not None
    doc = fit.to_dict()
    for key in ("beta", "se", "coefficients", "j_stat", "j_dof", "j_pvalue"):
        assert key in doc


@pytest.mark.parametrize("dof", range(1, 61))
def test_chi2_sf_matches_scipy(dof):
    from scipy.stats import chi2

    for x in (0.0, 1e-8, 0.5, float(dof), 10.0 * dof, 700.0, 1500.0):
        want = float(chi2.sf(x, dof))
        if want > 1e-300:
            assert chi2_sf(x, dof) == pytest.approx(want, rel=1e-12, abs=0), (x, dof)


def test_coefficient_pvalue_matches_normal_tail():
    from scipy.stats import norm

    rng = np.random.default_rng(23)
    ds, _ = build_random(rng, n=50, d=2, m=2)
    doc = estimate(ds, ModelSpec(), CFG).to_dict()
    for row in doc["coefficients"]:
        want = 2 * float(norm.sf(abs(row["t"])))
        assert row["p"] == pytest.approx(want, rel=1e-12, abs=1e-300)


def relabel_cells(ds, order):
    """The same dataset with cell l renamed to ``order[l]``; the reference cell changes."""
    cells = np.asarray(order)[ds.cells]
    labels = [""] * ds.q
    for old, new in enumerate(order):
        labels[new] = ds.cell_labels[old]
    return Dataset(
        y=ds.y,
        z=ds.z,
        x=ds.x,
        cells=cells,
        cell_labels=tuple(labels),
        w_dummies=(cells[:, None] == np.arange(1, ds.q)[None, :]).astype(float),
        cluster=ds.cluster,
    )


def assert_rel_close(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert np.abs(got - want).max() <= 1e-8 * max(np.abs(want).max(), 1e-300), (got, want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    clustered=st.booleans(),
    a=st.floats(min_value=0.25, max_value=4.0),
    negate=st.booleans(),
    b=st.floats(min_value=-10.0, max_value=10.0),
)
def test_fit_invariant_to_row_order_cell_labels_and_outcome_units(seed, clustered, a, negate, b):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    ds = random_dataset(rng, n=int(rng.integers(80, 121)), d=d, m=int(rng.integers(d, 3)), noise=0.4)
    if clustered:
        ds = Dataset(
            y=ds.y, z=ds.z, x=ds.x, cells=ds.cells, cell_labels=ds.cell_labels,
            w_dummies=ds.w_dummies, cluster=rng.integers(0, ds.n // 2, size=ds.n),
        )
    try:
        base = estimate(ds, ModelSpec(), CFG)
    except EstimationError:
        assume(False)
    a = -a if negate else a
    shifted = Dataset(
        y=a * ds.y + b, z=ds.z, x=ds.x, cells=ds.cells, cell_labels=ds.cell_labels,
        w_dummies=ds.w_dummies, cluster=ds.cluster,
    )
    variants = (
        (subset_dataset(ds, rng.permutation(ds.n)), 1.0),
        (relabel_cells(ds, rng.permutation(ds.q)), 1.0),
        (shifted, a),
    )
    for other, scale in variants:
        fit = estimate(other, ModelSpec(), CFG)
        assert_rel_close(fit.beta, scale * base.beta)
        assert_rel_close(fit.se, abs(scale) * base.se)
        assert_rel_close(fit.j_pvalue, base.j_pvalue)
        assert_rel_close(fit.first_stage.f_stats, base.first_stage.f_stats)


LAPACK_ENTRY_POINTS = (
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "tensorinv", "tensorsolve",
)


def test_estimate_factors_the_weighted_rows_once(monkeypatch):
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"), cluster="age", extra_controls=("region",),
    )
    ds = load_table(SAMPLE_CSV, schema)
    cfg = EstimationConfig(bandwidth=10.0, cluster_by="age")
    n_eff = int((weights_vector(cfg.kernel, cfg.bandwidth, ds.z) > 0).sum())
    tall = []
    for name in LAPACK_ENTRY_POINTS:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            tall.extend(
                (_name, np.shape(a)[1], kwargs.get("mode"))
                for a in args
                if np.ndim(a) == 2 and np.shape(a)[0] == n_eff
            )
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    fit = estimate(ds, ModelSpec(), cfg)
    assert fit.n_effective == n_eff
    # R alone of [controls | instruments | endogenous | y]: k + d + 1 columns
    k = len(fit.eta) + ds.q
    assert tall == [("qr", k + ds.d + 1, "r")], tall


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kernel=st.sampled_from(["uniform", "triangular"]),
    clustered=st.booleans(),
)
def test_rows_outside_the_window_do_not_enter_the_fit(seed, kernel, clustered):
    from multirdd.discontinuities import cell_table

    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    ds = random_dataset(rng, n=int(rng.integers(150, 241)), d=d, m=d, noise=0.4)
    cluster = rng.integers(0, ds.n // 3, size=ds.n) if clustered else None
    extra = rng.normal(size=(ds.n, 1))

    def with_columns(y, x, extra, cluster):
        return Dataset(
            y=y, z=ds.z, x=x, cells=ds.cells, cell_labels=ds.cell_labels,
            w_dummies=ds.w_dummies, cluster=cluster, extra_controls=extra,
        )

    cfg = EstimationConfig(bandwidth=0.6, kernel=kernel)  # z reaches well past it
    base_ds = with_columns(ds.y, ds.x, extra, cluster)
    try:
        base, base_ct = estimate(base_ds, ModelSpec(), cfg), cell_table(base_ds, cfg)
    except EstimationError:
        assume(False)
    out = weights_vector(cfg.kernel, cfg.bandwidth, ds.z) == 0
    assume(out.any())
    n_out = int(out.sum())
    x, y, extra = ds.x.copy(), ds.y.copy(), extra.copy()
    # cumulative indicators: row i crosses the first t_i margins
    x[out] = np.arange(d)[None, :] < rng.integers(0, d + 1, size=(n_out, 1))
    y[out] = rng.normal(0, 100, size=n_out)
    extra[out] = rng.normal(0, 100, size=(n_out, 1))
    if clustered:
        cluster = cluster.copy()
        cluster[out] = rng.integers(0, 3, size=n_out)
    changed = with_columns(y, x, extra, cluster)
    fit = estimate(changed, ModelSpec(), cfg)
    assert fit.n_effective == base.n_effective
    for got, want in (
        (fit.beta, base.beta),
        (fit.se, base.se),
        (fit.j_stat, base.j_stat),
        (fit.first_stage.f_stats, base.first_stage.f_stats),
    ):
        assert np.array_equal(got, want)
    assert cell_table(changed, cfg).to_dict() == base_ct.to_dict()


def test_conditional_stratum_empty_inside_the_window_is_rank_deficient():
    rng = np.random.default_rng(25)
    ds0 = random_dataset(rng, n=300, d=1, m=1)
    # stratum "far" has rows only outside the bandwidth, so its block is all zeros
    r_col = np.where(np.abs(ds0.z) > 0.8, "far", "near")
    ds = Dataset(
        y=ds0.y, z=ds0.z, x=ds0.x, cells=ds0.cells, cell_labels=ds0.cell_labels,
        w_dummies=ds0.w_dummies, aux={"grp": r_col},
    )
    spec = ModelSpec(kind="conditional", r_column="grp")
    with pytest.raises(SingularDesignError, match="rank deficient"):
        build_design(ds, spec, EstimationConfig(bandwidth=0.8))
    dm = build_design(ds, spec, EstimationConfig(bandwidth=1.0))  # both strata inside
    assert dm.n_effective == ds.n


def test_spec_treatment_levels_must_match_the_indicators():
    from multirdd.errors import InputError

    rng = np.random.default_rng(26)
    ds = random_dataset(rng, n=60, d=2, m=2)
    with pytest.raises(InputError, match="4 treatment levels.*2 treatment indicators need 3"):
        build_design(ds, ModelSpec(treatment_levels=(0, 1, 2, 3)), CFG)
    build_design(ds, ModelSpec(treatment_levels=(0, 1, 2)), CFG)
