import re
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multirdd.data_model import Dataset, EstimationConfig, GroupBasis, ModelSpec, TableSchema
from multirdd.data_model import kernel_window
from multirdd.data_model import load_table
from multirdd.discontinuities import cell_table
from multirdd.errors import (
    EstimationError,
    InputError,
    SingularDesignError,
    UnderIdentifiedError,
)
from multirdd.estimator import (
    build_design,
    chi2_sf,
    cluster_covariance,
    estimate,
    first_stage_diagnostics,
    j_test,
    weighted_2sls,
)
from multirdd.kernels import weights_vector
from oracles import (
    cluster_sandwich_oracle,
    design_blocks,
    design_from_blocks,
    explicit_design,
    j_oracle,
    partial_f_oracle,
    tsls_oracle,
)
from synthetic import piecewise_linear_dataset, random_dataset

CFG = EstimationConfig(bandwidth=1.0)
SAMPLE_CSV = Path(__file__).parent.parent / "sample_data" / "insurance_style.csv"


# draws a retry loop makes before it fails, so a fit that always raises fails the test
ATTEMPTS = 200


def build_random(rng, n=None, d=None, m=None, noise=0.4, max_cond=1e6, kernel="uniform"):
    """Random dataset plus design, retried until comfortably conditioned."""
    last = None
    for _ in range(ATTEMPTS):
        d_ = d if d is not None else int(rng.integers(1, 3))
        m_ = m if m is not None else int(rng.integers(max(d_ - 1, 0), 4))
        if m_ + 1 < d_:
            continue
        n_ = n if n is not None else int(rng.integers(30, 51))
        ds = random_dataset(rng, n=n_, d=d_, m=m_, noise=noise)
        cfg = EstimationConfig(bandwidth=1.0, kernel=kernel)
        try:
            dm = build_design(ds, ModelSpec(), cfg)
        except (SingularDesignError, UnderIdentifiedError, EstimationError) as err:
            last = err
            continue
        _, endogenous, instruments, controls = design_blocks(dm)
        mask = dm.weights > 0
        sw = np.sqrt(dm.weights[mask])
        exog = np.column_stack([instruments, controls])[mask] * sw[:, None]
        if np.linalg.cond(exog) > max_cond:
            continue
        xfull = np.column_stack([endogenous, controls])[mask] * sw[:, None]
        if np.linalg.cond(xfull) > max_cond:
            continue
        return ds, dm
    raise AssertionError(f"no usable design in {ATTEMPTS} draws; last error: {last!r}")


def subset_dataset(ds, keep):
    return Dataset(
        y=ds.y[keep],
        z=ds.z[keep],
        x=ds.x[keep],
        cells=ds.cells[keep],
        cell_labels=ds.cell_labels,
        cluster=None if ds.cluster is None else ds.cluster[keep],
        extra_control_names=ds.extra_control_names,
        aux={k: v[keep] for k, v in ds.aux.items()},
    )


# ---------------------------------------------------------------- build_design


def test_design_column_counts_homogeneous():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    dm = build_design(ds, ModelSpec(), CFG)  # d=2, m=1
    assert dm.n_controls == 6
    assert dm.n_instruments == 2
    # [C | Z | X | y] = [B | D] M: 2 cells x 2 sides, each (1, z), and D = [X | y]
    assert dm.n_groups == 4 and dm.dense.shape == (dm.n, 2 + 1)
    assert dm.layout.shape == (2 * 4 + 3, 6 + 2 + 2 + 1)


def test_design_columns_must_match_labels():
    ds = piecewise_linear_dataset(jumps_x=[(1, 0), (0, 1)], jumps_y=[0.5, -0.3])
    dm = build_design(ds, ModelSpec(), CFG)
    for dense in (dm.dense[:, 1:], dm.dense[:-1], dm.dense[:, 0]):
        with pytest.raises(InputError, match="one column per label and y"):
            replace(dm, dense=dense)
    # a hand-built design is A under the identity layout, so its width is checked the same way;
    # a block one control too wide or too narrow was accepted and fitted under shifted labels
    y, endogenous, instruments, controls = design_blocks(dm)
    labels = dict(endogenous_labels=dm.endogenous_labels, instrument_labels=dm.instrument_labels,
                  control_labels=dm.control_labels)
    assert design_from_blocks(y, endogenous, instruments, controls, dm.weights, **labels).n == dm.n
    for wrong in (np.column_stack([controls, controls[:, -1] ** 2]), controls[:, 1:]):
        with pytest.raises(InputError, match="one column per label and y"):
            design_from_blocks(y, endogenous, instruments, wrong, dm.weights, **labels)
    groups, z = dm.basis.groups, dm.basis.z
    with pytest.raises(InputError, match="sorted"):
        GroupBasis(groups[::-1], z, dm.n_groups)
    # a basis of other rows, or of other groups, than the design's
    for basis in (GroupBasis(groups[:-1], z[:-1], dm.n_groups), GroupBasis(groups, z, 8)):
        with pytest.raises(InputError, match="one row per weight, two layout rows per group"):
            replace(dm, basis=basis)
    # a window is the one of its dataset, kernel and bandwidth
    with pytest.raises(InputError, match="another dataset, kernel or bandwidth"):
        build_design(ds, ModelSpec(), CFG, kernel_window(ds, EstimationConfig(bandwidth=2.0)))


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
    )
    with pytest.raises(SingularDesignError, match="rank deficient"):
        build_design(broken, ModelSpec(), EstimationConfig(bandwidth=1.0))

    # only the left side of cell001 leaves the window: the error names both
    z = ds.z.copy()
    z[(ds.cells == 1) & (ds.z < 0)] -= 5.0
    one_side = Dataset(y=ds.y, z=z, x=ds.x, cells=ds.cells, cell_labels=ds.cell_labels)
    with pytest.raises(SingularDesignError, match="rank deficient") as err:
        build_design(one_side, ModelSpec(), EstimationConfig(bandwidth=1.0))
    assert str(err.value) == (
        "exogenous block is rank deficient after weighting (8 columns) (rcond 0.000e+00 < 1.0e-10)"
        "; cell 'cell001' unusable on the left side of the cutoff: needs at least 2 distinct "
        "running-variable values with positive weight, found 0"
    )


@contextmanager
def recorded(*names):
    """Each call to the named numpy.linalg functions: its name and its 2-D arguments' shapes."""
    calls = []
    with ExitStack() as stack:
        for name in names:
            def record(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                shapes = [np.shape(a) for a in (*args, *kwargs.values()) if np.ndim(a) == 2]
                calls.append((_name, shapes))
                return _fn(*args, **kwargs)

            stack.enter_context(mock.patch.object(np.linalg, name, record))
        yield calls


def near_copy_of_a_control(noise):
    """A clustered dataset whose extra control ctl2 is ctl plus ``noise`` times a normal draw."""
    rng = np.random.default_rng(51)
    ds = random_dataset(rng, n=400, d=2, m=2, noise=0.4)
    ctl = rng.normal(size=ds.n)
    return replace(
        ds,
        extra_control_names=("ctl", "ctl2"),
        aux={"ctl": ctl, "ctl2": ctl + noise * rng.normal(size=ds.n)},
        cluster=rng.integers(0, 100, size=ds.n),
    )


def test_a_near_copy_of_a_control_is_factored_from_its_rows():
    # ctl2's scaled pivot is about 1e-4, below the floor: from A'A, R would lose
    # about 4e-8 of eta, so R comes from the rows, as if A'A were never formed.
    # (At a pivot of 1e-6 no two float64 factors of the rows agree to 1e-10.)
    ds = near_copy_of_a_control(1e-4)
    with recorded("cholesky", "qr") as calls:
        dm = build_design(ds, ModelSpec(), CFG)
    fit = weighted_2sls(dm)
    fit = replace(fit, cov=cluster_covariance(fit, dm))
    ref = explicit_design(ds, ModelSpec(), CFG)  # the written design, with R of its rows' qr
    ref.__dict__["r"] = np.linalg.qr(ref.dense * np.sqrt(ref.weights)[:, None], mode="r")
    want = weighted_2sls(ref)
    want = replace(want, cov=cluster_covariance(want, ref))
    for got, expected in ((fit.beta, want.beta), (fit.eta, want.eta), (fit.se, want.se)):
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max(), (got, expected)
    # A'A, then one qr of the dense block with each group's (1, z) partialled
    # out, n x (e + d + 1), and one of the small R of [B | D] times M
    c = ref.dense.shape[1]
    factors = [("cholesky", [(c, c)]), ("qr", [dm.dense.shape]), ("qr", [(c, c)])]
    assert calls == factors and dm.dense.shape == (dm.n, 2 + 2 + 1), calls


def test_a_near_copy_of_a_control_passes_the_j_gate():
    # E passes its gate at a scaled pivot of about 1e-6, and so do the moment
    # sums; J is the J of any basis of the same columns
    ds = near_copy_of_a_control(1e-6)
    fit = estimate(ds, ModelSpec(), CFG)
    aux = dict(ds.aux, ctl2=(ds.aux["ctl2"] - ds.aux["ctl"]) * 1e6)
    want = estimate(replace(ds, aux=aux), ModelSpec(), CFG)
    assert fit.j_dof == want.j_dof == 1
    assert fit.j_stat == pytest.approx(want.j_stat, rel=1e-9)


GATE_ERROR = r"exogenous block is rank deficient after weighting \(14 columns\) \(rcond {}"
COLLINEAR = r"\d\.\d{3}e-1[2-7] < 1\.0e-10\); the weighted columns are collinear"
RANK_ERRORS = {
    "ctl2 = ctl + 1e-12 noise": COLLINEAR,
    "ctl2 = ctl": COLLINEAR,
    "cell001 empty inside the window": (
        r"0\.000e\+00 < 1\.0e-10\); cell 'cell001' unusable on the left side of the cutoff: "
        r"needs at least 2 distinct running-variable values with positive weight, found 0; "
        r"cell 'cell001' unusable on the right side of the cutoff: needs at least 2 distinct "
        r"running-variable values with positive weight, found 0"
    ),
}


@pytest.mark.parametrize("case", RANK_ERRORS)
def test_rank_failures_keep_their_message(case):
    # the Cholesky of A'A fails, finds a tiny pivot or meets a zero column; the qr
    # of the rows then gives the rank gate the R it always read
    if case == "cell001 empty inside the window":
        ds = near_copy_of_a_control(1.0)
        outside = np.sign(ds.z) * (2.0 + 10.0 * np.abs(ds.z))  # |z| > 2, the bandwidth is 1
        ds = replace(ds, z=np.where(ds.cells == 1, outside, ds.z))
    else:
        ds = near_copy_of_a_control(1e-12 if "noise" in case else 0.0)
    with pytest.raises(SingularDesignError) as err:
        build_design(ds, ModelSpec(), CFG)
    assert re.fullmatch(GATE_ERROR.format(RANK_ERRORS[case]), str(err.value)), str(err.value)


def test_span_equivalence_with_two_sided_basis():
    # fitted values on [D, D*W, C] equal those on the per-side local-linear basis
    rng = np.random.default_rng(3)
    for _ in range(10):
        ds, dm = build_random(rng)
        _, _, instruments, controls = design_blocks(dm)
        mask = dm.weights > 0
        sw = np.sqrt(dm.weights[mask])
        exog = np.column_stack([instruments, controls])[mask] * sw[:, None]
        # every row is inside the window, and the design holds them in (cell, side) order
        ds = subset_dataset(ds, np.argsort(2 * ds.cells + (ds.z >= 0), kind="stable"))
        d_ind = (ds.z >= 0).astype(float)
        dummies = (ds.cells[:, None] == np.arange(1, ds.q)).astype(float)
        one_w = np.column_stack([np.ones(ds.n), dummies])
        s_plus = d_ind[:, None] * np.column_stack([one_w, ds.z[:, None] * one_w])
        s_minus = (1 - d_ind)[:, None] * np.column_stack([one_w, ds.z[:, None] * one_w])
        s_basis = np.column_stack([s_plus, s_minus])[mask] * sw[:, None]
        assert exog.shape[1] == s_basis.shape[1]
        target = rng.normal(size=mask.sum())
        fit_a = exog @ np.linalg.lstsq(exog, target, rcond=None)[0]
        fit_b = s_basis @ np.linalg.lstsq(s_basis, target, rcond=None)[0]
        assert np.abs(fit_a - fit_b).max() < 1e-9


def test_fit_result_arrays_are_write_locked():
    ds, _ = build_random(np.random.default_rng(31))
    fit = estimate(ds, ModelSpec(), CFG)
    cov = np.eye(len(fit.cov))
    for result in (fit, replace(fit, cov=cov)):
        for a in (result.beta, result.eta, result.cov):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    cov[0, 0] = 2.0  # the caller's array is copied, not locked
    assert replace(fit, cov=cov).cov[0, 0] == 2.0


def test_built_design_is_write_locked():
    _, dm = build_random(np.random.default_rng(32))
    basis = dm.basis
    for a in (dm.dense, dm.weights, dm.layout, basis.groups, basis.z, basis.bounds, *basis.extent):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


# --------------------------------------------------------------- weighted_2sls


def test_exogenous_case_reduces_to_wls():
    rng = np.random.default_rng(4)
    ds, dm = build_random(rng, d=2, m=2)
    y, endogenous, _, controls = design_blocks(dm)
    dm_exo = design_from_blocks(
        y,
        endogenous,
        endogenous,
        controls,
        dm.weights,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.endogenous_labels,
        control_labels=dm.control_labels,
    )
    fit = weighted_2sls(dm_exo)
    mask = dm.weights > 0
    sw = np.sqrt(dm.weights[mask])
    design = np.column_stack([endogenous, controls])[mask] * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, y[mask] * sw, rcond=None)
    assert np.allclose(fit.beta, coef[: dm.k_endogenous], atol=1e-10)


def test_tiny_just_identified_matches_direct_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        ds, dm = build_random(rng, n=8, d=1, m=0, noise=0.3)
        fit = weighted_2sls(dm)
        coef, *_ = tsls_oracle(*design_blocks(dm), dm.weights)
        assert np.abs(fit.beta - coef[:1]).max() < 1e-10


def test_row_duplication_with_halved_weights():
    rng = np.random.default_rng(6)
    ds, dm = build_random(rng)
    doubled = design_from_blocks(
        *(np.concatenate([block, block]) for block in design_blocks(dm)),
        weights=np.concatenate([dm.weights, dm.weights]) / 2.0,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
    )
    assert np.allclose(weighted_2sls(dm).beta, weighted_2sls(doubled).beta, atol=1e-10)


def test_zero_weight_rows_rejected():
    # a design holds weight-positive rows only: one zero weight, all zero or negative, no rows
    rng = np.random.default_rng(7)
    ds, dm = build_random(rng)
    one_zero = dm.weights.copy()
    one_zero[3] = 0.0
    for weights in (one_zero, np.zeros_like(dm.weights), -dm.weights):
        with pytest.raises(EstimationError, match="weight-positive"):
            replace(dm, weights=weights)
    with pytest.raises(EstimationError, match="weight-positive"):
        empty = GroupBasis(dm.basis.groups[:0], dm.basis.z[:0], dm.n_groups)
        replace(dm, dense=dm.dense[:0], weights=dm.weights[:0], basis=empty)


def test_singular_first_stage_reports_rcond():
    n = 30
    z = np.linspace(-1, 1, n)
    instr = np.column_stack([(z >= 0).astype(float), (z >= 0).astype(float)])
    dm = design_from_blocks(
        np.random.default_rng(0).normal(size=n),
        np.column_stack([z < 0, z < 0.5]).astype(float),
        instr,
        np.column_stack([np.ones(n), z]),
        np.ones(n),
        endogenous_labels=("x1", "x2"),
        instrument_labels=("d", "d2"),
        control_labels=("const", "z"),
    )
    with pytest.raises(SingularDesignError, match="rcond"):
        weighted_2sls(dm)


def test_a_hand_built_design_with_fewer_instruments_than_margins_is_under_identified():
    n = 30
    z = np.linspace(-1, 1, n)
    dm = design_from_blocks(
        np.random.default_rng(0).normal(size=n),
        np.column_stack([z >= 0, z >= 0.5]).astype(float),
        (z >= 0).astype(float)[:, None],
        np.column_stack([np.ones(n), z]),
        np.ones(n),
        endogenous_labels=("x1", "x2"),
        instrument_labels=("d",),
        control_labels=("const", "z"),
    )
    with pytest.raises(UnderIdentifiedError, match=r"^under-identified: 1 instruments < 2 "
                       "endogenous columns$"):
        dm.second_stage


def _second_stage_design(case):
    """A design whose E has full rank and whose [X_hat | C] does not."""
    n = 60
    rng = np.random.default_rng(41)
    z = np.linspace(-1, 1, n)
    w = (np.arange(n) % 2).astype(float)
    d = (z >= 0).astype(float)
    x1 = 0.5 * d + 0.3 * d * w + rng.normal(scale=0.2, size=n)
    if case == "x1 = w + z":
        x1, x2 = w + z, x1
    else:
        x2 = x1 if case == "x2 = x1" else 3.0 * x1 + z
    return design_from_blocks(
        rng.normal(size=n),
        np.column_stack([x1, x2]),
        np.column_stack([d, d * w]),
        np.column_stack([np.ones(n), w, z, d * z]),
        np.ones(n),
        endogenous_labels=("x1", "x2"),
        instrument_labels=("d", "d:w"),
        control_labels=("const", "w", "z", "d:z"),
    )


@pytest.mark.parametrize("case", ["x2 = x1", "x2 = 3 x1 + z", "x1 = w + z"])
def test_singular_second_stage_is_rejected(case):
    dm = _second_stage_design(case)
    dm.r  # E itself passes its gate
    with pytest.raises(SingularDesignError, match="second-stage"):
        weighted_2sls(dm)


# --------------------------------------------------------- cluster_covariance


def test_own_cluster_matches_sandwich_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        ds, dm = build_random(rng)
        fit = weighted_2sls(dm)
        cov = cluster_covariance(fit, dm)
        _, xhat, resid, _ = tsls_oracle(*design_blocks(dm), dm.weights)
        want = cluster_sandwich_oracle(xhat, resid, np.arange(fit.n_effective))
        scale = max(np.abs(want).max(), 1e-12)
        assert np.abs(cov - want).max() / scale < 1e-8


def test_grouped_clusters_match_sandwich_oracle():
    rng = np.random.default_rng(9)
    ds, dm = build_random(rng, n=50, d=1, m=1)
    ids = rng.integers(0, 9, size=dm.n)
    dm = replace(dm, cluster=ids)
    fit = weighted_2sls(dm)
    cov = cluster_covariance(fit, dm)
    _, xhat, resid, _ = tsls_oracle(*design_blocks(dm), dm.weights)
    want = cluster_sandwich_oracle(xhat, resid, ids)
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
    dm_perm = design_from_blocks(
        *(block[perm] for block in design_blocks(dm)),
        weights=dm.weights[perm],
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
        cluster=ids[perm],
    )
    dm = replace(dm, cluster=ids)
    cov_a = cluster_covariance(weighted_2sls(dm), dm)
    cov_b = cluster_covariance(weighted_2sls(dm_perm), dm_perm)
    assert np.allclose(cov_a, cov_b, atol=1e-10)


def test_single_cluster_rejected():
    rng = np.random.default_rng(11)
    ds, dm = build_random(rng)
    with pytest.raises(InputError, match="cluster ids have length"):
        replace(dm, cluster=np.zeros(dm.n - 1))  # checked when the design is built
    dm = replace(dm, cluster=np.zeros(dm.n))
    fit = weighted_2sls(dm)
    with pytest.raises(EstimationError, match="2 clusters"):
        cluster_covariance(fit, dm)


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
        _, _, resid, zmat = tsls_oracle(*design_blocks(dm), dm.weights)
        want_stat, want_p = j_oracle(zmat, resid, np.arange(fit.n_effective), dof)
        assert j_stat == pytest.approx(want_stat, rel=1e-8, abs=1e-10)
        assert pvalue == pytest.approx(want_p, abs=1e-10)


def test_j_cluster_aggregated_matches_oracle():
    rng = np.random.default_rng(15)
    ds, dm = build_random(rng, n=50, d=1, m=1)
    ids = rng.integers(0, 25, size=dm.n)  # more clusters than moment conditions
    dm_ids = design_from_blocks(
        *design_blocks(dm),
        weights=dm.weights,
        endogenous_labels=dm.endogenous_labels,
        instrument_labels=dm.instrument_labels,
        control_labels=dm.control_labels,
        cluster=ids,
    )
    fit = weighted_2sls(dm_ids)
    j_stat, dof, _ = j_test(fit, dm_ids)
    _, _, resid, zmat = tsls_oracle(*design_blocks(dm), dm.weights)
    want_stat, _ = j_oracle(zmat, resid, ids[dm.weights > 0], dof)
    assert j_stat == pytest.approx(want_stat, rel=1e-8, abs=1e-10)


def test_j_singular_weighting_matrix_rejected():
    rng = np.random.default_rng(16)
    ds, dm = build_random(rng, n=50, d=1, m=2)
    dm = replace(dm, cluster=(np.arange(dm.n) % 2).astype(float))  # 2 clusters, 12 moments
    fit = weighted_2sls(dm)
    with pytest.raises(SingularDesignError, match="singular") as err:
        j_test(fit, dm)
    assert dm.n_exogenous == 12
    assert "2 clusters" in str(err.value) and "12 moment conditions" in str(err.value)


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
    for kernel, value in (("uniform", 1.0), ("triangular", 3.7)):
        ds, dm = build_random(rng, d=1, m=1, kernel=kernel)
        y, _, instruments, controls = design_blocks(dm)
        dm_const = design_from_blocks(
            y,
            np.full((dm.n, 1), value),
            instruments,
            controls,
            dm.weights,
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
        _, endogenous, instruments, controls = design_blocks(dm)
        mask = dm.weights > 0
        sw = np.sqrt(dm.weights[mask])
        zfull = np.column_stack([instruments, controls])[mask] * sw[:, None]
        ctrl = controls[mask] * sw[:, None]
        df_denom = mask.sum() - zfull.shape[1]
        for j in range(dm.k_endogenous):
            col = endogenous[mask][:, j] * sw
            want = partial_f_oracle(col, zfull, ctrl, dm.n_instruments, df_denom)
            assert report.f_stats[j] == pytest.approx(want, rel=1e-8)


# ----------------------------------------------------- invariance properties


def test_kernel_scale_invariance():
    rng = np.random.default_rng(19)
    ds, dm = build_random(rng, d=2, m=2)
    scaled = design_from_blocks(
        *design_blocks(dm),
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
    y, endogenous, instruments, controls = design_blocks(dm)
    shifted = design_from_blocks(
        a * y + b,
        endogenous,
        instruments,
        controls,
        dm.weights,
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
    done = tries = 0
    last = None
    while done < 5:
        tries += 1
        assert tries <= ATTEMPTS, f"{done} of 5 usable draws in {ATTEMPTS}; last error: {last!r}"
        ds = random_dataset(rng, n=400, d=2, m=2, noise=0.4)
        r_col = rng.integers(0, 2, size=ds.n).astype(float)
        ds = Dataset(
            y=ds.y,
            z=ds.z,
            x=ds.x,
            cells=ds.cells,
            cell_labels=ds.cell_labels,
            aux={"grp": r_col},
        )
        spec = ModelSpec(kind="conditional", r_column="grp")
        try:
            dm = build_design(ds, spec, CFG)
            stacked = weighted_2sls(dm)
        except (SingularDesignError, UnderIdentifiedError, EstimationError) as err:
            last = err
            continue
        ok = True
        for lev in (0.0, 1.0):
            keep = r_col == lev
            sub = subset_dataset(ds, keep)
            try:
                sub_fit = weighted_2sls(build_design(sub, ModelSpec(), CFG))
            except (SingularDesignError, UnderIdentifiedError, EstimationError) as err:
                last = err
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
        aux={"grp": r_col},
    )
    from multirdd.errors import InputError

    with pytest.raises(InputError, match="conditioning column 'grp' has a missing value in row 2$"):
        build_design(ds, ModelSpec(kind="conditional", r_column="grp"), CFG)


@pytest.mark.parametrize("dtype", [str, object])
def test_text_cluster_ids_must_not_be_empty(dtype):
    from multirdd.errors import InputError

    rng = np.random.default_rng(24)
    ds0, _ = build_random(rng, n=60, d=1, m=1)
    ids = np.asarray(["", "a", "b"] * 20, dtype=dtype)
    # a hand-built dataset's cluster ids are checked when it is made, by data row
    with pytest.raises(InputError, match="cluster column 'cluster' has a missing value in row 1$"):
        Dataset(
            y=ds0.y, z=ds0.z, x=ds0.x, cells=ds0.cells, cell_labels=ds0.cell_labels,
            cluster=ids,
        )
    # a hand-built design keeps its own check, by its row
    dm = build_design(ds0, ModelSpec(), CFG)
    hand_built = replace(dm, cluster=ids[: dm.n])
    with pytest.raises(InputError, match="cluster column 'cluster' has a missing value in row 1$"):
        cluster_covariance(weighted_2sls(hand_built), hand_built)


@pytest.mark.parametrize("role", ["conditioning", "cluster", "cluster ids"])
def test_a_none_in_a_hand_built_object_column_names_its_row(role):
    from multirdd.errors import InputError

    ds0 = random_dataset(np.random.default_rng(25), n=60, d=1, m=1)
    col, missing = np.asarray(["a", None, "b"] * 20, dtype=object), "has a missing value in row 2$"
    if role == "cluster ids":  # the dataset's own ids are checked when it is made
        with pytest.raises(InputError, match=f"cluster column 'cluster' {missing}"):
            replace(ds0, cluster=col)
        return
    ds = replace(ds0, aux={"g": col})
    spec = ModelSpec(kind="conditional", r_column="g") if role == "conditioning" else ModelSpec()
    cfg = EstimationConfig(bandwidth=1.0, cluster_by="g" if role == "cluster" else None)
    with pytest.raises(InputError, match=f"{role} column 'g' {missing}"):
        build_design(ds, spec, cfg)


def test_cluster_by_a_missing_column_is_an_input_error():
    # the schema's clusters do not stand in for a misspelled cluster_by
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"), cluster="age",
    )
    ds = load_table(SAMPLE_CSV, schema)
    with pytest.raises(InputError, match="cluster column 'agee' not found"):
        estimate(ds, ModelSpec(), EstimationConfig(bandwidth=10.0, cluster_by="agee"))
    by_age = estimate(ds, ModelSpec(), EstimationConfig(bandwidth=10.0, cluster_by="age"))
    by_schema = estimate(ds, ModelSpec(), EstimationConfig(bandwidth=10.0))
    assert np.array_equal(by_age.cov, by_schema.cov)


def test_cluster_by_running_refuses_a_column_named_running_that_splits_otherwise():
    # cluster_by="running" once meant z and silently passed over the table's own "running"
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"),
    )
    ds = load_table(SAMPLE_CSV, schema)
    groups = (np.arange(ds.n) % 40).astype(float)
    ds = replace(ds, aux={**ds.aux, "running": groups})
    cfg = EstimationConfig(bandwidth=10.0, cluster_by="running")
    with pytest.raises(InputError, match="reads two ways.* name its column, 'age',"):
        estimate(ds, ModelSpec(), cfg)
    by_age = estimate(ds, ModelSpec(), replace(cfg, cluster_by="age"))
    assert by_age.cov is not None


@pytest.mark.parametrize("object_column", ["running", "other"])
def test_cluster_by_running_beside_an_object_column_holding_none_is_an_input_error(
    object_column,
):
    # sorting None among text raised a TypeError in place of the InputError
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"),
    )
    ds = load_table(SAMPLE_CSV, schema)
    mixed = np.array([None if i % 3 == 0 else str(i % 40) for i in range(ds.n)], dtype=object)
    groups = (np.arange(ds.n) % 40).astype(float)
    # ahead of age, the running variable's own column, so the search for it meets the column
    aux = {"other": mixed, **ds.aux, "running": mixed if object_column == "running" else groups}
    cfg = EstimationConfig(bandwidth=10.0, cluster_by="running")
    with pytest.raises(InputError, match="reads two ways.* name its column, 'age',"):
        estimate(replace(ds, aux=aux), ModelSpec(), cfg)


def test_cluster_by_running_fits_as_before_when_the_running_column_is_named_running(tmp_path):
    header, *rows = SAMPLE_CSV.read_text(encoding="utf-8").splitlines()
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("\n".join([header.replace(",age,", ",running,"), *rows]) + "\n", "utf-8")
    cfg, datasets = EstimationConfig(bandwidth=10.0, cluster_by="running"), []
    for path, running in ((SAMPLE_CSV, "age"), (renamed, "running")):
        schema = TableSchema(
            outcome="delayed_care", running=running, cutoff=65.0, treatment="coverage",
            covariates=("race", "educ"),
        )
        datasets.append(load_table(path, schema))
    by_age, by_running = datasets
    assert (by_age.running_column, by_running.running_column) == ("age", "running")
    want, fit = (estimate(ds, ModelSpec(), cfg) for ds in datasets)
    assert np.array_equal(fit.beta, want.beta) and np.array_equal(fit.cov, want.cov)
    # a column "running" beside the running column is read by its name, not by its values:
    # the running variable in other units, which splits the rows alike, reads two ways too
    months = replace(by_age, aux={**by_age.aux, "running": by_age.aux["age"] * 12})
    with pytest.raises(InputError, match="reads two ways.* name its column, 'age',"):
        estimate(months, ModelSpec(), cfg)


def test_cluster_by_running_reads_the_running_column_by_name():
    # a dataset built without load_table records no running column
    ds = random_dataset(np.random.default_rng(31), n=60, d=1, m=1)
    assert ds.running_column is None
    cfg = EstimationConfig(bandwidth=1.0, cluster_by="running")
    dm = build_design(ds, ModelSpec(), cfg)
    assert np.array_equal(dm.cluster, ds.z[kernel_window(ds, cfg).rows])
    with pytest.raises(InputError, match="reads two ways.*; to cluster by the running variable, "
                                         "name its column, and"):
        build_design(replace(ds, aux={"running": ds.z}), ModelSpec(), cfg)
    named = replace(ds, aux={"running": ds.z}, running_column="running")
    assert np.array_equal(build_design(named, ModelSpec(), cfg).cluster, dm.cluster)


@pytest.mark.parametrize("r_column, says", [
    ("region", "^extra_controls and r_column both name column 'region'$"),
    ("r65", "^conditioning column 'r65' has 65 levels \\(> 64\\); coarsen it before encoding$"),
    ("educ", "^covariates and r_column both name column 'educ'$"),
])
def test_a_conditioning_column_is_coded_as_cells_and_named_once(r_column, says):
    # the first fit was collinear without a name, the second coded 65 strata unchecked, and
    # the third failed late as rank deficient: the loaded dataset records its covariates' names
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"), extra_controls=("region",),
    )
    ds = load_table(SAMPLE_CSV, schema)
    ds = replace(ds, aux={**ds.aux, "r65": np.array([f"v{i % 65}" for i in range(ds.n)])})
    spec = ModelSpec(kind="conditional", r_column=r_column)
    with pytest.raises(InputError, match=says):
        build_design(ds, spec, EstimationConfig(bandwidth=10.0))


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
        cluster=ds.cluster,
        extra_control_names=ds.extra_control_names,
        aux=ds.aux,
    )


def in_x_units(ds, cfg, x_units):
    """A patch under which ``estimate`` fits the design of ``ds`` with its treatment columns
    scaled by ``x_units``: a Dataset holds 0/1 indicators only, so x takes other units in a
    design alone.  The design is built here, so the fit factors its rows once as before."""
    dm = build_design(ds, ModelSpec(), cfg)
    scale = np.ones(dm.dense.shape[1])
    e = len(ds.extra_control_names)  # the dense block is [extra controls | X | y]
    scale[e : e + ds.d] = x_units
    scaled = replace(dm, dense=dm.dense * scale)
    return mock.patch("multirdd.estimator.build_design", lambda *args: scaled)


def assert_rel_close(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert np.abs(got - want).max() <= 1e-8 * max(np.abs(want).max(), 1e-300), (got, want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    clustered=st.booleans(),
    y_exp=st.floats(min_value=-12.0, max_value=12.0),
    negate=st.booleans(),
    b=st.floats(min_value=-10.0, max_value=10.0),
    z_exp=st.floats(min_value=-6.0, max_value=6.0),
    extra_exp=st.floats(min_value=-8.0, max_value=8.0),
    x_exp=st.floats(min_value=-8.0, max_value=8.0),
)
@example(
    seed=5, clustered=True, y_exp=8.0, negate=False, b=0.0, z_exp=0.0, extra_exp=8.0, x_exp=8.0
)
@example(
    seed=5, clustered=True, y_exp=-8.0, negate=False, b=0.0, z_exp=0.0, extra_exp=-8.0, x_exp=-8.0
)
def test_fit_invariant_to_row_order_cell_labels_and_outcome_units(
    seed, clustered, y_exp, negate, b, z_exp, extra_exp, x_exp
):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    ds = random_dataset(rng, n=int(rng.integers(80, 121)), d=d, m=int(rng.integers(d, 3)), noise=0.4)
    ds = replace(
        ds,
        extra_control_names=("ctl",),
        aux={"ctl": rng.normal(size=ds.n)},
        cluster=rng.integers(0, ds.n // 2, size=ds.n) if clustered else None,
    )
    try:
        base = estimate(ds, ModelSpec(), CFG)
    except EstimationError:
        assume(False)
    # y in other units, shifted in those units; z and h in other units; the
    # control and the first treatment column too
    a = (-1.0 if negate else 1.0) * 10.0**y_exp
    extra = {"ctl": ds.aux["ctl"] * 10.0**extra_exp}
    x_units = np.ones(d)
    x_units[0] = 10.0**x_exp
    units = replace(ds, y=a * (ds.y + b), z=ds.z * 10.0**z_exp, aux=extra)
    units_cfg = EstimationConfig(bandwidth=CFG.bandwidth * 10.0**z_exp)
    variants = (
        (subset_dataset(ds, rng.permutation(ds.n)), CFG, 1.0, 1.0, nullcontext()),
        (relabel_cells(ds, rng.permutation(ds.q)), CFG, 1.0, 1.0, nullcontext()),
        (units, units_cfg, a, x_units, in_x_units(units, units_cfg, x_units)),
    )
    for other, cfg, scale, per_x, x_in_units in variants:
        with x_in_units, recorded("cholesky", "qr") as calls:
            fit = estimate(other, ModelSpec(), cfg)
        # one Cholesky of A'A and one of the moment sums' S'S in every unit,
        # and no qr of the rows
        k = len(fit.eta) + ds.q
        path = [
            (name, shapes) for name, shapes in calls
            if name == "cholesky" or any(shape[0] == fit.n_effective for shape in shapes)
        ]
        assert path == [("cholesky", [(k + d + 1,) * 2]), ("cholesky", [(k, k)])], calls
        assert_rel_close(fit.beta * per_x, scale * base.beta)
        assert_rel_close(fit.se * per_x, abs(scale) * base.se)
        assert_rel_close(fit.j_pvalue, base.j_pvalue)
        assert_rel_close(fit.first_stage.f_stats, base.first_stage.f_stats)


LAPACK_ENTRY_POINTS = (
    "cholesky", "cond", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "tensorinv", "tensorsolve",
)


# the benchmark's three sample designs: W and the model, with extra control region
SAMPLE_DESIGNS = (
    (("race", "educ"), ModelSpec()),
    (("race",), ModelSpec(kind="conditional", r_column="educ")),
    (("race", "educ"), ModelSpec(kind="parametric", wtilde_columns=("region",))),
)


def linalg_calls_of_sample_fits():
    """Per sample design: its kind, design and fit and the numpy.linalg calls of its estimate."""
    cfg = EstimationConfig(bandwidth=10.0, cluster_by="age")
    for covariates, spec in SAMPLE_DESIGNS:
        schema = TableSchema(
            outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
            covariates=covariates, extra_controls=("region",),
        )
        ds = load_table(SAMPLE_CSV, schema)
        dm = build_design(ds, spec, cfg)
        with recorded(*LAPACK_ENTRY_POINTS) as calls:
            fit = estimate(ds, spec, cfg)
        n_eff = int((weights_vector(cfg.kernel, cfg.bandwidth, ds.z) > 0).sum())
        assert fit.n_effective == dm.n == n_eff
        yield spec.kind, dm, fit, calls


def test_estimate_factors_the_weighted_rows_once():
    for kind, dm, fit, calls in linalg_calls_of_sample_fits():
        # the rows are read once, into A'A; no numpy.linalg call sees them
        tall = [(name, shape) for name, shapes in calls for shape in shapes if shape[0] == dm.n]
        assert tall == [], (kind, tall)
        # R alone of [controls | instruments | endogenous | y]: k + d + 1
        # columns, and R_S of the k columns of moment sums
        k = len(fit.eta) + dm.n_instruments
        cholesky = [shapes for name, shapes in calls if name == "cholesky"]
        assert cholesky == [[(k + len(fit.beta) + 1,) * 2], [(k, k)]], (kind, calls)


def test_estimate_solves_from_two_qr_calls_and_no_lstsq():
    # one Cholesky of the scaled A'A, then one QR of K = [R_EX | R_EC], which
    # both the solve and the sandwich read, then one Cholesky of the moment
    # sums' S'S, which the sandwich and J read
    for kind, dm, fit, calls in linalg_calls_of_sample_fits():
        d, p, k = len(fit.beta), len(fit.eta), dm.n_exogenous
        factors = [(name, shapes) for name, shapes in calls if name in ("cholesky", "qr")]
        want = [("cholesky", [(k + d + 1,) * 2]), ("qr", [(k, d + p)]), ("cholesky", [(k, k)])]
        assert factors == want, (kind, calls)
        assert "lstsq" not in [name for name, _ in calls]


def fit_peak(ds, spec, cfg):
    """The tracemalloc peak of ``build_design`` then ``estimate`` on one window, and the design."""
    import tracemalloc

    win = kernel_window(ds, cfg)  # the kernel weighs the whole table, outside the measurement
    estimate(ds, spec, cfg, win)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        dm = build_design(ds, spec, cfg, win)
        estimate(ds, spec, cfg, win)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, dm


@pytest.mark.parametrize("covariates, spec", SAMPLE_DESIGNS)
def test_a_fit_holds_no_array_of_rows_by_design_columns(covariates, spec):
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=covariates, extra_controls=("region",),
    )
    ds = load_table(SAMPLE_CSV, schema)
    peak, dm = fit_peak(ds, spec, EstimationConfig(bandwidth=10.0))
    # two designs' dense blocks and row-sized vectors: 2.2-2.5 of the bound's
    # unit; with the n x k design written, as before, the peak read 6.6-7.5
    rows = dm.n * (dm.dense.shape[1] + 8) * 8
    assert peak < 3.0 * rows, peak / rows


def test_a_fit_does_not_grow_with_the_number_of_cells():
    # equal cell shares at one n: q = 48 has 8 times q = 6's 24 exogenous columns
    peaks = []
    for q in (6, 48):
        ds = random_dataset(np.random.default_rng(71), n=200_000, d=2, m=q - 1)
        peak, dm = fit_peak(ds, ModelSpec(), EstimationConfig(bandwidth=0.5))
        assert dm.n_exogenous == 4 * q and dm.n > 90_000
        peaks.append(peak)
    assert peaks[1] < 1.25 * peaks[0], peaks


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
    extra = rng.normal(size=ds.n)

    def with_columns(y, x, extra, cluster):
        return Dataset(
            y=y, z=ds.z, x=x, cells=ds.cells, cell_labels=ds.cell_labels,
            cluster=cluster, extra_control_names=("ctl",), aux={"ctl": extra},
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
    extra[out] = rng.normal(0, 100, size=n_out)
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
        aux={"grp": r_col},
    )
    spec = ModelSpec(kind="conditional", r_column="grp")
    with pytest.raises(SingularDesignError, match="rank deficient") as err:
        build_design(ds, spec, EstimationConfig(bandwidth=0.8))
    # the stratum whose own block fails is named, and only that one
    assert "stratum grp=far" in str(err.value) and "grp=near" not in str(err.value)
    dm = build_design(ds, spec, EstimationConfig(bandwidth=1.0))  # both strata inside
    assert dm.n == ds.n



def test_blocked_r_matches_a_dense_qr():
    rng = np.random.default_rng(31)
    big = random_dataset(rng, n=400, d=1, m=1, noise=0.4)
    # stratum c has 10 rows, fewer than its block's 11 columns (6 controls,
    # 2 instruments, 1 endogenous, the shared control and y), but two or three
    # z per cell and side, and x off their lines: the design has full rank
    cells = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    z = np.array([-0.6, -0.3, -0.1, 0.2, 0.5, -0.7, -0.4, -0.2, 0.3, 0.6])
    x = np.array([0, 1, 0, 1, 1, 1, 0, 0, 1, 0], dtype=float)[:, None]
    n = big.n + len(z)
    ds = Dataset(
        y=np.concatenate([big.y, rng.normal(size=len(z))]),
        z=np.concatenate([big.z, z]),
        x=np.concatenate([big.x, x]),
        cells=np.concatenate([big.cells, cells]),
        cell_labels=big.cell_labels,
        extra_control_names=("ctl",),
        aux={"ctl": rng.normal(size=n), "grp": np.array(["b", "a"] * (big.n // 2) + ["c"] * 10)},
    )
    spec = ModelSpec(kind="conditional", r_column="grp")
    dm, ref = build_design(ds, spec, CFG), explicit_design(ds, spec, CFG)
    # stratum c has 10 rows; its 8 exogenous columns with the shared control,
    # x and y make 11
    assert np.count_nonzero(ref.dense[:, ref.control_labels.index("grp=c|const")]) == 10
    dense = np.linalg.qr(ref.dense * np.sqrt(ref.weights)[:, None], mode="r")
    assert dm.r.shape == dense.shape
    # R is unique up to the signs of its rows
    assert np.abs(np.abs(dm.r) - np.abs(dense)).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("seed", range(4))
def test_row_order_leaves_conditional_and_homogeneous_fits_unchanged(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=600, d=1, m=2, noise=0.4)
    ds = replace(
        ds,
        cluster=rng.integers(0, 300, size=ds.n),
        extra_control_names=("ctl",),
        aux={"ctl": rng.normal(size=ds.n), "grp": rng.choice(["u", "v", "w"], size=ds.n)},
    )
    shuffled = subset_dataset(ds, rng.permutation(ds.n))
    for spec in (ModelSpec(), ModelSpec(kind="conditional", r_column="grp")):
        base, fit = estimate(ds, spec, CFG), estimate(shuffled, spec, CFG)
        assert fit.j_dof > 0
        for got, want in ((fit.beta, base.beta), (fit.se, base.se), (fit.j_stat, base.j_stat)):
            got, want = np.atleast_1d(got), np.atleast_1d(want)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (spec.kind, got, want)


def test_conditional_cluster_sums_match_loop_oracles():
    # clusters cross the strata, and the shared control is summed over every stratum's rows
    rng = np.random.default_rng(33)
    ds = random_dataset(rng, n=400, d=1, m=1, noise=0.4)
    ds = replace(
        ds,
        cluster=rng.integers(0, 60, size=ds.n),
        extra_control_names=("ctl",),
        aux={"ctl": rng.normal(size=ds.n), "grp": rng.choice(["u", "v"], size=ds.n)},
    )
    spec = ModelSpec(kind="conditional", r_column="grp")
    dm, ref = build_design(ds, spec, CFG), explicit_design(ds, spec, CFG)
    fit = weighted_2sls(dm)
    _, xhat, resid, zmat = tsls_oracle(*design_blocks(ref), ref.weights)
    want = cluster_sandwich_oracle(xhat, resid, ref.cluster)
    cov = cluster_covariance(fit, dm)
    assert np.abs(cov - want).max() / np.abs(want).max() < 1e-8
    j_stat, dof, _ = j_test(fit, dm)
    want_stat, _ = j_oracle(zmat, resid, ref.cluster, dof)
    assert dof == 2 and j_stat == pytest.approx(want_stat, rel=1e-8, abs=1e-10)


# the sample's three model kinds, each fitted with and without the extra control
ORACLE_MODELS = {
    "homogeneous": (("race", "educ"), ModelSpec()),
    "conditional": (("race",), ModelSpec(kind="conditional", r_column="educ")),
    "parametric": (("race", "educ"), ModelSpec(kind="parametric", wtilde_columns=("region",))),
}


def rel_close(got, want, tol=1e-10):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return np.all(np.abs(got - want) <= tol * np.abs(want))


@pytest.mark.parametrize("controls", [(), ("region",)])
@pytest.mark.parametrize("cluster", [None, "age", "running"])
@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_estimate_matches_the_written_design(model, cluster, controls):
    covariates, spec = ORACLE_MODELS[model]
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=covariates, extra_controls=controls,
    )
    ds = load_table(SAMPLE_CSV, schema)
    cfg = EstimationConfig(bandwidth=10.0, cluster_by=cluster)
    fit = estimate(ds, spec, cfg)
    ref = explicit_design(ds, spec, cfg)  # the n x k design, written out, on the same stages
    want = weighted_2sls(ref)
    cov = cluster_covariance(want, ref)
    j_stat, j_dof, _ = j_test(want, ref)
    f_stats = first_stage_diagnostics(ref).f_stats
    assert (fit.beta_labels, fit.eta_labels) == (ref.endogenous_labels, ref.control_labels)
    assert fit.j_dof == j_dof and fit.n_effective == ref.n
    se = np.sqrt(np.diag(cov)[: len(want.beta)])
    for got, expected in (
        (fit.beta, want.beta), (fit.eta, want.eta), (fit.se, se), (fit.first_stage.f_stats, f_stats)
    ):
        assert rel_close(got, expected), (got, expected)
    assert abs(fit.j_stat - j_stat) <= 1e-10 * abs(j_stat), (fit.j_stat, j_stat)
    assert np.abs(fit.cov - cov).max() <= 1e-10 * np.abs(cov).max()


def one_row_right_of_the_cutoff():
    """Cells a, b and c on [-1, 1], 40 rows a side, but c has one row right of the cutoff."""
    rng = np.random.default_rng(61)
    z = np.concatenate([rng.uniform(-1, 0, 120), rng.uniform(0.01, 1, 80), [0.5]])
    cells = np.concatenate([np.repeat([0, 1, 2], 40), np.repeat([0, 1], 40), [2]])
    x = (rng.uniform(size=len(z)) < 0.3 + 0.4 * (z >= 0)).astype(float)
    y = x + 0.5 * z + rng.normal(0, 0.3, size=len(z))
    return Dataset(y=y, z=z, x=x[:, None], cells=cells, cell_labels=("a", "b", "c"))


def test_a_one_row_side_is_named_before_the_fit():
    ds = one_row_right_of_the_cutoff()
    (dropped,) = cell_table(ds, CFG).dropped
    assert dropped.label == "c" and "found 1" in dropped.reason
    with pytest.raises(SingularDesignError) as err:
        estimate(ds, ModelSpec(), CFG)
    # the same words as cell_table's: the cell, its side, and what it lacks
    assert dropped.reason == (
        "cell 'c' unusable on the right side of the cutoff: needs at least 2 distinct "
        "running-variable values with positive weight, found 1"
    )
    assert str(err.value).endswith(f"(rcond 0.000e+00 < 1.0e-10); {dropped.reason}"), err.value
    assert "collinear" not in str(err.value)


def test_a_one_row_side_of_a_stratum_names_the_stratum():
    ds = one_row_right_of_the_cutoff()
    # stratum u repeats every row and adds two of c's right of the cutoff
    both = np.concatenate([np.arange(ds.n), np.arange(ds.n), [ds.n - 1] * 2])
    z = ds.z[both].copy()
    z[-2:] = (0.3, 0.7)
    grp = np.array(["v"] * ds.n + ["u"] * (len(both) - ds.n))
    ds = Dataset(
        y=ds.y[both], z=z, x=ds.x[both], cells=ds.cells[both], cell_labels=ds.cell_labels,
        aux={"grp": grp},
    )
    with pytest.raises(SingularDesignError) as err:
        estimate(ds, ModelSpec(kind="conditional", r_column="grp"), CFG)
    assert str(err.value).endswith(
        "(rcond 0.000e+00 < 1.0e-10); rank deficient on its own: stratum grp=v; cell 'c' "
        "unusable on the right side of the cutoff: needs at least 2 distinct running-variable "
        "values with positive weight, found 1 (stratum grp=v)"
    ), err.value
    assert "grp=u" not in str(err.value)


@pytest.mark.parametrize("copies", [1, 50])
def test_first_stage_instrument_coefficients_are_the_cell_table_jumps(copies):
    # C holds every (cell, side)'s line but the jumps, so R_ZZ^-1 [R_ZX | R_Zy] from the fit's R
    # is the jumps: the d row is the reference cell's, and d plus the d:w:l row is cell l's
    schema = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"),
    )
    ds = load_table(SAMPLE_CSV, schema)
    # the sample, or its rows 50 times over in a seed-7 shuffle
    ds = subset_dataset(ds, np.random.default_rng(7).permutation(np.tile(np.arange(ds.n), copies)))
    cfg = EstimationConfig(bandwidth=10.0)
    dm, ct = build_design(ds, ModelSpec(), cfg), cell_table(ds, cfg)
    p, k = dm.n_controls, dm.n_exogenous
    coef = np.linalg.solve(dm.r[p:k, p:k], dm.r[p:k, k:])
    jumps = coef[0] + np.vstack([np.zeros_like(coef[0]), coef[1:]])
    assert dm.instrument_labels == ("d", *(f"d:w:{lab}" for lab in ct.labels[1:]))
    np.testing.assert_allclose(jumps, np.column_stack([ct.delta_x, ct.delta_y]), rtol=1e-12)
