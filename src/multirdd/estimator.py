"""Weighted two-stage least squares around the cutoff.

The estimator regresses the outcome on the treatment indicators using
the cutoff indicator D and its interactions with the covariate dummies
as instruments, with controls C = (1, W', Z, D*Z, Z*W', D*Z*W') and
kernel weights.  Because C lets level and slope differ by cell and by
side, the fit is exactly a two-sided local-linear regression within
each covariate cell, packaged as a single 2SLS.

Model variants change only the endogenous block: the parametric variant
interacts the treatments with user-chosen transform columns, and the
conditional variant stacks per-stratum copies of the whole design so
the stacked fit coincides with running the estimator separately within
each stratum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, EstimationConfig, ModelSpec, _format_value, validate_dataset
from .errors import EstimationError, InputError, SingularDesignError, UnderIdentifiedError
from .kernels import weights_vector

__all__ = [
    "DesignMatrices",
    "FitResult",
    "FirstStageReport",
    "build_design",
    "weighted_2sls",
    "cluster_covariance",
    "j_test",
    "first_stage_diagnostics",
    "estimate",
]


@dataclass(frozen=True)
class DesignMatrices:
    """Endogenous block, excluded instruments, controls, and weights."""

    y: np.ndarray
    endogenous: np.ndarray
    instruments: np.ndarray
    controls: np.ndarray
    weights: np.ndarray
    endogenous_labels: tuple[str, ...]
    instrument_labels: tuple[str, ...]
    control_labels: tuple[str, ...]
    cluster: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def k_endogenous(self) -> int:
        return self.endogenous.shape[1]

    @property
    def n_instruments(self) -> int:
        return self.instruments.shape[1]


def _homogeneous_blocks(w_dummies, z, d_ind, labels, prefix=""):
    n = len(z)
    m = w_dummies.shape[1]
    instr = np.column_stack([d_ind] + [d_ind * w_dummies[:, k] for k in range(m)])
    instr_labels = [f"{prefix}d"] + [f"{prefix}d:w:{labels[k]}" for k in range(m)]
    controls = np.column_stack(
        [np.ones(n)]
        + [w_dummies[:, k] for k in range(m)]
        + [z, d_ind * z]
        + [z * w_dummies[:, k] for k in range(m)]
        + [d_ind * z * w_dummies[:, k] for k in range(m)]
    )
    control_labels = (
        [f"{prefix}const"]
        + [f"{prefix}w:{labels[k]}" for k in range(m)]
        + [f"{prefix}z", f"{prefix}d:z"]
        + [f"{prefix}z:w:{labels[k]}" for k in range(m)]
        + [f"{prefix}d:z:w:{labels[k]}" for k in range(m)]
    )
    return instr, instr_labels, controls, control_labels


def build_design(ds: Dataset, spec: ModelSpec, cfg: EstimationConfig) -> DesignMatrices:
    """Assemble the design for the configured model variant.

    Raises when the endogenous block outruns the instruments or when the
    weighted exogenous block is rank deficient (for instance because a
    covariate cell is empty inside the bandwidth).
    """
    w = weights_vector(cfg.kernel, cfg.bandwidth, ds.z)
    d_ind = (ds.z >= 0).astype(float)
    dummy_labels = ds.cell_labels[1:] if ds.q > 1 else ()
    m = ds.m

    cluster = None
    if cfg.cluster_by == "running":
        cluster = ds.z
    elif cfg.cluster_by is not None:
        if cfg.cluster_by in ds.aux:
            cluster = ds.aux[cfg.cluster_by]
        elif ds.cluster is not None:
            cluster = ds.cluster
        else:
            raise InputError(f"cluster column {cfg.cluster_by!r} not found in dataset")
    elif ds.cluster is not None:
        cluster = ds.cluster

    if spec.kind == "homogeneous":
        endo = ds.x
        endo_labels = [f"x{j + 1}" for j in range(ds.d)]
        instr, instr_labels, controls, control_labels = _homogeneous_blocks(
            ds.w_dummies, ds.z, d_ind, dummy_labels
        )
        if endo.shape[1] > instr.shape[1]:
            raise UnderIdentifiedError(
                f"under-identified: q=m+1={m + 1} < d={ds.d}"
            )
    elif spec.kind == "parametric":
        cols = []
        for name in spec.wtilde_columns:
            if name not in ds.aux:
                raise InputError(f"wtilde column {name!r} not found in dataset")
            col = ds.aux[name]
            if col.dtype == object:
                raise InputError(f"wtilde column {name!r} is not numeric")
            cols.append(np.asarray(col, dtype=float))
        c = len(cols)
        blocks = [ds.x] + [ds.x * wt[:, None] for wt in cols]
        endo = np.column_stack(blocks)
        endo_labels = [f"x{j + 1}" for j in range(ds.d)]
        for name in spec.wtilde_columns:
            endo_labels += [f"{name}:x{j + 1}" for j in range(ds.d)]
        instr, instr_labels, controls, control_labels = _homogeneous_blocks(
            ds.w_dummies, ds.z, d_ind, dummy_labels
        )
        if endo.shape[1] > instr.shape[1]:
            raise UnderIdentifiedError(
                f"under-identified: q=m+1={m + 1} < d(1+c)={ds.d * (1 + c)}; "
                f"the transform allows at most c <= (m+1)/d - 1 = {(m + 1) / ds.d - 1:g} columns"
            )
    elif spec.kind == "conditional":
        if spec.r_column not in ds.aux:
            raise InputError(f"conditioning column {spec.r_column!r} not found in dataset")
        r_raw = ds.aux[spec.r_column]
        r_keys = np.asarray([_format_value(v) for v in r_raw.tolist()], dtype=object)
        if any(k in ("", "None", "nan") for k in r_keys):
            raise InputError(
                f"conditioning column {spec.r_column!r} has missing values; "
                "its levels must partition the sample"
            )
        strata = sorted(set(r_keys.tolist()))
        endo_cols, endo_labels = [], []
        instr_cols, instr_labels = [], []
        ctrl_cols, control_labels = [], []
        for lev in strata:
            sel = (r_keys == lev).astype(float)
            tag = f"{spec.r_column}={lev}|"
            for j in range(ds.d):
                endo_cols.append(ds.x[:, j] * sel)
                endo_labels.append(f"x{j + 1}|{spec.r_column}={lev}")
            instr_s, il, ctrl_s, cl = _homogeneous_blocks(
                ds.w_dummies * sel[:, None], ds.z * sel, d_ind * sel, dummy_labels, prefix=tag
            )
            # the "constant" column of the stratum block must be the stratum
            # indicator itself, not a global intercept
            ctrl_s = ctrl_s.copy()
            ctrl_s[:, 0] = sel
            instr_cols.append(instr_s)
            instr_labels += il
            ctrl_cols.append(ctrl_s)
            control_labels += cl
        endo = np.column_stack(endo_cols)
        instr = np.column_stack(instr_cols)
        controls = np.column_stack(ctrl_cols)
        if ds.d > m + 1:
            raise UnderIdentifiedError(
                f"under-identified: q=m+1={m + 1} < d={ds.d} within each stratum"
            )
    else:  # pragma: no cover - ModelSpec validates
        raise InputError(f"unknown model kind {spec.kind!r}")

    if ds.extra_controls is not None:
        controls = np.column_stack([controls, ds.extra_controls])
        names = ds.extra_control_names or tuple(
            f"extra{k}" for k in range(ds.extra_controls.shape[1])
        )
        control_labels = list(control_labels) + list(names)

    mask = w > 0
    if mask.sum() == 0:
        raise EstimationError("no observations carry positive kernel weight")
    sw = np.sqrt(w[mask])
    exog = np.column_stack([instr, controls])[mask] * sw[:, None]
    rank = np.linalg.matrix_rank(exog)
    if rank < exog.shape[1]:
        empty = validate_dataset(ds, cfg).empty_side_warnings
        raise SingularDesignError(
            f"exogenous block is rank deficient after weighting "
            f"(rank {rank} < {exog.shape[1]} columns); "
            + ("; ".join(empty) if empty else "the weighted columns are collinear")
        )

    return DesignMatrices(
        y=ds.y,
        endogenous=endo,
        instruments=instr,
        controls=controls,
        weights=w,
        endogenous_labels=tuple(endo_labels),
        instrument_labels=tuple(instr_labels),
        control_labels=tuple(control_labels),
        cluster=cluster,
    )


@dataclass(frozen=True)
class FirstStageReport:
    labels: tuple[str, ...]
    f_stats: tuple[float, ...]
    flags: tuple[str, ...]
    joint_min_eigenvalue: float | None = None

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "f_stats": [v if math.isfinite(v) else str(v) for v in self.f_stats],
            "flags": list(self.flags),
            "joint_min_eigenvalue": self.joint_min_eigenvalue,
        }


@dataclass
class FitResult:
    """Coefficients plus, once the follow-up passes run, covariance and tests."""

    beta: np.ndarray
    eta: np.ndarray
    beta_labels: tuple[str, ...]
    eta_labels: tuple[str, ...]
    n_effective: int
    cov: np.ndarray | None = None
    j_stat: float | None = None
    j_dof: int | None = None
    j_pvalue: float | None = None
    just_identified: bool = False
    first_stage: FirstStageReport | None = None
    # fit internals used by the covariance and test passes
    xhat_: np.ndarray | None = field(default=None, repr=False)
    zfull_: np.ndarray | None = field(default=None, repr=False)
    residuals_: np.ndarray | None = field(default=None, repr=False)
    rows_: np.ndarray | None = field(default=None, repr=False)
    outcome_scale_: float = field(default=0.0, repr=False)

    @property
    def se(self) -> np.ndarray | None:
        if self.cov is None:
            return None
        return np.sqrt(np.clip(np.diag(self.cov)[: len(self.beta)], 0.0, None))

    def to_dict(self) -> dict:
        out = {
            "beta": {lab: float(b) for lab, b in zip(self.beta_labels, self.beta)},
            "eta": {lab: float(e) for lab, e in zip(self.eta_labels, self.eta)},
            "n_effective": self.n_effective,
        }
        if self.cov is not None:
            se = self.se
            table = []
            for k, lab in enumerate(self.beta_labels):
                est = float(self.beta[k])
                s = float(se[k])
                t = est / s if s > 0 else float("inf") if est != 0 else 0.0
                p = math.erfc(abs(t) / math.sqrt(2.0)) if math.isfinite(t) else 0.0
                table.append(
                    {
                        "name": lab,
                        "estimate": est,
                        "se": s,
                        "t": t if math.isfinite(t) else str(t),
                        "p": p,
                    }
                )
            out["coefficients"] = table
            out["se"] = {lab: float(s) for lab, s in zip(self.beta_labels, se)}
            out["cov"] = self.cov.tolist()
        if self.j_stat is not None:
            out["j_stat"] = float(self.j_stat)
            out["j_dof"] = int(self.j_dof)
            out["j_pvalue"] = float(self.j_pvalue)
            out["just_identified"] = self.just_identified
        if self.first_stage is not None:
            out["first_stage"] = self.first_stage.to_dict()
        return out


def _qr_solve(a: np.ndarray, b: np.ndarray, rcond_threshold: float, what: str):
    """Least squares through a QR decomposition with an explicit rcond gate."""
    qmat, rmat = np.linalg.qr(a)
    diag = np.abs(np.diag(rmat))
    rcond = 0.0 if diag.max(initial=0.0) == 0 else diag.min() / diag.max()
    if rcond < rcond_threshold:
        raise SingularDesignError(
            f"{what} is numerically singular (rcond {rcond:.3e} < {rcond_threshold:.1e})"
        )
    return np.linalg.solve(rmat, qmat.T @ b), qmat


def weighted_2sls(dm: DesignMatrices, rcond_threshold: float = 1e-10) -> FitResult:
    """Two-stage least squares with every row scaled by the root of its weight.

    The first stage projects the endogenous block on the full exogenous
    set; the second stage regresses the outcome on the fitted endogenous
    columns and the controls.  Residuals kept for the covariance and
    test passes are structural: actual endogenous columns, not fitted.
    """
    mask = dm.weights > 0
    n_eff = int(mask.sum())
    if n_eff == 0:
        raise EstimationError("no weight-positive rows; widen the bandwidth")
    k_endo = dm.k_endogenous
    if k_endo > dm.n_instruments:
        raise UnderIdentifiedError(
            f"under-identified: {dm.n_instruments} instruments < {k_endo} endogenous columns"
        )
    sw = np.sqrt(dm.weights[mask])
    zfull = np.column_stack([dm.instruments, dm.controls])[mask] * sw[:, None]
    endo = dm.endogenous[mask] * sw[:, None]
    ctrl = dm.controls[mask] * sw[:, None]
    ys = dm.y[mask] * sw

    first_coef, qz = _qr_solve(zfull, endo, rcond_threshold, "first-stage normal equations")
    xhat_endo = zfull @ first_coef
    x2 = np.column_stack([xhat_endo, ctrl])
    coef, _ = _qr_solve(x2, ys, rcond_threshold, "second-stage design")
    xfull = np.column_stack([endo, ctrl])
    resid = ys - xfull @ coef

    return FitResult(
        beta=coef[:k_endo],
        eta=coef[k_endo:],
        beta_labels=dm.endogenous_labels,
        eta_labels=dm.control_labels,
        n_effective=n_eff,
        xhat_=x2,
        zfull_=zfull,
        residuals_=resid,
        rows_=np.where(mask)[0],
        outcome_scale_=float(np.linalg.norm(ys)),
    )


def _resolve_cluster_ids(fit: FitResult, dm: DesignMatrices, cluster_ids) -> np.ndarray:
    if cluster_ids is None:
        cluster_ids = dm.cluster
    if cluster_ids is None:
        return np.arange(len(fit.rows_))
    cluster_ids = np.asarray(cluster_ids)
    if len(cluster_ids) != dm.n:
        raise InputError(
            f"cluster ids have length {len(cluster_ids)}, expected {dm.n}"
        )
    ids = cluster_ids[fit.rows_]
    if ids.dtype == object:
        bad = [i for i, v in enumerate(ids) if v is None or v == ""]
        if bad:
            raise InputError(f"cluster id missing for weight-positive row {bad[0]}")
    elif np.issubdtype(ids.dtype, np.floating) and np.isnan(ids.astype(float)).any():
        raise InputError("cluster ids contain NaN for weight-positive rows")
    return ids


def _group_sums(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    _, inverse = np.unique(ids, return_inverse=True)
    n_groups = inverse.max() + 1
    out = np.zeros((n_groups, values.shape[1]))
    np.add.at(out, inverse, values)
    return out


def cluster_covariance(fit: FitResult, dm: DesignMatrices, cluster_ids=None) -> np.ndarray:
    """Cluster-robust sandwich covariance with the CR1 small-sample factor.

    A is the cross-product of the instrumented regressors, B sums outer
    products of within-cluster score sums, and the result is scaled by
    G/(G-1) * (n-1)/(n-k).  With one observation per cluster this is the
    usual heteroskedasticity-robust sandwich up to that factor.
    """
    ids = _resolve_cluster_ids(fit, dm, cluster_ids)
    n_groups = len(np.unique(ids))
    if n_groups < 2:
        raise EstimationError(
            f"need at least 2 clusters among weight-positive rows, found {n_groups}"
        )
    scores = fit.xhat_ * fit.residuals_[:, None]
    summed = _group_sums(scores, ids)
    meat = summed.T @ summed
    bread = np.linalg.inv(fit.xhat_.T @ fit.xhat_)
    n = fit.n_effective
    k = fit.xhat_.shape[1]
    correction = (n_groups / (n_groups - 1)) * ((n - 1) / max(n - k, 1))
    cov = correction * bread @ meat @ bread
    return 0.5 * (cov + cov.T)


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi2(dof) > x) for a positive integer ``dof``.

    Closed form of the regularized upper incomplete gamma Q(dof/2, x/2):
    a Poisson tail for even dof, erfc plus a half-integer series for odd
    dof.  The series is summed in log space around its largest term, so
    it does not underflow while the tail itself is representable.
    """
    if x <= 0:
        return 1.0
    half = 0.5 * x
    log_half = math.log(half)
    if dof % 2 == 0:
        head = 0.0
        logs = [i * log_half - math.lgamma(i + 1) for i in range(dof // 2)]
    else:
        head = math.erfc(math.sqrt(half))
        logs = [(i - 0.5) * log_half - math.lgamma(i + 0.5) for i in range(1, dof // 2 + 1)]
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top - half) * math.fsum(math.exp(v - top) for v in logs)


def j_test(
    fit: FitResult,
    dm: DesignMatrices,
    cluster_ids=None,
    rcond_threshold: float = 1e-10,
) -> tuple[float, int, float]:
    """Over-identification test from the weighted 2SLS residuals.

    The moment vector stacks weighted residual cross-products with the
    full exogenous row; its robust covariance (cluster-aggregated when
    clustering is active) weights the quadratic form.  Degrees of
    freedom are instruments minus endogenous columns; a just-identified
    fit reports J = 0 with p-value 1 by convention.
    """
    dof = dm.n_instruments - len(fit.beta)
    if dof < 0:  # pragma: no cover - build_design refuses this earlier
        raise UnderIdentifiedError(f"negative over-identification degrees of freedom {dof}")
    if dof == 0:
        return 0.0, 0, 1.0

    # an exact fit satisfies every moment condition; the quadratic form is a
    # 0/0 limit there, and its value is zero, not roundoff noise
    resid_scale = float(np.linalg.norm(fit.residuals_))
    if resid_scale <= 1e-10 * max(fit.outcome_scale_, 1.0):
        return 0.0, dof, 1.0

    moments = fit.zfull_ * fit.residuals_[:, None]
    gvec = moments.sum(axis=0)
    ids = _resolve_cluster_ids(fit, dm, cluster_ids)
    if len(np.unique(ids)) < len(ids):
        summed = _group_sums(moments, ids)
        what = summed.T @ summed
    else:
        what = moments.T @ moments

    eigvals = np.linalg.eigvalsh(0.5 * (what + what.T))  # ascending order
    top = float(eigvals[-1])
    rcond = 0.0 if top <= 0 else max(float(eigvals[0]), 0.0) / top
    if rcond < rcond_threshold:
        raise SingularDesignError(
            f"moment weighting matrix is singular (rcond {rcond:.3e}); "
            "possibly fewer clusters than moment conditions"
        )
    j_stat = float(gvec @ np.linalg.solve(what, gvec))
    j_stat = max(j_stat, 0.0)
    return j_stat, dof, chi2_sf(j_stat, dof)


def first_stage_diagnostics(
    dm: DesignMatrices,
    joint_min_eigenvalue: float | None = None,
    rcond_threshold: float = 1e-10,
) -> FirstStageReport:
    """Partial F statistic of the excluded instruments for each endogenous column."""
    mask = dm.weights > 0
    sw = np.sqrt(dm.weights[mask])
    zfull = np.column_stack([dm.instruments, dm.controls])[mask] * sw[:, None]
    ctrl = dm.controls[mask] * sw[:, None]
    endo = dm.endogenous[mask] * sw[:, None]
    n_eff = int(mask.sum())
    q_excl = dm.n_instruments
    df_denom = max(n_eff - zfull.shape[1], 1)

    f_stats, flags = [], []
    for j in range(dm.k_endogenous):
        col = endo[:, j]
        raw = dm.endogenous[mask][:, j]
        if np.ptp(raw) == 0:
            f_stats.append(0.0)
            flags.append("constant")
            continue
        coef_u, *_ = np.linalg.lstsq(zfull, col, rcond=None)
        rss_u = float(np.sum((col - zfull @ coef_u) ** 2))
        coef_r, *_ = np.linalg.lstsq(ctrl, col, rcond=None)
        rss_r = float(np.sum((col - ctrl @ coef_r) ** 2))
        if rss_u <= 0:
            f_stats.append(float("inf"))
            flags.append("exact fit")
            continue
        f = ((rss_r - rss_u) / q_excl) / (rss_u / df_denom)
        f = max(f, 0.0)
        f_stats.append(f)
        flags.append("exact fit" if f > 1e6 else "")
    return FirstStageReport(
        labels=dm.endogenous_labels,
        f_stats=tuple(f_stats),
        flags=tuple(flags),
        joint_min_eigenvalue=joint_min_eigenvalue,
    )


def estimate(
    ds: Dataset,
    spec: ModelSpec,
    cfg: EstimationConfig,
    joint_min_eigenvalue: float | None = None,
) -> FitResult:
    """Full pass: design, 2SLS, cluster covariance, J test, first stages."""
    dm = build_design(ds, spec, cfg)
    fit = weighted_2sls(dm, rcond_threshold=cfg.rcond_threshold)
    fit.cov = cluster_covariance(fit, dm)
    j_stat, j_dof, j_pvalue = j_test(fit, dm, rcond_threshold=cfg.rcond_threshold)
    fit.j_stat, fit.j_dof, fit.j_pvalue = j_stat, j_dof, j_pvalue
    fit.just_identified = j_dof == 0
    fit.first_stage = first_stage_diagnostics(dm, joint_min_eigenvalue)
    return fit
