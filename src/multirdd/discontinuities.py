"""Cell-wise discontinuity estimation and identification diagnostics.

Within each covariate cell the jump of a variable at the cutoff is the
difference of two one-sided local-linear intercepts.  Stacking the
treatment jumps across cells gives the relevance matrix
M = sum_l p_l * delta_x(w_l) delta_x(w_l)'; when M is numerically
positive definite, the separation weights omega(w_l) =
M^{-1} delta_x(w_l) delta_x(w_l)' average to the identity, and the
plug-in estimator M^{-1} sum_l p_l delta_x(w_l) delta_y(w_l) recovers
the weighted combination of conditional effects those weights define.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .data_model import Dataset, EstimationConfig
from .errors import CellUnusableError, EstimationError, RelevanceError
from .kernels import window

__all__ = [
    "CellEstimate",
    "DroppedCell",
    "CellTable",
    "TwlateWeights",
    "Jump",
    "cell_jump",
    "cell_table",
    "relevance",
    "plugin_estimator",
    "ratio_late",
    "wlate_feasibility",
    "RatioLate",
    "FeasibilityReport",
]

DEFAULT_JUMP_TOL = 1e-6


class Jump(NamedTuple):
    delta: float
    se_naive: float


def _side_fit(values: np.ndarray, z: np.ndarray, w: np.ndarray, label: str, side: str):
    """Weighted least squares of each column of ``values`` on (1, z); intercepts, HC variances."""
    if not z.size or z.min() == z.max():
        detail = (
            "needs at least 2 distinct running-variable values with positive weight, "
            f"found {min(z.size, 1)}"
        )
        raise CellUnusableError(label, side, detail)
    design = np.column_stack([np.ones(len(z)), z])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], values * sw[:, None], rcond=None)
    resid = values - design @ coef
    bread = np.linalg.inv(design.T @ (design * w[:, None]))
    # (bread @ meat @ bread)[0, 0] with meat = sum_i (w_i r_i)^2 D_i D_i'
    lever = w * (design @ bread[0])
    return coef[0], np.sum((lever[:, None] * resid) ** 2, axis=0)


def _jumps(values: np.ndarray, z: np.ndarray, w: np.ndarray, label: str):
    """Intercept gaps at the cutoff of each column of ``values``, and their naive SEs.

    Every weight must be positive.
    """
    right = z >= 0
    b_right, v_right = _side_fit(values[right], z[right], w[right], label, "right")
    b_left, v_left = _side_fit(values[~right], z[~right], w[~right], label, "left")
    return b_right - b_left, np.sqrt(v_right + v_left)


def cell_jump(
    values: np.ndarray,
    z: np.ndarray,
    weights: np.ndarray,
    mask: np.ndarray | None = None,
    label: str = "",
) -> Jump:
    """Discontinuity of ``values`` at the cutoff inside one cell.

    Fits kernel-weighted least squares of ``values`` on (1, z)
    separately for z >= 0 and z < 0 and returns the intercept gap.  The
    naive standard error sums the two side-wise heteroskedasticity-
    robust intercept variances; it is a screening diagnostic, inference
    belongs to the estimator module.
    """
    values = np.asarray(values, dtype=float)
    z = np.asarray(z, dtype=float)
    weights = np.asarray(weights, dtype=float)
    keep = weights > 0
    if mask is not None:
        keep &= np.asarray(mask, dtype=bool)
    delta, se = _jumps(values[keep, None], z[keep], weights[keep], label)
    return Jump(float(delta[0]), float(se[0]))


@dataclass(frozen=True)
class CellEstimate:
    """Per-cell first stages, reduced form, and kernel-weighted share."""

    index: int
    label: str
    delta_x: np.ndarray
    delta_y: float
    se_x: np.ndarray
    se_y: float
    p_hat: float
    n_left: int
    n_right: int
    weight_mass: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "delta_x": [float(v) for v in self.delta_x],
            "delta_y": float(self.delta_y),
            "se_x": [float(v) for v in self.se_x],
            "se_y": float(self.se_y),
            "p_hat": float(self.p_hat),
            "n_left": self.n_left,
            "n_right": self.n_right,
        }


@dataclass(frozen=True)
class DroppedCell:
    label: str
    reason: str
    weight_share: float


@dataclass(frozen=True)
class CellTable:
    """Usable cells with their jump estimates; dropped cells reported loudly."""

    cells: tuple[CellEstimate, ...]
    dropped: tuple[DroppedCell, ...]
    d: int

    @property
    def q_usable(self) -> int:
        return len(self.cells)

    @property
    def p_hat(self) -> np.ndarray:
        return np.asarray([c.p_hat for c in self.cells])

    @property
    def delta_x_matrix(self) -> np.ndarray:
        """q_usable x d matrix of treatment jumps."""
        return np.asarray([c.delta_x for c in self.cells]).reshape(self.q_usable, self.d)

    @property
    def delta_y_vector(self) -> np.ndarray:
        return np.asarray([c.delta_y for c in self.cells])

    @property
    def dropped_weight_share(self) -> float:
        return float(sum(c.weight_share for c in self.dropped))

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "cells": [c.to_dict() for c in self.cells],
            "dropped": [
                {"label": c.label, "reason": c.reason, "weight_share": c.weight_share}
                for c in self.dropped
            ],
            "dropped_weight_share": self.dropped_weight_share,
        }


def cell_table(ds: Dataset, cfg: EstimationConfig) -> CellTable:
    """Estimate y and treatment jumps within every covariate cell.

    Cell probabilities are kernel-weighted shares of total weight among
    usable cells; cells without two-sided support are dropped and
    reported together with the weight share they carried.
    """
    rows, w = window(cfg.kernel, cfg.bandwidth, ds.z)
    total_mass = float(w.sum())
    if total_mass <= 0:
        raise EstimationError(
            f"no observations carry positive kernel weight at bandwidth {cfg.bandwidth}"
        )

    # the window rows grouped by cell, in row order within each cell
    cells = ds.cells[rows]
    order = np.argsort(cells, kind="stable")
    bounds = np.searchsorted(cells[order], np.arange(ds.q + 1))
    rows, w = rows[order], w[order]
    z = ds.z[rows]
    values = np.column_stack([ds.y[rows], ds.x[rows]])  # y, then every indicator

    usable: list[CellEstimate] = []
    dropped: list[DroppedCell] = []
    for l, label in enumerate(ds.cell_labels):
        cell = slice(bounds[l], bounds[l + 1])
        zc, wc, vc = z[cell], w[cell], values[cell]
        mass = float(wc.sum())
        try:
            delta, se = _jumps(vc, zc, wc, label)
        except CellUnusableError as err:
            dropped.append(DroppedCell(label, str(err), mass / total_mass))
            continue
        n_right = int((zc >= 0).sum())
        usable.append(
            CellEstimate(
                index=l,
                label=label,
                delta_x=delta[1:],
                delta_y=float(delta[0]),
                se_x=se[1:],
                se_y=float(se[0]),
                p_hat=mass,  # normalized below
                n_left=len(zc) - n_right,
                n_right=n_right,
                weight_mass=mass,
            )
        )
    if not usable:
        raise EstimationError(
            "no usable cells: every cell lacks two-sided support within the bandwidth"
        )
    usable_mass = sum(c.weight_mass for c in usable)
    cells = tuple(replace(c, p_hat=c.weight_mass / usable_mass) for c in usable)
    return CellTable(cells=cells, dropped=tuple(dropped), d=ds.d)


@dataclass(frozen=True)
class TwlateWeights:
    """Relevance matrix, its conditioning, and the separation weights.

    ``m_inverse`` and ``omega`` are None when the relevance check failed;
    diagnostics stay reportable either way.  The inverse is kept for
    :func:`plugin_estimator` and is not serialized.
    """

    m_hat: np.ndarray
    m_inverse: np.ndarray | None
    omega: tuple[np.ndarray, ...] | None
    eigenvalues: np.ndarray  # ascending order
    rcond: float
    rank: int
    p_hat: np.ndarray
    cell_labels: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.m_inverse is not None

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def to_dict(self) -> dict:
        return {
            "m_hat": self.m_hat.tolist(),
            "omega": None if self.omega is None else [o.tolist() for o in self.omega],
            "eigenvalues": self.eigenvalues.tolist(),
            "min_eigenvalue": self.min_eigenvalue,
            "rcond": float(self.rcond),
            "rank": int(self.rank),
            "passed": self.passed,
            "p_hat": self.p_hat.tolist(),
            "cell_labels": list(self.cell_labels),
        }


def _symmetric_inverse(m: np.ndarray, rcond_threshold: float):
    """Eigendecomposition-based inverse with explicit conditioning report.

    Returns the inverse (None below the threshold), the eigenvalues in
    ascending order and their reciprocal condition number.
    """
    sym = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(sym)  # ascending order
    top = float(eigvals[-1])
    rcond = 0.0 if top <= 0 else max(float(eigvals[0]), 0.0) / top
    inv = (eigvecs / eigvals) @ eigvecs.T if rcond >= rcond_threshold else None
    return inv, eigvals, rcond


def relevance(ct: CellTable, rcond_threshold: float = 1e-10) -> TwlateWeights:
    """Assess first-stage linear independence across cells.

    Failure is a state, not an exception: the matrix, its eigenvalues,
    reciprocal condition number, and numerical rank are reported whether
    or not the weights could be formed.  All of them come from one
    eigendecomposition; the rank uses ``np.linalg.matrix_rank``'s
    tolerance, max|lambda| * d * eps.
    """
    deltas = ct.delta_x_matrix
    p = ct.p_hat
    m_hat = (deltas.T * p) @ deltas
    m_hat = 0.5 * (m_hat + m_hat.T)
    inv, eigvals, rcond = _symmetric_inverse(m_hat, rcond_threshold)
    size = np.abs(eigvals)
    rank = int(np.count_nonzero(size > size.max() * ct.d * np.finfo(float).eps))
    omega = None
    if inv is not None:
        omega = tuple(inv @ np.outer(deltas[l], deltas[l]) for l in range(ct.q_usable))
    return TwlateWeights(
        m_hat=m_hat,
        m_inverse=inv,
        omega=omega,
        eigenvalues=eigvals,
        rcond=rcond,
        rank=rank,
        p_hat=p,
        cell_labels=tuple(c.label for c in ct.cells),
    )


def plugin_estimator(ct: CellTable, tw: TwlateWeights) -> np.ndarray:
    """Plug-in effect vector combining cell jumps with separation weighting."""
    if not tw.passed:
        raise RelevanceError(
            f"relevance check failed (rcond {tw.rcond:.3e}); plug-in estimator unavailable"
        )
    return tw.m_inverse @ (ct.delta_x_matrix.T @ (ct.p_hat * ct.delta_y_vector))


@dataclass(frozen=True)
class RatioLate:
    identified: bool
    value: float | None
    blocking: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "identified": self.identified,
            "value": self.value,
            "blocking": dict(self.blocking),
        }


def ratio_late(ct: CellTable, cell: int, j: int, tol: float = DEFAULT_JUMP_TOL) -> RatioLate:
    """Within-cell ratio identification of the margin-``j`` effect.

    ``j`` is the 1-based treatment margin.  Identified exactly when the
    margin's own jump exceeds ``tol`` and every other margin's jump is
    within ``tol`` of zero; otherwise the violating magnitudes are
    reported.
    """
    if not 1 <= j <= ct.d:
        raise ValueError(f"treatment margin j must lie in [1, {ct.d}], got {j}")
    est = ct.cells[cell]
    own = abs(float(est.delta_x[j - 1]))
    blocking = {
        f"x{s + 1}": abs(float(est.delta_x[s]))
        for s in range(ct.d)
        if s != j - 1 and abs(float(est.delta_x[s])) > tol
    }
    if own <= tol:
        blocking[f"x{j}"] = own
        return RatioLate(False, None, blocking)
    if blocking:
        return RatioLate(False, None, blocking)
    return RatioLate(True, float(est.delta_y / est.delta_x[j - 1]), {})


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    trivial: bool
    violations: tuple[tuple[str, float, float], ...]  # (cell label, |weight|, max off-margin jump)

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "trivial": self.trivial,
            "violations": [list(v) for v in self.violations],
        }


def wlate_feasibility(
    ct: CellTable,
    user_weights: Sequence[float],
    j: int,
    tol: float = DEFAULT_JUMP_TOL,
) -> FeasibilityReport:
    """Check whether user-supplied single-margin weights are identified.

    Weights may load only on cells where every other margin's jump is
    (numerically) zero.  All-zero weights are vacuously feasible but
    flagged as trivial.
    """
    if not 1 <= j <= ct.d:
        raise ValueError(f"treatment margin j must lie in [1, {ct.d}], got {j}")
    user_weights = np.asarray(user_weights, dtype=float)
    if len(user_weights) != ct.q_usable:
        raise ValueError(
            f"need one weight per usable cell ({ct.q_usable}), got {len(user_weights)}"
        )
    violations = []
    for l, est in enumerate(ct.cells):
        if abs(user_weights[l]) <= tol:
            continue
        off = [abs(float(est.delta_x[s])) for s in range(ct.d) if s != j - 1]
        worst = max(off, default=0.0)
        if worst > tol:
            violations.append((est.label, abs(float(user_weights[l])), worst))
    trivial = bool((np.abs(user_weights) <= tol).all())
    return FeasibilityReport(
        feasible=not violations,
        trivial=trivial,
        violations=tuple(violations),
    )
