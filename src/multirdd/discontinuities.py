"""Cell-wise discontinuity estimation and identification diagnostics.

Within each covariate cell the jump of a variable at the cutoff is the
difference of two one-sided local-linear intercepts, which :func:`cell_table`
fits for every (cell, side) at once from weighted group sums.  Stacking
the treatment jumps across cells gives the relevance matrix
M = sum_l p_l * delta_x(w_l) delta_x(w_l)'; when M is numerically
positive definite, the separation weights omega(w_l) =
M^{-1} delta_x(w_l) delta_x(w_l)' average to the identity, and the
plug-in estimator M^{-1} sum_l p_l delta_x(w_l) delta_y(w_l) recovers
the weighted combination of conditional effects those weights define.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .data_model import DEFAULT_RCOND_THRESHOLD, Dataset, EstimationConfig, GroupBasis
from .data_model import KernelWindow, _lock_fields, _window_of, conditioning, unusable_groups
from .errors import EstimationError, RelevanceError

__all__ = [
    "DroppedCell",
    "CellTable",
    "TwlateWeights",
    "cell_table",
    "relevance",
    "plugin_estimator",
    "ratio_late",
    "wlate_feasibility",
    "RatioLate",
    "FeasibilityReport",
]

DEFAULT_JUMP_TOL = 1e-6
CELL_KEYS = ("label", "delta_x", "delta_y", "se_x", "se_y", "p_hat", "n_left", "n_right")


def _group_fits(columns, w: np.ndarray, basis: GroupBasis):
    """Weighted least squares of each of ``columns`` on (1, z) within every group of ``basis``.

    Returns the intercepts at z = 0 and their HC0 variances, n_groups x
    (number of columns) each.  Centred at the group's weighted mean z-bar,
    a column's :meth:`GroupBasis.line` gives the intercept mean - slope *
    z-bar: the linear form of v with weights lever = w (1/S0 - z-bar
    (z - z-bar) / Szz), taken once for all columns, whose sandwich variance
    is sum (lever * resid)^2.  A group's fit means nothing unless it has
    two distinct z (:attr:`GroupBasis.extent`).
    """
    s0, zbar, _, szz, wzc = moments = basis.moments(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        lever = w / s0[basis.groups] - zbar[basis.groups] * wzc / szz[basis.groups]
    fits = []
    for v in columns:
        mean, slope, resid = basis.line(v, w, moments)
        fits.append((mean - slope * zbar, basis.total((lever * resid) ** 2)))
    return np.stack(fits, axis=-1)  # the intercepts, then their variances


@dataclass(frozen=True)
class DroppedCell:
    label: str
    reason: str
    weight_share: float
    n_left: int
    n_right: int


@dataclass(frozen=True)
class CellTable:
    """Usable cells' jumps, naive SEs, shares and side counts, by row; arrays write-locked.

    ``delta_x`` and ``se_x`` are q_usable x d, the rest one entry per cell.
    Every other cell of the dataset is in ``dropped``, with its own side
    counts, so the table holds the window rows per side of every cell.
    """

    labels: tuple[str, ...]
    delta_x: np.ndarray
    delta_y: np.ndarray
    se_x: np.ndarray
    se_y: np.ndarray
    p_hat: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray
    dropped: tuple[DroppedCell, ...]

    def __post_init__(self):
        _lock_fields(self, *CELL_KEYS[1:])
        for name in CELL_KEYS[1:]:
            rows = len(getattr(self, name))
            if rows != len(self.labels):
                raise ValueError(f"CellTable.{name} has {rows} rows for {len(self.labels)} labels")
        if self.delta_x.ndim != 2 or self.se_x.shape != self.delta_x.shape:
            shapes = f"{self.delta_x.shape} and {self.se_x.shape}"
            raise ValueError(f"CellTable.delta_x and se_x must be q x d, got {shapes}")

    @property
    def q_usable(self) -> int:
        return len(self.labels)

    @property
    def d(self) -> int:
        return self.delta_x.shape[1]

    @property
    def dropped_weight_share(self) -> float:
        return float(sum(c.weight_share for c in self.dropped))

    def to_dict(self) -> dict:
        rows = zip(self.labels, *(getattr(self, k).tolist() for k in CELL_KEYS[1:]))
        return {
            "d": self.d,
            "cells": [dict(zip(CELL_KEYS, row)) for row in rows],
            "dropped": [asdict(c) for c in self.dropped],
            "dropped_weight_share": self.dropped_weight_share,
        }


def cell_table(ds: Dataset, cfg: EstimationConfig, window: KernelWindow | None = None) -> CellTable:
    """Estimate y and treatment jumps within every covariate cell.

    Each side of each cell is a weighted least squares fit on (1, z), all
    from the group sums of the rows of ``window`` (:func:`_group_fits`),
    the :class:`KernelWindow` of ``ds`` under ``cfg`` (built here when
    None); its :class:`GroupBasis` also gives each side's rows and whether
    it has two distinct z.  A naive SE sums the two sides'
    heteroskedasticity-robust intercept variances: a screening diagnostic,
    as inference belongs to the estimator module.  Cell probabilities are
    kernel-weighted shares of total weight among usable cells; cells
    without two distinct z on each side are dropped and reported with the
    weight share they carried and their window rows per side.
    """
    win = _window_of(ds, cfg, window)
    rows, w, basis = win.rows, win.weights, win.basis
    total_mass = float(w.sum())
    if total_mass <= 0:
        raise EstimationError(
            f"no observations carry positive kernel weight at bandwidth {cfg.bandwidth}"
        )
    counts, spread = (a.reshape(ds.q, 2) for a in basis.extent)
    mass = basis.total(w).reshape(ds.q, 2).sum(axis=1)
    usable, reasons = spread.all(axis=1), unusable_groups(basis, ds.cell_labels)
    dropped = []
    for l in np.flatnonzero(~usable):
        reason = reasons.get(2 * l + 1) or reasons[2 * l]  # the right side is checked first
        share = float(mass[l] / total_mass)
        dropped.append(DroppedCell(ds.cell_labels[l], reason, share, *counts[l].tolist()))
    if not usable.any():
        raise EstimationError(
            "no usable cells: every cell lacks two-sided support within the bandwidth"
        )

    columns = (col[rows] for col in (ds.y, *ds.x.T))  # y, then every indicator, one at a time
    fits, variances = _group_fits(columns, w, basis)
    fits = fits.reshape(ds.q, 2, -1)[usable]
    jumps = fits[:, 1] - fits[:, 0]
    se = np.sqrt(variances.reshape(ds.q, 2, -1)[usable].sum(axis=1))
    return CellTable(
        labels=tuple(ds.cell_labels[l] for l in np.flatnonzero(usable)),
        delta_x=jumps[:, 1:], delta_y=jumps[:, 0], se_x=se[:, 1:], se_y=se[:, 0],
        p_hat=mass[usable] / mass[usable].sum(),
        n_left=counts[usable, 0], n_right=counts[usable, 1], dropped=tuple(dropped),
    )


@dataclass(frozen=True)
class TwlateWeights:
    """Relevance matrix, its conditioning, and the separation weights.

    ``m_inverse`` and ``omega`` are None when the relevance check failed;
    diagnostics stay reportable either way.  The inverse is kept for
    :func:`plugin_estimator` and is not serialized.  Every array, each
    ``omega`` entry too, is write-locked.  ``omega[l]`` is row l of the
    :class:`CellTable` they came from, which holds the labels and shares.
    """

    m_hat: np.ndarray
    m_inverse: np.ndarray | None
    omega: tuple[np.ndarray, ...] | None
    eigenvalues: np.ndarray  # ascending order
    rcond: float
    rank: int

    def __post_init__(self):
        _lock_fields(self, "m_hat", "m_inverse", "omega", "eigenvalues")

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
        }


def _separation(deltas: np.ndarray, p: np.ndarray) -> tuple:
    """The relevance matrix of cell jumps ``deltas`` at cell shares ``p``, and its weights.

    Returns, in :class:`TwlateWeights`' field order, M = sum_l p_l delta_l
    delta_l', M^{-1}, the weights omega(l) = M^{-1} delta_l delta_l', M's
    eigenvalues (ascending), its rcond and its numerical rank, all from one
    eigendecomposition.  M^{-1} and omega are None when rcond falls below
    DEFAULT_RCOND_THRESHOLD; the rank uses ``np.linalg.matrix_rank``'s
    tolerance, max|lambda| * d * eps.  :func:`relevance` applies it to the
    estimated jumps and ``montecarlo.population_targets`` to a design's own.
    """
    m_hat = (deltas.T * p) @ deltas
    m_hat = 0.5 * (m_hat + m_hat.T)
    eigvals, eigvecs = np.linalg.eigh(m_hat)  # ascending order
    rcond = conditioning(eigvals)
    inv = (eigvecs / eigvals) @ eigvecs.T if rcond >= DEFAULT_RCOND_THRESHOLD else None
    size = np.abs(eigvals)
    rank = int(np.count_nonzero(size > size.max() * deltas.shape[1] * np.finfo(float).eps))
    omega = None if inv is None else tuple(inv @ np.outer(delta, delta) for delta in deltas)
    return m_hat, inv, omega, eigvals, rcond, rank


def relevance(ct: CellTable) -> TwlateWeights:
    """Assess first-stage linear independence across cells.

    Failure is a state, not an exception: the matrix, its eigenvalues,
    reciprocal condition number, and numerical rank are reported whether
    or not the weights could be formed (at rcond >= DEFAULT_RCOND_THRESHOLD).
    """
    return TwlateWeights(*_separation(ct.delta_x, ct.p_hat))


def plugin_estimator(ct: CellTable, tw: TwlateWeights) -> np.ndarray:
    """Plug-in effect vector combining cell jumps with separation weighting."""
    if not tw.passed:
        raise RelevanceError(
            f"relevance check failed (rcond {tw.rcond:.3e}); plug-in estimator unavailable"
        )
    return tw.m_inverse @ (ct.delta_x.T @ (ct.p_hat * ct.delta_y))


@dataclass(frozen=True)
class RatioLate:
    identified: bool
    value: float | None
    blocking: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


def ratio_late(ct: CellTable, cell: int, j: int, tol: float = DEFAULT_JUMP_TOL) -> RatioLate:
    """Within-cell ratio identification of the margin-``j`` effect.

    ``cell`` is the 0-based row of ``ct`` and ``j`` the 1-based treatment
    margin.  Identified exactly when the margin's own jump exceeds ``tol``
    and every other margin's jump is within ``tol`` of zero; otherwise
    the violating magnitudes are reported.
    """
    if not 0 <= cell < ct.q_usable:
        raise ValueError(f"cell must lie in [0, {ct.q_usable - 1}], got {cell}")
    if not 1 <= j <= ct.d:
        raise ValueError(f"treatment margin j must lie in [1, {ct.d}], got {j}")
    jumps = np.abs(ct.delta_x[cell]).tolist()
    own = jumps[j - 1]
    blocking = {f"x{s + 1}": v for s, v in enumerate(jumps) if s != j - 1 and v > tol}
    if own <= tol:
        blocking[f"x{j}"] = own
    if blocking:
        return RatioLate(False, None, blocking)
    return RatioLate(True, float(ct.delta_y[cell] / ct.delta_x[cell, j - 1]), {})


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    trivial: bool
    violations: tuple[tuple[str, float, float], ...]  # (cell label, |weight|, max off-margin jump)

    def to_dict(self) -> dict:
        return asdict(self)


def wlate_feasibility(
    ct: CellTable,
    user_weights: Sequence[float],
    j: int,
    tol: float = DEFAULT_JUMP_TOL,
) -> FeasibilityReport:
    """Check whether user-supplied single-margin weights are identified.

    Weights may load only on cells where every other margin's jump is
    (numerically) zero.  All-zero weights are vacuously feasible but
    flagged as trivial; a NaN or infinite weight is an error.
    """
    if not 1 <= j <= ct.d:
        raise ValueError(f"treatment margin j must lie in [1, {ct.d}], got {j}")
    user_weights = np.asarray(user_weights, dtype=float)
    if len(user_weights) != ct.q_usable:
        raise ValueError(
            f"need one weight per usable cell ({ct.q_usable}), got {len(user_weights)}"
        )
    bad = [f"{ct.labels[l]}: {user_weights[l]}" for l in np.flatnonzero(~np.isfinite(user_weights))]
    if bad:
        raise ValueError(f"weights must be finite, got {', '.join(bad)}")
    size = np.abs(user_weights)
    worst = np.delete(np.abs(ct.delta_x), j - 1, axis=1).max(axis=1, initial=0.0)
    violations = tuple(
        (ct.labels[l], float(size[l]), float(worst[l]))
        for l in np.flatnonzero((size > tol) & (worst > tol))
    )
    return FeasibilityReport(not violations, bool((size <= tol).all()), violations)
