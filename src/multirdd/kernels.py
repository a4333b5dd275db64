"""Kernel weighting for estimation local to the cutoff.

All kernels are symmetric, nonnegative, compactly supported on [-1, 1]
and normalized to unit total mass, so the one-sided moment constants
match textbook values.  Rescaling weights by any positive constant does
not change downstream estimates (weighted least squares is scale
invariant), so the normalization is a convention, not a requirement.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["KernelKind", "evaluate", "weights_vector", "window", "one_sided_moment"]

MAX_MOMENT_ORDER = 8


class KernelKind(enum.Enum):
    UNIFORM = "uniform"
    TRIANGULAR = "triangular"
    EPANECHNIKOV = "epanechnikov"

    @classmethod
    def from_name(cls, name: str) -> "KernelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kernel {name!r}; expected one of: {valid}") from None


def evaluate(kind: KernelKind, u):
    """Evaluate kernel ``kind`` at ``u`` (scalar or array); zero outside [-1, 1]."""
    arr = np.asarray(u, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("kernel argument contains NaN")
    au = np.abs(arr)
    inside = au <= 1.0
    if kind is KernelKind.UNIFORM:
        out = np.where(inside, 0.5, 0.0)
    elif kind is KernelKind.TRIANGULAR:
        out = np.where(inside, 1.0 - au, 0.0)
    elif kind is KernelKind.EPANECHNIKOV:
        out = np.where(inside, 0.75 * (1.0 - arr * arr), 0.0)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled kernel kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def weights_vector(kind: KernelKind, h: float, z: np.ndarray) -> np.ndarray:
    """Per-observation weights k(z_i / h); observations with |z_i| > h get 0."""
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        return np.zeros(0)
    return np.asarray(evaluate(kind, z / h), dtype=float)


def window(kind: KernelKind, h: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weight-positive rows: their indices in ascending order, and their weights."""
    w = weights_vector(kind, h, z)
    rows = np.flatnonzero(w > 0)
    return rows, w[rows]


def one_sided_moment(kind: KernelKind, order: int, squared: bool = False) -> float:
    """Closed-form one-sided moment of the kernel.

    Returns the integral over [0, 1] of u**order * k(u), or of
    u**order * k(u)**2 when ``squared`` is true.  These constants appear
    in the asymptotic bias and variance of one-sided local-linear fits.
    """
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {order!r}")
    if order > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order {order} exceeds supported maximum {MAX_MOMENT_ORDER}")
    l = int(order)
    if kind is KernelKind.UNIFORM:
        # k = 1/2 on the support
        if squared:
            return 0.25 / (l + 1)
        return 0.5 / (l + 1)
    if kind is KernelKind.TRIANGULAR:
        # k = 1 - u; (1-u)^2 integrates against u^l to 2/((l+1)(l+2)(l+3))
        if squared:
            return 2.0 / ((l + 1) * (l + 2) * (l + 3))
        return 1.0 / ((l + 1) * (l + 2))
    if kind is KernelKind.EPANECHNIKOV:
        # k = 3/4 (1 - u^2)
        if squared:
            return 0.5625 * (1.0 / (l + 1) - 2.0 / (l + 3) + 1.0 / (l + 5))
        return 1.5 / ((l + 1) * (l + 3))
    raise ValueError(f"unhandled kernel kind {kind!r}")  # pragma: no cover
