"""Synthetic designs with known targets and a replication harness.

Treatment draws share one latent uniform per observation: indicator j
switches on when the latent falls below a per-cell threshold that jumps
upward at the cutoff.  Because thresholds are ordered within each side
and jumps are nonnegative, the indicators are cumulative and crossing
the cutoff never turns one off, so the population first stages equal
the threshold jumps exactly and the outcome discontinuity is their
effect-weighted sum.

Replications use counter-based Philox streams keyed by (seed, rep), so
any evaluation order produces identical results, and any replication can
be replayed from (seed, rep) alone.  A replication draws every row of its
sample but builds only the rows inside its bandwidth, the support of
every kernel; the fit reads no other row, and the study still reports
the drawn sample size as its ``n``.  Each row's cell comes from a
uniform of its own, drawn with the rest of the row, and only the kept
rows look theirs up, by ``Generator.choice``'s rule: the first cell
whose cumulative share, scaled to end at 1, exceeds the uniform.  The
stream no longer goes through ``Generator.choice``, but every cell and
value is the one it gave.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data_model import Dataset, EstimationConfig, ModelSpec, _lock_fields
from .discontinuities import _separation
from .errors import EstimationError, InputError, RelevanceError, UnderIdentifiedError
from .estimator import estimate
from .kernels import KernelKind, in_support

__all__ = [
    "DgpSpec",
    "PopulationTargets",
    "SimResult",
    "population_targets",
    "generate",
    "run_study",
    "load_dgp_spec",
]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _nonnegative_int(name: str, value) -> int:
    """``value`` as an int >= 0, numpy's included, a bool not; else an InputError naming it."""
    if not _is_int(value) or value < 0:
        raise InputError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _as_field(f, value):
    """``value`` as DgpSpec field ``f``'s type: an int >= 0, a finite float or tuples of them.

    A value that does not convert is an :class:`InputError` naming the field.
    """
    if f.type == "int":
        return _nonnegative_int(f.name, value)
    ndim = f.type.count("tuple")
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or a.ndim != ndim:
        what = ("a number", "a list of numbers", "a table of numbers")[ndim]
        raise InputError(f"{f.name} must be {what}, got {value!r}")
    if not np.isfinite(a).all():
        raise InputError(f"{f.name} must be finite, got {value!r}")
    out = a.astype(float).tolist()
    return tuple(map(tuple, out)) if ndim == 2 else tuple(out) if ndim else out


@dataclass(frozen=True)
class DgpSpec:
    """Full data-generating process with closed-form population targets.

    ``base_levels[l, j]`` is the latent threshold for indicator j in
    cell l left of the cutoff and ``jumps[l, j]`` the upward shift on
    the right; ``betas[l]`` holds the per-cell marginal effects.  The
    outcome trend is slope * z + curvature * z**2, separately per side.
    """

    cell_probs: tuple[float, ...]
    base_levels: tuple[tuple[float, ...], ...]
    jumps: tuple[tuple[float, ...], ...]
    betas: tuple[tuple[float, ...], ...]
    intercepts: tuple[float, ...]
    slope_left: float = 0.0
    slope_right: float = 0.0
    curvature_left: float = 0.0
    curvature_right: float = 0.0
    noise_sd: float = 1.0
    z_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _as_field(f, getattr(self, f.name)))
        probs, alphas = np.asarray(self.cell_probs), np.asarray(self.intercepts)
        base, jumps, betas = (np.asarray(t) for t in (self.base_levels, self.jumps, self.betas))
        q, d = base.shape
        if probs.shape != (q,) or jumps.shape != (q, d) or betas.shape != (q, d):
            raise InputError(
                "cell_probs, base_levels, jumps, and betas must agree on q and d; "
                f"got probs {probs.shape}, base {base.shape}, jumps {jumps.shape}, "
                f"betas {betas.shape}"
            )
        if alphas.shape != (q,):
            raise InputError(f"intercepts must have one entry per cell, got {alphas.shape}")
        if (probs <= 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise InputError(f"cell_probs must be positive and sum to 1, got {probs.tolist()}")
        if (jumps < 0).any():
            raise InputError("jumps must be nonnegative (monotone crossing)")
        for side, thresholds in (("left", base), ("right", base + jumps)):
            if (thresholds < -1e-12).any() or (thresholds > 1 + 1e-12).any():
                raise InputError(f"{side}-side crossing probabilities leave [0, 1]")
            if d > 1 and (np.diff(thresholds, axis=1) > 1e-12).any():
                raise InputError(
                    f"{side}-side crossing probabilities must be non-increasing across "
                    "treatment margins (cumulative indicators)"
                )
        if self.noise_sd < 0:
            raise InputError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if len(self.z_range) != 2 or not self.z_range[0] < 0 < self.z_range[1]:
            raise InputError(f"z_range must be two numbers around the cutoff 0, got {self.z_range}")

    @property
    def q(self) -> int:
        return len(self.cell_probs)

    @property
    def d(self) -> int:
        return len(self.base_levels[0])

    def to_dict(self) -> dict:
        return asdict(self)


def load_dgp_spec(path: str | Path) -> DgpSpec:
    """Read a DgpSpec from its JSON document form."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise InputError(f"DGP spec file {path} not found or unreadable: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"DGP spec {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise InputError(f"DGP spec {path} must hold a JSON object")
    extra = set(doc) - set(DgpSpec.__dataclass_fields__)
    if extra:
        raise InputError(f"DGP spec {path} has unknown fields {sorted(extra)}")
    try:
        return DgpSpec(**doc)
    except TypeError as err:  # DgpSpec turns every bad value into an InputError: a field is missing
        raise InputError(f"DGP spec {path} is incomplete: {err}") from None
    except InputError as err:
        raise InputError(f"DGP spec {path}: {err}") from None


@dataclass(frozen=True)
class PopulationTargets:
    """Exact population quantities implied by a DgpSpec; every array is write-locked."""

    beta_bar: np.ndarray | None
    delta_x: np.ndarray
    delta_y: np.ndarray
    m_matrix: np.ndarray
    omega: tuple[np.ndarray, ...] | None
    identified: bool

    def __post_init__(self):
        _lock_fields(self, "beta_bar", "delta_x", "delta_y", "m_matrix", "omega")

    def to_dict(self) -> dict:
        return {
            "beta_bar": None if self.beta_bar is None else self.beta_bar.tolist(),
            "delta_x": self.delta_x.tolist(),
            "delta_y": self.delta_y.tolist(),
            "m_matrix": self.m_matrix.tolist(),
            "identified": self.identified,
        }


def population_targets(dgp: DgpSpec) -> PopulationTargets:
    """Closed-form first stages, outcome jumps, and the weighted effect vector.

    The per-cell treatment jump equals the threshold jump and the outcome
    jump is its effect-weighted sum.  M, the weights and the identification
    flag are the relevance check's own, at the population cell shares and
    jumps, and the target is the plug-in estimator's expression there.
    With cell-constant effects the target is that common effect vector.
    """
    probs = np.asarray(dgp.cell_probs)
    delta_x = np.asarray(dgp.jumps, dtype=float)
    betas = np.asarray(dgp.betas, dtype=float)
    delta_y = np.einsum("lj,lj->l", betas, delta_x)
    m, minv, omega, *_ = _separation(delta_x, probs)
    beta_bar = None
    if minv is not None:
        if all(np.array_equal(betas[l], betas[0]) for l in range(dgp.q)):
            # cell-constant effects are a fixed point of the weighting
            beta_bar = betas[0].copy()
        else:
            beta_bar = minv @ (delta_x.T @ (probs * delta_y))
    return PopulationTargets(
        beta_bar=beta_bar,
        delta_x=delta_x,
        delta_y=delta_y,
        m_matrix=m,
        omega=omega,
        identified=minv is not None,
    )


def _rng_for(seed) -> np.random.Generator:
    """A Philox generator for ``seed``: a SeedSequence as it is, else ``DgpSpec.seed``'s rule."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(entropy=_nonnegative_int("seed", seed))
    return np.random.Generator(np.random.Philox(seed=seed))


def _cells_of(probs, u: np.ndarray) -> np.ndarray:
    """The cells ``Generator.choice(len(probs), p=probs)`` picks for its uniforms ``u``.

    Its rule: the cumulative shares, scaled to end at 1, searched from the right.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def generate(dgp: DgpSpec, n: int, seed, *, bandwidth: float | None = None) -> Dataset:
    """Draw a sample of size n; byte-identical for identical (dgp, n, seed).

    ``seed`` is a SeedSequence or a nonnegative integer.  The stream
    gives n cell uniforms, then z, the latent uniforms and the noise; it
    no longer goes through ``Generator.choice``, but a row's cell is the
    one that picks for its uniform: the first whose cumulative share,
    scaled to end at 1, exceeds it (:func:`_cells_of`).  Given a
    ``bandwidth`` h, every row is still drawn, but only the rows with
    |z / h| <= 1, every kernel's support, are built and get a cell: the
    full sample's rows that a fit at h reads, byte for byte and in their
    order.
    """
    if not _is_int(n):
        raise InputError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise InputError(f"sample size must be positive, got {n}")
    if bandwidth is not None and not 0 < bandwidth < math.inf:
        raise InputError(f"bandwidth must be a positive finite number, got {bandwidth}")
    rng = _rng_for(seed)
    q = dgp.q
    base = np.asarray(dgp.base_levels)
    jumps = np.asarray(dgp.jumps)

    u = rng.random(n)
    lo, hi = dgp.z_range
    z = rng.uniform(lo, hi, size=n)
    latent = rng.random(n)
    noise = rng.standard_normal(n) if dgp.noise_sd > 0 else None
    if bandwidth is not None:
        with np.errstate(over="ignore"):  # an infinite |z / h| is outside the support
            keep = np.flatnonzero(in_support(z / bandwidth))
        u, z, latent = u.take(keep), z.take(keep), latent.take(keep)
        noise = None if noise is None else noise.take(keep)
    cells = _cells_of(dgp.cell_probs, u)
    right = z >= 0
    # one table row per (side, cell): base + jumps * False left of the cutoff, * True right of it
    table = np.concatenate([base + jumps * False, base + jumps * True])
    thresholds = table.take(right * q + cells, axis=0)
    x = (latent[:, None] <= thresholds).astype(float)

    slope, curve = np.array(
        [(dgp.slope_left, dgp.slope_right), (dgp.curvature_left, dgp.curvature_right)]
    ).take(right, axis=1)
    trend = slope * z + curve * z * z
    y = np.asarray(dgp.intercepts).take(cells) + trend
    y += np.einsum("ij,ij->i", np.asarray(dgp.betas).take(cells, axis=0), x)
    if noise is not None:
        y += dgp.noise_sd * noise

    for a in (y, z, x, cells):  # made here and locked, so the Dataset keeps them without a copy
        a.setflags(write=False)
    labels = tuple(f"cell{l:03d}" for l in range(q))
    return Dataset(y=y, z=z, x=x, cells=cells, cell_labels=labels)


def default_config(dgp: DgpSpec) -> EstimationConfig:
    """Uniform kernel with a window covering about a quarter of the z support."""
    lo, hi = dgp.z_range
    return EstimationConfig(bandwidth=0.25 * (hi - lo) / 2.0, kernel=KernelKind.UNIFORM)


@dataclass(frozen=True)
class SimResult:
    """Replication summary against the population targets."""

    labels: tuple[str, ...]
    target: tuple[float, ...]
    mean_estimate: tuple[float, ...]
    bias: tuple[float, ...]
    sd: tuple[float, ...] | None
    mean_se: tuple[float, ...]
    coverage: tuple[float, ...]
    j_rejection_rate: float | None
    j_dof: int
    reps: int
    successes: int
    failures: int
    relevance_failures: int
    n: int
    config: dict
    sd_defined: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_text(self) -> str:
        lines = [
            f"replications: {self.reps} (ok {self.successes}, failed {self.failures}, "
            f"relevance failures {self.relevance_failures}), n = {self.n}",
            f"{'coef':>12} {'target':>10} {'mean':>10} {'bias':>10} "
            f"{'sd':>10} {'mean se':>10} {'cover95':>8}",
        ]
        for k, lab in enumerate(self.labels):
            sd = f"{self.sd[k]:10.4f}" if self.sd is not None else "       n/a"
            lines.append(
                f"{lab:>12} {self.target[k]:10.4f} {self.mean_estimate[k]:10.4f} "
                f"{self.bias[k]:10.4f} {sd} {self.mean_se[k]:10.4f} "
                f"{self.coverage[k]:8.3f}"
            )
        if self.j_rejection_rate is not None:
            lines.append(
                f"J rejection rate at 5%: {self.j_rejection_rate:.3f} (dof {self.j_dof})"
            )
        else:
            lines.append("J test not applicable (just identified)")
        return "\n".join(lines)


def _run_one(dgp: DgpSpec, n: int, seed, rep: int, cfg: EstimationConfig):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(rep),))
    ds = generate(dgp, n, ss, bandwidth=cfg.bandwidth)
    return estimate(ds, ModelSpec(), cfg)  # the targets are the homogeneous weighting's


def run_study(
    dgp: DgpSpec,
    n: int,
    reps: int,
    cfg: EstimationConfig | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> SimResult:
    """Replicate generate -> homogeneous estimate and summarize against the targets.

    Replication r draws from a stream derived from (seed, r) alone, and
    replications run in one loop, in order.  Each draws all ``n`` rows
    but builds only those inside ``cfg.bandwidth``, the only rows its fit
    reads; ``SimResult.n`` is still the drawn ``n``.  A replication that
    raises an :class:`EstimationError` counts as failed; any other
    exception, such as the :class:`InputError` of a sample size below 1,
    propagates.  ``n`` and ``reps`` must be integers, not bools.
    ``seed`` follows ``DgpSpec.seed``'s rule.  The ``workers`` keyword is
    accepted for older callers but ignored, and it warns.
    """
    if workers is not None:
        warnings.warn(
            "run_study(workers=...) is ignored and will be removed; replications run in one loop",
            FutureWarning,
            stacklevel=2,
        )
    if not _is_int(reps) or reps < 1:
        raise InputError(f"reps must be a positive integer, got {reps!r}")
    targets = population_targets(dgp)
    if not targets.identified:
        raise EstimationError(
            "DGP is not identified (relevance matrix is singular); "
            "targets are only defined cell-wise"
        )
    if cfg is None:
        cfg = default_config(dgp)
    seed = dgp.seed if seed is None else _nonnegative_int("seed", seed)

    fits, failures = [], []
    for rep in range(reps):
        try:
            fits.append(_run_one(dgp, n, seed, rep, cfg))
        except EstimationError as err:
            failures.append(err)

    if not fits:
        raise EstimationError(f"all {reps} replications failed: {failures[0]}") from failures[0]
    relevance_failures = sum(
        isinstance(e, (RelevanceError, UnderIdentifiedError)) for e in failures
    )

    target = targets.beta_bar
    d = len(target)
    est = np.asarray([f.beta[:d] for f in fits])
    ses = np.asarray([f.se[:d] for f in fits])
    mean_est = est.mean(axis=0)
    bias = mean_est - target
    sd_defined = len(fits) > 1
    sd = est.std(axis=0, ddof=1) if sd_defined else None
    mean_se = ses.mean(axis=0)
    crit = 1.959963984540054  # two-sided 5% normal critical value
    covered = np.abs(est - target[None, :]) <= crit * ses
    coverage = covered.mean(axis=0)

    j_dof = fits[0].j_dof or 0
    j_rate = None
    if j_dof > 0:
        j_rate = float(np.mean([f.j_pvalue < 0.05 for f in fits]))

    labels = tuple(f"beta{j + 1}" for j in range(d))
    return SimResult(
        labels=labels,
        target=tuple(float(v) for v in target),
        mean_estimate=tuple(float(v) for v in mean_est),
        bias=tuple(float(v) for v in bias),
        sd=None if sd is None else tuple(float(v) for v in sd),
        mean_se=tuple(float(v) for v in mean_se),
        coverage=tuple(float(v) for v in coverage),
        j_rejection_rate=j_rate,
        j_dof=int(j_dof),
        reps=reps,
        successes=len(fits),
        failures=len(failures),
        relevance_failures=int(relevance_failures),
        n=int(n),
        config={
            "kernel": cfg.kernel.value,
            "bandwidth": cfg.bandwidth,
            "seed": int(seed),
            "model": "homogeneous",
        },
        sd_defined=sd_defined,
    )
