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
be replayed from (seed, rep) alone.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data_model import Dataset, EstimationConfig, ModelSpec, _lock_fields
from .discontinuities import _separation
from .errors import EstimationError, InputError, MultirddError, RelevanceError
from .errors import UnderIdentifiedError
from .estimator import estimate
from .kernels import KernelKind

__all__ = [
    "DgpSpec",
    "PopulationTargets",
    "SimResult",
    "population_targets",
    "generate",
    "run_study",
    "load_dgp_spec",
]


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
        probs = np.asarray(self.cell_probs, dtype=float)
        base = np.atleast_2d(np.asarray(self.base_levels, dtype=float))
        jumps = np.atleast_2d(np.asarray(self.jumps, dtype=float))
        betas = np.atleast_2d(np.asarray(self.betas, dtype=float))
        alphas = np.asarray(self.intercepts, dtype=float)
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
        lo, hi = self.z_range
        if not lo < 0 < hi:
            raise InputError(f"z_range must straddle the cutoff 0, got {self.z_range}")
        object.__setattr__(self, "z_range", (lo, hi))
        object.__setattr__(self, "cell_probs", tuple(float(v) for v in probs))
        object.__setattr__(self, "base_levels", tuple(tuple(float(v) for v in r) for r in base))
        object.__setattr__(self, "jumps", tuple(tuple(float(v) for v in r) for r in jumps))
        object.__setattr__(self, "betas", tuple(tuple(float(v) for v in r) for r in betas))
        object.__setattr__(self, "intercepts", tuple(float(v) for v in alphas))

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
    known = set(DgpSpec.__dataclass_fields__)
    extra = set(doc) - known
    if extra:
        raise InputError(f"DGP spec has unknown fields {sorted(extra)}")
    try:
        return DgpSpec(**doc)
    except TypeError as err:
        raise InputError(f"DGP spec {path} is incomplete: {err}") from None


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
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(entropy=int(seed))
    return np.random.Generator(np.random.Philox(seed=ss))


def generate(dgp: DgpSpec, n: int, seed) -> Dataset:
    """Draw a sample of size n; byte-identical for identical (dgp, n, seed)."""
    if n < 1:
        raise InputError(f"sample size must be positive, got {n}")
    rng = _rng_for(seed)
    q, d = dgp.q, dgp.d
    probs = np.asarray(dgp.cell_probs)
    base = np.asarray(dgp.base_levels)
    jumps = np.asarray(dgp.jumps)
    betas = np.asarray(dgp.betas)
    alphas = np.asarray(dgp.intercepts)

    cells = rng.choice(q, size=n, p=probs)
    lo, hi = dgp.z_range
    z = rng.uniform(lo, hi, size=n)
    latent = rng.uniform(0.0, 1.0, size=n)
    right = z >= 0
    # one table row per (side, cell): base + jumps * False left of the cutoff, * True right of it
    table = np.concatenate([base + jumps * False, base + jumps * True])
    thresholds = table.take(right * q + cells, axis=0)
    x = (latent[:, None] <= thresholds).astype(float)

    slope = np.where(right, dgp.slope_right, dgp.slope_left)
    curve = np.where(right, dgp.curvature_right, dgp.curvature_left)
    trend = slope * z + curve * z * z
    y = alphas[cells] + trend + np.einsum("ij,ij->i", betas[cells], x)
    if dgp.noise_sd > 0:
        y = y + dgp.noise_sd * rng.standard_normal(n)

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
    ds = generate(dgp, n, ss)
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
    replications run in one loop, in order.  A replication that raises a
    package error counts as failed; any other exception propagates.  The
    ``workers`` keyword is accepted for older callers but ignored, and it
    warns.
    """
    if workers is not None:
        warnings.warn(
            "run_study(workers=...) is ignored and will be removed; replications run in one loop",
            FutureWarning,
            stacklevel=2,
        )
    if reps < 1:
        raise InputError(f"reps must be at least 1, got {reps}")
    targets = population_targets(dgp)
    if not targets.identified:
        raise EstimationError(
            "DGP is not identified (relevance matrix is singular); "
            "targets are only defined cell-wise"
        )
    if cfg is None:
        cfg = default_config(dgp)
    if seed is None:
        seed = dgp.seed

    fits, failures = [], []
    for rep in range(reps):
        try:
            fits.append(_run_one(dgp, n, seed, rep, cfg))
        except MultirddError as err:
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
