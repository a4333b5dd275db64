"""Synthetic designs with known targets and a replication harness.

Treatment draws share one latent uniform per observation: indicator j
switches on when the latent falls below a per-cell threshold that jumps
upward at the cutoff.  Because thresholds are ordered within each side
and jumps are nonnegative, the indicators are cumulative and crossing
the cutoff never turns one off, so the population first stages equal
the threshold jumps exactly and the outcome discontinuity is their
effect-weighted sum.

Replications use counter-based Philox streams keyed by (seed, rep), so
any worker count or evaluation order produces identical results.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import Dataset, EstimationConfig, ModelSpec
from .errors import EstimationError, InputError, RelevanceError, UnderIdentifiedError
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
        return {
            "cell_probs": list(self.cell_probs),
            "base_levels": [list(r) for r in self.base_levels],
            "jumps": [list(r) for r in self.jumps],
            "betas": [list(r) for r in self.betas],
            "intercepts": list(self.intercepts),
            "slope_left": self.slope_left,
            "slope_right": self.slope_right,
            "curvature_left": self.curvature_left,
            "curvature_right": self.curvature_right,
            "noise_sd": self.noise_sd,
            "z_range": list(self.z_range),
            "seed": self.seed,
        }


def load_dgp_spec(path: str | Path) -> DgpSpec:
    """Read a DgpSpec from its JSON document form."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"DGP spec file not found: {path}")
    with path.open(encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise InputError(f"DGP spec {path} is not valid JSON: {err}") from None
    known = set(DgpSpec.__dataclass_fields__)
    extra = set(doc) - known
    if extra:
        raise InputError(f"DGP spec has unknown fields {sorted(extra)}")
    doc = {
        k: tuple(tuple(r) for r in v) if k in ("base_levels", "jumps", "betas") else v
        for k, v in doc.items()
    }
    if "z_range" in doc:
        doc["z_range"] = tuple(doc["z_range"])
    for key in ("cell_probs", "intercepts"):
        if key in doc:
            doc[key] = tuple(doc[key])
    try:
        return DgpSpec(**doc)
    except TypeError as err:
        raise InputError(f"DGP spec {path} is incomplete: {err}") from None


@dataclass(frozen=True)
class PopulationTargets:
    """Exact population quantities implied by a DgpSpec."""

    beta_bar: np.ndarray | None
    delta_x: np.ndarray
    delta_y: np.ndarray
    m_matrix: np.ndarray
    omega: tuple[np.ndarray, ...] | None
    identified: bool

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

    The per-cell treatment jump equals the threshold jump, the outcome
    jump is its effect-weighted sum, and the target vector solves the
    relevance-weighted system.  With cell-constant effects the target
    reduces to that common effect vector.
    """
    probs = np.asarray(dgp.cell_probs)
    delta_x = np.asarray(dgp.jumps, dtype=float)
    betas = np.asarray(dgp.betas, dtype=float)
    delta_y = np.einsum("lj,lj->l", betas, delta_x)
    m = (delta_x.T * probs) @ delta_x
    m = 0.5 * (m + m.T)
    eigvals = np.linalg.eigvalsh(m)  # ascending order
    identified = bool(eigvals[0] > 1e-12 * max(eigvals[-1], 1e-300))
    beta_bar = None
    omega = None
    if identified:
        if all(np.array_equal(betas[l], betas[0]) for l in range(dgp.q)):
            # cell-constant effects are a fixed point of the weighting
            beta_bar = betas[0].copy()
        else:  # sum_l p_l delta_x(l) delta_x(l)' beta(l), with delta_x(l)' beta(l) = delta_y(l)
            beta_bar = np.linalg.solve(m, delta_x.T @ (probs * delta_y))
        minv = np.linalg.inv(m)
        omega = tuple(minv @ np.outer(delta_x[l], delta_x[l]) for l in range(dgp.q))
    return PopulationTargets(
        beta_bar=beta_bar,
        delta_x=delta_x,
        delta_y=delta_y,
        m_matrix=m,
        omega=omega,
        identified=identified,
    )


def _rng_for(seed, rep: int | None = None) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(entropy=int(seed))
    if rep is not None:
        ss = np.random.SeedSequence(entropy=ss.entropy, spawn_key=(int(rep),))
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
    dummies = np.eye(q)[:, 1:].take(cells, axis=0)  # cell l's row of the identity, less column 0
    return Dataset(
        y=y,
        z=z,
        x=x,
        cells=cells,
        cell_labels=labels,
        w_dummies=dummies,
        cluster=None,
    )


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
        return {
            "labels": list(self.labels),
            "target": list(self.target),
            "mean_estimate": list(self.mean_estimate),
            "bias": list(self.bias),
            "sd": None if self.sd is None else list(self.sd),
            "sd_defined": self.sd_defined,
            "mean_se": list(self.mean_se),
            "coverage": list(self.coverage),
            "j_rejection_rate": self.j_rejection_rate,
            "j_dof": self.j_dof,
            "reps": self.reps,
            "successes": self.successes,
            "failures": self.failures,
            "relevance_failures": self.relevance_failures,
            "n": self.n,
            "config": dict(self.config),
        }

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


def _run_one(dgp: DgpSpec, n: int, seed, rep: int, cfg: EstimationConfig, spec: ModelSpec):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(rep),))
    ds = generate(dgp, n, ss)
    return estimate(ds, spec, cfg)


def run_study(
    dgp: DgpSpec,
    n: int,
    reps: int,
    cfg: EstimationConfig | None = None,
    spec: ModelSpec | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> SimResult:
    """Replicate generate -> estimate and summarize against the targets.

    Replication r draws from a stream derived from (seed, r) alone, and
    aggregation runs in replication order, so the result is identical
    for any worker count.
    """
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
    if spec is None:
        spec = ModelSpec(kind="homogeneous", treatment_levels=tuple(range(dgp.d + 1)))
    elif spec.kind != "homogeneous":
        raise InputError(
            "run_study compares against the homogeneous-weighting target; "
            f"model kind {spec.kind!r} would misalign the coefficient blocks"
        )
    if seed is None:
        seed = dgp.seed

    results: list = [None] * reps
    errors: list = [None] * reps

    def work(rep: int):
        try:
            results[rep] = _run_one(dgp, n, seed, rep, cfg, spec)
        except Exception as err:  # noqa: BLE001 - classified below
            errors[rep] = err

    if workers <= 1:
        for rep in range(reps):
            work(rep)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(reps)))

    fits = [r for r in results if r is not None]
    failures = [e for e in errors if e is not None]
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
            "model": spec.kind,
        },
        sd_defined=sd_defined,
    )
