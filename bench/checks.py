"""Output checks: every timed operation's result is compared with pinned or known values."""

import math

from layouts import SAMPLE_CELLS, SAMPLE_RELEVANCE_EIGENVALUES

REL_TOL = 1e-9


def _close(got, want) -> bool:
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want), 1e-300)


def check_fit(doc: dict, ref: dict, copies: int = 1) -> list[str]:
    """Mismatches between an ``estimate`` report and the pinned sample fit.

    Tiling the sample ``copies`` times leaves weighted least squares, and
    so beta and J, unchanged.  The cluster sums scale with the copies and
    cancel in the sandwich, so only the CR1 factor (n-1)/(n-k) moves the
    standard errors.
    """
    if "beta" not in doc:
        return [f"no coefficients in the report: {doc.get('error', 'unknown error')}"]
    problems = []
    n0 = ref["n_effective"]
    n = doc.get("n_effective")
    if n != n0 * copies:
        problems.append(f"n_effective {n} != {n0 * copies}")
        return problems
    k = len(doc["beta"]) + len(doc["eta"])
    se_scale = math.sqrt(((n - 1) / (n - k)) / ((n0 - 1) / (n0 - k)))
    for name, want in ref["beta"].items():
        got = doc["beta"].get(name)
        if not _close(got, want):
            problems.append(f"beta[{name}] {got!r} != {want!r}")
    for name, want in ref["se"].items():
        got = doc.get("se", {}).get(name)
        if not _close(got, want * se_scale):
            problems.append(f"se[{name}] {got!r} != {want * se_scale!r}")
    if not _close(doc.get("j_stat"), ref["j_stat"]):
        problems.append(f"j_stat {doc.get('j_stat')!r} != {ref['j_stat']!r}")
    return problems


def check_diagnose(doc: dict) -> list[str]:
    """Mismatches between a ``diagnose`` report and the pinned relevance eigenvalues."""
    problems = []
    rel = doc.get("relevance", {})
    if rel.get("passed") is not True:
        problems.append("relevance check did not pass")
    eig = rel.get("eigenvalues", [])
    if len(eig) != len(SAMPLE_RELEVANCE_EIGENVALUES) or not all(
        _close(g, w) for g, w in zip(eig, SAMPLE_RELEVANCE_EIGENVALUES)
    ):
        problems.append(f"relevance eigenvalues {eig!r} != {SAMPLE_RELEVANCE_EIGENVALUES!r}")
    n_cells = len(doc.get("cell_table", {}).get("cells", []))
    if n_cells != SAMPLE_CELLS:
        problems.append(f"{n_cells} usable cells, expected {SAMPLE_CELLS}")
    return problems


def check_study(result) -> list[str]:
    """Mismatches between a Monte Carlo summary and its population target.

    Every replication must succeed, and each mean estimate must lie within
    six standard errors (mean SE / sqrt(replications)) of the target: a
    correct estimator misses that on about one seed in 10^8.
    """
    problems = []
    if result.failures or result.successes != result.reps:
        problems.append(f"{result.failures} of {result.reps} replications failed")
    for label, bias, se in zip(result.labels, result.bias, result.mean_se):
        bound = 6.0 * se / math.sqrt(max(result.successes, 1))
        if not abs(bias) <= bound:
            problems.append(f"{label}: bias {bias:.4g} exceeds six standard errors ({bound:.4g})")
    return problems
