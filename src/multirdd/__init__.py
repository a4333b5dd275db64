"""Regression discontinuity estimation with multivalued treatments.

``import multirdd`` imports no submodule.  Each public name is loaded
from the submodule that ``_EXPORTS`` names on its first access (PEP 562),
and so is each submodule reached as an attribute, so a command such as
``multirdd diagnose`` never imports the estimator or the Monte Carlo
harness.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "data_model": (
            "Dataset", "TableSchema", "ModelSpec", "EstimationConfig",
            "load_table", "encode_treatment", "encode_cells", "validate_dataset",
        ),
        "kernels": ("KernelKind", "evaluate", "weights_vector", "one_sided_moment"),
        "discontinuities": (
            "CellTable", "TwlateWeights", "cell_table", "relevance",
            "plugin_estimator", "ratio_late", "wlate_feasibility",
        ),
        "estimator": (
            "DesignMatrices", "FitResult", "build_design", "weighted_2sls",
            "cluster_covariance", "j_test", "first_stage_diagnostics", "estimate",
        ),
        "montecarlo": (
            "DgpSpec", "SimResult", "population_targets", "generate",
            "run_study", "load_dgp_spec",
        ),
        "errors": (
            "MultirddError", "InputError", "SchemaError", "ParseError", "EstimationError",
            "CellUnusableError", "RelevanceError", "UnderIdentifiedError",
            "SingularDesignError",
        ),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
