import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# numpy and scipy each bundle an OpenBLAS with its own thread pool; with
# both loaded, interleaved calls spin against each other and small fits
# slow down by an order of magnitude.  The fit path must load numpy's only.
FIT_WITHOUT_SCIPY = """
import sys
import multirdd as m
from multirdd.montecarlo import load_dgp_spec

schema = m.TableSchema(outcome="delayed_care", running="age", cutoff=65.0,
                       treatment="coverage", covariates=("race", "educ"), cluster="age")
ds = m.load_table("sample_data/insurance_style.csv", schema)
fit = m.estimate(ds, m.ModelSpec(), m.EstimationConfig(bandwidth=10.0, cluster_by="age"))
fit.to_dict()
study = m.run_study(load_dgp_spec("sample_data/dgp_homogeneous.json"), n=2000, reps=2, seed=5)
assert study.successes == 2, study.to_json()
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(" ".join(loaded))
"""


def run_fresh(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter from the checkout's root."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=SRC.parent,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fit_and_study_do_not_import_scipy():
    assert run_fresh(FIT_WITHOUT_SCIPY).strip() == ""


CLI_ARGS = (
    "'--data', 'sample_data/insurance_style.csv', '--outcome', 'delayed_care', "
    "'--running', 'age', '--cutoff', '65', '--treatment', 'coverage', '--w', 'race,educ', "
    "'--controls', 'region', '--cluster', 'age', '--bandwidth', '10'"
)


def modules_loaded_by(code: str) -> set:
    """The modules that a fresh interpreter has loaded after running ``code``."""
    return set(run_fresh(code + "\nimport sys\nprint(' '.join(sys.modules))").split())


def is_numpy_ma(name: str) -> bool:
    return name == "numpy.ma" or name.startswith("numpy.ma.")


def test_import_multirdd_loads_no_submodule():
    loaded = modules_loaded_by("import multirdd")
    assert "multirdd" in loaded
    assert not {name for name in loaded if name.startswith("multirdd.")}


def test_diagnose_loads_neither_the_estimator_nor_the_harness_nor_numpy_ma(tmp_path):
    series, out = tmp_path / "s.csv", tmp_path / "d.json"
    loaded = modules_loaded_by(
        "from multirdd import cli\n"
        f"assert cli.main(['diagnose', {CLI_ARGS}, '--series', {str(series)!r}, "
        f"'--out', {str(out)!r}]) == 0"
    )
    assert "multirdd.discontinuities" in loaded and series.stat().st_size > 0
    assert not {"multirdd.estimator", "multirdd.montecarlo"} & loaded
    assert not [name for name in loaded if is_numpy_ma(name)]


def test_estimate_loads_neither_the_harness_nor_numpy_ma(tmp_path):
    out = tmp_path / "fit.json"
    loaded = modules_loaded_by(
        "from multirdd import cli\n"
        f"assert cli.main(['estimate', {CLI_ARGS}, '--out', {str(out)!r}]) == 0"
    )
    assert "multirdd.estimator" in loaded and out.stat().st_size > 0
    assert "multirdd.montecarlo" not in loaded
    assert not [name for name in loaded if is_numpy_ma(name)]


def test_dir_lists_every_exported_name_before_it_loads():
    import multirdd

    listed = run_fresh("import multirdd\nprint(' '.join(sorted(dir(multirdd))))").split()
    assert set(multirdd.__all__) <= set(listed)


def package_modules() -> list:
    import multirdd

    names = [m.name for m in pkgutil.iter_modules(multirdd.__path__) if m.name != "__main__"]
    return [multirdd] + [importlib.import_module(f"multirdd.{name}") for name in names]


def test_every_exported_name_resolves():
    # bench/spans.py looks up every name in each module's __all__ to trace it
    for mod in package_modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


def test_stages_take_the_fit_and_its_design_only():
    from multirdd import discontinuities, estimator

    stages = {
        estimator.weighted_2sls: ["dm"],
        estimator.cluster_covariance: ["fit", "dm"],
        estimator.j_test: ["fit", "dm"],
        estimator.first_stage_diagnostics: ["dm"],
        estimator.estimate: ["ds", "spec", "cfg"],
        discontinuities.relevance: ["ct"],
    }
    for stage, names in stages.items():
        assert list(inspect.signature(stage).parameters) == names, stage.__name__
    # the threshold is one constant, the design owns its clusters, and the CLI
    # reports the relevance eigenvalue itself: no public callable takes them
    removed = {"rcond_threshold", "cluster_ids", "joint_min_eigenvalue"}
    for mod in package_modules():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # not callable, or no signature
                continue
            assert not removed & set(params), f"{mod.__name__}.{name}"


def test_dataset_holds_each_datum_once():
    import dataclasses

    import multirdd
    from multirdd import data_model, discontinuities

    # cell dummies are built from the codes per fit, and extra controls are aux columns
    dataset_fields = {f.name for f in dataclasses.fields(data_model.Dataset)}
    assert not {"w_dummies", "extra_controls"} & dataset_fields
    assert {f.name for f in dataclasses.fields(data_model.CellEncoding)} == {"cells", "labels"}
    for mod in (multirdd, discontinuities):
        assert not {"cell_jump", "Jump"} & (set(vars(mod)) | set(mod.__all__)), mod.__name__


# pyproject.toml declares numpy>=1.24; these exist only from numpy 2.0
NUMPY_2_ONLY = {"strings", "unique_values", "unique_inverse", "unique_counts", "unique_all"}


def numpy_2_only(source: str) -> list:
    """The lines of ``source`` that use an API that numpy 1.x does not have."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_ONLY:
            found.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            if {p for a in node.names for p in f"{module}.{a.name}".split(".")} & NUMPY_2_ONLY:
                found.add(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "unique":
            if any(kw.arg == "sorted" for kw in node.keywords):
                found.add(node.lineno)
    return sorted(found)


def test_src_uses_no_numpy_2_only_api():
    caught = "import numpy as np\nfrom numpy import strings\nimport numpy.strings\n"
    caught += "np.strings.str_len(a)\nnp.unique_inverse(a)\nnp.unique(a, sorted=False)\n"
    assert numpy_2_only(caught) == [2, 3, 4, 5, 6]
    assert numpy_2_only("np.unique(a, return_inverse=True)\nsorted(a)\nnp.char.str_len(a)\n") == []
    for path in sorted((SRC / "multirdd").glob("*.py")):
        assert numpy_2_only(path.read_text(encoding="utf-8")) == [], path.name


def is_linalg(node) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "linalg"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    )


def linalg_misuses(source: str) -> list:
    """The lines of ``source`` that use numpy.linalg other than as ``np.linalg.<fn>(matrix, ...)``.

    The traced benchmark counts each call twice: bench/spans.py wraps the
    numpy.linalg attributes and reads the call's first positional
    argument, and its profiler reads the function's first parameter.  A
    matrix passed by keyword or through ``*args``, or a function reached
    through an imported or assigned alias, makes the two counts differ.
    """
    nodes = list(ast.walk(ast.parse(source)))
    found, called = set(), set()
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if is_linalg(node.func.value):
                called.add(node.func.value)
                if not node.args or isinstance(node.args[0], ast.Starred):
                    found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.linalg") or (
                module == "numpy" and any(a.name == "linalg" for a in node.names)
            ):
                found.add(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.linalg") for a in node.names):
                found.add(node.lineno)
    found.update(node.lineno for node in nodes if is_linalg(node) and node not in called)
    return sorted(found)


def test_src_calls_numpy_linalg_with_the_matrix_first():
    caught = "import numpy as np\nfrom numpy.linalg import qr\nfrom numpy import linalg\n"
    caught += "import numpy.linalg as la\nalias = np.linalg\nnp.linalg.qr(a=m)\n"
    caught += "np.linalg.solve(*args)\nf = np.linalg.qr\nnp.linalg.norm()\n"
    assert linalg_misuses(caught) == [2, 3, 4, 5, 6, 7, 8, 9]
    fine = "import numpy as np\nnp.linalg.qr(a[:, :k], mode='r')\nnp.linalg.norm(r, axis=0)\n"
    assert linalg_misuses(fine) == []
    for path in sorted((SRC / "multirdd").glob("*.py")):
        assert linalg_misuses(path.read_text(encoding="utf-8")) == [], path.name


def own_separation_weights(source: str) -> list:
    """The lines of ``source`` that compute the separation weights outside ``relevance``'s code.

    The Monte Carlo targets take M, its rcond gate and the weights from
    ``discontinuities``; a numpy.linalg call, or the gate's threshold or
    ``conditioning`` brought in, would give the weights a second owner.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if is_linalg(node.func.value):
                found.add(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = {p for a in node.names for p in f"{module}.{a.name}".split(".")}
            if names & {"linalg", "conditioning", "DEFAULT_RCOND_THRESHOLD"}:
                found.add(node.lineno)
    return sorted(found)


def test_montecarlo_takes_the_separation_weights_from_discontinuities():
    caught = "import numpy as np\nnp.linalg.solve(m, b)\nfrom .data_model import conditioning\n"
    caught += "from .data_model import DEFAULT_RCOND_THRESHOLD, Dataset\nfrom numpy import linalg\n"
    assert own_separation_weights(caught) == [2, 3, 4, 5]
    fine = "import numpy as np\nfrom .discontinuities import _separation\nnp.einsum('i,i', a, b)\n"
    assert own_separation_weights(fine) == []
    source = (SRC / "multirdd" / "montecarlo.py").read_text(encoding="utf-8")
    assert own_separation_weights(source) == []


EIGEN_ROUTINES = {"eig", "eigh", "eigvals", "eigvalsh"}


def eigen_calls(source: str) -> list:
    """The lines of ``source`` that call a numpy.linalg eigen routine."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in EIGEN_ROUTINES and is_linalg(node.func.value)
    )


def test_estimator_gates_read_pivots_not_eigenvalues():
    # every gate of the fit reads the scaled pivots of an R, J's included
    caught = "import numpy as np\nnp.linalg.eigvalsh(m)\nnp.linalg.eigh(m)\nnumpy.linalg.eig(m)\n"
    assert eigen_calls(caught) == [2, 3, 4]
    assert eigen_calls("import numpy as np\nnp.linalg.qr(a, mode='r')\nnp.sort(eigh)\n") == []
    source = (SRC / "multirdd" / "estimator.py").read_text(encoding="utf-8")
    assert eigen_calls(source) == []
