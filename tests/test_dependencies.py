import ast
import importlib
import inspect
import math
import os
import pkgutil
import re
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


def test_the_readme_library_sketch_runs():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\n+```python\n(.*?)```", readme, re.S).group(1)
    printed = run_fresh(sketch)
    numbers = re.findall(r"[-+]?(?:nan|inf|\d+\.?\d*(?:e[-+]?\d+)?)", printed)
    assert len(numbers) >= 5 and all(math.isfinite(float(v)) for v in numbers), printed


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
        estimator.estimate: ["ds", "spec", "cfg", "window"],
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


def linalg_calls(source: str) -> list:
    """(top-level definition, routine) of each numpy.linalg call in ``source``."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if is_linalg(node.func.value):
                    found.append((getattr(top, "name", None), node.func.attr))
    return found


def test_discontinuities_factors_only_the_relevance_matrix():
    # every (cell, side) fit of cell_table comes from group sums; only M is decomposed
    caught = "import numpy as np\nm = np.linalg.inv(a)\ndef f():\n    def g():\n"
    caught += "        return np.linalg.lstsq(a, b)\nclass C:\n    r = numpy.linalg.qr(a)\n"
    assert linalg_calls(caught) == [(None, "inv"), ("f", "lstsq"), ("C", "qr")]
    assert linalg_calls("import numpy as np\nnp.sqrt(a)\nla.inv(a)\n") == []
    source = (SRC / "multirdd" / "discontinuities.py").read_text(encoding="utf-8")
    assert linalg_calls(source) == [("_separation", "eigh")]


def callers_of(source: str, callee: str) -> list:
    """The top-level definition of each call to ``callee`` or ``<module>.callee`` in ``source``."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == callee:
                    found.append(getattr(top, "name", None))
    return found


def test_only_the_window_groups_and_the_design_evaluate_the_kernel_window():
    # one function weighs the window, and cell_table, build_design and the series read its value
    caught = "rows, w = window(k, h, z)\ndef f():\n    def g():\n"
    caught += "        return kernels.window(k, h, z)\nclass C:\n    r = window(k, h, z)\n"
    assert callers_of(caught, "window") == [None, "f", "C"]
    no_call = "def f():\n    window\n    windows(z)\n    np.window_size(a)\n"
    assert callers_of(no_call, "window") == []
    assert src_callers_of("window") == ["data_model.kernel_window"]


def src_callers_of(callee: str) -> list:
    """``module.definition`` of each top-level definition in ``src`` that calls ``callee``."""
    return [
        f"{path.stem}.{top}"
        for path in sorted((SRC / "multirdd").glob("*.py"))
        for top in callers_of(path.read_text(encoding="utf-8"), callee)
    ]


def test_only_encode_cells_codes_a_discrete_column():
    # the covariates and the conditioning column are coded, labelled and capped by one coder;
    # no other function works out levels, or a column's role, from its values
    assert callers_of("def f():\n    codes, labels = _levels(col)\n", "_levels") == ["f"]
    assert src_callers_of("_levels") == ["data_model.encode_cells"]


def column_checks(source: str) -> list:
    """The line of each call to ``_numeric`` or ``_missing`` in ``source``, and of each
    ``in`` or ``not in`` test against an ``.aux`` mapping."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("_numeric", "_missing"):
                found.append(node.lineno)
        elif isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and getattr(right, "attr", None) == "aux":
                    found.append(node.lineno)
    return sorted(found)


def test_only_data_model_looks_up_and_checks_a_named_column():
    # a named column has one owner, data_model._column; no other module judges a value missing
    caught = "_numeric(col, 'x')\nm._missing(ids)\nif r not in ds.aux:\n    pass\n"
    caught += "ok = n in self.aux\n"
    assert column_checks(caught) == [1, 2, 3, 5]
    assert column_checks("numeric(c)\ncol = ds.aux[name]\nname in aux\nname in ds.cols\n") == []
    found = {
        path.stem: column_checks(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "multirdd").glob("*.py"))
        if path.stem != "data_model"
    }
    assert not any(found.values()), found


def calls_named(source: str, names: tuple) -> list:
    """The line of each call in ``source`` to a function or method named in ``names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append(node.lineno)
    return sorted(found)


def test_only_data_model_groups_the_window_rows():
    # data_model.group_rows sorts rows into groups, the window's (cell, side) and the conditional
    # design's (stratum, cell, side), and GroupBasis sums every group one way; cell_table, the
    # fit and the series bins read it and group nothing again
    caught = "np.add.reduceat(v, s)\nnp.minimum.at(lo, g, z)\nbincount(g)\nx.argsort()\n"
    assert calls_named(caught, ("reduceat", "at")) == [1, 2]
    assert calls_named(caught, ("bincount",)) == [3] and calls_named(caught, ("argsort",)) == [4]
    assert calls_named("np.at\nreduceat = 1\nf(at=2)\nat_least(3)\n", ("reduceat", "at")) == []
    source = {path.stem: path.read_text(encoding="utf-8") for path in (SRC / "multirdd").glob("*.py")}
    found = {
        f"{stem}: reduceat or at": calls_named(text, ("reduceat", "at"))
        for stem, text in source.items()
        if stem != "data_model"
    }
    found["discontinuities: bincount"] = calls_named(source["discontinuities"], ("bincount",))
    found.update(
        (f"{stem}: argsort", calls_named(text, ("argsort",)))
        for stem, text in source.items()
        if stem != "data_model"
    )
    assert not any(found.values()), found


def test_only_data_model_says_why_a_group_cannot_be_fitted():
    # data_model.unusable_groups words each unusable (cell, side) once; cell_table's dropped
    # cells and the rank gate's notes read its text
    assert calls_named("raise CellUnusableError(l, s)\nerrors.CellUnusableError()\n",
                       ("CellUnusableError",)) == [1, 2]
    found = {
        path.stem: calls_named(path.read_text(encoding="utf-8"), ("CellUnusableError",))
        for path in sorted((SRC / "multirdd").glob("*.py"))
        if path.stem != "data_model"
    }
    assert not any(found.values()), found


def typed_arguments(source: str) -> list:
    """The line of each ``add_argument`` call in ``source`` passing ``type=`` or ``choices=``."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        and any(kw.arg in ("type", "choices") for kw in node.keywords)
    )


def test_every_flag_is_read_as_text():
    # argparse converts nothing: a flag's text passes the option's converter, as a config value does
    caught = "p.add_argument('--n', type=int)\nadd_argument('--f', choices=['a'])\n"
    caught += "p.add_argument('--k', help='x', type=float)\n"
    assert typed_arguments(caught) == [1, 3]
    assert typed_arguments("p.add_argument('--n', help='n')\np.add(type=int)\n") == []
    assert typed_arguments((SRC / "multirdd" / "cli.py").read_text(encoding="utf-8")) == []


def converter_calls(source: str, converters: set) -> list:
    """(definition, converter) of each call to one of ``converters`` in a top-level function or
    class of ``source``, other than ``_merge_config`` and the converters themselves."""
    found = []
    for top in ast.parse(source).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue  # the option table's own entries build converters from converters
        if top.name in converters or top.name == "_merge_config":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in converters:
                    found.append((top.name, name))
    return found


def test_only_merge_config_converts_an_option():
    from multirdd import cli

    converters = {fn for _, options in cli.COMMANDS.values() for fn, _ in options.values()}
    names = {fn.__name__ for fn in converters if getattr(cli, fn.__name__, None) is fn}
    assert {"_text", "_count", "_names", "_format"} <= names
    caught = "def f(cfg):\n    return _text(cfg['x'])\nclass C:\n    def g(self):\n"
    caught += "        m._count(1)\ndef _merge_config(a):\n    _text(a)\ndef _names(v):\n"
    caught += "    _text(v)\nT = {'k': (lambda v: _text(v), 'help')}\n"
    found = converter_calls(caught, {"_text", "_count", "_names"})
    assert found == [("f", "_text"), ("C", "_count")]
    source = (SRC / "multirdd" / "cli.py").read_text(encoding="utf-8")
    assert converter_calls(source, names) == []


def scopes_of(source: str, hit) -> list:
    """``Class.method`` or ``function`` around each node of ``source`` that ``hit`` accepts;
    None at module level."""
    found = []

    def visit(node, scope):
        if hit(node):
            found.append(scope)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def compares_layout_with_none(node) -> bool:
    """A comparison of a name or attribute ``layout`` with None."""
    sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
    named = any(getattr(side, "id", getattr(side, "attr", None)) == "layout" for side in sides)
    return named and any(isinstance(side, ast.Constant) and side.value is None for side in sides)


def test_every_design_has_one_shape():
    # a hand-built design takes the identity layout at construction, so no later stage asks
    # which shape it reads; the cluster ids are coded once a fit, by the pass that reads them
    caught = "class D:\n    def f(self):\n        if self.layout is None:\n            pass\n"
    caught += "def g(layout):\n    return None != layout\nx = layout == None\n"
    assert scopes_of(caught, compares_layout_with_none) == ["D.f", "g", None]
    clean = "if basis is None:\n    layout = None\nlayout is not b\n"
    assert scopes_of(clean, compares_layout_with_none) == []
    source = (SRC / "multirdd" / "estimator.py").read_text(encoding="utf-8")
    assert scopes_of(source, compares_layout_with_none) == ["DesignMatrices.__post_init__"]
    assert callers_of(source, "unique") == ["_moments"]


INDICATOR_REFUSALS = ("must contain only 0/1 values", "are not cumulative in rows")


def says_an_indicator_refusal(node) -> bool:
    """A text constant, or a text part of an f-string, holding a refusal of the indicators."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
        text in node.value for text in INDICATOR_REFUSALS
    )


def test_only_the_dataset_refuses_an_indicator_matrix():
    # Dataset.__post_init__ checks x however it was made: stacked from indicator columns,
    # encoded from a treatment column, drawn by generate, or built by hand
    caught = 'def f():\n    raise E("x must contain only 0/1 values")\nclass D:\n'
    caught += '    def g(self):\n        return f"x{k} are not cumulative in rows {rows}"\n'
    assert scopes_of(caught, says_an_indicator_refusal) == ["f", "D.g"]
    assert scopes_of('"0/1 values"\nf"cumulative in {rows}"\n', says_an_indicator_refusal) == []
    found = [
        f"{path.stem}.{scope}"
        for path in sorted((SRC / "multirdd").glob("*.py"))
        for scope in scopes_of(path.read_text(encoding="utf-8"), says_an_indicator_refusal)
    ]
    assert found == ["data_model.Dataset.__post_init__"] * 2
