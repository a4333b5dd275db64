import csv
import io
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirdd import data_model, estimator
from multirdd.data_model import (
    Dataset,
    EstimationConfig,
    ModelSpec,
    TableSchema,
    encode_cells,
    encode_treatment,
    kernel_window,
    load_table,
    validate_dataset,
)
from multirdd.errors import InputError, ParseError, SchemaError
from multirdd.estimator import build_design

SAMPLE_CSV = Path(__file__).parent.parent / "sample_data" / "insurance_style.csv"

SIX_ROWS = """y,z,t,race
1.0,-2.0,0,WH
0.5,-1.0,1,WH
0.2,-0.5,2,MIN
0.9,0.5,1,MIN
1.1,1.0,2,WH
0.3,2.0,0,MIN
"""


@pytest.fixture
def six_row_csv(tmp_path):
    path = tmp_path / "six.csv"
    path.write_text(SIX_ROWS, encoding="utf-8")
    return path


def schema(**kw):
    base = dict(outcome="y", running="z", treatment="t", covariates=("race",))
    base.update(kw)
    return TableSchema(**base)


def test_load_six_rows_infers_levels(six_row_csv):
    ds = load_table(six_row_csv, schema())
    assert ds.n == 6
    assert ds.d == 2  # distinct t levels {0,1,2} minus one
    assert ds.q == 2
    assert np.allclose(ds.z, [-2, -1, -0.5, 0.5, 1, 2])


def test_load_recenters_by_cutoff(six_row_csv):
    ds = load_table(six_row_csv, schema(cutoff=0.5))
    assert np.allclose(ds.z, [-2.5, -1.5, -1.0, 0.0, 0.5, 1.5])
    # recentering an already-centered file with cutoff 0 is a no-op
    ds0 = load_table(six_row_csv, schema(cutoff=0.0))
    assert np.allclose(ds0.z + 0.0, ds0.z)


def test_missing_treatment_column(six_row_csv):
    with pytest.raises(SchemaError, match="treatment column 'tt' not found"):
        load_table(six_row_csv, schema(treatment="tt"))


def test_non_numeric_cell_cites_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,z,t,race\n1,0.5,0,WH\n2,1.0,1,WH\nabc,1.5,2,MIN\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 3"):
        load_table(path, schema())


def test_empty_file_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="empty"):
        load_table(empty, schema())
    header_only = tmp_path / "header.csv"
    header_only.write_text("y,z,t,race\n", encoding="utf-8")
    with pytest.raises(InputError, match="no data rows"):
        load_table(header_only, schema())
    blank_first = tmp_path / "blank_first.csv"
    blank_first.write_text("\ny,z,t,race\n1,0.5,0,WH\n", encoding="utf-8")
    with pytest.raises(InputError, match="first line is blank"):
        load_table(blank_first, schema())


@pytest.mark.parametrize(
    "header, row, treatment, column, value",
    [
        ("y,z,t,race,ctl", "inf,1.0,1,WH,3", "t", "y", "inf"),
        ("y,z,t,race,ctl", "2,-inf,1,WH,3", "t", "z", "-inf"),
        ("y,z,t,race,ctl", "2,1.0,nan,WH,3", "t", "t", "nan"),
        ("y,z,t,race,ctl", "2,1.0,1,WH,nan", "t", "ctl", "nan"),
        ("y,z,x1,race,ctl", "2,1.0,inf,WH,3", None, "x1", "inf"),
    ],
)
def test_non_finite_value_names_column_and_row(tmp_path, header, row, treatment, column, value):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"{header}\n1,-0.5,0,MIN,1\n{row}\n3,0.5,0,WH,2\n", encoding="utf-8")
    treatment_kw = {"treatment": "t"} if treatment else {"treatment_indicators": ("x1",)}
    table = TableSchema(
        outcome="y", running="z", covariates=("race",), extra_controls=("ctl",), **treatment_kw
    )
    message = f"column '{column}' has non-finite value {value} in row 2"
    with pytest.raises(ParseError, match=message):
        load_table(path, table)


@pytest.mark.parametrize("field", ["y", "z", "extra_controls"])
def test_dataset_rejects_non_finite_columns(field):
    n = 4
    columns = {"y": np.zeros(n), "z": np.linspace(-1, 1, n), "extra_controls": np.ones(n)}
    columns[field][1] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        Dataset(
            y=columns["y"], z=columns["z"], x=np.ones((n, 1)), cells=np.zeros(n, dtype=int),
            cell_labels=("all",), extra_control_names=("ctl",),
            aux={"ctl": columns["extra_controls"]},
        )


@pytest.mark.parametrize(
    "aux, message",
    [
        ({}, r"extra control column 'ctl' not found \(table has \[\]\)"),
        (
            {"ctl": np.array(["a", "b", "c", "d"])},
            "extra control column 'ctl' has non-numeric value 'a' in row 1",
        ),
        ({"ctl": np.ones(3)}, r"extra control column 'ctl' has shape \(3,\), expected 4 rows"),
    ],
)
def test_extra_control_names_an_aux_column_of_finite_numbers(aux, message):
    n = 4
    with pytest.raises(InputError, match=message):
        Dataset(
            y=np.zeros(n), z=np.linspace(-1, 1, n), x=np.ones((n, 1)),
            cells=np.zeros(n, dtype=int), cell_labels=("all",),
            extra_control_names=("ctl",), aux=aux,
        )


def test_every_aux_column_has_one_row_per_observation():
    # the cluster, R and W-tilde roles all read aux, so the constructor covers each of them
    n = 200
    z = np.linspace(-1, 1, n)
    with pytest.raises(InputError, match=r"aux column 'g' has shape \(100,\), expected 200 rows"):
        Dataset(
            y=np.sin(7 * z), z=z, x=(z >= 0)[:, None], cells=np.zeros(n, dtype=int),
            cell_labels=("all",), aux={"g": np.arange(100) % 5},
        )


def test_missing_value_is_hard_error(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("y,z,t,race\n1,0.5,0,WH\n,1.0,1,WH\n", encoding="utf-8")
    with pytest.raises(ParseError, match="missing value in row 2"):
        load_table(path, schema())


@pytest.mark.parametrize(
    "value, message",
    [
        ("nan", "column 'g' has non-finite value nan in row 2"),
        ("-inf", "column 'g' has non-finite value -inf in row 2"),
        ("", "covariate column 'g' has a missing value in row 2"),
    ],
)
def test_covariate_value_that_is_no_cell_names_column_and_row(tmp_path, value, message):
    # a NaN or an inf in a numeric covariate would otherwise label a cell "nan" or "-inf"
    path = tmp_path / "cov.csv"
    path.write_text(f"y,z,t,g\n1,-0.5,0,1\n2,0.5,1,{value}\n3,1.0,1,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        load_table(path, schema(covariates=("g",)))


def test_duplicate_header_referenced_by_schema(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("y,z,t,y\n1,0.5,0,2\n2,-0.5,1,3\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="more than once"):
        load_table(path, TableSchema(outcome="y", running="z", treatment="t"))
    # a doubled column the schema does not name loaded, and a later cluster or R read its last copy
    path.write_text("y,z,t,g,g\n1,0.5,0,1,2\n2,-0.5,1,3,4\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="^column 'g' appears more than once in the header$"):
        load_table(path, TableSchema(outcome="y", running="z", treatment="t"))


def test_load_deterministic(six_row_csv):
    a = load_table(six_row_csv, schema())
    b = load_table(six_row_csv, schema())
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.cells, b.cells)
    assert a.cell_labels == b.cell_labels


def test_prebuilt_indicator_columns(tmp_path):
    path = tmp_path / "ind.csv"
    path.write_text(
        "y,z,x1,x2,race\n1,-1,1,0,WH\n2,1,1,1,WH\n3,-2,0,0,MIN\n4,2,1,1,MIN\n",
        encoding="utf-8",
    )
    ds = load_table(
        path,
        TableSchema(
            outcome="y",
            running="z",
            treatment_indicators=("x1", "x2"),
            covariates=("race",),
        ),
    )
    assert ds.d == 2
    bad = tmp_path / "noncum.csv"
    bad.write_text("y,z,x1,x2\n1,-1,0,1\n2,1,1,1\n", encoding="utf-8")
    with pytest.raises(InputError, match="not cumulative"):
        load_table(bad, TableSchema(outcome="y", running="z", treatment_indicators=("x1", "x2")))


def test_schema_requires_exactly_one_treatment_form():
    with pytest.raises(SchemaError):
        TableSchema(outcome="y", running="z")
    with pytest.raises(SchemaError):
        TableSchema(outcome="y", running="z", treatment="t", treatment_indicators=("x1",))


@pytest.mark.parametrize(
    "field, names",
    [
        ("covariates", ("race", "educ", "race")),
        ("extra_controls", ("region", "region")),
        ("treatment_indicators", ("x1", "x2", "x2")),
        ("wtilde_columns", ("region", "region")),
    ],
)
def test_a_column_named_twice_in_one_field_is_a_schema_error(field, names):
    with pytest.raises(SchemaError, match=f"^{field} names column '{names[-1]}' more than once$"):
        if field == "wtilde_columns":
            ModelSpec(kind="parametric", wtilde_columns=names)
        else:
            treatment = {} if field == "treatment_indicators" else {"treatment": "t"}
            TableSchema(outcome="y", running="z", **treatment, **{field: names})


@pytest.mark.parametrize(
    "fields, says",
    [
        (dict(treatment="t", covariates=("race", "region"), extra_controls=("region",)),
         "covariates and extra_controls both name column 'region'"),
        (dict(extra_controls=("x2",), treatment_indicators=("x1", "x2")),
         "extra_controls and treatment_indicators both name column 'x2'"),
        (dict(covariates=("x1",), treatment_indicators=("x1", "x2")),
         "covariates and treatment_indicators both name column 'x1'"),
        (dict(treatment="t", extra_controls=("y",)), "extra_controls and outcome both name column 'y'"),
        (dict(treatment="t", covariates=("t",)), "covariates and treatment both name column 't'"),
        (dict(treatment_indicators=("x1", "y")),
         "treatment_indicators and outcome both name column 'y'"),
        (dict(treatment="y"), "outcome and treatment both name column 'y'"),
        (dict(treatment="t", extra_controls=("z",)),
         "running and extra_controls both name column 'z'"),
        (dict(treatment_indicators=("x1", "z")),
         "running and treatment_indicators both name column 'z'"),
    ],
)
def test_a_column_named_in_two_schema_fields_is_a_schema_error(fields, says):
    # such a column was accepted, and the fit failed late as collinear without a name,
    # or, with the outcome as a control, reported beta = 0 with SE 0
    with pytest.raises(SchemaError, match=f"^{says}$"):
        TableSchema(outcome="y", running="z", **fields)


def test_the_running_column_is_not_the_outcome():
    # on the sample, --outcome age --running age fitted and exited 0 with beta ~ 1e-14
    with pytest.raises(SchemaError, match="^running and outcome both name column 'z'$"):
        TableSchema(outcome="z", running="z", treatment="t")


def test_one_naming_rule_spans_the_fields_it_is_given():
    # build_design's check of the covariates, the extra controls and r_column
    with pytest.raises(SchemaError, match="^covariates and r_column both name column 'educ'$"):
        data_model._once(covariates=("race", "educ"), r_column=("educ",))
    with pytest.raises(SchemaError, match="^covariates names column 'race' more than once$"):
        data_model._once(covariates=("race", "race"), r_column=("race",))
    data_model._once(covariates=("race", "educ"), r_column=("region",))


@pytest.mark.parametrize("delimiter", ["", "ab", '"', "\n", "\r", None])
def test_schema_delimiter_is_one_character_that_splits_fields(delimiter):
    with pytest.raises(SchemaError, match=f"delimiter .*: {re.escape(repr(delimiter))}$"):
        TableSchema(outcome="y", running="z", treatment="t", delimiter=delimiter)


def test_dataset_arrays_are_immutable(six_row_csv):
    ds = load_table(six_row_csv, schema())
    with pytest.raises(ValueError):
        ds.y[0] = 99.0
    with pytest.raises(ValueError):
        ds.aux["z"][0] = 1e9
    with pytest.raises(TypeError):
        ds.aux["z"] = np.zeros(ds.n)
    # a caller's own array passed in aux is copied, so later writes to it do not reach the dataset
    r = np.zeros(ds.n)
    held = Dataset(
        y=ds.y, z=ds.z, x=ds.x, cells=ds.cells, cell_labels=ds.cell_labels,
        aux={"r": r},
    )
    r[0] = 1e9
    assert held.aux["r"][0] == 0.0


def test_loader_columns_are_shared_not_copied():
    table = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race",), cluster="age",
    )
    ds = load_table(SAMPLE_CSV, table)
    assert np.shares_memory(ds.y, ds.aux["delayed_care"])
    assert np.shares_memory(ds.cluster, ds.aux["age"])
    assert all(not col.flags.writeable for col in ds.aux.values())


def test_hand_built_dataset_does_not_follow_the_callers_arrays():
    y, z, extra = np.arange(6.0), np.linspace(-1, 1, 6), np.ones(6)
    x, cells, cluster = np.ones((6, 1)), np.zeros(6, dtype=int), np.arange(6)
    base = np.full(6, 2.0)
    view = base[:]  # read-only, but a view of an array the caller can still write
    view.setflags(write=False)
    ds = Dataset(
        y=y, z=z, x=x, cells=cells, cell_labels=("all",), cluster=cluster,
        extra_control_names=("ctl",), aux={"ctl": extra, "r": view},
    )
    for a in (y, z, x, cells, cluster, extra, base):
        a[...] = 7
    assert ds.y.tolist() == list(range(6)) and ds.z[0] == -1.0 and ds.x.sum() == 6
    assert ds.cells.sum() == 0 and ds.cluster.tolist() == list(range(6))
    assert ds.aux["ctl"].tolist() == [1.0] * 6 and ds.aux["r"].tolist() == [2.0] * 6


def levels_oracle(col):
    values, codes = np.unique(col, return_inverse=True)
    return codes, tuple(data_model._format_value(v) for v in values.tolist())


def pooled(values, dtype):
    """Columns of up to 40 rows drawn from a pool of up to 5 values, so values repeat."""
    pools = st.lists(values, min_size=1, max_size=5)
    rows = pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return rows.map(lambda r: np.array(r, dtype=dtype))


# multi-byte characters, so text fields run well past the 8 bytes of one key word
TEXT = st.text(alphabet="ab é日😀\x00|", max_size=12)
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0, 4.0]), st.floats())


@settings(max_examples=200, deadline=None)
@given(
    pooled(TEXT, str)
    | pooled(FLOATS, float)
    | pooled(st.integers(-(2**63), 2**63 - 1), np.int64)
    | pooled(st.integers(0, 300), np.uint16)
    | pooled(st.booleans(), bool)
    | pooled(TEXT, object)
)
def test_levels_equal_np_unique(col):
    codes, labels = data_model._levels(col)
    want_codes, want_labels = levels_oracle(col)
    assert labels == want_labels
    assert np.array_equal(codes, want_codes)


@pytest.mark.parametrize(
    "col",
    [
        np.array(["WH", "MIN", "ölçü-über-lang", "WH", "日本語のテキスト", "MIN"]),
        np.array([2.5, -0.0, 1.0, 0.0, 2.5, -7.0]),
        np.array([3, 1, 3, 2, 1], dtype=np.int64),
    ],
)
def test_levels_are_exact_when_every_row_key_collides(monkeypatch, col):
    monkeypatch.setattr(data_model, "_row_keys", lambda c: np.zeros(len(c), dtype=np.uint64))
    codes, labels = data_model._levels(col)
    want_codes, want_labels = levels_oracle(col)
    assert labels == want_labels
    assert np.array_equal(codes, want_codes)
    enc = encode_cells([col, col[::-1]])
    monkeypatch.undo()
    want = encode_cells([col, col[::-1]])
    assert enc.labels == want.labels and np.array_equal(enc.cells, want.cells)


def test_load_parses_every_column_once_into_aux(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("y,z,t,race,note\n1, 4.0 ,0, WH ,a\n2,-04,1,MIN,7\n", encoding="utf-8")
    ds = load_table(path, schema(covariates=("race", "z")))
    assert ds.aux["z"].dtype.kind == "f" and list(ds.aux["z"]) == [4.0, -4.0]
    assert list(ds.aux["race"]) == ["WH", "MIN"]
    assert list(ds.aux["note"]) == ["a", "7"]
    # a numeric covariate is labelled by its parsed value, not its text
    assert ds.cell_labels == ("MIN|-4", "WH|4")


def test_each_covariate_value_is_formatted_once(monkeypatch):
    calls = []

    def counting(v, _real=data_model._format_value):
        calls.append(v)
        return _real(v)

    # patch any module that binds the formatter by name, as well as its owner
    for module in (data_model, estimator):
        monkeypatch.setattr(module, "_format_value", counting, raising=False)
    table = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race",),
    )
    ds = load_table(SAMPLE_CSV, table)
    cfg = EstimationConfig(bandwidth=10.0)
    build_design(ds, ModelSpec(kind="conditional", r_column="educ"), cfg)
    distinct = len(set(ds.aux["race"].tolist())) + len(set(ds.aux["educ"].tolist()))
    assert len(calls) <= distinct, len(calls)


def test_encode_treatment_definition():
    x = encode_treatment(np.array([0.0, 1.0, 2.0]), (0, 1, 2))
    assert np.array_equal(x, [[0, 0], [1, 0], [1, 1]])


def test_encode_treatment_out_of_range():
    with pytest.raises(InputError, match=r"treatment value 3 in row 2 is not among declared levels"):
        encode_treatment(np.array([0.0, 3.0]), (0, 1, 2))
    with pytest.raises(InputError, match="strictly increasing"):
        encode_treatment(np.array([0.0, 1.0]), (0, 0, 1))
    # NaN compares False both ways, and inf passes any order check: both fitted until singular
    for levels in ((math.nan, 0, 1, 2), (0, 1, 2, math.inf)):
        with pytest.raises(InputError, match=r"^treatment levels must be finite numbers, got \["):
            encode_treatment(np.array([0.0, 1.0]), levels)


def test_encode_treatment_refuses_more_levels_than_a_cell_column():
    levels = range(data_model.MAX_CELL_LEVELS + 1)
    with pytest.raises(InputError, match="^need 2 to 64 treatment levels, got 65$"):
        encode_treatment(np.array([0.0, 1.0]), levels)
    assert encode_treatment(np.array([0.0, 63.0]), levels[:-1]).shape == (2, 63)
    # the running variable as the treatment: its 3,984 levels are refused before they are coded
    with pytest.raises(InputError, match="^treatment column 'age': need 2 to 64 treatment levels"):
        load_table(SAMPLE_CSV, TableSchema(outcome="delayed_care", running="age", treatment="age"))


def test_encode_treatment_degenerate_all_ones():
    x = encode_treatment(np.ones(4), (0, 1))
    assert np.array_equal(x, np.ones((4, 1)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
)
def test_encode_decode_round_trip(values):
    levels = (0, 1, 2, 3, 4)
    t = np.asarray(values, dtype=float)
    x = encode_treatment(t, levels)
    assert np.array_equal(np.asarray(levels, dtype=float)[x.sum(axis=1).astype(int)], t)
    assert (np.diff(x, axis=1) <= 0).all()


def test_encode_cells_race_education():
    race = np.repeat(["WH", "MIN"], 3)
    educ = np.tile(["DRP", "HS", "COL"], 2)
    enc = encode_cells([race, educ])
    assert len(enc.labels) == 6
    assert sorted(enc.cells) == list(range(6))


def test_encode_cells_single_value():
    enc = encode_cells([np.array(["a", "a", "a"])])
    assert enc.labels == ("a",)
    assert enc.cells.tolist() == [0, 0, 0]


def test_encode_cells_missing_combo():
    a = np.array(["0", "0", "1", "1"])
    b = np.array(["0", "1", "0", "0"])  # combo (1,1) never observed
    enc = encode_cells([a, b])
    assert enc.labels == ("0|0", "0|1", "1|0")
    assert enc.cells.tolist() == [0, 1, 2, 2]


def test_two_combinations_joined_to_one_label_are_an_input_error():
    # ("x|y", "z") and ("x", "y|z") both join to "x|y|z"; they once shared one cell
    a, b = np.array(["x|y", "x", "x|y", "x"]), np.array(["z", "y|z", "z", "y|z"])
    with pytest.raises(InputError, match=r"columns \(0, 1\) share the cell label 'x\|y\|z'"):
        encode_cells([a, b])
    with pytest.raises(InputError, match=r"columns \('a', 'b'\) share the cell label 'x\|y\|z'"):
        encode_cells([a, b], ("a", "b"))


def test_a_bar_inside_the_values_of_one_covariate_is_a_label():
    enc = encode_cells([np.array(["x|y", "x", "x|y"]), np.array(["z", "z", "w"])])
    assert enc.labels == ("x|y|w", "x|y|z", "x|z")
    assert enc.cells.tolist() == [1, 2, 0]


def test_encode_cells_of_no_rows():
    for columns in ([np.array([], dtype=str)], [np.array([]), np.array([], dtype=str)]):
        enc = encode_cells(columns)
        assert enc.labels == () and enc.cells.shape == (0,)


def test_encode_cells_too_many_levels():
    col = np.arange(100).astype(str)
    with pytest.raises(InputError, match="coarsen"):
        encode_cells([col])
    with pytest.raises(InputError, match="^covariate column 'age' has 100 levels"):
        encode_cells([col], ("age",))  # as load_table names it


def test_encode_cells_reference_is_smallest_label():
    enc = encode_cells([np.array(["b", "a", "c"])])
    assert enc.labels == ("a", "b", "c")
    assert enc.cells.tolist() == [1, 0, 2]  # code 0, the reference cell, is the smallest label


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(12))))
def test_encode_cells_permutation_invariant(perm):
    col = np.array(["u", "v", "w"] * 4, dtype=object)
    enc = encode_cells([col])
    enc_perm = encode_cells([col[perm]])
    assert enc.labels == enc_perm.labels
    assert np.array_equal(enc.cells[perm], enc_perm.cells)


def make_dataset(x_rows, z=None):
    x = np.asarray(x_rows, dtype=float)
    n = len(x)
    z = np.linspace(-1, 1, n) if z is None else np.asarray(z, dtype=float)
    return Dataset(
        y=np.zeros(n),
        z=z,
        x=x,
        cells=np.zeros(n, dtype=int),
        cell_labels=("all",),
    )


def test_validate_clean_dataset():
    ds = make_dataset([[1, 0], [1, 1], [0, 0], [1, 1]])
    report = validate_dataset(ds)
    assert report.monotonicity_violations == ()


def test_validate_flags_violation_row():
    ds = make_dataset([[1, 0], [0, 1], [1, 1], [0, 0]])
    report = validate_dataset(ds)
    assert report.monotonicity_violations == (1,)


def test_validate_reports_constant_columns():
    ds = make_dataset([[1, 1]] * 4)
    report = validate_dataset(ds)
    assert "x1" in report.constant_columns
    assert "x2" in report.constant_columns
    assert "y" in report.constant_columns


def test_model_spec_validation():
    with pytest.raises(InputError):
        ModelSpec(kind="magic")
    with pytest.raises(InputError):
        ModelSpec(kind="conditional")
    with pytest.raises(InputError):
        ModelSpec(kind="parametric")
    with pytest.raises(TypeError):
        ModelSpec(treatment_levels=(0, 1, 2))  # the schema owns the treatment levels
    spec = ModelSpec(kind="conditional", r_column="educ")
    assert spec.r_column == "educ"


def test_estimation_config_validation():
    with pytest.raises(InputError, match="bandwidth"):
        EstimationConfig(bandwidth=-1.0)
    # an infinite bandwidth would weigh every row alike: a global fit, not a local one
    for h in (math.inf, -math.inf, math.nan, 0.0):
        with pytest.raises(InputError, match=f"positive finite number, got {h}"):
            EstimationConfig(bandwidth=h)
    cfg = EstimationConfig(bandwidth=1.0, kernel="triangular")
    assert cfg.kernel.value == "triangular"


# few z values, several outside the window (|z| > 1) and one at the cutoff, so sides tie,
# go empty or hold one row
WINDOW_Z = st.sampled_from([-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.lists(st.tuples(st.integers(0, q - 1), WINDOW_Z, st.floats(-1e3, 1e3)), max_size=40),
        )
    ),
    st.integers(1, 9),
)
def test_the_window_rows_are_grouped_once(table, block):
    q, rows = table
    cells, z, v = (np.array([r[j] for r in rows], dtype=float) for j in range(3))
    ds = Dataset(
        y=v, z=z, x=np.zeros((len(rows), 1)), cells=cells.astype(int),
        cell_labels=tuple(f"c{l}" for l in range(q)),
    )
    win = kernel_window(ds, EstimationConfig(bandwidth=1.0))
    basis = win.basis
    # the weight-positive rows, sorted by (cell, side) group, each group's rows ascending
    group = [2 * int(cells[i]) + (z[i] >= 0) for i in win.rows.tolist()]
    assert sorted(win.rows.tolist()) == [i for i in range(len(rows)) if abs(z[i]) <= 1.0]
    assert list(zip(group, win.rows.tolist())) == sorted(zip(group, win.rows.tolist()))
    assert basis.groups.tolist() == group and basis.z.tolist() == z[win.rows].tolist()
    # each group's rows and whether it has two distinct z, counted row by row
    counts, usable = basis.extent
    for g in range(2 * q):
        mine = [z[i] for i, h in zip(win.rows.tolist(), group) if h == g]
        assert counts[g] == len(mine) and usable[g] == (len(set(mine)) > 1)
    # each group's sum over a block of rows lo, lo + 1, ..., from any row on, mid-group too
    vals = v[win.rows]
    for lo in range(len(vals)):
        part = vals[lo : lo + block]
        got = basis.total(part, lo)
        for g in range(2 * q):
            mine = [x for x, h in zip(part.tolist(), group[lo : lo + block]) if h == g]
            bound = 4 * len(mine) * np.finfo(float).eps * math.fsum(map(abs, mine))
            assert abs(got[g] - math.fsum(mine)) <= bound, (lo, g)


def test_estimation_config_does_not_own_the_cutoff():
    # TableSchema.cutoff recenters z at load; the config keyword never moved
    # the fit, so it is not stored and passing it warns
    with pytest.warns(FutureWarning, match="TableSchema.cutoff"):
        cfg = EstimationConfig(bandwidth=1.0, cutoff=65.0)
    assert "cutoff" not in {f.name for f in fields(cfg)}
    assert cfg == EstimationConfig(bandwidth=1.0)


def write(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def test_field_count_error_names_the_row(tmp_path):
    for body, message in (
        ("1,-1,0,WH\n2,1,1,MIN,extra\n", "row 2 has 5 fields, header has 4"),
        ("1,-1,0,WH\n2,1,1,MIN\n3,2\n", "row 3 has 2 fields, header has 4"),
        ("1,-1,0\n2,1,1,MIN\n", "row 1 has 3 fields, header has 4"),
    ):
        with pytest.raises(ParseError, match=message):
            load_table(write(tmp_path, "y,z,t,race\n" + body), schema())


def test_quoted_field_with_delimiter_is_one_value(tmp_path):
    text = 'y,z,t,race,note\n1,-1,0,WH,"a, b"\n2,1,1,MIN,c\n3,2,2,WH," d,e "\n'
    ds = load_table(write(tmp_path, text), schema())
    assert list(ds.aux["note"]) == ["a, b", "c", "d,e"]


def test_quoted_field_with_embedded_newline_is_one_value(tmp_path):
    text = 'y,z,t,race,note\n1,-1,0,WH,"two\nlines"\n2,1,1,MIN,c\n'
    ds = load_table(write(tmp_path, text), schema())
    assert ds.n == 2
    assert list(ds.aux["note"]) == ["two\nlines", "c"]
    assert np.array_equal(ds.y, [1.0, 2.0])


def test_crlf_line_endings(tmp_path):
    crlf = load_table(write(tmp_path, SIX_ROWS.replace("\n", "\r\n"), "crlf.csv"), schema())
    lf = load_table(write(tmp_path, SIX_ROWS, "lf.csv"), schema())
    assert np.array_equal(crlf.y, lf.y) and np.array_equal(crlf.x, lf.x)
    assert list(crlf.aux["race"]) == list(lf.aux["race"])
    assert crlf.cell_labels == lf.cell_labels == ("MIN", "WH")


def test_empty_lines_between_rows_are_skipped(tmp_path):
    lines = SIX_ROWS.splitlines()
    text = "\n".join(lines[:3] + ["", ""] + lines[3:]) + "\n\n"
    ds = load_table(write(tmp_path, text), schema())
    assert ds.n == 6
    assert np.allclose(ds.z, [-2, -1, -0.5, 0.5, 1, 2])
    # rows are numbered without the skipped lines
    bad = "\n".join(lines[:2] + [""] + lines[2:3] + ["abc,0.7,1,WH"]) + "\n"
    with pytest.raises(ParseError, match="non-numeric value 'abc' in row 3"):
        load_table(write(tmp_path, bad, "bad.csv"), schema())


def test_column_numeric_in_first_row_and_text_later_is_stripped_text(tmp_path):
    text = "y,z,t,race,code\n1,-1,0,WH,7\n2,1,1,MIN, x9 \n3,2,2,WH,8\n"
    ds = load_table(write(tmp_path, text), schema())
    assert ds.aux["code"].dtype.kind == "U"
    assert list(ds.aux["code"]) == ["7", "x9", "8"]
    ds = load_table(write(tmp_path, text, "cov.csv"), schema(covariates=("code",)))
    assert ds.cell_labels == ("7", "8", "x9")


@pytest.mark.parametrize("blank", ["   ", ",,,", " , ,\t, "])
def test_row_of_blank_fields_is_a_parse_error_naming_the_row(tmp_path, blank):
    # only a truly empty line is skipped; a row of whitespace or empty fields is an error
    text = "y,z,t,race\n1,-1,0,WH\n2,1,1,MIN\n" + blank + "\n3,2,2,WH\n"
    with pytest.raises(ParseError, match="row 3"):
        load_table(write(tmp_path, text), schema())


def test_numbers_use_the_plain_decimal_grammar(tmp_path):
    # digit separators and non-ASCII digits are text, as numpy's parser reads them
    for value in ("1_000", "١٢"):
        text = f"y,z,t,race\n1,-1,0,WH\n{value},1,1,MIN\n"
        with pytest.raises(ParseError, match=f"column 'y' has non-numeric value '{value}' in row 2"):
            load_table(write(tmp_path, text), schema())


def full_reads(monkeypatch, path, table):
    """The ``usecols`` of each ``np.loadtxt`` call that ``load_table`` makes over every row."""
    reads = []

    def recording(source, **kw):
        reads.append((kw.get("max_rows"), kw.get("usecols")))
        return real(source, **kw)

    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", recording)
    load_table(path, table)
    monkeypatch.setattr(np, "loadtxt", real)
    return [usecols for max_rows, usecols in reads if max_rows is None]


def test_success_path_reads_each_column_once(monkeypatch):
    table = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"),
    )
    # besides the header and row 1: every column once, the text sized by the byte scan
    assert full_reads(monkeypatch, SAMPLE_CSV, table) == [None]


def test_quoted_file_reads_its_text_columns_again(monkeypatch, tmp_path):
    text = 'y,z,t,race,note\n1,-1,0,WH,"a, b"\n2,1,1,MIN,c\n'
    assert full_reads(monkeypatch, write(tmp_path, text), schema()) == [None, [3, 4]]


def test_numeric_file_is_not_scanned(monkeypatch, tmp_path):
    def no_scan(*args):
        raise AssertionError("an all-numeric file has no text to size")

    monkeypatch.setattr(data_model, "_field_widths", no_scan)
    path = write(tmp_path, "y,z,t,g\n1,-1,0,4\n2,1,1,5\n3,2,2,4\n")
    assert full_reads(monkeypatch, path, schema(covariates=("g",))) == [None]


def test_text_after_a_numeric_row_1_is_read_again(tmp_path):
    path = write(tmp_path, "y,z,t,g\n1,-1,0,4\n2,1,1,5b\n3,2,2, long text \n")
    ds = load_table(path, schema(covariates=("g",)))
    assert list(ds.aux["g"]) == ["4", "5b", "long text"]
    assert np.array_equal(ds.y, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "text, widths",
    [
        ("y,note,t\n1.5,ab,0\n-2,\u00e9\u65e5 ,1\n", [3, 6, 1]),  # UTF-8 bytes, not characters
        ("y,note,t\n1.5,ab,0\n-2,abc,10", [3, 3, 2]),  # no newline after the last row
        ("y,note,t\r\n1.5,ab,0\r\n-2,abc,1\r\n", [3, 3, 2]),  # the CR counts, an upper bound
        ("long_header_name,b\n1,2\n", [1, 1]),  # the header is not data
        ("y,note,t\n1,,0\n", [1, 0, 1]),
    ],
)
def test_field_widths_bound_each_data_column(tmp_path, text, widths):
    assert data_model._field_widths(write(tmp_path, text), ",", len(widths)).tolist() == widths


@pytest.mark.parametrize(
    "text, delimiter",
    [
        ('y,note,t\n1,"a",0\n', ","),  # a quote
        ("y,note,t\r1,a,0\r", ","),  # carriage returns alone end lines for numpy
        ("y,note,t\n1,a\r,0\n", ","),
        ("y,note,t\n1,a,0\n\n2,b,1\n", ","),  # an empty line
        ("y,note,t\n1,a,0,9\n2,b\n", ","),  # rows of other field counts, 6 fields in all
        ("y\u00a7note\u00a7t\n1\u00a7a\u00a70\n", "\u00a7"),  # a two-byte delimiter
    ],
)
def test_field_widths_decline_what_the_byte_scan_cannot_split(tmp_path, text, delimiter):
    assert data_model._field_widths(write(tmp_path, text), delimiter, 3) is None


def test_text_that_fills_its_sized_field_is_read_again(monkeypatch, tmp_path):
    path = write(tmp_path, "y,z,t,race,note\n1,-1,0,WH,ab\n2,1,1,MIN,abcd\n3,2,2,WH, abcdefg \n")
    exact = load_table(path, schema())
    real = data_model._field_widths
    monkeypatch.setattr(data_model, "_field_widths", lambda *args: real(*args) - 1)
    # a scan one byte short: each text column's widest value fills its field
    assert full_reads(monkeypatch, path, schema()) == [None, [3, 4]]
    narrow = load_table(path, schema())
    assert list(narrow.aux["note"]) == list(exact.aux["note"]) == ["ab", "abcd", "abcdefg"]
    assert list(narrow.aux["race"]) == list(exact.aux["race"]) == ["WH", "MIN", "WH"]
    assert np.array_equal(narrow.y, exact.y) and np.array_equal(narrow.x, exact.x)


@pytest.mark.parametrize(
    "lines, expected",
    [
        # numpy ends a line at a carriage return alone, so classic Mac endings load as LF
        (SIX_ROWS.replace("\n", "\r"), None),
        (SIX_ROWS.replace("\n", "\r", 3), None),
        (SIX_ROWS.replace("0.9,0.5,1,MIN", "0.9,0.5,1,M\rIN"), "row 5 has 1 fields, header has 4"),
    ],
)
def test_bare_carriage_return_ends_a_line(tmp_path, lines, expected):
    path = write(tmp_path, lines)
    if expected is not None:
        with pytest.raises(ParseError, match=expected):
            load_table(path, schema())
        return
    ds, lf = load_table(path, schema()), load_table(write(tmp_path, SIX_ROWS, "lf.csv"), schema())
    assert np.array_equal(ds.y, lf.y) and np.array_equal(ds.x, lf.x)
    assert list(ds.aux["race"]) == list(lf.aux["race"])


@st.composite
def csv_tables(draw):
    """A table of numbers and text as ``csv.writer`` writes it, with one text value made widest."""
    n, k = draw(st.integers(2, 10)), draw(st.integers(1, 3))
    # with a delimiter, a newline or a quote in a value, csv.writer quotes it
    alphabet = "ab \u00e9\u65e5\U0001d11e" + draw(st.sampled_from(["", ',\n"']))
    pad = st.sampled_from(["", " ", "  "])

    def text(widest=False):
        fill = draw(st.sampled_from("x\u65e5")) * draw(st.integers(9, 12)) if widest else ""
        body = draw(st.sampled_from("x\u00e9\u65e5")) + fill + draw(st.text(alphabet, max_size=8))
        return draw(pad) + body + draw(pad)

    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [
        [draw(pad) + draw(number) + draw(pad), draw(number), str(i % 2)]
        + [text() for _ in range(k)]
        for i in range(n)
    ]
    rows[draw(st.integers(0, n - 1))][3 + draw(st.integers(0, k - 1))] = text(widest=True)
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [["y", "z", "t"] + [f"s{j}" for j in range(k)]] + rows
    )
    body = out.getvalue()
    return body if draw(st.booleans()) else body.rstrip("\r\n")


@settings(max_examples=80, deadline=None)
@given(csv_tables())
def test_load_table_reads_what_csv_reader_reads(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_bytes(body.encode("utf-8"))
    rows = list(csv.reader(io.StringIO(body, newline="")))
    header, columns = rows[0], list(zip(*rows[1:]))
    ds = load_table(path, TableSchema(outcome="y", running="z", treatment="t"))
    assert np.array_equal(ds.y, [float(v) for v in columns[0]])
    assert np.array_equal(ds.z, [float(v) for v in columns[1]])
    for name, column in zip(header[3:], columns[3:]):
        assert ds.aux[name].tolist() == [v.strip() for v in column]
