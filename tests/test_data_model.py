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
    columns = {"y": np.zeros(n), "z": np.linspace(-1, 1, n), "extra_controls": np.ones((n, 1))}
    columns[field][1] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        Dataset(
            x=np.ones((n, 1)), cells=np.zeros(n, dtype=int), cell_labels=("all",),
            w_dummies=np.zeros((n, 0)), **columns,
        )


def test_missing_value_is_hard_error(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("y,z,t,race\n1,0.5,0,WH\n,1.0,1,WH\n", encoding="utf-8")
    with pytest.raises(ParseError, match="missing value in row 2"):
        load_table(path, schema())


def test_duplicate_header_referenced_by_schema(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("y,z,t,y\n1,0.5,0,2\n2,-0.5,1,3\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="more than once"):
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
        w_dummies=ds.w_dummies, aux={"r": r},
    )
    r[0] = 1e9
    assert held.aux["r"][0] == 0.0


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
    with pytest.raises(InputError, match="not among declared levels"):
        encode_treatment(np.array([0.0, 3.0]), (0, 1, 2))


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
    assert enc.q == 6
    assert enc.dummies.shape == (6, 5)


def test_encode_cells_single_value():
    enc = encode_cells([np.array(["a", "a", "a"])])
    assert enc.q == 1
    assert enc.dummies.shape == (3, 0)


def test_encode_cells_missing_combo():
    a = np.array(["0", "0", "1", "1"])
    b = np.array(["0", "1", "0", "0"])  # combo (1,1) never observed
    enc = encode_cells([a, b])
    assert enc.q == 3
    assert enc.dummies.shape == (4, 2)


def test_encode_cells_too_many_levels():
    col = np.arange(100).astype(str)
    with pytest.raises(InputError, match="coarsen"):
        encode_cells([col])


def test_encode_cells_reference_is_smallest_label():
    enc = encode_cells([np.array(["b", "a", "c"])])
    assert enc.labels[0] == "a"
    assert enc.dummies[enc.cells == 0].sum() == 0


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(12))))
def test_encode_cells_permutation_invariant(perm):
    col = np.array(["u", "v", "w"] * 4, dtype=object)
    enc = encode_cells([col])
    enc_perm = encode_cells([col[perm]])
    assert enc.q == enc_perm.q
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
        w_dummies=np.zeros((n, 0)),
    )


def test_validate_clean_dataset():
    ds = make_dataset([[1, 0], [1, 1], [0, 0], [1, 1]])
    report = validate_dataset(ds)
    assert report.monotonicity_violations == ()


def test_validate_flags_violation_row():
    ds = make_dataset([[1, 0], [0, 1], [1, 1], [0, 0]])
    report = validate_dataset(ds)
    assert report.monotonicity_violations == (1,)


def test_validate_warns_on_empty_side_within_bandwidth():
    # no right-side points in [0, h)
    ds = make_dataset([[1, 0]] * 4, z=[-0.2, -0.1, -0.05, 5.0])
    cfg = EstimationConfig(bandwidth=1.0)
    report = validate_dataset(ds, cfg)
    assert any("right side" in w for w in report.empty_side_warnings)
    assert report.cell_side_counts["all"] == (3, 0)


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
    with pytest.raises(InputError, match="strictly increasing"):
        ModelSpec(treatment_levels=(0, 0, 1))
    spec = ModelSpec(kind="conditional", r_column="educ")
    assert spec.r_column == "educ"


def test_estimation_config_validation():
    with pytest.raises(InputError, match="bandwidth"):
        EstimationConfig(bandwidth=-1.0)
    with pytest.raises(InputError, match="rcond"):
        EstimationConfig(bandwidth=1.0, rcond_threshold=2.0)
    cfg = EstimationConfig(bandwidth=1.0, kernel="triangular")
    assert cfg.kernel.value == "triangular"


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


def test_success_path_reads_each_column_once(monkeypatch):
    reads = []

    def recording(source, **kw):
        reads.append((kw.get("max_rows"), kw.get("usecols")))
        return real(source, **kw)

    real = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", recording)
    table = TableSchema(
        outcome="delayed_care", running="age", cutoff=65.0, treatment="coverage",
        covariates=("race", "educ"),
    )
    load_table(SAMPLE_CSV, table)
    # besides the header and row 1: every column once, typed, then the two text columns
    assert [usecols for max_rows, usecols in reads if max_rows is None] == [None, [3, 4]]
