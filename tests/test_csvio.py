"""Unit tests for the versioned CSV layer."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.csvio import SCHEMA_VERSION, format_value, read_csv, write_csv


def test_format_value_scalars():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(None) == "nan"
    assert format_value(7) == "7"
    assert format_value(2.0) == "2.0"
    assert format_value(0.1) == "0.1"
    assert format_value(float("nan")) == "nan"
    assert format_value(float("inf")) == "inf"
    assert format_value(float("-inf")) == "-inf"
    assert format_value("label") == "label"


def test_format_value_reads_numpy_scalars_as_python_values():
    assert format_value(np.int64(7)) == "7"
    assert format_value(np.bool_(True)) == "1"
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(np.str_("label")) == "label"


def test_format_value_round_trips_floats():
    for x in (1 / 3, 0.1 + 0.2, 1e-300, 12345.678901234567, math.pi):
        assert float(format_value(x)) == x


def test_format_value_rejects_separator_in_strings():
    with pytest.raises(ValueError, match="row format"):
        format_value("a,b")
    with pytest.raises(ValueError, match="row format"):
        format_value("a\nb")


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    columns = {
        "i": [1, 2],
        "v": np.array([0.5, math.nan]),
        "flag": np.array([True, False]),
        "tag": ["x", "y"],
    }
    write_csv(path, "demo", columns)
    text = path.read_text()
    assert text.splitlines()[0] == f"# schema={SCHEMA_VERSION} kind=demo"
    assert text.endswith("\n")
    kind, back = read_csv(path)
    assert kind == "demo"
    assert list(back) == ["i", "v", "flag", "tag"]
    assert back == {"i": ["1", "2"], "v": ["0.5", "nan"], "flag": ["1", "0"], "tag": ["x", "y"]}


def test_empty_table_keeps_its_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "demo", {"a": [], "b": np.empty(0)})
    assert path.read_text() == f"# schema={SCHEMA_VERSION} kind=demo\na,b\n"
    assert read_csv(path) == ("demo", {"a": [], "b": []})


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", "demo", {"a": np.zeros(2), "b": [1]})


def test_read_csv_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# schema=other.v9 kind=demo\na,b\n1,2\n")
    with pytest.raises(ValueError, match="unsupported schema"):
        read_csv(path)
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing schema"):
        read_csv(path)


def test_read_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(f"# schema={SCHEMA_VERSION} kind=demo\na,b\n1,2\n1\n")
    with pytest.raises(ValueError, match="ragged"):
        read_csv(path)


def test_read_csv_rejects_a_repeated_column_name(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text(f"# schema={SCHEMA_VERSION} kind=demo\na,b,a\n1,2,3\n")
    with pytest.raises(ValueError, match="repeated column"):
        read_csv(path)


# Column form against the row-wise definition of a line ======================
_SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e-310]
)
_FLOATS = st.floats(allow_subnormal=True) | _SPECIAL_FLOATS
_TEXT = st.text(st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=","), min_size=1)


def _column(n):
    """One column of ``n`` cells in any form an exporter may hand over."""
    cells = lambda cell: st.lists(cell, min_size=n, max_size=n)  # noqa: E731
    return st.one_of(
        cells(st.integers()),
        cells(st.booleans()),
        cells(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        cells(st.integers(0, 2**32 - 1)).map(lambda v: np.array(v, dtype=np.uint32)),
        st.integers(-(2**40), 2**40).map(lambda start: range(start, start + n)),
        cells(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        cells(_FLOATS).map(lambda v: np.array(v, dtype=np.float64)),
        cells(st.none() | _FLOATS),
        cells(_TEXT),
    )


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 6))
    width = draw(st.integers(1, 5))
    return {f"c{j}": draw(_column(n)) for j in range(width)}


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_write_csv_writes_the_bytes_of_the_row_form(columns):
    reference = [f"# schema={SCHEMA_VERSION} kind=demo", ",".join(columns)]
    reference += [",".join(format_value(v) for v in row) for row in zip(*columns.values())]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, "demo", columns)
        assert path.read_bytes() == ("\n".join(reference) + "\n").encode("ascii")
        kind, back = read_csv(path)
    assert kind == "demo"
    assert back == {name: [format_value(v) for v in col] for name, col in columns.items()}
