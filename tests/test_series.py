import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loschmidt
from loschmidt.estimators import EstimatorConfig, f1_dr
from loschmidt.presets import load
from loschmidt.series import FidelitySeries, NonFiniteSeriesError, read_series, write_series


@pytest.mark.parametrize(
    "name",
    ["TrajectoryEscapeError", "GridLeakError", "AliasingError", "SingularExponentError",
     "NonFiniteSeriesError"],
)
def test_every_numerical_failure_is_a_numerical_error(name):
    # the CLI exits with code 3 on a NumericalError, 2 on a ValueError
    error = getattr(loschmidt, name)
    assert issubclass(error, loschmidt.NumericalError)
    assert not issubclass(error, ValueError)


def series_fixture():
    sc = load("displaced_ho")
    cfg = EstimatorConfig(n_traj=300, seed=3, tau=sc.tau, n_steps=25)
    return f1_dr(sc.state, sc.pair, cfg)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_series_round_trip_exact(tmp_path, suffix):
    series = series_fixture()
    path = tmp_path / f"f1.{suffix}"
    write_series(series, path)
    back = read_series(path)
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.values, series.values)
    assert np.array_equal(back.stderr, series.stderr)
    assert back.meta == (series.meta if suffix == "json" else {})


def test_csv_and_json_write_the_same_abs_f_sq(tmp_path):
    series = series_fixture()
    write_series(series, tmp_path / "f1.csv")
    write_series(series, tmp_path / "f1.json")
    rows = (tmp_path / "f1.csv").read_text().splitlines()
    column = rows[0].split(",").index("abs_f_sq")
    from_csv = [float(row.split(",")[column]) for row in rows[1:]]
    from_json = json.loads((tmp_path / "f1.json").read_text())["abs_f_sq"]
    assert np.array_equal(bits(from_csv), bits(from_json))
    assert np.array_equal(bits(from_json), bits(series.abs_sq))


HEADER = "step,time,re_f,im_f,abs_f_sq,stderr\n"
UNREADABLE = [
    ("empty.csv", "", "unexpected series header"),
    ("header.csv", "time,step\n0,0\n", "unexpected series header"),
    # six rows of five cells: thirty numbers, which must not be read as five rows of six
    ("short.csv", HEADER + "0,0,1,0,1\n" * 6, "cannot reshape"),
    ("ragged.csv", HEADER + "0,0,1,0,1,0\n1,0.1,1,0\n", "inhomogeneous"),
    ("cell.csv", HEADER + "0,0,1,x,1,0\n", "could not convert"),
    ("empty.json", "", "JSONDecodeError"),
    ("columns.json", '{"time": [0.0], "re_f": [1.0], "im_f": [0.0]}', "KeyError 'step'"),
    ("series.txt", "", "unknown series format '.txt'"),
]


@pytest.mark.parametrize("name, text, reason", UNREADABLE, ids=[case[0] for case in UNREADABLE])
def test_read_series_names_the_file_it_cannot_read(tmp_path, name, text, reason):
    path = tmp_path / name
    path.write_text(text)
    pattern = rf"cannot read series file .*{re.escape(name)}: .*{re.escape(reason)}"
    with pytest.raises(ValueError, match=pattern):
        read_series(path)


def test_read_series_reads_a_header_alone_as_an_empty_series(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text(HEADER)
    assert len(read_series(path)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_series_rejects_non_finite_values(bad):
    values = np.ones(5, dtype=complex)
    values[3] = bad
    with pytest.raises(NonFiniteSeriesError, match=r"estimator f1 .* at step 3 of 4"):
        FidelitySeries(np.arange(5.0), values, np.zeros(5), {"estimator": "f1"})


def test_series_allows_infinite_stderr():
    # f2_mc's batch bootstrap reports an error bar it cannot size as inf
    stderr = np.array([0.0, np.inf])
    series = FidelitySeries(np.arange(2.0), np.ones(2, complex), stderr)
    assert np.isinf(series.stderr[1])


finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("suffix", ["csv", "json"])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=12))
def test_round_trip_keeps_every_bit(tmp_path_factory, suffix, rows):
    # drawn values include +-0.0, subnormals and exponents near the limits
    times, re, im, stderr = (np.array(col) for col in zip(*rows))
    values = np.empty(len(rows), dtype=complex)
    values.real, values.imag = re, im
    series = FidelitySeries(times, values, stderr)
    path = tmp_path_factory.mktemp("series") / f"s.{suffix}"
    with np.errstate(over="ignore"):  # abs_f_sq of huge values is inf
        write_series(series, path)
    back = read_series(path)
    assert np.array_equal(bits(back.times), bits(times))
    assert np.array_equal(bits(back.values.real), bits(re))
    assert np.array_equal(bits(back.values.imag), bits(im))
    assert np.array_equal(bits(back.stderr), bits(stderr))
