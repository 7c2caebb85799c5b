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


def test_series_round_trip_exact(tmp_path):
    series = series_fixture()
    path = tmp_path / "f1.csv"
    write_series(series, path)
    back = read_series(path)
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.values, series.values)
    assert np.array_equal(back.stderr, series.stderr)
    # a table holds no meta; a run writes it to run_metadata.json
    assert back.meta == {}


def test_csv_writes_every_bit_of_abs_f_sq(tmp_path):
    series = series_fixture()
    write_series(series, tmp_path / "f1.csv")
    rows = (tmp_path / "f1.csv").read_text().splitlines()
    column = rows[0].split(",").index("abs_f_sq")
    from_csv = [float(row.split(",")[column]) for row in rows[1:]]
    assert np.array_equal(bits(from_csv), bits(series.abs_sq))


def test_write_series_refuses_any_file_but_csv(tmp_path):
    with pytest.raises(ValueError, match=r"unknown table format '\.json' in f1\.json"):
        write_series(series_fixture(), tmp_path / "f1.json")
    assert not (tmp_path / "f1.json").exists()


HEADER = "step,time,re_f,im_f,abs_f_sq,stderr\n"
UNREADABLE = [
    ("empty.csv", "", "unexpected series header"),
    ("header.csv", "time,step\n0,0\n", "unexpected series header"),
    # six rows of five cells: thirty numbers, which must not be read as five rows of six
    ("short.csv", HEADER + "0,0,1,0,1\n" * 6, "cannot reshape"),
    ("ragged.csv", HEADER + "0,0,1,0,1,0\n1,0.1,1,0\n", "inhomogeneous"),
    ("cell.csv", HEADER + "0,0,1,x,1,0\n", "could not convert"),
    # a cell that parses but is not finite
    ("nan.csv", HEADER + "0,0,1,0,1,0\n1,0.1,nan,0,1,0\n", "non-finite value nan in column re_f at step 1"),
    # CSV is the only table format
    ("empty.json", "", "unknown series format '.json'"),
    ("series.txt", "", "unknown series format '.txt'"),
]


@pytest.mark.parametrize("name, text, reason", UNREADABLE, ids=[case[0] for case in UNREADABLE])
def test_read_series_names_the_file_it_cannot_read(tmp_path, name, text, reason):
    path = tmp_path / name
    path.write_text(text)
    pattern = rf"cannot read series file .*{re.escape(name)}: .*{re.escape(reason)}"
    with pytest.raises(ValueError, match=pattern) as error:
        read_series(path)
    # a fault of the file, not of a run: no advice on how to run
    assert "use a smaller tau" not in str(error.value)


def test_read_series_reads_a_header_alone_as_an_empty_series(tmp_path):
    path = tmp_path / "none.csv"
    path.write_text(HEADER)
    assert len(read_series(path)) == 0


@pytest.mark.parametrize("what, bad", [
    pytest.param("value", np.nan, id="nan"),
    pytest.param("value", np.inf, id="inf"),
    pytest.param("value", complex(0.0, -np.inf), id="-infj"),
    pytest.param("stderr", np.inf, id="stderr-inf"),
    pytest.param("stderr", np.nan, id="stderr-nan"),
])
def test_series_rejects_non_finite_values(what, bad):
    values = np.ones(5, dtype=complex)
    stderr = np.zeros(5)
    (values if what == "value" else stderr)[3] = bad
    # the first bad step is named, whichever column holds it
    (stderr if what == "value" else values)[4] = np.inf
    pattern = rf"estimator f1 .* non-finite {what} .* at step 3 of 4"
    with pytest.raises(NonFiniteSeriesError, match=pattern):
        FidelitySeries(np.arange(5.0), values, stderr, {"estimator": "f1"})


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=12))
def test_round_trip_keeps_every_bit(tmp_path_factory, rows):
    # drawn values include +-0.0, subnormals and exponents near the limits
    times, re, im, stderr = (np.array(col) for col in zip(*rows))
    values = np.empty(len(rows), dtype=complex)
    values.real, values.imag = re, im
    series = FidelitySeries(times, values, stderr)
    path = tmp_path_factory.mktemp("series") / "s.csv"
    with np.errstate(over="ignore"):  # abs_f_sq of huge values is inf
        write_series(series, path)
    back = read_series(path)
    assert np.array_equal(bits(back.times), bits(times))
    assert np.array_equal(bits(back.values.real), bits(re))
    assert np.array_equal(bits(back.values.imag), bits(im))
    assert np.array_equal(bits(back.stderr), bits(stderr))
