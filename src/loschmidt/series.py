"""The fidelity series and the tables it is written to.

Every output table of a run (series, comparison, spectrum) goes through
``write_table`` as CSV: a header line of column names, then one
comma-separated row per line; integer columns as ``%d``, float columns with
17 significant digits, so a float parses back to the same bits and
``read_series`` returns the in-memory values exactly.  A table holds no
meta: ``cli.run`` records every series' meta in the run's metadata file.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SERIES_COLUMNS = ("step", "time", "re_f", "im_f", "abs_f_sq", "stderr")


class NumericalError(RuntimeError):
    """A numerical failure of a run, on which the CLI exits with code 3."""


class NonFiniteSeriesError(NumericalError):
    """Raised when a series would hold a NaN or infinite value or stderr."""


@dataclass(frozen=True)
class FidelitySeries:
    """Complex fidelity amplitude on a uniform time grid.

    ``stderr`` holds the statistical error per time step (zero for
    deterministic evaluations).  ``meta`` records estimator name, trajectory
    count, seed and related run parameters.  Every value and every error
    must be finite (``NonFiniteSeriesError`` otherwise).
    """

    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        stderr = np.asarray(self.stderr, dtype=float)
        if not (times.shape == values.shape == stderr.shape):
            raise ValueError("times, values and stderr must have equal length")
        bad = np.flatnonzero(~(np.isfinite(values) & np.isfinite(stderr)))
        if bad.size:
            n = bad[0]
            what, x = ("value", values[n]) if not np.isfinite(values[n]) else ("stderr", stderr[n])
            raise NonFiniteSeriesError(
                f"estimator {self.meta.get('estimator', '?')} produced a non-finite "
                f"{what} {x} at step {n} of {len(values) - 1}; "
                "use a smaller tau, fewer steps or another estimator"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "stderr", stderr)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def abs_sq(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def write_table(path, columns: dict) -> None:
    """Write named, equally long columns to the CSV file ``path``."""
    path = Path(path)
    if path.suffix != ".csv":
        raise ValueError(f"unknown table format {path.suffix!r} in {path.name}")
    cols = [np.asarray(col) for col in columns.values()]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols)
    lines = [",".join(columns)]
    lines += [row % cells for cells in zip(*(c.tolist() for c in cols))]
    path.write_text("\n".join(lines) + "\n")


def write_series(series: FidelitySeries, path) -> None:
    """Write ``series`` with the columns of SERIES_COLUMNS; its meta is not written."""
    values = series.values
    columns = (np.arange(len(series)), series.times, values.real, values.imag,
               series.abs_sq, series.stderr)
    write_table(path, dict(zip(SERIES_COLUMNS, columns)))


def read_series(path) -> FidelitySeries:
    """Read a CSV file written by ``write_series``; every bit of the values
    survives, and the meta is empty.  A file it cannot parse, or that holds
    a non-finite cell, raises a ValueError that names it (and the cell's
    column and step)."""
    path = Path(path)
    try:
        if path.suffix != ".csv":
            raise ValueError(f"unknown series format {path.suffix!r}")
        lines = path.read_text().strip().splitlines()
        if not lines or lines[0].split(",") != list(SERIES_COLUMNS):
            raise ValueError("unexpected series header")
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        # every row holds every column; a header alone is an empty series
        cols = dict(zip(SERIES_COLUMNS, np.reshape(rows, (len(rows), len(SERIES_COLUMNS))).T))
        for name in ("time", "re_f", "im_f", "stderr"):  # the columns read
            bad = np.flatnonzero(~np.isfinite(cols[name]))
            if bad.size:
                n = bad[0]
                raise ValueError(f"non-finite value {cols[name][n]} in column {name} at step {n}")
        # assigned part by part: re + 1j * im would turn an imaginary -0.0 into +0.0
        values = np.empty(len(cols["time"]), dtype=complex)
        values.real, values.imag = cols["re_f"], cols["im_f"]
        return FidelitySeries(cols["time"], values, cols["stderr"])
    except ValueError as exc:
        raise ValueError(f"cannot read series file {path}: {type(exc).__name__} {exc}") from exc
