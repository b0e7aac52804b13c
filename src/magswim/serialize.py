"""Trajectory and report serialization.

Two trajectory formats: a flat CSV with a fixed column order, and JSON
lines with a metadata header record.  CSV cells carry 17 significant
digits (enough to pin down any double uniquely); JSONL goes through
json's repr-based float encoding.  Either way a write-read cycle is
bit-exact.
"""
from __future__ import annotations

import csv
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .errors import MagswimError
from .simulate import Trajectory

__all__ = [
    "TRAJECTORY_COLUMNS",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_trajectory_jsonl",
    "read_trajectory_jsonl",
    "write_json_report",
]

TRAJECTORY_COLUMNS = ("t", "x", "y", "theta", "alpha2", "alpha3", "Hx", "Hy")

JSONL_FORMAT = "magswim.trajectory"
JSONL_VERSION = 1


def _table(traj: Trajectory) -> np.ndarray:
    """The samples as one float array, a row per sample in
    ``TRAJECTORY_COLUMNS`` order: indexing numpy rows per sample is what
    costs, so every writer converts the whole table at once."""
    table = np.column_stack((traj.times, traj.states, traj.field_samples))
    return table.astype(float, copy=False)


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """The bytes ``csv.writer`` gives for cells of 17 significant digits,
    CRLF line ends included, formatted by one ``%`` over the whole table
    (``%.17g`` spells every float, ``-0``, ``nan`` and ``inf`` included, as
    ``format(v, ".17g")`` does) and written as one block: no cell needs
    quoting."""
    table = _table(traj)
    row = "%.17g," * (len(TRAJECTORY_COLUMNS) - 1) + "%.17g\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n"
                 + row * len(table) % tuple(table.ravel().tolist()))


def _trajectory_from_rows(rows: list | np.ndarray) -> Trajectory:
    """The samples of ``rows``, floats nested by row or flat."""
    data = np.asarray(rows, dtype=float).reshape(-1, len(TRAJECTORY_COLUMNS))
    return Trajectory(
        times=data[:, 0], states=data[:, 1:6], field_samples=data[:, 6:8])


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """The samples of a ``write_trajectory_csv`` file.  The header must be
    ``TRAJECTORY_COLUMNS`` and every row as many numbers; anything else
    raises ``MagswimError`` naming the file and, for a row, its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MagswimError(f"{path}: empty file, expected a header")
        if tuple(header) != TRAJECTORY_COLUMNS:
            raise MagswimError(
                f"{path}: unexpected header {header!r}")
        rows = list(reader)
    # one float pass over every cell; the row-by-row pass runs only to
    # name the line at fault
    width = len(TRAJECTORY_COLUMNS)
    try:
        cells = (np.fromiter(map(float, chain.from_iterable(rows)), float)
                 if set(map(len, rows)) <= {width} else None)
    except ValueError:
        cells = None
    if cells is None:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                raise MagswimError(f"{path}:{lineno}: expected "
                                   f"{width} fields, got {len(row)}")
            try:
                list(map(float, row))
            except ValueError as exc:
                raise MagswimError(f"{path}:{lineno}: {exc}") from exc
    return _trajectory_from_rows(cells)


def write_trajectory_jsonl(traj: Trajectory, path: str | Path,
                           metadata: dict[str, Any] | None = None) -> None:
    """One metadata record, then one JSON array per sample."""
    header: dict[str, Any] = {
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "columns": list(TRAJECTORY_COLUMNS),
        "rows": len(traj),
    }
    if metadata:
        overlap = set(metadata) & set(header)
        if overlap:
            raise MagswimError(
                f"metadata keys collide with header: {sorted(overlap)}")
        header.update(metadata)
    # one dumps call over every row: rows hold numbers only, so "], ["
    # is exactly where one row ends and the next begins
    body = json.dumps(_table(traj).tolist())[1:-1].replace("], [", "]\n[")
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        if body:
            fh.write(body + "\n")


def _row_error(row: Any) -> str | None:
    """Why a decoded JSONL record is not a sample: ``None`` for a list of
    ``len(TRAJECTORY_COLUMNS)`` JSON numbers that are doubles (bools are
    not numbers; an integer beyond the double range is not a double)."""
    if not isinstance(row, list):
        return f"expected a JSON array, got {json.dumps(row)}"
    if len(row) != len(TRAJECTORY_COLUMNS):
        return (f"expected {len(TRAJECTORY_COLUMNS)} fields, "
                f"got {len(row)}")
    for value in row:
        if type(value) is not float and (
                type(value) is not int or abs(value) > sys.float_info.max):
            return f"expected a number, got {json.dumps(value)}"
    return None


def read_trajectory_jsonl(path: str | Path
                          ) -> tuple[Trajectory, dict[str, Any]]:
    """The samples and the metadata record of a ``write_trajectory_jsonl``
    file.  Each non-blank line after the metadata must be one array of
    ``len(TRAJECTORY_COLUMNS)`` JSON numbers; anything else raises
    ``MagswimError("path:lineno: ...")`` for the first line at fault."""
    with open(path) as fh:
        first = fh.readline()
        if not first:
            raise MagswimError(f"{path}: empty file, expected metadata")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise MagswimError(f"{path}:1: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != \
                JSONL_FORMAT:
            raise MagswimError(f"{path}: not a {JSONL_FORMAT} file")
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=2)
                 if not line.isspace()]
    # one loads call over every line; the line-by-line pass runs only to
    # name the line at fault
    try:
        rows = json.loads("[" + ",".join([line for _, line in lines]) + "]")
    except json.JSONDecodeError:
        rows = None
    # a line that does not open with "[" may hold a part of a sample, or
    # more than one; the line-by-line pass decides
    if rows is None or len(rows) != len(lines) or \
            any(map(_row_error, rows)) or \
            any(line[0] != "[" for _, line in lines):
        for lineno, line in lines:
            try:
                error = _row_error(json.loads(line))
            except json.JSONDecodeError as exc:
                error = str(exc)
            if error:
                raise MagswimError(f"{path}:{lineno}: {error}")
    if len(rows) != header.get("rows"):
        raise MagswimError(
            f"{path}: header promises {header.get('rows')} rows, "
            f"found {len(rows)}")
    return _trajectory_from_rows(rows), header


def write_json_report(path: str | Path, payload: dict[str, Any]) -> None:
    """Deterministic pretty JSON: sorted keys, fixed indent, newline end."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
