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
from contextlib import suppress
from pathlib import Path
from typing import Any

import numpy as np

from .errors import MagswimError
from .simulate import TRAJECTORY_COLUMNS, Trajectory

__all__ = [
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_trajectory_jsonl",
    "read_trajectory_jsonl",
    "write_json_report",
]

JSONL_FORMAT = "magswim.trajectory"
JSONL_VERSION = 1

# rows formatted per write: a block's floats and text are all a writer
# holds beside the table, however long the run
BLOCK_ROWS = 4096


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """The bytes ``csv.writer`` gives for cells of 17 significant digits,
    CRLF line ends included, formatted by one ``%`` over each block of the
    table (``%.17g`` spells every float, ``-0``, ``nan`` and ``inf``
    included, as ``format(v, ".17g")`` does): no cell needs quoting."""
    row = "%.17g," * (len(TRAJECTORY_COLUMNS) - 1) + "%.17g\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for start in range(0, len(traj), BLOCK_ROWS):
            block = traj.table[start:start + BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _trajectory_from_rows(rows: list) -> Trajectory:
    """The samples of ``rows``, floats nested by row (no rows: 0 samples)."""
    return Trajectory(
        np.asarray(rows, dtype=float).reshape(-1, len(TRAJECTORY_COLUMNS)))


# the text of a CSV cell or comma as written: printable ASCII but for the
# space, '"' and '_', which ``float`` and ``np.loadtxt`` do not read alike
_CELL_BYTES = bytes(c for c in range(0x21, 0x7F) if c not in b'"_')
_CSV_HEAD = (",".join(TRAJECTORY_COLUMNS) + "\r\n").encode()


def _read_own_csv(path: str | Path) -> np.ndarray | None:
    """The table of text in exactly the writer's dialect (its header, then
    rows of ``_CELL_BYTES`` ended by CRLF, within the csv field size limit)
    by one ``np.loadtxt``; ``None`` for any other text."""
    data = Path(path).read_bytes()
    body = data[len(_CSV_HEAD):]
    lines = body.decode("latin-1").split("\r\n")[:-1]
    if not (data.startswith(_CSV_HEAD) and body.endswith(b"\r\n") and
            lines and all(lines) and body.translate(None, _CELL_BYTES)
            == b"\r\n" * len(lines)
            and max(map(len, lines)) <= csv.field_size_limit()):
        return None
    with suppress(ValueError):
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if table.shape == (len(lines), len(TRAJECTORY_COLUMNS)):
            return table
    return None


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """The samples of a ``write_trajectory_csv`` file.  The header must be
    ``TRAJECTORY_COLUMNS`` and every row as many numbers; anything else
    raises ``MagswimError`` naming the file and, for a row, its line."""
    table = _read_own_csv(path)
    if table is not None:
        return Trajectory(table)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if tuple(header) != TRAJECTORY_COLUMNS:
                raise MagswimError(f"{path}: unexpected header {header!r}")
            rows = list(reader)
        except StopIteration:
            raise MagswimError(f"{path}: empty file, expected a header")
        except csv.Error as exc:
            # a cell over the csv module's field size limit
            raise MagswimError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise MagswimError(f"{path}: {exc}") from exc
    width = len(TRAJECTORY_COLUMNS)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise MagswimError(f"{path}:{lineno}: expected "
                               f"{width} fields, got {len(row)}")
        try:
            row[:] = map(float, row)
        except ValueError as exc:
            raise MagswimError(f"{path}:{lineno}: {exc}") from exc
    return _trajectory_from_rows(rows)


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
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        # one dumps call per block: rows hold numbers only, so "], [" is
        # exactly where one row ends and the next begins
        for start in range(0, len(traj), BLOCK_ROWS):
            rows = traj.table[start:start + BLOCK_ROWS].tolist()
            fh.write(json.dumps(rows)[1:-1].replace("], [", "]\n[") + "\n")


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
    file, whose ``version``, ``columns`` and ``rows`` must be JSON as the
    writer spells them (``true`` is not ``1``); every non-blank line after
    it, one array of ``len(TRAJECTORY_COLUMNS)`` JSON numbers.  Anything
    else raises ``MagswimError`` naming the key or the first line at fault."""
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
        for key, want in (("version", JSONL_VERSION),
                          ("columns", list(TRAJECTORY_COLUMNS))):
            got, spelled = json.dumps(header.get(key)), json.dumps(want)
            if got != spelled:
                raise MagswimError(f"{path}: {key} {got}, expected {spelled}")
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
    promised = json.dumps(header.get("rows"))
    if promised != str(len(rows)):
        raise MagswimError(f"{path}: header promises rows {promised}, "
                           f"found {len(rows)}")
    return _trajectory_from_rows(rows), header


def write_json_report(path: str | Path, payload: dict[str, Any]) -> None:
    """Deterministic pretty JSON: sorted keys, fixed indent, newline end."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
