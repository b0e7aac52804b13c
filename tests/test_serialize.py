"""Round-trip fidelity of the trajectory and report writers."""
import csv
import hashlib
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magswim import SwimmerParams, serialize
from magswim.errors import MagswimError
from magswim.model import Configuration, SinusoidalField
from magswim.serialize import (
    TRAJECTORY_COLUMNS,
    read_trajectory_csv,
    read_trajectory_jsonl,
    write_json_report,
    write_trajectory_csv,
    write_trajectory_jsonl,
)
from magswim.simulate import Trajectory, integrate

CANON = SwimmerParams(1.0, (1.2, 0.8, 0.8), (3.0, 1.5, 1.5), 1.0, 1.0)


@pytest.fixture(scope="module")
def short_trajectory():
    return integrate(CANON, Configuration.straight(),
                     SinusoidalField(1.0, 0.05, 1.0),
                     t_final=0.5, dt=0.01)


def awkward_trajectory():
    # exercise values whose decimal forms are easy to truncate
    times = np.array([0.0, 1e-17, 0.1 + 0.2, 1e300])
    states = np.arange(20, dtype=float).reshape(4, 5)
    states[0, 0] = np.nextafter(1.0, 2.0)
    states[1, 1] = -1e-310  # subnormal
    states[2, 2] = 2.0 / 3.0
    field = np.array([[1.0, 0.0]] * 4)
    return Trajectory(np.column_stack((times, states, field)))


def non_finite_trajectory():
    # NaN and the infinities take json's NaN / Infinity spelling
    return Trajectory(np.column_stack((
        np.array([0.0, -0.0, 1.5]),
        np.array([[np.nan, np.inf, -np.inf, -0.0, 1e-320]] * 3),
        np.array([[np.inf, -0.0]] * 3))))


def integer_trajectory():
    # integer arrays still write as floats: 1.0, never 1
    return Trajectory(np.column_stack((
        np.arange(3), np.arange(15).reshape(3, 5),
        np.ones((3, 2), dtype=int))))


# sha256 of the CSV and JSONL bytes, recorded when the writers indexed
# numpy rows one sample at a time; kept by the one-% CSV table.  "short"
# is re-recorded for the rate's float elimination, which moved its
# states by at most 3.5e-16 of their largest entry, and for the body-frame
# rate, which moved them by at most 3.7e-15 of each column's largest entry
FROZEN_FILES = {
    "integer": (
        "0c32221ae132d9a0be6ed8d4084e3de3c420087b2285f694cf8cbc2d1772285d",
        "1ffed12deb3083bbe3f8e1a375d85f4cc9e3bce09171835ff98453c91937c110"),
    "short": (
        "511abd2a7d88df321f8767091407db2a40d84212f1fade8c0e66ce88bcfb7d47",
        "0b2e396c680fd259fda2b2b7e9c216340a75b7bdadf24886a9499e77e3338e7b"),
    "awkward": (
        "1a214c60d67766eff87fa808acb9aa28acd67fa7ff61f0e11bfb9dd001486da6",
        "2f2dd523e041a6ea7802ced045c50447be10217e1fbd4604fced584e2b34a2e4"),
    "non_finite": (
        "69621ffc3b0120da808b2075c2a08a9d13aa0c06438eda0c9d688b10c74c9e77",
        "6e0ebb417d35cfa36be5ea9e0812857bae11a584bdfa06ec41425d842492f6f6"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_FILES))
def test_written_bytes_are_frozen(name, short_trajectory, tmp_path):
    traj = {"short": short_trajectory, "awkward": awkward_trajectory(),
            "non_finite": non_finite_trajectory(),
            "integer": integer_trajectory()}[name]
    csv_path, jsonl_path = tmp_path / "t.csv", tmp_path / "t.jsonl"
    write_trajectory_csv(traj, csv_path)
    write_trajectory_jsonl(traj, jsonl_path, metadata={"source": "test"})
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (csv_path, jsonl_path))
    assert digests == FROZEN_FILES[name]


def long_trajectory(rows: int, seed: int = 7) -> Trajectory:
    # 17-digit floats, the widest cells either writer spells
    return Trajectory(np.random.default_rng(seed).standard_normal((rows, 8)))


@pytest.mark.parametrize("rows", [serialize.BLOCK_ROWS - 1,
                                  serialize.BLOCK_ROWS,
                                  2 * serialize.BLOCK_ROWS + 3])
def test_blocks_write_the_bytes_of_one_pass(rows, tmp_path):
    # the writers format block by block; their bytes are those of one "%"
    # and one json.dumps over the whole table
    traj = long_trajectory(rows)
    csv_path, jsonl_path = tmp_path / "t.csv", tmp_path / "t.jsonl"
    write_trajectory_csv(traj, csv_path)
    write_trajectory_jsonl(traj, jsonl_path)
    row = "%.17g," * 7 + "%.17g\r\n"
    assert csv_path.read_bytes() == (
        ",".join(TRAJECTORY_COLUMNS) + "\r\n"
        + row * rows % tuple(traj.table.ravel().tolist())).encode()
    body = json.dumps(traj.table.tolist())[1:-1].replace("], [", "]\n[")
    assert jsonl_path.read_text().split("\n", 1)[1] == body + "\n"


@pytest.mark.parametrize("write", [write_trajectory_csv,
                                   write_trajectory_jsonl])
def test_writer_memory_does_not_grow_with_rows(write, tmp_path):
    # a writer holds one block's floats and text beside the table, so its
    # traced peak is the same for 5,001 rows and for 20,001
    peaks = []
    for rows in (5_001, 20_001):
        traj = long_trajectory(rows)
        tracemalloc.start()
        try:
            write(traj, tmp_path / "t")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


class TestCsv:
    def test_round_trip_is_bit_exact(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_trajectory, path)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.times, short_trajectory.times)
        np.testing.assert_array_equal(back.states, short_trajectory.states)
        np.testing.assert_array_equal(
            back.field_samples, short_trajectory.field_samples)

    def test_awkward_floats_survive(self, tmp_path):
        traj = awkward_trajectory()
        path = tmp_path / "awkward.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.states, traj.states)

    def test_header_spelled_out(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_trajectory, path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(TRAJECTORY_COLUMNS)

    def test_empty_trajectory_is_header_only(self, tmp_path):
        empty = Trajectory(np.empty((0, 8)))
        path = tmp_path / "empty.csv"
        write_trajectory_csv(empty, path)
        assert path.read_text().splitlines() == [
            ",".join(TRAJECTORY_COLUMNS)]
        assert len(read_trajectory_csv(path)) == 0

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(MagswimError, match="header"):
            read_trajectory_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n1,2,3\n")
        with pytest.raises(MagswimError, match="fields"):
            read_trajectory_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(TRAJECTORY_COLUMNS) + "\n0,0,0,fish,0,0,1,0\n")
        with pytest.raises(MagswimError, match="bad.csv:2"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize("text, line", [
        # a last cell of 200,000 digits, over the csv module's field limit
        (",".join(TRAJECTORY_COLUMNS) + "\r\n" + "0," * 7 + "1" * 200_000
         + "\r\n", 2),
        (",".join(TRAJECTORY_COLUMNS[:-1]) + "," + "H" * 200_000 + "\r\n"
         + "0," * 7 + "0\r\n", 1),
    ], ids=["row", "header"])
    def test_rejects_oversized_cell(self, tmp_path, text, line):
        path = tmp_path / "huge.csv"
        path.write_text(text)
        with pytest.raises(MagswimError, match=f"huge.csv:{line}: field"):
            read_trajectory_csv(path)

    def test_rejects_undecodable_bytes(self, tmp_path):
        # 0xff starts no character of UTF-8
        path = tmp_path / "bytes.csv"
        path.write_bytes((",".join(TRAJECTORY_COLUMNS) + "\r\n").encode()
                         + b"0," * 7 + b"\xff\r\n")
        with pytest.raises(MagswimError, match="bytes.csv"):
            read_trajectory_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(MagswimError, match="empty"):
            read_trajectory_csv(path)

    def test_lf_line_ends_read_the_same_bits(self, short_trajectory,
                                             tmp_path):
        path = tmp_path / "lf.csv"
        write_trajectory_csv(short_trajectory, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        back = read_trajectory_csv(path)
        assert _hex(back) == _hex(short_trajectory)

    def test_quoted_numeric_cells_are_numbers(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\r\n"
                        '"0.5",1e-3,"-0",2,"0.1",3,"1e300",-4\r\n'
                        '1,"nan",0,0,0,0,"-inf",7\r\n')
        back = read_trajectory_csv(path)
        assert _hex(back) == [
            "0x1.0000000000000p-1", "0x1.0624dd2f1a9fcp-10", "-0x0.0p+0",
            "0x1.0000000000000p+1", "0x1.999999999999ap-4",
            "0x1.8000000000000p+1", "0x1.7e43c8800759cp+996",
            "-0x1.0000000000000p+2",
            "0x1.0000000000000p+0", "nan", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "-inf", "0x1.c000000000000p+2"]

    @pytest.mark.parametrize("body, message", [
        # a blank line is a record of no fields
        ("0,0,0,0,0,0,1,0\n\n0,0,0,0,0,0,1,0\n",
         "3: expected 8 fields, got 0"),
        ("0,0,0,0,0,0,1,0\n1,0,0,0,0,0,1,0\n2,0,0,0,0,0,1,0,9\n",
         "4: expected 8 fields, got 9"),
        ("0,0,0,0,0,0,1,0\n1,0,0,0,0,0,1,0\n2,0,0,0,0,0,1,0x1\n",
         "4: could not convert string to float: '0x1'"),
        # the first line at fault is named, whatever is wrong with it
        ("0,0,0,fish,0,0,1,0\n1,0,0\n", "2: could not convert string to "
         "float: 'fish'"),
        ("1,0,0\n0,0,0,fish,0,0,1,0\n", "2: expected 8 fields, got 3"),
    ])
    def test_names_the_first_faulty_line(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n" + body)
        with pytest.raises(MagswimError) as info:
            read_trajectory_csv(path)
        assert str(info.value) == f"{path}:{message}"


HEAD = ",".join(TRAJECTORY_COLUMNS) + "\r\n"
OVERLONG = "1" * (csv.field_size_limit() + 1)

# numbers in the writer's dialect, which float and np.loadtxt read alike ...
_cells = st.one_of(
    st.floats().map(lambda v: "%.17g" % v),
    st.sampled_from(["nan", "-nan", "+NaN", "inf", "-Infinity", "1e400",
                     "-1e-400", "-0", ".5", "5.", "+1", "1E5"]))
# ... and what is no number, or off the dialect: a quote, a space, an
# underscore, a control character, a lone CR or LF, an empty or over-long
# cell, commas inside a cell
_odd_cells = st.one_of(
    st.text(alphabet="0123456789,.eE+-", max_size=6),
    st.sampled_from(["e", "1e", "--1", "1.2.3", "0x1", "#", '"1"', '"',
                     " 1", "1 ", "1_0", "_", "1.0\x1c", "\x1c", "1\r",
                     "\n1", "1\r2", "", OVERLONG]))
_rows = st.lists(st.one_of(
    *[st.lists(_cells, min_size=8, max_size=8)] * 4,
    st.lists(st.one_of(_cells, _odd_cells), max_size=9)), min_size=1,
    max_size=4)
# mostly CRLF; a blank line, a lone CR or LF, or no line end at all
_ends = st.sampled_from(["\r\n"] * 12 + ["\r\n\r\n", "\n", "\r", ""])
_heads = st.sampled_from([HEAD] * 8 + [HEAD[:-2] + "\n", '"t"' + HEAD[1:],
                          HEAD[:-2], "t,x,y\r\n"])


@st.composite
def csv_texts(draw):
    return draw(_heads) + "".join(",".join(row) + draw(_ends)
                                  for row in draw(_rows))


def _outcome(path):
    """The bits and shapes of what ``path`` reads back as, or the text of
    the ``MagswimError`` it raises."""
    try:
        traj = read_trajectory_csv(path)
    except MagswimError as exc:
        return str(exc)
    return [(a.shape, a.tobytes())
            for a in (traj.times, traj.states, traj.field_samples)]


class TestCsvFastPath:
    """The writer's own text is read by one ``np.loadtxt``; anything else,
    and whatever that pass fails on, by the ``csv`` module."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv_texts")

    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_reads_as_the_csv_module_does(self, workdir, text):
        path = workdir / "t.csv"
        path.write_bytes(text.encode())
        fast = _outcome(path)
        with mock.patch.object(serialize, "_read_own_csv", lambda path: None):
            assert _outcome(path) == fast

    @pytest.mark.parametrize("traj", [
        awkward_trajectory(), non_finite_trajectory(), integer_trajectory()],
        ids=["awkward", "non_finite", "integer"])
    def test_written_files_take_one_loadtxt(self, traj, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        table = serialize._read_own_csv(path)
        assert table.tobytes() == traj.table.tobytes()

    @pytest.mark.parametrize("body", [
        "", "\r\n", "\r\n0,0,0,0,0,0,1,0\r\n", "0,0,0,0,0,0,1,0",
        "0,0,0,0,0,0,1,0\n", "0,0,0,0,0,0,1,0\r",
        "0,0,0,0,0,0,1,0\r\n\r\n", "0,0,0,0,0,0,1,0\r\r\n",
        "0,0,0,0,0,0,1, 0\r\n", '0,0,0,0,0,0,1,"0"\r\n',
        "0,0,0,0,0,0,1,0_0\r\n", "0,0,0,0,0,0,1,1.0\x1c\r\n",
        "0,0,0,0,0,0,1\r\n", "0,0,0,0,0,0,1,0,0\r\n", "0,0,0,0,0,0,1,\xe9\r\n",
        "0,0,0,0,0,0,1," + OVERLONG + "\r\n"])
    def test_other_text_goes_to_the_csv_module(self, body, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes((HEAD + body).encode())
        assert serialize._read_own_csv(path) is None


def _hex(traj):
    """The float.hex of every sample, row by row in column order."""
    table = np.column_stack((traj.times, traj.states, traj.field_samples))
    return [v.hex() for v in table.ravel().tolist()]


class TestJsonl:
    def test_round_trip_with_metadata(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.jsonl"
        write_trajectory_jsonl(short_trajectory, path,
                               metadata={"run": "smoke", "dt": 0.01})
        back, header = read_trajectory_jsonl(path)
        np.testing.assert_array_equal(back.states, short_trajectory.states)
        np.testing.assert_array_equal(back.times, short_trajectory.times)
        assert header["run"] == "smoke"
        assert header["dt"] == 0.01
        assert header["rows"] == len(short_trajectory)
        assert header["columns"] == list(TRAJECTORY_COLUMNS)

    def test_awkward_floats_survive(self, tmp_path):
        traj = awkward_trajectory()
        path = tmp_path / "awkward.jsonl"
        write_trajectory_jsonl(traj, path)
        back, _ = read_trajectory_jsonl(path)
        np.testing.assert_array_equal(back.states, traj.states)

    def test_metadata_cannot_shadow_header(self, short_trajectory, tmp_path):
        with pytest.raises(MagswimError, match="collide"):
            write_trajectory_jsonl(short_trajectory,
                                   tmp_path / "x.jsonl",
                                   metadata={"rows": 7})

    def test_rejects_row_count_mismatch(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.jsonl"
        write_trajectory_jsonl(short_trajectory, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MagswimError, match="promises"):
            read_trajectory_jsonl(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"format": "something.else"}) + "\n")
        with pytest.raises(MagswimError, match="not a"):
            read_trajectory_jsonl(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "void.jsonl"
        path.write_text("")
        with pytest.raises(MagswimError, match="empty"):
            read_trajectory_jsonl(path)

    @pytest.mark.parametrize("row,reason", [
        ("5", "expected a JSON array, got 5"),
        ("null", "expected a JSON array, got null"),
        ('["a", 1, 2, 3, 4, 5, 6, 7]', 'expected a number, got "a"'),
        ("[true, 1, 2, 3, 4, 5, 6, 7]", "expected a number, got true"),
        ("[1" + "0" * 400 + ", 1, 2, 3, 4, 5, 6, 7]",
         "expected a number, got 1" + "0" * 400),
    ], ids=["number", "null", "string", "bool", "huge_integer"])
    def test_rejects_a_row_that_is_not_eight_numbers(
            self, short_trajectory, tmp_path, row, reason):
        # these escaped as TypeError, as a bare ValueError or as
        # OverflowError, or (true) were read as 1.0
        path = tmp_path / "traj.jsonl"
        write_trajectory_jsonl(short_trajectory, path)
        lines = path.read_text().splitlines()
        lines[3] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MagswimError,
                           match=f"^{re.escape(f'{path}:4: {reason}')}$"):
            read_trajectory_jsonl(path)

    def test_rejects_a_sample_split_across_lines(self, short_trajectory,
                                                 tmp_path):
        # the same numbers in the same order, but the third sample's last
        # value opens the next line: parsed as one text they still make
        # whole samples, line by line they do not
        path = tmp_path / "traj.jsonl"
        write_trajectory_jsonl(short_trajectory, path)
        lines = path.read_text().splitlines()
        head, tail = lines[3].rsplit(", ", 1)
        lines[3], lines[4] = head, tail + ", " + lines[4]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MagswimError, match=f"^{re.escape(str(path))}:4: "):
            read_trajectory_jsonl(path)

    def test_blank_lines_tolerated(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.jsonl"
        write_trajectory_jsonl(short_trajectory, path)
        padded = path.read_text().replace("\n", "\n\n", 1)
        path.write_text(padded)
        back, _ = read_trajectory_jsonl(path)
        assert len(back) == len(short_trajectory)


class TestJsonReport:
    def test_deterministic_bytes(self, tmp_path):
        payload = {"b": 2.0, "a": [1, 2, 3], "c": {"z": 0.1, "y": "s"}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_json_report(p1, payload)
        write_json_report(p2, dict(reversed(list(payload.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_keys_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "r.json"
        write_json_report(path, {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"zeta"')
