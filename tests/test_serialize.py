"""Round-trip fidelity of the trajectory and report writers."""
import hashlib
import json
import re

import numpy as np
import pytest

from magswim import SwimmerParams
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
    return Trajectory(times=times, states=states, field_samples=field)


def non_finite_trajectory():
    # NaN and the infinities take json's NaN / Infinity spelling
    return Trajectory(
        times=np.array([0.0, -0.0, 1.5]),
        states=np.array([[np.nan, np.inf, -np.inf, -0.0, 1e-320]] * 3),
        field_samples=np.array([[np.inf, -0.0]] * 3))


def integer_trajectory():
    # integer arrays still write as floats: 1.0, never 1
    return Trajectory(times=np.arange(3), states=np.arange(15).reshape(3, 5),
                      field_samples=np.ones((3, 2), dtype=int))


# sha256 of the CSV and JSONL bytes, recorded when the writers indexed
# numpy rows one sample at a time; kept by the one-% CSV table.  "short"
# is re-recorded for the rate closure's float elimination, which moved its
# states by at most 3.5e-16 of their largest entry
FROZEN_FILES = {
    "integer": (
        "0c32221ae132d9a0be6ed8d4084e3de3c420087b2285f694cf8cbc2d1772285d",
        "1ffed12deb3083bbe3f8e1a375d85f4cc9e3bce09171835ff98453c91937c110"),
    "short": (
        "d9c8ebe8cae9f17386ed90197b30ce35284d09b55e15d8454f3d91731b1a59ed",
        "22e2dd63acfbe297329ce0bec9f9b178567622be1dd084a8f6b9c9687b86da3c"),
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
        empty = Trajectory(times=np.empty(0), states=np.empty((0, 5)),
                           field_samples=np.empty((0, 2)))
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
