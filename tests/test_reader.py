"""The CSV reader: a large file is parsed in parts by forked processes, and
every input must give the serial parse's matrix or its DataError.

The property tests set cli._SPLIT_BYTES to 1 and two or three usable CPUs,
so files of a few lines split too, always into two parts, and compare each
result with the serial parse of the same bytes.
"""

import contextlib
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imaxcal import cli
from imaxcal.errors import DataError
from test_cli import _mutate_csv

SERIAL = 1 << 62


def _read(path, split_bytes=SERIAL, cpus=2):
    """What cli._read_matrix gives for path with cpus usable CPUs: (shape,
    bytes) of the matrix, or the DataError message."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SPLIT_BYTES", split_bytes)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        try:
            arr = cli._read_matrix(path)
        except DataError as exc:
            return str(exc)
    assert arr.dtype == np.float64
    return arr.shape, arr.tobytes()


@contextlib.contextmanager
def _counted_forks():
    """A list that gets one entry for each os.fork call made in the block."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", counting_fork)
        yield forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _lines(lines):
    return "".join(line + "\n" for line in lines)


def _csv(values):
    return _lines(",".join(map(repr, row)) for row in values.tolist())


_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
# whole lines, each inserted between two lines
_EXTRA_LINES = st.sampled_from(["", "# a comment", "  ", "1.5,# trailing", "#"])
# each inserted at any byte
_EXTRA_BYTES = st.sampled_from(
    [b"\xef\xbb\xbf", b"\xa0", b"\x85", b"\xc2\xa0", b"\r", b"\n", b"\xff"]
)


@st.composite
def _csv_bytes(draw):
    """A small score file, mutated as a text, then as lines, then as bytes."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(rows, cols))
    text = _csv(values * 10.0 ** draw(st.integers(-3, 3)))
    for _ in range(draw(st.integers(0, 2))):
        text = _mutate_csv(text, draw)
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_EXTRA_LINES))
    ends = draw(st.lists(_NEWLINES, min_size=len(lines), max_size=len(lines)))
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(_EXTRA_BYTES) + data[at:]
    return data


@given(_csv_bytes(), st.integers(2, 3))
@settings(max_examples=300)
def test_the_split_reader_gives_the_serial_result_or_error(tmp_path_factory, data, cpus):
    path = tmp_path_factory.getbasetemp() / "split.csv"
    path.write_bytes(data)
    with _counted_forks() as forks:
        split = _read(path, 1, cpus)
    assert len(forks) <= 1
    _assert_no_child_left()
    assert split == _read(path)


def _fixed_width_rows(n, cols, width, seed):
    """n rows of cols values, each row padded with spaces to width bytes."""
    values = np.random.default_rng(seed).normal(size=(n, cols))
    return [",".join(f"{v:+.6f}" for v in row).ljust(width) for row in values.tolist()]


@pytest.mark.parametrize(
    "case",
    [
        "crlf", "lone-cr", "blank-and-comment-lines", "no-final-newline", "bom",
        "lone-a0", "lone-85", "utf8-nbsp", "ragged-row-at-cut", "ragged-row-before-cut",
        "columns-differ-across-parts", "empty-part", "one-long-line",
    ],
)
@pytest.mark.parametrize("cpus", [2, 3])
def test_each_named_input_reads_as_the_serial_parse(tmp_path, case, cpus):
    # rows of equal length, so a row's change of column count moves no cut
    rows = _fixed_width_rows(12, 3, 40, seed=7)
    text = _lines(rows)
    path = tmp_path / f"{case}.csv"
    path.write_text(text)
    fd = os.open(path, os.O_RDONLY)
    try:
        cut = cli._cut(fd, len(text)) // 41  # the first row of part 1
    finally:
        os.close(fd)
    wide = _fixed_width_rows(12, 4, 40, seed=8)
    data = {
        "crlf": text.replace("\n", "\r\n").encode(),
        "lone-cr": text.replace("\n", "\r").encode(),
        "blank-and-comment-lines": text.replace("\n", "\n\n# note\n").encode(),
        "no-final-newline": text.rstrip("\n").encode(),
        "bom": b"\xef\xbb\xbf" + text.encode(),
        "lone-a0": text.encode().replace(b"\n", b"\xa0\n", 9),
        "lone-85": text.encode().replace(b"\n", b"\x85\n", 9),
        "utf8-nbsp": text.replace("\n", "\u00a0\n").encode(),
        "ragged-row-at-cut": _lines(rows[:cut] + wide[cut:cut + 1] + rows[cut + 1:]).encode(),
        "ragged-row-before-cut": _lines(rows[:cut - 1] + wide[cut - 1:cut] + rows[cut:]).encode(),
        "columns-differ-across-parts": _lines(rows[:cut] + wide[cut:]).encode(),
        "empty-part": (text + "#" * len(text) + "\n" + "\n" * len(text)).encode(),
        "one-long-line": ",".join(rows).encode(),
    }[case]
    path.write_bytes(data)
    assert _read(path, 1, cpus) == _read(path)
    _assert_no_child_left()


def test_a_split_file_reads_as_the_serial_parse(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(_csv(np.random.default_rng(3).normal(size=(6000, 40))))
    assert os.path.getsize(path) >= 2 * cli._SPLIT_BYTES
    with _counted_forks() as forks:
        split = _read(path, cli._SPLIT_BYTES, 2)
    assert forks == [1]
    assert split == _read(path)
    _assert_no_child_left()


def test_a_fork_that_warns_of_threads_still_splits_under_warnings_as_errors(tmp_path):
    # from Python 3.12 on, os.fork warns, in the parent once the child
    # exists, if the process has other OS threads, such as a BLAS pool's
    path = tmp_path / "m.csv"
    path.write_text(_csv(np.random.default_rng(2).normal(size=(40, 3))))
    forks = []
    real_fork = os.fork

    def warning_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
            warnings.warn("This process is multi-threaded", DeprecationWarning)
        return pid

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(os, "fork", warning_fork)
        split = _read(path, 1, 2)
    assert len(forks) == 1
    assert split == _read(path)
    _assert_no_child_left()


def test_a_bad_cell_in_the_last_row_of_a_large_file_is_the_serial_error(tmp_path, capsys):
    rows, cols = 6000, 40
    text = _csv(np.random.default_rng(4).normal(size=(rows, cols)))
    text = text[: text.rindex(",") + 1] + "x\n"
    scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
    scores.write_text(text)
    labels.write_text("0\n" * rows)
    assert os.path.getsize(scores) >= 2 * cli._SPLIT_BYTES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = cli.main(["fit", str(scores), str(labels), "-o", str(tmp_path / "b.json")])
    assert code == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f'error=data msg="parse failure in {scores}: could not convert string'
        f" 'x' to float64 at row {rows - 1}, column {cols}.\""
    )
    _assert_no_child_left()


class _Stop(BaseException):
    pass


@pytest.mark.parametrize("raised", [ValueError, _Stop])
def test_a_failure_in_the_parents_own_part_still_reaps_every_child(tmp_path, raised):
    path = tmp_path / "m.csv"
    path.write_text(_csv(np.random.default_rng(5).normal(size=(40, 3))))
    real_parse = cli._parse_range

    def parse(fd, start, stop):
        if start == 0:  # part 0, the one the parent parses
            raise raised("the parent's part failed")
        return real_parse(fd, start, stop)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_range", parse)
        if raised is _Stop:
            with pytest.raises(_Stop):
                _read(path, 1, 3)
        else:
            # the serial parse reads the file instead
            assert _read(path, 1, 3) == _read(path)
    _assert_no_child_left()


def test_a_file_splits_in_at_most_two_parts(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(_csv(np.random.default_rng(6).normal(size=(200, 3))))
    with pytest.MonkeyPatch.context() as mp, _counted_forks() as forks:
        mp.setattr(cli, "_SPLIT_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        got = cli._read_matrix(path)
    assert forks == [1]
    assert (got.shape, got.tobytes()) == _read(path)
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_split_serial_and_failed_reads_leave_no_descriptor_open(tmp_path):
    text = _csv(np.random.default_rng(9).normal(size=(40, 3)))
    good, bad, one_row = tmp_path / "good.csv", tmp_path / "bad.csv", tmp_path / "one.csv"
    good.write_text(text)
    bad.write_text(text[: text.rindex(",") + 1] + "x\n")  # a bad cell in the second part
    one_row.write_text(text[: text.index("\n") + 1])  # its one line break ends the file
    paths = (good, bad, one_row)
    forks, results = [], []
    before = len(os.listdir("/proc/self/fd"))
    for path in paths:
        with _counted_forks() as counted:
            results.append(_read(path, 1, 2))
        forks.append(len(counted))
    after = len(os.listdir("/proc/self/fd"))
    assert after == before
    assert forks == [1, 1, 0]
    assert results == [_read(path) for path in paths]
    _assert_no_child_left()


@pytest.mark.parametrize(
    "half_the_file,cpus,threads",
    [(False, 2, 1), (True, 2, 1), (True, 1, 1), (True, 2, 2)],
    ids=["below-the-threshold", "below-twice-the-threshold", "one-cpu", "a-second-thread"],
)
def test_nothing_forks_below_the_threshold_on_one_cpu_or_beside_a_thread(
    tmp_path, half_the_file, cpus, threads
):
    path = tmp_path / "m.csv"
    path.write_text(_csv(np.random.default_rng(6).normal(size=(200, 3))))
    size = os.path.getsize(path)
    assert size < cli._SPLIT_BYTES
    # a threshold of just over half the file leaves one part of it
    split_bytes = size // 2 + 1 if half_the_file else cli._SPLIT_BYTES
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError("os.fork was called")

    release = threading.Event()
    waiters = [threading.Thread(target=release.wait) for _ in range(threads - 1)]
    for waiter in waiters:
        waiter.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", no_fork)
            got = _read(path, split_bytes, cpus)
    finally:
        release.set()
        for waiter in waiters:
            waiter.join(timeout=10)
    assert not any(waiter.is_alive() for waiter in waiters)
    assert forks == []
    assert got == _read(path)
