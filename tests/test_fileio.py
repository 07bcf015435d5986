"""Bulk FLOAT_FORMAT cells against Python's own %-formatting, value by value,
and the atomic streaming writer.

``float_cells`` finds the 17 digits with integer arithmetic of its own; the
oracle is ``FLOAT_FORMAT % v`` (correctly rounded, ties to even) on every
value, so any digit, rounding, exponent or layout slip shows as a string
that differs.
"""

import os
from decimal import Decimal

import numpy as np
import pytest

from catqed.fileio import (BULK_MAX, BULK_MIN, FLOAT_FORMAT, ChunkedText,
                           atomic_write_text, float_cells)


def rendered(values):
    """Each value's cell with its NUL bytes removed."""
    cells = float_cells(values)
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def assert_matches_oracle(values, chunk=100_000):
    values = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, len(values), chunk):
        part = values[start:start + chunk].tolist()
        want = [FLOAT_FORMAT % v for v in part]
        got = rendered(values[start:start + chunk])
        wrong = [(v, g, w) for v, g, w in zip(part, got, want) if g != w]
        assert len(got) == len(want) and not wrong, wrong[:10]


def ulps(x, k):
    """x moved by k units in the last place, away from zero for k > 0."""
    x = np.asarray(x, dtype=np.float64)
    return (np.abs(x).view(np.int64) + k).view(np.float64) * np.sign(x)


def test_a_million_values_match_the_oracle():
    # random bit patterns reach subnormals, huge values, inf and nan payloads;
    # scaled normals cover every decimal exponent of the bulk range and past it
    rng = np.random.default_rng(2025)
    patterns = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(600_000) * 10.0 ** rng.integers(-30, 21, 600_000)
    assert_matches_oracle(np.concatenate([patterns, scaled]))


def test_boundary_values_match_the_oracle():
    rng = np.random.default_rng(11)
    powers = 10.0 ** np.arange(-30, 21)
    near_powers = [ulps(powers, k) for k in (-2, -1, 0, 1, 2)]
    # the notation switches at 1e-4 (fixed below 1e-5 turns exponent) and at
    # 1e17 (17 integer digits); the bulk range ends at BULK_MIN and BULK_MAX
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, BULK_MIN, BULK_MAX])
    near_switches = [ulps(switches, k) for k in range(-4, 5)]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 2.225073858507201e-308,     # smallest normal, subnormal
               1.7976931348623157e308, -1.7976931348623157e308,
               1e-14]            # rounds up to 10^17 at 17 digits: the carry
    integers = rng.integers(2 ** 52, 2 ** 53, 20_000) * 2.0 ** rng.integers(-120, 60, 20_000)
    values = np.concatenate([*near_powers, *near_switches, special, integers,
                             -integers[:1000], -powers])
    assert_matches_oracle(values)


def test_exact_ties_round_half_to_even():
    # m 2^-k whose exact decimal expansion has 18 significant digits ending
    # in 5 lies exactly halfway between two 17-digit strings
    rng = np.random.default_rng(5)
    cands = np.concatenate([
        rng.integers(1, 2 ** 53, 100_000) * 2.0 ** -rng.integers(1, 80, 100_000),
        rng.integers(1, 2 ** 30, 100_000) * 2.0 ** -rng.integers(1, 40, 100_000)])
    ties = [v for v in cands.tolist() if len(Decimal(v).as_tuple().digits) == 18]
    assert len(ties) > 5000
    ties += [3 * 2.0 ** -24, 123456789012345.625, 123456789012345.125]
    assert FLOAT_FORMAT % (3 * 2.0 ** -24) == "1.7881393432617188e-07"
    assert_matches_oracle(ties + [-v for v in ties[:1000]])


def test_cells_drop_columns_no_value_uses():
    cells = float_cells(np.array([[1.5, -0.25], [2.0, 0.0]]))
    assert cells.shape[0] == 4 and cells.any(axis=0).all()
    assert rendered(np.array([1.5, -0.25, 2.0, 0.0])) == ["1.5", "-0.25", "2", "0"]
    assert rendered(np.array([])) == []


def test_the_writer_streams_text_and_chunks(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "a,b\n1,2\n")
    assert path.read_bytes() == b"a,b\n1,2\n"
    parts = [b"# head\n", b"", b"x" * 100_000, bytearray(b"\n")]
    text = ChunkedText(lambda: iter(parts))
    atomic_write_text(str(path), text)
    assert path.read_bytes() == b"".join(parts) == text.encode()
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_a_written_file_takes_the_mode_open_gives(tmp_path, umask, mode):
    # a new or replaced file gets 0o666 & ~umask, as with open(path, "w"),
    # not the owner-only mode of a tempfile.mkstemp file
    path = tmp_path / "series.csv"
    old = os.umask(umask)
    try:
        atomic_write_text(str(path), "time\n0\n")
        assert os.stat(path).st_mode & 0o777 == mode
        os.chmod(path, 0o600)
        atomic_write_text(str(path), ChunkedText(lambda: iter([b"time\n", b"1\n"])))
        assert os.stat(path).st_mode & 0o777 == mode
        assert os.umask(umask) == umask           # the writer left the umask as it was
    finally:
        os.umask(old)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("fail_at", [0, 2])
def test_a_failing_chunk_source_leaves_the_target_unchanged(tmp_path, fail_at):
    # the source raises before its first chunk or after two have been
    # written: the error propagates, the old file keeps its bytes, and
    # neither the temp file nor its descriptor is left behind
    path = tmp_path / "grid.dat"
    path.write_bytes(b"old contents\n")
    fds = _open_fds() if os.path.isdir("/proc/self/fd") else None

    def chunks():
        for k in range(4):
            if k == fail_at:
                raise RuntimeError("source failed")
            yield b"new line %d\n" % k

    with pytest.raises(RuntimeError, match="source failed"):
        atomic_write_text(str(path), chunks())
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["grid.dat"]
    if fds is not None:
        assert _open_fds() == fds
