"""``numpy.loadtxt`` over byte ranges of one CSV, one range per CPU.

:func:`illposed.fileio._load` imports this module only for a file it splits.
The file is cut at line starts.  Forked workers parse all ranges but the
first, which this process parses meanwhile, and send their rows back through
pipes.

Python 3.12 and later warn about ``os.fork`` in a process with threads, and
numpy's BLAS starts threads.  A worker runs no BLAS, so that warning is
silenced around the fork.
"""

from __future__ import annotations

import io
import os
import signal
import warnings

import numpy as np


class Range(io.RawIOBase):
    """The next ``size`` bytes of an unbuffered file."""

    def __init__(self, raw, size: int):
        self.raw, self.left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = self.raw.read(min(len(buf), self.left))
        buf[: len(data)] = data
        self.left -= len(data)
        return len(data)


def parse_range(path: str, start: int, end: int) -> np.ndarray:
    """numpy's parse of bytes [start, end) of a CSV, fed to it line by line."""
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        # a larger buffer parsed no faster, and raised the reader's peak RSS
        with io.BufferedReader(Range(raw, end - start), 1 << 16) as lines:
            return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, encoding="utf-8")


def cuts(path: str, k: int) -> list[int]:
    """Offsets of the first line start at or past each k-th of a file,
    between 0 and its size, without repeats."""
    size = os.path.getsize(path)
    offsets = [0]
    with open(path, "rb") as fh:
        for i in range(1, k):
            fh.seek(i * size // k)
            fh.readline()
            if offsets[-1] < fh.tell() < size:
                offsets.append(fh.tell())
    return offsets + [size]


def fill(fd: int, view: memoryview) -> bool:
    """Read a pipe into ``view`` until it is full; False if the writer ends first."""
    while view:
        n = os.readv(fd, [view])
        if not n:
            return False
        view = view[n:]
    return True


def load_split(path: str, k: int) -> np.ndarray | None:
    """The rows of a CSV parsed in up to ``k`` byte ranges at once, in file order.

    This process parses the first range while a forked worker parses each
    other one and sends back its shape and its raw float64 rows through a
    pipe.  The first range's array grows to hold them all, so the result is
    one C-contiguous array that owns its data.  A file that cuts into one
    range, a range that numpy rejects, a worker that ends before its rows
    are complete, or ranges that disagree on the column count give None.
    """
    offsets = cuts(path, k)
    workers: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for start, end in zip(offsets[1:-1], offsets[2:]):
            r, w = os.pipe()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", r".*use of fork\(\)", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    for _, other in workers:
                        os.close(other)
                    rows = parse_range(path, start, end)
                    for view in (memoryview(np.array(rows.shape, np.int64)), memoryview(rows)):
                        view = view.cast("B")
                        while view:
                            view = view[os.write(w, view) :]
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            workers.append((pid, r))
        if not workers:
            return None
        try:
            rows = parse_range(path, offsets[0], offsets[1])
        except (ValueError, UserWarning):
            return None
        shapes = []
        for _, r in workers:
            shape = np.zeros(2, np.int64)
            if not fill(r, memoryview(shape).cast("B")):
                return None
            shapes.append(tuple(shape))
        if any(cols != rows.shape[1] for _, cols in shapes):
            return None
        at = len(rows)
        # grown in place (no view of it exists), so no second copy is held
        rows.resize((at + sum(n for n, _ in shapes), rows.shape[1]), refcheck=False)
        for (n, _), (_, r) in zip(shapes, workers):
            if not fill(r, memoryview(rows[at : at + n]).cast("B")):
                return None
            at += n
        return rows
    finally:
        # close and kill before waiting: a worker blocked on a full pipe, as
        # after an interrupt, must not hold up its reaping
        for _, r in workers:
            os.close(r)
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
