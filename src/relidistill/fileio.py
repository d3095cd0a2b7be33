"""Atomic file writers, and the one CSV layer every package CSV goes through:
the header must match its format exactly, blank lines are skipped, every
row has the header's field count and a sample id not seen above it, and
an unparsable or out-of-range value raises :class:`ParseError` naming
``path:line``, as does a byte that is not UTF-8 in any text file the
package reads. The line named is the physical line on which the offending
row starts, which a quoted field holding a newline sets apart from the
row count. A read parses its rows into arrays a block at a time and keeps
no string rows."""

from __future__ import annotations

import csv
import errno
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParseError


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path``; rename it over ``path`` on success.

    Takes the arguments of :func:`open`. Readers never see a partial
    file: if the body raises, the temp file is removed and ``path``
    keeps its old content. An :class:`OSError` that names the temp file
    (it cannot be created, or cannot replace ``path``) is raised again
    naming ``path`` alone, the one name the caller gave.
    """
    path = Path(path)
    if not path.name:  # "." or "/": no name to put a temp file beside
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = str(path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp"))
    # Exclusive create like tempfile.mkstemp, but with the permissions
    # the umask gives a plain open() rather than mkstemp's 0600.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, mode, **kwargs) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(payload)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@contextmanager
def open_utf8(path: str | Path, newline: str | None = None):
    """Open ``path`` to read it as UTF-8 text; a byte that is not UTF-8, met
    while the body reads, raises :class:`ParseError` naming its line."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # Offsets in the error count from the decoder's chunk, not the
            # file: decode the whole file again to place the byte.
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                raise ParseError(f"{path}:{line}: not valid UTF-8: {exc.reason}") from None
            raise


# Rows parsed into arrays at a time: a read holds the strings of one block,
# whatever the length of the file.
_BLOCK_ROWS = 4096


@dataclass
class CsvTable:
    """What a read keeps of a CSV file: the first column's sample ids, one
    (N, k) array per column spec, and the physical line on which each of
    the N non-blank rows starts. No string row outlives the block it was
    parsed in."""

    path: str
    sample_ids: list[str]
    arrays: list[np.ndarray]
    lines: np.ndarray

    def error(self, i: int, message: str) -> ParseError:
        return ParseError(f"{self.path}:{self.lines[i]}: {message}")

    def check_labels(self, labels: np.ndarray, n_classes: int) -> None:
        """Raise naming the first row of ``labels`` (one row of class indices
        per table row) that holds a value outside 0..n_classes-1."""
        bad = ((labels < 0) | (labels >= n_classes)).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise self.error(i, f"labels must lie in 0..{n_classes - 1}, got {labels[i].tolist()}")

    def _append(self, rows: list[list[str]], lines: list[int], specs) -> None:
        """Parse a block of rows onto the end of the arrays.

        Values are parsed by Python's ``int()``/``float()`` rules; the first
        row holding a value that fails or overflows its dtype raises
        :class:`ParseError` naming its line. The arrays grow in place (no
        view of them exists yet), so a read never holds a copy of one."""
        n, b = len(self.lines), len(rows)
        if not b:
            return
        self.lines.resize(n + b, refcheck=False)
        self.lines[n:] = lines
        for array, (cols, dtype) in zip(self.arrays, specs):
            cells = [row[cols] for row in rows]
            with np.errstate(over="raise"):
                try:
                    block = np.array(cells, dtype)
                except (ValueError, ArithmeticError):
                    for i, values in enumerate(cells):
                        try:
                            np.array(values, dtype)
                        except (ValueError, ArithmeticError):
                            message = f"expected {np.dtype(dtype)}, got {values}"
                            raise self.error(n + i, message) from None
                    raise
            array.resize((n + b, array.shape[1]), refcheck=False)
            array[n:] = block


def read_csv(
    path: str | Path,
    layout: Callable[[list[str]], tuple[list[str], Sequence[tuple[slice, type]]]],
) -> CsvTable:
    """Read the CSV file at ``path``, parsing its rows in blocks as it goes.

    ``layout`` maps the file's header to the header its format requires
    and the (slice, dtype) pairs to parse, one array each; it must accept
    any header, since the file's is compared only afterwards. A repeated
    sample id raises naming its second line."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            expected, specs = layout(header)
            if header != expected:
                raise ParseError(f"{path}: malformed header {header}, expected {expected}")
            arrays = [np.empty((0, len(header[cols])), dtype) for cols, dtype in specs]
            table = CsvTable(str(path), [], arrays, np.empty(0, np.int64))
            seen: set[str] = set()
            rows, lines = [], []
            end = reader.line_num
            for row in reader:
                # A quoted field may span lines: a row starts on the line
                # after the one the row before it ended on.
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                if row[0] in seen:
                    raise ParseError(f"{path}:{lineno}: duplicate sample_id {row[0]!r}")
                seen.add(row[0])
                table.sample_ids.append(row[0])
                rows.append(row)
                lines.append(lineno)
                if len(rows) == _BLOCK_ROWS:
                    table._append(rows, lines, specs)
                    rows, lines = [], []
            table._append(rows, lines, specs)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return table


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as CSV, atomically (see :func:`atomic_open`)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
