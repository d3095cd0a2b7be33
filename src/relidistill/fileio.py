"""Atomic file writers, and the one CSV layer every package CSV goes through:
the header must match its format exactly, blank lines are skipped, every
row has the header's field count and a sample id not seen above it, and
an unparsable or out-of-range value raises :class:`ParseError` naming
``path:line``, as does a byte that is not UTF-8 in any text file the
package reads. The line named is the physical line on which the offending
row starts, which a quoted field holding a newline sets apart from the
row count. A read parses its rows into arrays a block at a time and keeps
no string rows. A plain block (one row a line, no quotes or blank lines,
numbers in ASCII) goes through numpy's C parser; any other block, and
every block after it, goes through ``csv.reader`` and Python's number
rules. Both accept the same values and name the same line for each
error."""

from __future__ import annotations

import csv
import errno
import itertools
import os
import re
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParseError, check_int


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
# What np.loadtxt may see in a plain block's sample-id field, integer
# field and float field: ids free of quotes and NUL, numbers spelled in
# ASCII digits and signs, plus points and exponent marks in floats. On
# these loadtxt either refuses a field or gives the value int()/float()
# give; elsewhere it strays (it skips U+001C as a space and reads U+01FE
# as a digit, and some numpy releases parse "3.0" in an integer field,
# with a warning).
_PLAIN_ID = r'[^",\0\r\n]*'
_PLAIN_INT = r"[-+0-9]*"
_PLAIN_FLOAT = r"[-+.0-9eE]*"


def _plain_block(width: int, specs) -> re.Pattern:
    """The pattern a plain block of physical lines matches whole: one row
    of ``width`` fields a line, each field spelled as its column spec
    parses it (a column no spec parses as a float)."""
    if width < 2:
        return re.compile("(?!)")  # a file of ids alone takes csv.reader
    fields = [_PLAIN_ID] + [_PLAIN_FLOAT] * (width - 1)
    for cols, dtype in specs:
        if np.issubdtype(dtype, np.integer):
            fields[cols] = [_PLAIN_INT] * len(fields[cols])
    row = ",".join(fields)
    return re.compile(rf"(?:{row}(?:\r\n?|\n))*(?:{row})?")


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
        n_classes = check_int(n_classes, "n_classes", 1)
        # Row extremes, not an (N, k) mask: the check's temporaries are two
        # values a row.
        bad = (labels.min(axis=1, initial=0) < 0) | (labels.max(axis=1, initial=-1) >= n_classes)
        if bad.any():
            i = int(np.argmax(bad))
            raise self.error(i, f"labels must lie in 0..{n_classes - 1}, got {labels[i].tolist()}")

    def _extend(self, lines: Sequence[int] | np.ndarray, blocks: list[np.ndarray]) -> None:
        """Put one parsed block per array, and its rows' lines, on the end.
        The arrays grow in place (no view of them exists yet), so a read
        never holds a copy of one."""
        n, b = len(self.lines), len(lines)
        self.lines.resize(n + b, refcheck=False)
        self.lines[n:] = lines
        for array, block in zip(self.arrays, blocks):
            array.resize((n + b, array.shape[1]), refcheck=False)
            array[n:] = block

    def _append_plain(
        self, block: list[str], first: int, width: int, plain: re.Pattern, specs, seen: set[str]
    ) -> bool:
        """Parse a block of physical lines, the first of them line ``first``,
        through ``np.loadtxt``, and add its sample ids to ``seen``.

        A block is plain when ``plain`` (see :func:`_plain_block`) matches
        it whole and no line is longer than ``csv.field_size_limit()``:
        then ``csv.reader`` would split each line at its commas into one
        row, and ``np.loadtxt`` gives the values :meth:`_append` gives or
        refuses the block. Return False, having changed nothing, for a
        block that is not plain, that repeats a sample id, or whose values
        loadtxt refuses or overflows to infinity; :meth:`_append` then
        parses it and names the line at fault."""
        if not block:
            return True
        if max(map(len, block)) > csv.field_size_limit() or not plain.fullmatch("".join(block)):
            return False
        ids = [line[: line.index(",")] for line in block]
        if len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
            return False
        columns = range(width)
        blocks = []
        for cols, dtype in specs:
            try:
                values = np.loadtxt(
                    block, dtype, delimiter=",", comments=None, quotechar=None,
                    usecols=list(columns[cols]), ndmin=2,
                )
            except ValueError:
                return False
            # Plain values spell no inf or nan: infinity is an overflow.
            if values.dtype.kind == "f" and not np.isfinite(values).all():
                return False
            blocks.append(values)
        seen.update(ids)
        self.sample_ids.extend(ids)
        self._extend(np.arange(first, first + len(block)), blocks)
        return True

    def _append(self, rows: list[list[str]], lines: list[int], specs) -> None:
        """Parse a block of ``csv.reader`` rows onto the end of the arrays.

        This path parses every block that :meth:`_append_plain` refuses,
        and every block after it. Values are parsed by Python's
        ``int()``/``float()`` rules; the first row holding a value that
        fails or overflows its dtype raises :class:`ParseError` naming
        its line."""
        if not rows:
            return
        blocks = []
        for cols, dtype in specs:
            cells = [row[cols] for row in rows]
            with np.errstate(over="raise"):
                try:
                    blocks.append(np.array(cells, dtype))
                except (ValueError, ArithmeticError):
                    for lineno, values in zip(lines, cells):
                        try:
                            np.array(values, dtype)
                        except (ValueError, ArithmeticError):
                            message = f"expected {np.dtype(dtype)}, got {values}"
                            raise ParseError(f"{self.path}:{lineno}: {message}") from None
                    raise
        self._extend(lines, blocks)


def read_csv(
    path: str | Path,
    layout: Callable[[list[str]], tuple[list[str], Sequence[tuple[slice, type]]]],
) -> CsvTable:
    """Read the CSV file at ``path``, parsing its rows in blocks as it goes.

    ``layout`` maps the file's header to the header its format requires
    and the (slice, dtype) pairs to parse, one array each; it must accept
    any header, since the file's is compared only afterwards. A repeated
    sample id raises naming its second line.

    Blocks go through :meth:`CsvTable._append_plain` while they are
    plain; the first block that is not, and the rest of the file after
    it, go through ``csv.reader`` and :meth:`CsvTable._append`."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        start = 0  # physical lines read before the reader's first
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
            start = reader.line_num
            plain = _plain_block(len(header), specs)
            while True:
                # A plain block is _BLOCK_ROWS rows, as on the csv.reader path.
                block = list(itertools.islice(fh, _BLOCK_ROWS))
                if not table._append_plain(block, start + 1, len(header), plain, specs, seen):
                    break
                if len(block) < _BLOCK_ROWS:
                    return table
                start += len(block)
            reader = csv.reader(itertools.chain(block, fh))
            rows, lines = [], []
            end = start
            for row in reader:
                # A quoted field may span lines: a row starts on the line
                # after the one the row before it ended on.
                lineno, end = end + 1, start + reader.line_num
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
            raise ParseError(f"{path}:{start + reader.line_num}: {exc}") from None
    return table


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as CSV, atomically (see :func:`atomic_open`)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
