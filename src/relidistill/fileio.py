"""Atomic file writers, and the one CSV layer every package CSV goes through:
the header must match its format exactly, blank lines are skipped, every
row has the header's field count, and an unparsable or out-of-range value
raises :class:`ParseError` naming ``path:line``, as does a byte that is not
UTF-8 in any text file the package reads."""

from __future__ import annotations

import csv
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
    keeps its old content.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    # Exclusive create like tempfile.mkstemp, but with the permissions
    # the umask gives a plain open() rather than mkstemp's 0600.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


@dataclass
class CsvTable:
    """The non-blank rows below a CSV header, with their line numbers."""

    path: str
    header: list[str]
    rows: list[list[str]]
    lines: list[int]

    def error(self, i: int, message: str) -> ParseError:
        return ParseError(f"{self.path}:{self.lines[i]}: {message}")

    def sample_ids(self) -> list[str]:
        """The first column; a repeated id raises naming its second line."""
        first: dict[str, int] = {}
        for i, row in enumerate(self.rows):
            if first.setdefault(row[0], i) != i:
                raise self.error(i, f"duplicate sample_id {row[0]!r}")
        return list(first)

    def columns(self, cols: slice, dtype) -> np.ndarray:
        """``row[cols]`` of every row as one (N, k) array of ``dtype``, parsed by
        Python's ``int()``/``float()`` rules; the first row holding a value that
        fails or overflows ``dtype`` raises :class:`ParseError` naming its line."""
        cells = [row[cols] for row in self.rows]
        with np.errstate(over="raise"):
            try:
                return np.array(cells, dtype).reshape(len(cells), len(self.header[cols]))
            except (ValueError, ArithmeticError):
                for i, values in enumerate(cells):
                    try:
                        np.array(values, dtype)
                    except (ValueError, ArithmeticError):
                        raise self.error(i, f"expected {np.dtype(dtype)}, got {values}") from None
                raise


def read_csv(path: str | Path, expected_header: Callable[[list[str]], list[str]]) -> CsvTable:
    """The header and non-blank rows of the CSV file at ``path``; ``expected_header``
    maps the file's header to the one its format requires."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            expected = expected_header(header)
            if header != expected:
                raise ParseError(f"{path}: malformed header {header}, expected {expected}")
            rows, lines = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append(row)
                lines.append(lineno)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return CsvTable(str(path), header, rows, lines)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as CSV, atomically (see :func:`atomic_open`)."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
