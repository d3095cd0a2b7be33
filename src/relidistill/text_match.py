"""Free-form teacher text to closed-set class labels.

Frozen teachers answer in free text ("The object is an alarm clock."),
so each response is matched against the (C, d) matrix of class-name
embeddings by one cosine call; the argmax class becomes the
pseudo-label, the class matrix coming from the same backend as the
response (:meth:`ClassVocab.class_matrix`). A backend has two methods,
both of the text as given:

* ``embed(text)`` -- its float64 vector of the backend's one width d,
  which builds the class side;
* ``support(text)`` -- the nonzero entries of that vector, as (sorted
  ``np.intp`` columns, float64 values), which is all an answer needs.

Two are supplied:

* ``PrecomputedTable`` -- a TSV of text -> vector pairs produced offline
  by any sentence embedder.
* ``TrigramEmbedder`` -- a self-contained hashed character-trigram
  term-frequency embedder, so the pipeline runs with zero external
  assets.

Both are deterministic. Text that equals a class name verbatim (after
normalization) short-circuits to that class under either backend, and a
batch labels each distinct text once.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .consensus import PseudoLabelMatrix
from .errors import (
    ConfigError,
    DataError,
    LookupMissError,
    ParseError,
    ShapeMismatchError,
    UndefinedSimilarityError,
    UnlabeledSampleError,
)
from .fileio import atomic_open, open_utf8

TRIGRAM_DIM = 4096  # 2**12 buckets

# FNV-1a folds the trigram bytes to 64 bits; a golden-ratio
# multiply-shift then takes the top 12 bits as the bucket index.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_BUCKET_SHIFT = 64 - 12

_PUNCT_RE = re.compile(r"[^\w\s]+")
_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase, replace punctuation with spaces, collapse whitespace."""
    text = _PUNCT_RE.sub(" ", text.lower())
    return _WS_RE.sub(" ", text).strip()


def _bucket(trigram: str) -> int:
    h = _FNV_OFFSET
    for byte in trigram.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return ((h * _GOLDEN64) & _MASK64) >> _BUCKET_SHIFT


# The most trigrams a TrigramEmbedder remembers the bucket of; at this
# size its memo is emptied (see TrigramEmbedder).
_MEMO_CAP = 1 << 16


class _BucketMemo(dict):
    """Trigram -> :func:`_bucket`, filled on first lookup and emptied when a
    lookup misses with ``_MEMO_CAP`` entries held."""

    def __missing__(self, trigram: str) -> int:
        if len(self) >= _MEMO_CAP:
            self.clear()
        bucket = self[trigram] = _bucket(trigram)
        return bucket


class TrigramEmbedder:
    """Hashed character-trigram counts, L2-normalized.

    Normalized texts shorter than three characters are right-padded with
    spaces, so every non-empty normalized text embeds to a unit vector.
    Text that normalizes to the empty string embeds to the zero vector,
    which means "unmatchable text" and must not enter cosines.

    Each embedder hashes a trigram once: it remembers every trigram's
    bucket and calls :func:`_bucket` only for a trigram it has not seen.
    The bucket is a pure function of the trigram, so this changes no
    vector. The memo is bounded by the module constant ``_MEMO_CAP``
    (65 536 trigrams, about 10 MB), not by a setting: a miss with that
    many held empties it, and hashing starts over. Answers matched
    against a 65-name vocabulary hold a few hundred distinct trigrams.
    """

    def __init__(self) -> None:
        self._buckets = _BucketMemo()

    def support(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """The buckets ``text``'s trigrams fall in, sorted, and their
        L2-normalized counts; both empty for unmatchable text."""
        normalized = normalize_text(text)
        if not normalized:
            return np.empty(0, dtype=np.intp), np.empty(0)
        padded = normalized.ljust(3)
        memo = self._buckets
        counts = Counter([memo[padded[i : i + 3]] for i in range(len(padded) - 2)])
        cols = sorted(counts)
        vals = np.array([counts[c] for c in cols], dtype=np.float64)
        # Small integer counts, so ``vals @ vals`` is exact in any order.
        vals /= math.sqrt(float(vals @ vals))
        return np.array(cols, dtype=np.intp), vals

    def embed(self, text: str) -> np.ndarray:
        cols, vals = self.support(text)
        vec = np.zeros(TRIGRAM_DIM)
        vec[cols] = vals
        return vec


class PrecomputedTable:
    """Text -> embedding lookup loaded from a TSV file.

    Line format: ``text<TAB>f1 f2 ... fd`` with d constant per file.
    Every vector is 1-D and of one length, or the constructor raises
    :class:`ShapeMismatchError`. Lookups match the raw text exactly; a
    miss raises :class:`LookupMissError` naming the text.
    """

    def __init__(self, table: dict[str, np.ndarray]):
        if not table:
            raise DataError("empty embedding table")
        shapes = sorted({vec.shape for vec in table.values()})
        if len(shapes) != 1 or len(shapes[0]) != 1:
            raise ShapeMismatchError(
                f"embeddings must be 1-D and of one length, got shapes {shapes}"
            )
        self.table = table

    @classmethod
    def load(cls, path: str | Path) -> "PrecomputedTable":
        table: dict[str, np.ndarray] = {}
        dim: int | None = None
        with open_utf8(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                text, sep, payload = line.partition("\t")
                if not sep:
                    raise ParseError(f"{path}:{lineno}: expected 'text<TAB>values'")
                try:
                    vec = np.array([float(v) for v in payload.split()])
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric embedding value") from None
                if vec.size == 0:
                    raise ParseError(f"{path}:{lineno}: no embedding values")
                if dim is None:
                    dim = int(vec.size)
                elif vec.size != dim:
                    raise ParseError(f"{path}:{lineno}: expected {dim} values, got {vec.size}")
                if not np.all(np.isfinite(vec)):
                    raise ParseError(f"{path}:{lineno}: non-finite embedding value")
                if text in table:
                    raise ParseError(f"{path}:{lineno}: duplicate key {text!r}")
                table[text] = vec
        if not table:
            raise ParseError(f"{path}: empty embedding table")
        return cls(table)

    def embed(self, text: str) -> np.ndarray:
        vec = self.table.get(text)
        if vec is None:
            raise LookupMissError(f"no precomputed embedding for text {text!r}")
        return vec

    def support(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        vec = self.embed(text)
        cols = np.flatnonzero(vec)
        return cols, vec[cols]


Embedder = TrigramEmbedder | PrecomputedTable


def embed_text(text: str, backend: Embedder) -> np.ndarray:
    """Embed ``text`` with the chosen backend; deterministic per input."""
    return backend.embed(text)


class _ClassSide(NamedTuple):
    """The class half of :func:`sts`, computed once per (C, d) matrix.

    :func:`assign_pseudo_label` also builds a restricted side: ``rows``
    keeps only the columns where the query is nonzero, ``sq_norms`` stays
    that of the full rows. The columns dropped add nothing to the
    numerators or to the query's norm, so the cosines are unchanged up to
    rounding.
    """

    rows: np.ndarray  # each row divided by its max-abs entry
    sq_norms: np.ndarray  # (C,) squared norms of the full ``rows``


def _class_side(rows: np.ndarray) -> _ClassSide:
    """Prescale each row of ``rows`` by its max-abs entry and take its squared norm.

    Cosine is scale-invariant, and after the prescale the squared norms lie
    in [1, d], where they cannot under- or overflow. An all-zero row or a
    non-finite entry raises :class:`UndefinedSimilarityError`. :func:`sts`
    prepares its query the same way, as a one-row matrix.
    """
    # Array methods, not np.max / np.all: sts calls this once per query.
    scale = np.abs(rows).max(axis=1, keepdims=True, initial=0.0)
    if not scale.all():
        raise UndefinedSimilarityError("cosine of an all-zero vector is undefined")
    if not np.isfinite(scale).all():
        raise UndefinedSimilarityError("cosine of a non-finite vector is undefined")
    rows = rows / scale
    sq_norms = np.einsum("cd,cd->c", rows, rows)
    rows.flags.writeable = sq_norms.flags.writeable = False
    return _ClassSide(rows, sq_norms)


def sts(a: np.ndarray, b: np.ndarray | _ClassSide) -> float | np.ndarray:
    """Cosine similarity in [-1, 1] of vector ``a`` with ``b``.

    ``b`` is one vector, giving a float, or a (C, d) matrix, giving the C
    similarities of ``a`` with its rows; one vector is computed as the
    one-row matrix. ``b`` may also be a class side already prepared from
    such a matrix, as :class:`ClassVocab` keeps one per backend; it gives
    the same C similarities, bit for bit. Numerators and squared norms come
    from the same reduction and IEEE-754 square root is correctly rounded,
    so identical vectors score exactly 1.0. An all-zero or non-finite
    vector on either side raises :class:`UndefinedSimilarityError`.
    """
    va = np.asarray(a, dtype=np.float64)
    side = b if isinstance(b, _ClassSide) else None
    vb = np.asarray(b, dtype=np.float64) if side is None else side.rows
    rows = vb.reshape(1, -1) if vb.ndim == 1 else vb
    if va.ndim != 1 or rows.ndim != 2 or rows.shape[1] != va.shape[0]:
        raise ShapeMismatchError(f"embedding dimensions differ: {va.shape} vs {vb.shape}")
    if side is None:
        side = _class_side(rows)
    query = _class_side(va[None, :])
    sims = np.einsum("cd,d->c", side.rows, query.rows[0]) / np.sqrt(
        query.sq_norms[0] * side.sq_norms
    )
    sims = sims.clip(-1.0, 1.0)
    return float(sims[0]) if vb.ndim == 1 else sims


@dataclass
class ClassVocab:
    """Ordered closed label set; the class index is the list position.

    ``name_index`` maps each normalized name to its class; names must be
    distinct and non-empty after :func:`normalize_text`, the same folding
    the verbatim short-circuit and the trigram embedder apply, and hold no
    line break (``\\n`` or ``\\r``), as the vocabulary file is one name per
    line. Class-name embeddings are not stored: :meth:`class_matrix`
    derives them from the backend that matches the responses.
    """

    names: list[str]

    def __post_init__(self):
        if len(self.names) < 2:
            raise ConfigError("a class vocabulary needs at least 2 classes")
        for name in self.names:
            if "\n" in name or "\r" in name:
                raise ConfigError(f"class name {name!r} holds a line break")
        normalized = [normalize_text(name) for name in self.names]
        if not all(normalized):
            raise ConfigError("class names must be non-empty after normalization")
        self.name_index: dict[str, int] = {name: c for c, name in enumerate(normalized)}
        if len(self.name_index) != len(normalized):
            raise ConfigError("class names must be unique after normalization")
        self._matrix: tuple[Embedder, np.ndarray, _ClassSide] | None = None

    def __len__(self) -> int:
        return len(self.names)

    def class_matrix(self, backend: Embedder) -> np.ndarray:
        """(C, d) read-only matrix of the class names embedded by ``backend``.

        Rows are L2-normalized; cosine argmax is scale-invariant so this
        never changes an assignment. The matrix of the last backend used
        is kept, keyed by identity, so a batch embeds each name once.
        """
        return self._embedded(backend)[1]

    def _embedded(self, backend: Embedder) -> tuple[Embedder, np.ndarray, _ClassSide]:
        """The kept (backend, class matrix, its :func:`sts` class side), rebuilt
        when ``backend`` is not the one they were built with."""
        if self._matrix is None or self._matrix[0] is not backend:
            rows = []
            for name in self.names:
                vec = embed_text(name, backend)
                if not np.any(vec):
                    raise DataError(f"class name {name!r} embeds to the zero vector")
                if not np.all(np.isfinite(vec)):
                    raise DataError(f"class name {name!r} embeds to a non-finite vector")
                vec = vec / np.max(np.abs(vec))  # so ``vec @ vec`` cannot under- or overflow
                rows.append(vec / math.sqrt(float(vec @ vec)))
            matrix = np.array(rows)
            matrix.flags.writeable = False
            self._matrix = (backend, matrix, _class_side(matrix))
        return self._matrix


# On a stripped line, a scan that ends at the line's end accepts exactly
# what ``json.loads`` accepts: the whitespace ``json.loads`` skips around
# the value is gone, and a leading BOM, which it rejects, fails the scan.
_scan_json = json.JSONDecoder().raw_decode


class TeacherRecord(NamedTuple):
    """One cached teacher response for one sample."""

    sample_id: str
    teacher_id: int
    raw_text: str


def read_teacher_records(path: str | Path) -> Iterator[TeacherRecord]:
    """Yield JSON Lines records ``{"sample_id", "teacher", "text"}`` as read.

    ``sample_id`` and ``text`` are JSON strings and ``teacher`` a non-negative
    JSON integer, or the line raises :class:`ParseError` naming ``path:line``.
    A line is JSON when ``json.loads`` takes it, and its error is the one
    ``json.loads`` gives, including those for an integer over Python's
    digit limit and for nesting deeper than the recursion limit.
    """
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _scan_json(line)
            except (ValueError, RecursionError):
                end = None
            if end != len(line):
                # json.loads refuses what the scan refused; take its message.
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            try:
                sample_id, teacher_id, text = obj["sample_id"], obj["teacher"], obj["text"]
            except (KeyError, TypeError):
                raise ParseError(
                    f"{path}:{lineno}: expected keys sample_id, teacher, text"
                ) from None
            if not isinstance(sample_id, str) or not isinstance(text, str):
                raise ParseError(f"{path}:{lineno}: sample_id and text must be strings")
            # Only a \u escape can spell a lone surrogate, which no UTF-8
            # output can hold.
            if "\\u" in line:
                try:
                    sample_id.encode("utf-8"), text.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(
                        f"{path}:{lineno}: sample_id or text holds a lone surrogate"
                    ) from None
            # A bool is an int to Python but not a JSON integer.
            if type(teacher_id) is not int or teacher_id < 0:
                raise ParseError(f"{path}:{lineno}: teacher must be a non-negative integer")
            yield TeacherRecord(sample_id, teacher_id, text)


def write_teacher_records(records: Iterable[TeacherRecord], path: str | Path) -> None:
    """Write ``records`` atomically as the JSON Lines that
    :func:`read_teacher_records` reads: one ``{"sample_id", "teacher",
    "text"}`` object per line, in that key order, by ``json.dumps`` defaults."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for sample_id, teacher_id, text in records:
            record = {"sample_id": sample_id, "teacher": teacher_id, "text": text}
            fh.write(json.dumps(record) + "\n")


def assign_pseudo_label(record: TeacherRecord, vocab: ClassVocab, backend: Embedder) -> int:
    """Index of the class name semantically closest to the record text.

    Text equal to a class name after normalization maps straight to that
    class; otherwise the cosine argmax decides, with similarity ties
    resolved to the lowest class index. The cosines are taken over the
    text's support (``backend.support``, the nonzero entries of its
    embedding) only, which gives the same similarities as a plain
    ``sts(embed_text(text, backend), class_matrix)`` call up to rounding,
    bit for bit for a text with no zero entry. Un-embeddable text (empty
    under the trigram backend, missing from a precomputed table) raises
    :class:`UnlabeledSampleError`; a non-finite embedding raises
    :class:`UndefinedSimilarityError`.
    """
    verbatim = vocab.name_index.get(normalize_text(record.raw_text))
    if verbatim is not None:
        return verbatim
    try:
        cols, vals = backend.support(record.raw_text)
    except LookupMissError as exc:
        raise UnlabeledSampleError(str(exc)) from exc
    if not cols.size:
        raise UnlabeledSampleError(
            f"text {record.raw_text!r} has no embeddable content"
        )
    side = vocab._embedded(backend)[2]
    # ``take`` keeps the rows C-ordered (``rows[:, cols]`` is
    # Fortran-ordered), so a text with no zero entry gets the dense call's
    # bytes.
    return int(np.argmax(sts(vals, side._replace(rows=side.rows.take(cols, axis=1)))))


@dataclass
class LabelingSummary:
    """Bookkeeping from one ingestion batch."""

    n_samples_in: int
    n_teachers: int
    per_teacher_labeled: list[int]
    per_teacher_unlabeled: list[int]
    dropped_sample_ids: list[str] = field(default_factory=list)


def label_records(
    records: Iterable[TeacherRecord],
    vocab: ClassVocab,
    backend: Embedder,
    on_unlabeled: str = "drop",
):
    """Convert any iterable of records into a pseudo-label matrix, in one pass.

    Samples keep their first-appearance order, so output never depends
    on how the work is scheduled. Each distinct raw text is labeled once
    by :func:`assign_pseudo_label`, which depends on nothing else in the
    record. Teacher ids must cover 0..M-1 and each (sample, teacher) pair
    appears once. A sample missing any teacher's label (un-embeddable
    text or absent record) is dropped under the ``drop`` policy or raises
    under ``error``.
    """
    if on_unlabeled not in ("drop", "error"):
        raise ConfigError(f"unknown on-unlabeled policy {on_unlabeled!r}")

    # Built up front, so a class name the backend cannot embed fails the
    # batch even when every answer matches a name verbatim.
    vocab.class_matrix(backend)
    row_of: dict[str, int] = {}
    label_of: dict[str, int] = {}  # raw text -> class, -1 when unlabelable
    rows, teachers, cell_labels = [], [], []  # one entry per record
    for record in records:
        sample_id, teacher_id, text = record
        label = label_of.get(text)
        if label is None:
            try:
                label = assign_pseudo_label(record, vocab, backend)
            except UnlabeledSampleError:
                label = -1
            label_of[text] = label
        if label < 0 and on_unlabeled == "error":
            raise UnlabeledSampleError(
                f"sample {sample_id!r}, teacher {teacher_id}: text {text!r} could not be labeled"
            )
        rows.append(row_of.setdefault(sample_id, len(row_of)))
        teachers.append(teacher_id)
        cell_labels.append(label)

    if not rows:
        raise DataError("no teacher records to label")
    # Checked on the Python ints: an id such as 10**29 is legal JSON.
    teacher_ids = sorted(set(teachers))
    n_teachers = len(teacher_ids)
    if teacher_ids != list(range(n_teachers)):
        raise DataError(f"teacher ids must cover 0..M-1, got {teacher_ids}")
    sample_order = list(row_of)
    cells = np.array(rows, dtype=np.int64) * n_teachers + np.array(teachers, dtype=np.int64)
    _, first = np.unique(cells, return_index=True)
    if first.size < cells.size:
        i = np.setdiff1d(np.arange(cells.size), first)[0]  # the first repeat
        raise DataError(
            f"duplicate record for sample {sample_order[rows[i]]!r}, teacher {teachers[i]}"
        )
    labels = np.full((len(sample_order), n_teachers), -1, dtype=np.int64)
    labels.flat[cells] = cell_labels

    complete = np.all(labels >= 0, axis=1)
    if on_unlabeled == "error" and not np.all(complete):
        missing = [sample_order[i] for i in np.flatnonzero(~complete)]
        raise UnlabeledSampleError(f"samples missing teacher labels: {missing[:5]}")

    kept = np.flatnonzero(complete)
    summary = LabelingSummary(
        n_samples_in=len(sample_order),
        n_teachers=n_teachers,
        per_teacher_labeled=[int(np.sum(labels[:, t] >= 0)) for t in range(n_teachers)],
        per_teacher_unlabeled=[int(np.sum(labels[:, t] < 0)) for t in range(n_teachers)],
        dropped_sample_ids=[sample_order[i] for i in np.flatnonzero(~complete)],
    )
    matrix = PseudoLabelMatrix(
        sample_ids=[sample_order[i] for i in kept],
        labels=labels[kept],
        n_classes=len(vocab),
    )
    return matrix, summary
