"""Free-form teacher text to closed-set class labels.

Frozen teachers answer in free text ("The object is an alarm clock."),
so each response is embedded and matched against the (C, d) matrix of
class-name embeddings by one cosine call; the argmax class becomes the
pseudo-label, the class matrix coming from the same backend as the
response (:meth:`ClassVocab.class_matrix`). A backend is anything whose
``embed(text)`` returns a float64 vector; two are supplied:

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    LookupMissError,
    ParseError,
    ShapeMismatchError,
    UndefinedSimilarityError,
    UnlabeledSampleError,
)

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


class TrigramEmbedder:
    """Hashed character-trigram counts, L2-normalized.

    Normalized texts shorter than three characters are right-padded with
    spaces, so every non-empty normalized text embeds to a unit vector.
    Text that normalizes to the empty string embeds to the zero vector,
    which means "unmatchable text" and must not enter cosines.
    """

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(TRIGRAM_DIM)
        normalized = normalize_text(text)
        if normalized:
            padded = normalized.ljust(3)
            for i in range(len(padded) - 2):
                vec[_bucket(padded[i : i + 3])] += 1.0
            vec /= math.sqrt(float(vec @ vec))
        return vec


class PrecomputedTable:
    """Text -> embedding lookup loaded from a TSV file.

    Line format: ``text<TAB>f1 f2 ... fd`` with d constant per file.
    Lookups match the raw text exactly; a miss raises
    :class:`LookupMissError` naming the text.
    """

    def __init__(self, table: dict[str, np.ndarray]):
        if not table:
            raise ParseError("empty embedding table")
        self.table = table

    @classmethod
    def load(cls, path: str | Path) -> "PrecomputedTable":
        table: dict[str, np.ndarray] = {}
        dim: int | None = None
        with open(path, encoding="utf-8") as fh:
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
        return cls(table)

    def embed(self, text: str) -> np.ndarray:
        vec = self.table.get(text)
        if vec is None:
            raise LookupMissError(f"no precomputed embedding for text {text!r}")
        return vec


Embedder = TrigramEmbedder | PrecomputedTable


def embed_text(text: str, backend: Embedder) -> np.ndarray:
    """Embed ``text`` with the chosen backend; deterministic per input."""
    return backend.embed(text)


def sts(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Cosine similarity in [-1, 1] of vector ``a`` with ``b``.

    ``b`` is one vector, giving a float, or a (C, d) matrix, giving the C
    similarities of ``a`` with its rows; one vector is computed as the
    one-row matrix. Numerators and squared norms come from the same
    reduction and IEEE-754 square root is correctly rounded, so identical
    vectors score exactly 1.0.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    rows = vb.reshape(1, -1) if vb.ndim == 1 else vb
    if va.ndim != 1 or rows.ndim != 2 or rows.shape[1] != va.shape[0]:
        raise ShapeMismatchError(f"embedding dimensions differ: {va.shape} vs {vb.shape}")
    ma = np.max(np.abs(va), initial=0.0)
    mb = np.max(np.abs(rows), axis=1, keepdims=True, initial=0.0)
    if ma == 0.0 or not np.all(mb):
        raise UndefinedSimilarityError("cosine of an all-zero vector is undefined")
    # Prescale by the max-abs entry: cosine is scale-invariant and the
    # squared norms land in [1, d], where they cannot under- or overflow.
    va = va / ma
    rows = rows / mb
    sims = np.einsum("cd,d->c", rows, va) / np.sqrt(
        np.einsum("d,d->", va, va) * np.einsum("cd,cd->c", rows, rows)
    )
    sims = np.clip(sims, -1.0, 1.0)
    return float(sims[0]) if vb.ndim == 1 else sims


@dataclass
class ClassVocab:
    """Ordered closed label set; the class index is the list position.

    ``name_index`` maps each normalized name to its class; names must be
    distinct and non-empty after :func:`normalize_text`, the same folding
    the verbatim short-circuit and the trigram embedder apply. Class-name
    embeddings are not stored: :meth:`class_matrix` derives them from the
    backend that embeds the responses.
    """

    names: list[str]

    def __post_init__(self):
        if len(self.names) < 2:
            raise ConfigError("a class vocabulary needs at least 2 classes")
        normalized = [normalize_text(name) for name in self.names]
        if not all(normalized):
            raise ConfigError("class names must be non-empty after normalization")
        self.name_index: dict[str, int] = {name: c for c, name in enumerate(normalized)}
        if len(self.name_index) != len(normalized):
            raise ConfigError("class names must be unique after normalization")
        self._matrix: tuple[Embedder, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.names)

    def class_matrix(self, backend: Embedder) -> np.ndarray:
        """(C, d) read-only matrix of the class names embedded by ``backend``.

        Rows are L2-normalized; cosine argmax is scale-invariant so this
        never changes an assignment. The matrix of the last backend used
        is kept, keyed by identity, so a batch embeds each name once.
        """
        if self._matrix is None or self._matrix[0] is not backend:
            rows = []
            for name in self.names:
                vec = embed_text(name, backend)
                if not np.any(vec):
                    raise ConfigError(f"class name {name!r} embeds to the zero vector")
                rows.append(vec / math.sqrt(float(vec @ vec)))
            matrix = np.array(rows)
            matrix.flags.writeable = False
            self._matrix = (backend, matrix)
        return self._matrix[1]


@dataclass(frozen=True)
class TeacherRecord:
    """One cached teacher response for one sample."""

    sample_id: str
    teacher_id: int
    raw_text: str


def read_teacher_records(path: str | Path) -> list[TeacherRecord]:
    """Read JSON Lines records ``{"sample_id", "teacher", "text"}``.

    ``sample_id`` and ``text`` are JSON strings, ``teacher`` a non-negative
    JSON integer, and (sample_id, teacher) pairs are unique in the file.
    """
    records: list[TeacherRecord] = []
    seen: set[tuple[str, int]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            try:
                sample_id, teacher_id, text = obj["sample_id"], obj["teacher"], obj["text"]
            except (KeyError, TypeError):
                raise ParseError(
                    f"{path}:{lineno}: expected keys sample_id, teacher, text"
                ) from None
            if not isinstance(sample_id, str) or not isinstance(text, str):
                raise ParseError(f"{path}:{lineno}: sample_id and text must be strings")
            # A bool is an int to Python but not a JSON integer.
            if type(teacher_id) is not int or teacher_id < 0:
                raise ParseError(f"{path}:{lineno}: teacher must be a non-negative integer")
            key = (sample_id, teacher_id)
            if key in seen:
                raise ParseError(f"{path}:{lineno}: duplicate record for {key}")
            seen.add(key)
            records.append(TeacherRecord(sample_id, teacher_id, text))
    return records


def assign_pseudo_label(record: TeacherRecord, vocab: ClassVocab, backend: Embedder) -> int:
    """Index of the class name semantically closest to the record text.

    Text equal to a class name after normalization maps straight to that
    class; otherwise the cosine argmax decides, with similarity ties
    resolved to the lowest class index. Un-embeddable text (empty under
    the trigram backend, missing from a precomputed table) raises
    :class:`UnlabeledSampleError`.
    """
    verbatim = vocab.name_index.get(normalize_text(record.raw_text))
    if verbatim is not None:
        return verbatim
    try:
        query = embed_text(record.raw_text, backend)
    except LookupMissError as exc:
        raise UnlabeledSampleError(str(exc)) from exc
    if not np.any(query):
        raise UnlabeledSampleError(
            f"text {record.raw_text!r} has no embeddable content"
        )
    return int(np.argmax(sts(query, vocab.class_matrix(backend))))


@dataclass
class LabelingSummary:
    """Bookkeeping from one ingestion batch."""

    n_samples_in: int
    n_teachers: int
    per_teacher_labeled: list[int]
    per_teacher_unlabeled: list[int]
    dropped_sample_ids: list[str] = field(default_factory=list)


def label_records(
    records: list[TeacherRecord],
    vocab: ClassVocab,
    backend: Embedder,
    on_unlabeled: str = "drop",
):
    """Convert an ingestion batch into a pseudo-label matrix.

    Samples keep their first-appearance order, so output never depends
    on how the work is scheduled. Each distinct raw text is labeled once
    by :func:`assign_pseudo_label`, which depends on nothing else in the
    record. Teacher ids must cover 0..M-1. A sample missing any teacher's
    label (un-embeddable text or absent record) is dropped under the
    ``drop`` policy or raises under ``error``.
    """
    from .consensus import PseudoLabelMatrix

    if on_unlabeled not in ("drop", "error"):
        raise ConfigError(f"unknown on-unlabeled policy {on_unlabeled!r}")
    if not records:
        raise DataError("no teacher records to label")

    teacher_ids = sorted({r.teacher_id for r in records})
    n_teachers = len(teacher_ids)
    if teacher_ids != list(range(n_teachers)):
        raise DataError(f"teacher ids must cover 0..M-1, got {teacher_ids}")
    if n_teachers < 2:
        raise ConfigError("need at least 2 teachers")

    row_of: dict[str, int] = {}
    for record in records:
        row_of.setdefault(record.sample_id, len(row_of))
    sample_order = list(row_of)

    # Built up front, so a class name the backend cannot embed fails the
    # batch even when every answer matches a name verbatim.
    vocab.class_matrix(backend)
    label_of: dict[str, int] = {}  # raw text -> class, -1 when unlabelable
    labels = np.full((len(sample_order), n_teachers), -1, dtype=np.int64)
    for record in records:
        label = label_of.get(record.raw_text)
        if label is None:
            try:
                label = assign_pseudo_label(record, vocab, backend)
            except UnlabeledSampleError:
                label = -1
            label_of[record.raw_text] = label
        if label < 0 and on_unlabeled == "error":
            raise UnlabeledSampleError(
                f"sample {record.sample_id!r}, teacher {record.teacher_id}: "
                f"text {record.raw_text!r} could not be labeled"
            )
        labels[row_of[record.sample_id], record.teacher_id] = label

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
