import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relidistill as rd
from relidistill.errors import (
    ConfigError,
    DataError,
    LookupMissError,
    ParseError,
    ShapeMismatchError,
    UndefinedSimilarityError,
    UnlabeledSampleError,
)
from relidistill import text_match
from relidistill.text_match import TRIGRAM_DIM, _bucket, _class_side, normalize_text

from conftest import MODIFIERS, OBJECT_VOCAB_65, TEMPLATES, free_text_answer


def naive_trigram_cosine(a: str, b: str) -> float:
    """Collision-free dict-count trigram cosine; oracle for the embedder."""

    def counts(text):
        text = normalize_text(text)
        if len(text) < 3:
            text = text.ljust(3)
        out = {}
        for i in range(len(text) - 2):
            tri = text[i : i + 3]
            out[tri] = out.get(tri, 0) + 1
        return out

    ca, cb = counts(a), counts(b)
    dot = sum(v * cb.get(k, 0) for k, v in ca.items())
    na = math.sqrt(sum(v * v for v in ca.values()))
    nb = math.sqrt(sum(v * v for v in cb.values()))
    return dot / (na * nb)


class TestNormalize:
    def test_lowercase_punctuation_whitespace(self):
        assert normalize_text("The  Object, is an Alarm-Clock!") == (
            "the object is an alarm clock"
        )

    def test_empty_and_punct_only(self):
        assert normalize_text("") == ""
        assert normalize_text("!!! ???") == ""


class TestTrigramEmbedder:
    def setup_method(self):
        self.embedder = rd.TrigramEmbedder()

    def test_deterministic(self):
        a = self.embedder.embed("car")
        b = self.embedder.embed("car")
        assert np.array_equal(a, b)

    def test_single_trigram_one_bucket(self):
        vec = self.embedder.embed("abc")
        assert np.count_nonzero(vec) == 1
        assert vec.max() == 1.0

    def test_unit_norm_any_nonempty(self):
        for text in ("a", "ab", "abc", "alarm clock", "x" * 100):
            vec = self.embedder.embed(text)
            assert math.isclose(float(vec @ vec), 1.0, rel_tol=1e-12)

    def test_empty_text_zero_flag(self):
        assert not np.any(self.embedder.embed(""))
        assert not np.any(self.embedder.embed("?!"))

    def test_case_and_punctuation_insensitive(self):
        a = self.embedder.embed("Alarm Clock!")
        b = self.embedder.embed("alarm   clock")
        assert np.array_equal(a, b)


class TestPrecomputedTable:
    def _write(self, tmp_path, lines):
        path = tmp_path / "emb.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_load_and_lookup(self, tmp_path):
        path = self._write(tmp_path, ["car\t1 0 0", "bike\t0 1 0"])
        table = rd.PrecomputedTable.load(path)
        assert np.array_equal(table.embed("car"), [1.0, 0.0, 0.0])

    def test_missing_key_names_text(self, tmp_path):
        path = self._write(tmp_path, ["car\t1 0"])
        table = rd.PrecomputedTable.load(path)
        with pytest.raises(LookupMissError, match="Audi"):
            table.embed("Audi")

    @pytest.mark.parametrize(
        "lines",
        [
            ["car 1 0"],  # no tab
            ["car\t1 x"],  # bad float
            ["car\t1 0", "bike\t1"],  # ragged dims
            ["car\t1 nan"],  # non-finite
            ["car\t1 0", "car\t0 1"],  # duplicate key
        ],
    )
    def test_parse_errors(self, tmp_path, lines):
        path = self._write(tmp_path, lines)
        with pytest.raises(ParseError):
            rd.PrecomputedTable.load(path)


class TestSts:
    def test_self_similarity_exact_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 40))
            if not np.any(v):
                continue
            assert rd.sts(v, v) == 1.0

    def test_orthogonal(self):
        assert rd.sts(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_closed_form(self):
        sim = rd.sts(np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, 0.0]))
        assert abs(sim - 0.7071067811865476) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            rd.sts(np.ones(3), np.ones(4))

    def test_zero_vector(self):
        with pytest.raises(UndefinedSimilarityError):
            rd.sts(np.zeros(3), np.ones(3))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=16),
        st.lists(st.floats(-100, 100), min_size=2, max_size=16),
    )
    def test_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        if not np.any(va) or not np.any(vb):
            return
        s1, s2 = rd.sts(va, vb), rd.sts(vb, va)
        assert s1 == s2
        assert -1.0 <= s1 <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 24).flatmap(
            lambda d: st.tuples(
                st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
                st.lists(
                    st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
                    min_size=1,
                    max_size=6,
                ),
            )
        )
    )
    def test_matrix_equals_row_calls(self, qm):
        q, m = np.array(qm[0]), np.array(qm[1])
        if not np.all(np.any(m, axis=1)):
            with pytest.raises(UndefinedSimilarityError):
                rd.sts(q, m)
            with pytest.raises(UndefinedSimilarityError):
                _class_side(m)
            return
        if not np.any(q):
            for b in (m, _class_side(m)):
                with pytest.raises(UndefinedSimilarityError):
                    rd.sts(q, b)
            return
        sims = rd.sts(q, m)
        assert sims.shape == (len(m),)
        assert sims.tobytes() == np.array([rd.sts(q, row) for row in m]).tobytes()
        assert sims.tobytes() == rd.sts(q, _class_side(m)).tobytes()
        assert rd.sts(m[0], np.stack([m[0], q]))[0] == 1.0

    def test_matrix_shape_mismatch(self):
        for b in (np.ones((2, 4)), _class_side(np.ones((2, 4)))):
            with pytest.raises(ShapeMismatchError):
                rd.sts(np.ones(3), b)
            with pytest.raises(ShapeMismatchError):
                rd.sts(np.ones((1, 4)), b)
        with pytest.raises(ShapeMismatchError):
            rd.sts(np.ones((1, 3)), np.ones(3))

    def test_shape_checked_before_zero_rows(self):
        with pytest.raises(ShapeMismatchError):
            rd.sts(np.ones(3), np.zeros((2, 4)))

    def test_positive_rescaling_invariant_argmax(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=8)
        cands = rng.normal(size=(5, 8))
        base = np.argmax([rd.sts(q, c) for c in cands])
        scaled = np.argmax([rd.sts(3.7 * q, 0.01 * c) for c in cands])
        assert base == scaled


class TestClassVocab:
    def test_requires_two_classes(self):
        with pytest.raises(ConfigError):
            rd.ClassVocab(["only"])

    def test_rejects_case_duplicate_names(self):
        with pytest.raises(ConfigError):
            rd.ClassVocab(["Car", "car  "])

    @pytest.mark.parametrize(
        "names", [["t-shirt", "t shirt", "sock"], ["Alarm-Clock", "alarm clock!"], ["??", "car"]]
    )
    def test_rejects_names_equal_or_empty_after_normalization(self, names):
        # The verbatim short-circuit and the trigram embedder both see
        # normalize_text(name); two names that fold together would leave
        # the second class unreachable.
        with pytest.raises(ConfigError):
            rd.ClassVocab(names)

    def test_class_matrix_unit_rows(self):
        matrix = rd.ClassVocab(["car", "bicycle"]).class_matrix(rd.TrigramEmbedder())
        norms = np.linalg.norm(matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_class_matrix_rejects_zero_name_embedding(self):
        table = rd.PrecomputedTable({"car": np.array([1.0, 0.0]), "bus": np.zeros(2)})
        with pytest.raises(DataError, match="bus"):
            rd.ClassVocab(["car", "bus"]).class_matrix(table)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_class_vector_of_extreme_scale_labels(self, scale):
        # The squared norm of the raw vector overflowed to inf (1e200) or
        # underflowed to 0 (1e-200), leaving a zero or a NaN class row.
        table = rd.PrecomputedTable(
            {"car": np.array([scale, 0.0]), "bus": np.array([0.0, 1.0]),
             "a car": np.array([1.0, 0.1])}
        )
        vocab = rd.ClassVocab(["car", "bus"])
        assert np.array_equal(vocab.class_matrix(table), np.eye(2))
        records = [rd.TeacherRecord("s0", 0, "a car"), rd.TeacherRecord("s0", 1, "bus")]
        matrix, _ = rd.label_records(records, vocab, table)
        assert matrix.labels.tolist() == [[0, 1]]


class CountingBackend:
    """Trigram embeddings that count the texts they embed and, apart, the
    texts whose support they give."""

    def __init__(self):
        self.inner = rd.TrigramEmbedder()
        self.calls: dict[str, int] = {}
        self.support_calls: dict[str, int] = {}

    def embed(self, text):
        self.calls[text] = self.calls.get(text, 0) + 1
        return self.inner.embed(text)

    def support(self, text):
        self.support_calls[text] = self.support_calls.get(text, 0) + 1
        return self.inner.support(text)


class TestClassMatrixFollowsBackend:
    def test_each_class_name_embedded_once(self):
        # Every non-verbatim answer used to embed the whole vocabulary again.
        names = ["alarm clock", "bicycle", "kettle", "desk lamp"]
        vocab, backend = rd.ClassVocab(names), CountingBackend()
        answers = [f"maybe a {name} number {i}" for i in range(3) for name in names[:3]]
        answers.append("a lamp on a desk")
        for text in answers:
            rd.assign_pseudo_label(rd.TeacherRecord("s", 0, text), vocab, backend)
        assert all(backend.calls[name] == 1 for name in names)
        # Answers reach the backend through support only, once each.
        assert sum(backend.calls.values()) == len(names)
        assert backend.support_calls == dict.fromkeys(answers, 1)

    def test_second_backend_gets_its_own_matrix(self):
        # Same vocab, two tables that place "q" next to opposite classes.
        vocab = rd.ClassVocab(["a", "b"])
        near_a = rd.PrecomputedTable(
            {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]), "q": np.array([0.9, 0.1])}
        )
        near_b = rd.PrecomputedTable(
            {"a": np.array([0.0, 1.0]), "b": np.array([1.0, 0.0]), "q": np.array([0.9, 0.1])}
        )
        rec = rd.TeacherRecord("s", 0, "q")
        assert rd.assign_pseudo_label(rec, vocab, near_a) == 0
        assert rd.assign_pseudo_label(rec, vocab, near_b) == 1
        assert rd.assign_pseudo_label(rec, vocab, near_a) == 0
        assert np.array_equal(vocab.class_matrix(near_b), [[0.0, 1.0], [1.0, 0.0]])

    def test_label_records_needs_every_class_name_embeddable(self):
        # The matrix is built up front, so a verbatim-only batch still fails.
        table = rd.PrecomputedTable({"car": np.array([1.0, 0.0])})
        records = [rd.TeacherRecord("s0", 0, "car"), rd.TeacherRecord("s0", 1, "car")]
        with pytest.raises(LookupMissError, match="bus"):
            rd.label_records(records, rd.ClassVocab(["car", "bus"]), table)


class TestAssignPseudoLabel:
    def setup_method(self):
        self.backend = rd.TrigramEmbedder()
        self.vocab = rd.ClassVocab(["alarm clock", "bicycle", "kettle"])

    def test_verbatim_name_maps_to_itself(self):
        rec = rd.TeacherRecord("s", 0, "Alarm Clock.")
        assert rd.assign_pseudo_label(rec, self.vocab, self.backend) == 0

    def test_sentence_matches_contained_name(self):
        text = "The object is an alarm clock."
        sims = [naive_trigram_cosine(text, n) for n in self.vocab.names]
        assert int(np.argmax(sims)) == 0  # oracle confirms strict argmax
        rec = rd.TeacherRecord("s", 0, text)
        assert rd.assign_pseudo_label(rec, self.vocab, self.backend) == 0

    def test_precomputed_semantic_neighbor(self, tmp_path):
        # Offline table: "Audi" sits next to "car", far from "bicycle".
        path = tmp_path / "emb.tsv"
        path.write_text(
            "car\t1 0 0\nbicycle\t0 1 0\nAudi\t0.9 0.1 0.05\n", encoding="utf-8"
        )
        table = rd.PrecomputedTable.load(path)
        vocab = rd.ClassVocab(["car", "bicycle"])
        rec = rd.TeacherRecord("s", 0, "Audi")
        assert rd.assign_pseudo_label(rec, vocab, table) == 0

    def test_unembeddable_text(self):
        rec = rd.TeacherRecord("s", 0, "  !! ")
        with pytest.raises(UnlabeledSampleError):
            rd.assign_pseudo_label(rec, self.vocab, self.backend)

    def test_precomputed_miss_becomes_unlabeled(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("car\t1 0\nbus\t0 1\n", encoding="utf-8")
        table = rd.PrecomputedTable.load(path)
        vocab = rd.ClassVocab(["car", "bus"])
        rec = rd.TeacherRecord("s", 0, "Audi")
        with pytest.raises(UnlabeledSampleError):
            rd.assign_pseudo_label(rec, vocab, table)

    def test_similarity_tie_lowest_index(self, tmp_path):
        # Two classes share one embedding; the query ties exactly.
        path = tmp_path / "emb.tsv"
        path.write_text("a\t1 0\nb\t1 0\nq\t1 0\n", encoding="utf-8")
        table = rd.PrecomputedTable.load(path)
        vocab = rd.ClassVocab(["a", "b"])
        rec = rd.TeacherRecord("s", 0, "q")
        assert rd.assign_pseudo_label(rec, vocab, table) == 0

    def test_vocab_permutation_tracks_names(self):
        texts = ["some kind of alarm clock", "a small kettle", "racing bicycle"]
        names = list(self.vocab.names)
        permuted = rd.ClassVocab([names[2], names[0], names[1]])
        for text in texts:
            rec = rd.TeacherRecord("s", 0, text)
            a = rd.assign_pseudo_label(rec, self.vocab, self.backend)
            b = rd.assign_pseudo_label(rec, permuted, self.backend)
            assert self.vocab.names[a] == permuted.names[b]


# Ids and texts that stress the JSON Lines escaping: quotes, backslashes,
# tabs and line breaks (U+2028 included), NUL, non-ASCII and astral
# characters, mixed with any other non-surrogate character.
RECORD_TEXT = st.text(st.one_of(
    st.sampled_from('"\\\t\n\r\u2028\x00\u00e9\u4e2d\U0001f600'),
    st.characters(blacklist_categories=("Cs",)),
))


class TestTeacherRecordsIO:
    def test_read_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"sample_id": "s0", "teacher": 0, "text": "car"}\n'
            '{"sample_id": "s0", "teacher": 1, "text": "bus"}\n',
            encoding="utf-8",
        )
        records = list(rd.read_teacher_records(path))
        assert len(records) == 2
        assert records[0] == rd.TeacherRecord("s0", 0, "car")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(rd.TeacherRecord, RECORD_TEXT, st.integers(0, 2**63), RECORD_TEXT),
                    max_size=8))
    def test_write_read_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("records") / "t.jsonl"
        rd.write_teacher_records(records, path)
        assert list(rd.read_teacher_records(path)) == records

    def test_records_are_yielded_as_read(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"sample_id": "s0", "teacher": 0, "text": "car"}\n{oops\n',
                        encoding="utf-8")
        records = rd.read_teacher_records(path)
        assert next(records) == rd.TeacherRecord("s0", 0, "car")
        with pytest.raises(ParseError, match=":2:"):
            next(records)

    def test_duplicate_pair_rejected(self):
        # Only the file reader used to check this: in a hand-built list
        # the last record for a pair silently won. The first repeat in
        # input order is named, not the first repeated cell.
        records = [
            rd.TeacherRecord(sid, t, text)
            for sid, t, text in [("s0", 0, "car"), ("s1", 0, "car"), ("s1", 1, "bus"),
                                 ("s1", 0, "bus"), ("s0", 0, "bus"), ("s0", 1, "car")]
        ]
        with pytest.raises(DataError, match="duplicate record for sample 's1', teacher 0"):
            rd.label_records(records, rd.ClassVocab(["car", "bus"]), rd.TrigramEmbedder())

    @pytest.mark.parametrize("teacher", ["1.7", "true", '"1"', "-1"])
    def test_teacher_must_be_non_negative_json_integer(self, tmp_path, teacher):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"sample_id": "s0", "teacher": 0, "text": "car"}\n'
            f'{{"sample_id": "s0", "teacher": {teacher}, "text": "bus"}}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=":2:"):
            list(rd.read_teacher_records(path))

    @pytest.mark.parametrize(
        "record",
        [
            '{"sample_id": 1, "teacher": 0, "text": "car"}',
            '{"sample_id": null, "teacher": 0, "text": "car"}',
            '{"sample_id": "s1", "teacher": 0, "text": null}',
            '{"sample_id": "s1", "teacher": 0, "text": ["car"]}',
        ],
    )
    def test_sample_id_and_text_must_be_json_strings(self, tmp_path, record):
        # These were passed through str(): 1 merged with "1", null became
        # "None", and ["car"] was labeled car.
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"sample_id": "s0", "teacher": 0, "text": "car"}\n' + record + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=":2: sample_id and text must be strings"):
            list(rd.read_teacher_records(path))

    @pytest.mark.parametrize("field", ["sample_id", "text"])
    def test_lone_surrogate_rejected(self, tmp_path, field):
        # Valid JSON, but no UTF-8 file can hold it: writing pl.csv failed.
        record = {"sample_id": "s1", "teacher": 0, "text": "car"}
        record[field] = "a\ud800"
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"sample_id": "s0", "teacher": 0, "text": "caf\\u00e9"}\n' + json.dumps(record) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=":2: sample_id or text holds a lone surrogate"):
            list(rd.read_teacher_records(path))

    def test_escaped_text_kept(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"sample_id": "s\\u00e9", "teacher": 0, "text": "\\ud83d\\ude00"}\n',
                        encoding="utf-8")
        records = list(rd.read_teacher_records(path))
        assert records == [rd.TeacherRecord("s\u00e9", 0, "\U0001f600")]

    def test_bad_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{oops\n", encoding="utf-8")
        with pytest.raises(ParseError):
            list(rd.read_teacher_records(path))

    # A line must read as json.loads reads it, stripped: the same record,
    # or a ParseError carrying json.loads's message. (line, accepted)
    @pytest.mark.parametrize(
        "line, accepted",
        [
            pytest.param('{"sample_id": "s0", "teacher": 0, "text": "car"', False, id="truncated"),
            pytest.param('{"sample_id": "s0", "teacher": 0, "text": "car"} {}', False,
                         id="extra-data"),
            pytest.param('{"sample_id": "s0", "teacher": 0, "text": "car"}]', False,
                         id="trailing-bracket"),
            pytest.param('\ufeff{"sample_id": "s0", "teacher": 0, "text": "car"}', False,
                         id="leading-bom"),
            pytest.param(
                '{"sample_id": "s0", "teacher": 0, "text": "car", "p": [NaN, Infinity, -Infinity]}',
                True, id="nan-infinity",
            ),
            pytest.param('\u3000\xa0{"sample_id": "s0", "teacher": 0, "text": "car"}\u2028 \t',
                         True, id="unicode-whitespace"),
            pytest.param('{ "sample_id" :"s0",\t"teacher":0 , "text":"car" }', True,
                         id="inner-whitespace"),
        ],
    )
    def test_line_reads_as_json_loads_reads_it(self, tmp_path, line, accepted):
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            obj = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            assert not accepted
            with pytest.raises(ParseError) as excinfo:
                list(rd.read_teacher_records(path))
            assert str(excinfo.value) == f"{path}:1: invalid JSON: {exc}"
        else:
            assert accepted
            expected = rd.TeacherRecord(obj["sample_id"], obj["teacher"], obj["text"])
            assert list(rd.read_teacher_records(path)) == [expected]

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param(
                '{"sample_id": "s1", "teacher": ' + "9" * 5000 + ', "text": "car"}',
                "Exceeds the limit (4300 digits) for integer string conversion",
                id="5000-digit-teacher",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length",
                ),
            ),
            pytest.param("[" * 100_000, "maximum recursion depth exceeded", id="deep-nesting"),
        ],
    )
    def test_line_past_the_parser_limits_names_its_line(self, tmp_path, line, message):
        # Both escaped read_teacher_records (ValueError, RecursionError).
        path = tmp_path / "t.jsonl"
        path.write_text('{"sample_id": "s0", "teacher": 0, "text": "car"}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: invalid JSON: {message}")):
            list(rd.read_teacher_records(path))


class TestLabelRecords:
    def _records(self, table):
        return [
            rd.TeacherRecord(sid, t, text)
            for sid, perteacher in table.items()
            for t, text in enumerate(perteacher)
        ]

    def test_huge_teacher_id_is_a_gap(self):
        # Coverage used to be checked against range(max_id + 1).
        records = [rd.TeacherRecord("s0", 0, "car"), rd.TeacherRecord("s0", 10**29, "car")]
        with pytest.raises(DataError, match="cover"):
            rd.label_records(records, rd.ClassVocab(["car", "bus"]), rd.TrigramEmbedder())

    def test_obvious_matrix(self):
        vocab = rd.ClassVocab(["car", "bicycle", "kettle"])
        records = self._records(
            {"s0": ["car", "car"], "s1": ["bicycle", "kettle"], "s2": ["kettle", "kettle"]}
        )
        matrix, summary = rd.label_records(records, vocab, rd.TrigramEmbedder())
        assert matrix.sample_ids == ["s0", "s1", "s2"]
        assert np.array_equal(matrix.labels, [[0, 0], [1, 2], [2, 2]])
        assert summary.per_teacher_labeled == [3, 3]

    def test_drop_policy_excludes_row(self):
        vocab = rd.ClassVocab(["car", "bicycle"])
        records = self._records({"s0": ["car", ""], "s1": ["bicycle", "car"]})
        matrix, summary = rd.label_records(records, vocab, rd.TrigramEmbedder())
        assert matrix.sample_ids == ["s1"]
        assert summary.dropped_sample_ids == ["s0"]
        assert summary.per_teacher_unlabeled == [0, 1]

    def test_error_policy_raises(self):
        vocab = rd.ClassVocab(["car", "bicycle"])
        records = self._records({"s0": ["car", ""]})
        with pytest.raises(UnlabeledSampleError):
            rd.label_records(records, vocab, rd.TrigramEmbedder(), on_unlabeled="error")

    def test_teacher_ids_must_cover_range(self):
        vocab = rd.ClassVocab(["car", "bicycle"])
        records = [rd.TeacherRecord("s0", 0, "car"), rd.TeacherRecord("s0", 2, "car")]
        with pytest.raises(Exception):
            rd.label_records(records, vocab, rd.TrigramEmbedder())


def test_label_records_is_the_per_text_argmax_on_65_names(object_vocab):
    # label_records hands assign_pseudo_label the class side kept by the
    # vocabulary; the labels are those of plain sts calls on class_matrix.
    backend = rd.TrigramEmbedder()
    texts = [f"{lead} {name}{tail}" for name in object_vocab.names
             for lead, tail in (("I think this is a", "."), ("probably", ", or a fan"))]
    records = [rd.TeacherRecord(f"s{i}", t, text) for i, text in enumerate(texts) for t in (0, 1)]
    matrix, _ = rd.label_records(records, object_vocab, backend)
    class_matrix = object_vocab.class_matrix(backend)
    expected = [int(np.argmax(rd.sts(rd.embed_text(t, backend), class_matrix))) for t in texts]
    assert matrix.labels.tolist() == [[c, c] for c in expected]


LABEL_POOL = (
    "car", "Car!", "a red car", "the bicycle", "kettle", "bike kettle car",
    "", "?!", "Audi",
)


def per_record_oracle(records, vocab, backend, on_unlabeled):
    """The unshared loop: assign_pseudo_label once per record."""
    order = list(dict.fromkeys(r.sample_id for r in records))
    n_teachers = max(r.teacher_id for r in records) + 1
    labels = np.full((len(order), n_teachers), -1)
    for r in records:
        try:
            labels[order.index(r.sample_id), r.teacher_id] = rd.assign_pseudo_label(
                r, vocab, backend
            )
        except UnlabeledSampleError:
            if on_unlabeled == "error":
                return f"sample {r.sample_id!r}, teacher {r.teacher_id}:"
    complete = labels.min(axis=1) >= 0
    return [sid for sid, ok in zip(order, complete) if ok], labels[complete]


@st.composite
def record_lists(draw):
    n_samples = draw(st.integers(1, 6))
    n_teachers = draw(st.integers(2, 3))
    cells = [(i, t) for i in range(n_samples) for t in range(n_teachers)]
    cells = draw(st.permutations(cells))
    texts = draw(
        st.lists(st.sampled_from(LABEL_POOL), min_size=len(cells), max_size=len(cells))
    )
    return [rd.TeacherRecord(f"s{i}", t, text) for (i, t), text in zip(cells, texts)]


# Under the ngram backend "" and "?!" have no content; the table also
# misses "Car!" and "bike kettle car", and "Audi" ties car with kettle.
BACKENDS = (
    rd.TrigramEmbedder(),
    rd.PrecomputedTable(
        {
            "car": np.array([1.0, 0.0, 0.0]),
            "bicycle": np.array([0.0, 1.0, 0.0]),
            "kettle": np.array([0.0, 0.0, 1.0]),
            "a red car": np.array([0.9, 0.1, 0.0]),
            "the bicycle": np.array([0.1, 0.8, 0.1]),
            "Audi": np.array([0.5, 0.0, 0.5]),
        },
    ),
)


class TestLabelRecordsMatchesPerRecordOracle:
    vocab = rd.ClassVocab(["car", "bicycle", "kettle"])

    @settings(max_examples=150, deadline=None)
    @given(record_lists(), st.sampled_from(("drop", "error")), st.sampled_from(BACKENDS))
    def test_matches_oracle(self, records, on_unlabeled, backend):
        expected = per_record_oracle(records, self.vocab, backend, on_unlabeled)
        if isinstance(expected, str):
            with pytest.raises(UnlabeledSampleError) as exc:
                rd.label_records(records, self.vocab, backend, on_unlabeled=on_unlabeled)
            # The first failing record in input order is the one named.
            assert str(exc.value).startswith(expected)
            return
        matrix, summary = rd.label_records(
            records, self.vocab, backend, on_unlabeled=on_unlabeled
        )
        sample_ids, labels = expected
        assert matrix.sample_ids == sample_ids
        assert np.array_equal(matrix.labels, labels)
        assert summary.n_samples_in == len(dict.fromkeys(r.sample_id for r in records))
        assert summary.dropped_sample_ids == [
            r for r in dict.fromkeys(r.sample_id for r in records) if r not in sample_ids
        ]


class TestNonFiniteEmbeddings:
    # Each of these used to yield a label: NaN compares false, so the NaN
    # similarity lost every argmax and another class won.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sts_rejects_non_finite_query(self, bad):
        for b in (np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 1.0]])):
            with pytest.raises(UndefinedSimilarityError, match="non-finite"):
                rd.sts(np.array([bad, 1.0]), b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_class_side_rejects_non_finite_row(self, bad):
        rows = np.array([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(UndefinedSimilarityError, match="non-finite"):
            _class_side(rows)
        with pytest.raises(UndefinedSimilarityError, match="non-finite"):
            rd.sts(np.array([1.0, 0.0]), rows)

    def test_non_finite_answer_raises_not_labels(self):
        table = rd.PrecomputedTable(
            {
                "car": np.array([1.0, 0.0, 0.0]),
                "bus": np.array([0.0, 1.0, 0.0]),
                "odd": np.array([0.0, np.nan, 1.0]),
            }
        )
        records = [rd.TeacherRecord("s0", 0, "car"), rd.TeacherRecord("s0", 1, "odd")]
        with pytest.raises(UndefinedSimilarityError, match="non-finite"):
            rd.label_records(records, rd.ClassVocab(["car", "bus"]), table)

    def test_non_finite_class_vector_names_the_class(self):
        table = rd.PrecomputedTable(
            {
                "car": np.array([1.0, 0.0]),
                "bus": np.array([np.nan, 1.0]),
                "a kettle": np.array([1.0, 1.0]),
            }
        )
        records = [rd.TeacherRecord("s0", t, "a kettle") for t in (0, 1)]
        with pytest.raises(DataError, match="'bus' embeds to a non-finite vector"):
            rd.label_records(records, rd.ClassVocab(["car", "bus"]), table)


def per_trigram_embed(text: str) -> np.ndarray:
    """One ``+= 1.0`` per trigram, then the L2 normalisation; oracle for embed."""
    vec = np.zeros(TRIGRAM_DIM)
    normalized = normalize_text(text)
    if normalized:
        padded = normalized.ljust(3)
        for i in range(len(padded) - 2):
            vec[_bucket(padded[i : i + 3])] += 1.0
        vec /= math.sqrt(float(vec @ vec))
    return vec


SHARED_EMBEDDER = rd.TrigramEmbedder()
for _name in OBJECT_VOCAB_65:
    SHARED_EMBEDDER.embed(_name)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(max_size=3),
        st.text(alphabet="aé ß-.!\u00c5\u4e2d\U0001f600", max_size=12),
        st.text(max_size=80),
    )
)
def test_embed_equals_per_trigram_counts(text):
    expected = per_trigram_embed(text).tobytes()
    assert rd.TrigramEmbedder().embed(text).tobytes() == expected
    # One embedder across all examples, its memo warmed by the 65 names
    # and by every earlier example.
    assert SHARED_EMBEDDER.embed(text).tobytes() == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.text(max_size=3),
        st.text(alphabet="aé ß-.!İς\u00c5\u4e2d\U0001f600", max_size=12),
        st.text(max_size=80),
    ),
    st.lists(st.one_of(st.just(0.0), st.floats()), min_size=1, max_size=6),
)
def test_support_is_the_nonzero_part_of_embed(text, values):
    # embed itself is pinned to the per-trigram oracle above.
    table = rd.PrecomputedTable({text: np.array(values)})
    for backend in (rd.TrigramEmbedder(), SHARED_EMBEDDER, table):
        vec = backend.embed(text)
        cols = np.flatnonzero(vec)
        support = backend.support(text)
        assert [a.dtype for a in support] == [np.intp, np.float64]
        assert [a.tobytes() for a in support] == [cols.tobytes(), vec[cols].tobytes()]


class TestBucketHash:
    """The hash the embedder's memo caches, pinned apart from the
    per_trigram_embed oracle (which calls _bucket itself)."""

    @pytest.mark.parametrize(
        "trigram, bucket",
        [
            # The published FNV-1a-64 vectors 0xaf63dc4c8601ec8c ("a") and
            # 0x85944171f73967e8 ("foobar"), times the golden ratio, top 12 bits.
            ("a", 1548),
            ("foobar", 2158),
            ("\u4e2d\u6587\u5b57", 2152),  # 9 UTF-8 bytes
        ],
    )
    def test_pinned_buckets(self, trigram, bucket):
        assert _bucket(trigram) == bucket

    def test_embedding_order_does_not_change_vectors(self):
        names = list(OBJECT_VOCAB_65)
        forward, backward = rd.TrigramEmbedder(), rd.TrigramEmbedder()
        first = {name: forward.embed(name).tobytes() for name in names}
        second = {name: backward.embed(name).tobytes() for name in reversed(names)}
        assert first == second

    def test_memo_is_emptied_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(text_match, "_MEMO_CAP", 8)
        embedder = rd.TrigramEmbedder()
        sizes = []
        for name in OBJECT_VOCAB_65:
            vec = embedder.embed(name)
            sizes.append(len(embedder._buckets))
            assert vec.tobytes() == rd.TrigramEmbedder().embed(name).tobytes()
        assert max(sizes) == 8
        # Emptied at least once: a size fell from one name to the next.
        assert any(b < a for a, b in zip(sizes, sizes[1:]))


def record_sts(monkeypatch) -> list:
    """(a, b, similarities) of every sts call assign_pseudo_label makes."""
    calls = []

    def recording_sts(a, b):
        sims = rd.sts(a, b)
        calls.append((a, b, sims))
        return sims

    monkeypatch.setattr(text_match, "sts", recording_sts)
    return calls


def test_support_restriction_matches_dense_sts_on_65_names(object_vocab, monkeypatch):
    # 65 x 6 x 6 = 2 340 fixed answers. The labels are those of dense sts
    # calls on the class matrix, and the scores differ only by rounding.
    backend = rd.TrigramEmbedder()
    # The prepared side gives sts(query, class_matrix)'s bytes (see
    # TestSts::test_matrix_equals_row_calls) without re-preparing it per call.
    dense_side = object_vocab._embedded(backend)[2]
    calls = record_sts(monkeypatch)
    texts = [free_text_answer(template, modifier, name) for name in object_vocab.names
             for template in TEMPLATES for modifier in MODIFIERS]
    assert len(set(texts)) == len(texts) >= 2000
    dense = [rd.sts(rd.embed_text(text, backend), dense_side) for text in texts]
    labels = [rd.assign_pseudo_label(rd.TeacherRecord("s", 0, t), object_vocab, backend)
              for t in texts]
    assert labels == [int(np.argmax(sims)) for sims in dense]
    assert len(calls) == len(texts)  # one restricted sts call per answer
    np.testing.assert_array_max_ulp(np.array([c[2] for c in calls]), np.array(dense), maxulp=4)


def answers_65(vocab) -> list[str]:
    """The 65 x 6 x 6 = 2 340 fixed answers over the 65 freetext65 names."""
    return [free_text_answer(template, modifier, name) for name in vocab.names
            for template in TEMPLATES for modifier in MODIFIERS]


def test_sts_receives_each_answers_support_on_65_names(object_vocab, monkeypatch):
    backend = rd.TrigramEmbedder()
    side = object_vocab._embedded(backend)[2]
    calls = record_sts(monkeypatch)
    texts = answers_65(object_vocab)
    for text in texts:
        rd.assign_pseudo_label(rd.TeacherRecord("s", 0, text), object_vocab, backend)
    assert len(calls) == len(texts)
    for text, (query, restricted, _) in zip(texts, calls):
        vec = backend.embed(text)
        support = np.flatnonzero(vec)
        assert query.tobytes() == vec[support].tobytes()
        rows = side.rows.take(support, axis=1)
        assert restricted.rows.shape == rows.shape
        assert restricted.rows.tobytes() == rows.tobytes()
        assert restricted.sq_norms is side.sq_norms


def test_warmed_and_fresh_embedders_label_alike(object_vocab, monkeypatch):
    records = [rd.TeacherRecord(f"s{i}", t, text)
               for i, text in enumerate(answers_65(object_vocab)) for t in (0, 1)]
    warmed = rd.TrigramEmbedder()
    for record in records:
        warmed.embed(record.raw_text)
    labels = [rd.label_records(records, object_vocab, backend)[0].labels.tobytes()
              for backend in (rd.TrigramEmbedder(), warmed)]
    # And one whose memo is emptied many times within the batch.
    monkeypatch.setattr(text_match, "_MEMO_CAP", 64)
    labels.append(rd.label_records(records, object_vocab, rd.TrigramEmbedder())[0].labels.tobytes())
    assert labels[0] == labels[1] == labels[2]


class TestSupportRestrictedCall:
    """What assign_pseudo_label hands to sts, seen through a recording wrapper."""

    def test_query_without_zero_entry_matches_the_dense_call_bitwise(self, monkeypatch):
        rng = np.random.default_rng(7)
        vectors = {name: rng.normal(size=24) for name in ("car", "bus", "van", "tram")}
        vectors["query"] = rng.normal(size=24)
        assert np.all(vectors["query"])
        table = rd.PrecomputedTable(vectors)
        vocab = rd.ClassVocab(["car", "bus", "van", "tram"])
        calls = record_sts(monkeypatch)
        label = rd.assign_pseudo_label(rd.TeacherRecord("s", 0, "query"), vocab, table)
        ((_, _, sims),) = calls
        dense = rd.sts(vectors["query"], vocab.class_matrix(table))
        assert sims.tobytes() == dense.tobytes()
        assert label == int(np.argmax(dense))

    def test_sparse_query_is_matched_on_its_support(self, monkeypatch):
        vocab, backend = rd.ClassVocab(["alarm clock", "bicycle", "kettle"]), rd.TrigramEmbedder()
        calls = record_sts(monkeypatch)
        rd.assign_pseudo_label(rd.TeacherRecord("s", 0, "an old kettle"), vocab, backend)
        ((a, b, _),) = calls
        support = np.flatnonzero(backend.embed("an old kettle"))
        assert a.shape == (support.size,) and b.rows.shape == (3, support.size)
        assert np.array_equal(b.sq_norms, vocab._embedded(backend)[2].sq_norms)

    def test_ragged_query_still_reports_the_mismatch(self):
        # The table refuses the short vector before any query is made.
        with pytest.raises(ShapeMismatchError):
            rd.PrecomputedTable(
                {"car": np.array([1.0, 0.0, 0.0]), "bus": np.array([0.0, 1.0, 0.0]),
                 "short": np.array([0.0, 1.0])}
            )


def write(path, text: str):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "keys, text",
    [
        (lambda path: list(rd.PrecomputedTable.load(path).table), "car\t1 0\n\nbus\t0 1\n"),
        (lambda path: [r.raw_text for r in rd.read_teacher_records(path)],
         '{"sample_id": "s0", "teacher": 0, "text": "car"}\n  \n'
         '{"sample_id": "s0", "teacher": 1, "text": "bus"}\n'),
    ],
    ids=["table", "records"],
)
def test_blank_line_is_skipped(keys, text, tmp_path):
    assert keys(write(tmp_path / "input", text)) == ["car", "bus"]


TWO_RECORDS = [rd.TeacherRecord("s0", 0, "car"), rd.TeacherRecord("s0", 1, "bus")]

# Checks no other test reaches: (call given a scratch directory, the
# exception it raises, that exception's message).
ARGUMENT_CHECKS = [
    pytest.param(lambda tmp: rd.PrecomputedTable({}), DataError, "empty embedding table",
                 id="table-empty"),
    pytest.param(lambda tmp: rd.PrecomputedTable.load(write(tmp / "e.tsv", "\n\n")),
                 ParseError, "{tmp}/e.tsv: empty embedding table", id="table-file-blank"),
    pytest.param(lambda tmp: rd.PrecomputedTable.load(write(tmp / "e.tsv", "car\t \n")),
                 ParseError, "{tmp}/e.tsv:1: no embedding values", id="table-line-without-values"),
    # class_matrix on these tables raised numpy's ValueError ("inhomogeneous
    # shape" for the ragged one, a matmul mismatch for the 2-D one).
    pytest.param(lambda tmp: rd.ClassVocab(["car", "bus"]).class_matrix(rd.PrecomputedTable(
                     {"car": np.array([1.0, 0, 0]), "bus": np.array([0.0, 1.0])})),
                 ShapeMismatchError,
                 "embeddings must be 1-D and of one length, got shapes [(2,), (3,)]",
                 id="table-ragged"),
    pytest.param(lambda tmp: rd.ClassVocab(["car", "bus"]).class_matrix(rd.PrecomputedTable(
                     {"car": np.array([[1.0, 0.0]]), "bus": np.array([[0.0, 1.0]])})),
                 ShapeMismatchError,
                 "embeddings must be 1-D and of one length, got shapes [(1, 2)]",
                 id="table-2-d"),
    pytest.param(lambda tmp: rd.PrecomputedTable({"car": np.array([1.0])}).support("Audi"),
                 LookupMissError, "no precomputed embedding for text 'Audi'",
                 id="table-support-miss"),
    pytest.param(
        lambda tmp: rd.label_records(TWO_RECORDS, rd.ClassVocab(["car", "bus"]),
                                     rd.TrigramEmbedder(), on_unlabeled="skip"),
        ConfigError, "unknown on-unlabeled policy 'skip'", id="label-unknown-policy",
    ),
    pytest.param(
        lambda tmp: rd.label_records(TWO_RECORDS[:1], rd.ClassVocab(["car", "bus"]),
                                     rd.TrigramEmbedder()),
        DataError, "reliability needs at least 2 teachers", id="label-one-teacher",
    ),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_CHECKS)
def test_argument_checks(call, error, message, tmp_path):
    with pytest.raises(error) as excinfo:
        call(tmp_path)
    assert str(excinfo.value) == message.format(tmp=tmp_path)
