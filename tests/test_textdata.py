"""Ingestion, normalization, vocabulary ranking, tokenization, splitting."""

import csv
import re
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimrnn import (
    ConfigError,
    DataError,
    Rng,
    build_vocab,
    encode_dataset,
    ingest_csv,
    normalize_text,
    select_binary,
    split_train_val,
    tokenize,
)
from slimrnn.textdata import LABELS, IngestReport, LabeledDataset, RawRecord

# Oracles: the earlier per-word implementations (a csv.DictReader ingest, a
# substitution-based normalize, a loop that counts words and records where
# each was first seen, one padded array per text). The library must agree
# with them on every input.
_NON_ALNUM = re.compile(r"[^a-z0-9]+")


def oracle_normalize(s):
    return _NON_ALNUM.sub(" ", s.lower()).strip()


def oracle_vocab(texts, capacity):
    counts = Counter()
    first_seen = {}
    for text in texts:
        for word in oracle_normalize(text).split():
            counts[word] += 1
            first_seen.setdefault(word, len(first_seen))
    ranked = sorted(counts, key=lambda w: (-counts[w], first_seen[w]))
    return {w: i + 1 for i, w in enumerate(ranked[: capacity - 1])}


def oracle_tokenize(word_to_id, text, maxlen):
    ids = [word_to_id[w] for w in oracle_normalize(text).split() if w in word_to_id]
    ids = ids[-maxlen:]
    seq = np.zeros(maxlen, dtype=np.int64)
    if ids:
        seq[-len(ids):] = ids
    return seq


def oracle_ingest(path, text_column="text", label_column="sentiment"):
    report = IngestReport(class_counts={label: 0 for label in LABELS})
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for column in (text_column, label_column):
            if column not in header:
                raise DataError(f"column {column!r} not in CSV header {header}")
        for row in reader:
            report.total_rows += 1
            text = (row.get(text_column) or "").strip()
            label = (row.get(label_column) or "").strip().capitalize()
            if not text or label not in LABELS:
                report.skipped_rows += 1
                continue
            records.append(RawRecord(text, label))
            report.class_counts[label] += 1
    return records, report


def assert_ingest_matches_oracle(path, **columns):
    """Records and report equal to the oracle's, or None when both raise the
    same DataError."""
    try:
        expected = oracle_ingest(str(path), **columns)
    except DataError as err:
        with pytest.raises(DataError) as ours:
            ingest_csv(str(path), **columns)
        assert str(ours.value) == str(err)
        return None
    records, report = ingest_csv(str(path), **columns)
    assert records == expected[0]
    assert asdict(report) == asdict(expected[1])
    return records, report


class TestNormalizeText:
    def test_canonical_example(self):
        assert normalize_text("RT @GOP: Great!") == "rt gop great"

    def test_lowercase_and_punctuation(self):
        assert normalize_text("Wow—SO   good?!") == "wow so good"
        assert normalize_text("#debate2015 was LIT") == "debate2015 was lit"

    def test_digits_survive(self):
        assert normalize_text("Top 10, no.1!") == "top 10 no 1"

    def test_whitespace_only_and_symbols(self):
        assert normalize_text("   ") == ""
        assert normalize_text("@#$%^") == ""

    @given(st.text(max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_output_alphabet_is_closed(self, s):
        out = normalize_text(s)
        assert set(out) <= set("abcdefghijklmnopqrstuvwxyz0123456789 ")
        assert out == out.strip()
        assert "  " not in out

    @given(st.text(max_size=80) | st.text("aZ9 \u0130\u212a\u03a3\u00df-\n", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_word_split_matches_oracle_on_any_unicode(self, s):
        assert normalize_text(s) == oracle_normalize(s)

    @pytest.mark.parametrize("text, words", [
        ("\u0130stanbul", "i stanbul"),  # lower() gives i + U+0307 (combining dot)
        ("\u212aelvin", "kelvin"),  # the Kelvin sign lowercases to ASCII k
        ("OK\u03a3 go", "ok go"),  # a word-final sigma lowers to U+03C2 and goes
        ("one\ntwo\r\nthree", "one two three"),
    ])
    def test_unicode_and_line_breaks(self, text, words):
        assert normalize_text(text) == words == oracle_normalize(text)


class TestIngest:
    def test_fixture_counts(self, fixture_csv):
        records, report = ingest_csv(fixture_csv)
        assert report.total_rows == 62
        assert report.skipped_rows == 2
        assert report.class_counts == {"Positive": 27, "Negative": 25, "Neutral": 8}
        assert len(records) == 60

    def test_labels_case_normalized(self, tmp_path):
        path = tmp_path / "mixed_case.csv"
        path.write_text("text,sentiment\nfine,POSITIVE\nbad,negative\nmeh,NeUtRaL\n")
        records, report = ingest_csv(str(path))
        assert [r.label for r in records] == ["Positive", "Negative", "Neutral"]
        assert report.skipped_rows == 0

    def test_missing_file(self):
        with pytest.raises(DataError) as err:
            ingest_csv("/no/such/file.csv")
        assert "/no/such/file.csv" in str(err.value)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "no_label.csv"
        path.write_text("text,stance\nhello,pro\n")
        with pytest.raises(DataError) as err:
            ingest_csv(str(path))
        assert "sentiment" in str(err.value)

    def test_custom_columns(self, tmp_path):
        path = tmp_path / "renamed.csv"
        path.write_text("tweet,mood\ngood stuff,Positive\n")
        records, _ = ingest_csv(str(path), text_column="tweet", label_column="mood")
        assert records[0].text == "good stuff"

    @pytest.mark.parametrize("content, total", [
        # duplicate header names: the last column of a name is read
        ("text,sentiment,text\nA,Positive,B\nC,Negative\n", 2),
        ("sentiment,text,sentiment\nPositive,hi,Negative\nNeutral,yo\n", 2),
        # rows shorter and longer than the header
        ("id,text,sentiment\n1\n2,short\n3,ok,Positive,extra,more\n", 3),
        # blank lines are not rows; a line of spaces is
        ("text,sentiment\n\nhello,Positive\n\n\n   \nbye,Negative\n\n", 3),
        # multi-line quoted text, with \n and \r\n inside the quotes
        ('text,sentiment\r\n"line one\nline two",Positive\r\n"a\r\nb",Negative\r\n', 2),
        ('text,sentiment\n"",Positive\n"  ",Negative\n', 2),
        # header only, with and without a final line break
        ("text,sentiment\n", 0),
        ("text,sentiment", 0),
        # no usable header: DataError
        ("", None),
        ("\ntext,sentiment\nhi,Positive\n", None),
        ("text,label\nhi,Positive\n", None),
    ])
    def test_edge_cases_match_dict_reader(self, tmp_path, content, total):
        path = tmp_path / "edge.csv"
        path.write_bytes(content.encode())
        result = assert_ingest_matches_oracle(path)
        assert (None if result is None else result[1].total_rows) == total

    def test_custom_columns_match_dict_reader(self, tmp_path):
        path = tmp_path / "renamed.csv"
        path.write_text("mood,tweet,text,mood\nPositive,good stuff,x,Negative\n"
                        "Neutral,meh\n\nbad,ugh,y,Negative\n")
        records, report = assert_ingest_matches_oracle(
            path, text_column="tweet", label_column="mood")
        assert [(r.text, r.label) for r in records] == [
            ("good stuff", "Negative"), ("ugh", "Negative")]
        assert report.total_rows == 3 and report.skipped_rows == 1

    def test_quoted_line_breaks_survive_to_tokens(self, tmp_path):
        path = tmp_path / "multiline.csv"
        path.write_bytes(b'text,sentiment\r\n"one\ntwo",Positive\r\n"three\r\nfour",Negative\r\n')
        records, _ = ingest_csv(str(path))
        assert [r.text for r in records] == ["one\ntwo", "three\r\nfour"]
        assert [normalize_text(r.text) for r in records] == ["one two", "three four"]

    @given(st.lists(st.sampled_from(["text", "sentiment", "id"]), min_size=1, max_size=4),
           st.lists(st.lists(st.sampled_from(
               ["", " ", "hi there", "a,b", 'q"t', "x\ny", "r\r\ns", "Positive",
                "negative", "NEUTRAL", "Mixed"]), max_size=5), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_any_csv_matches_dict_reader(self, tmp_path_factory, header, rows):
        path = tmp_path_factory.mktemp("csv") / "any.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *rows])  # [] writes a blank line
        assert_ingest_matches_oracle(path)


class TestSelectBinary:
    def test_drops_neutral_preserves_order(self, fixture_csv):
        records, _ = ingest_csv(fixture_csv)
        binary = select_binary(records)
        assert len(binary) == 52
        assert all(r.label in ("Positive", "Negative") for r in binary)
        texts = [r.text for r in records if r.label != "Neutral"]
        assert [r.text for r in binary] == texts

    def test_empty_result_is_an_error(self):
        with pytest.raises(DataError):
            select_binary([RawRecord("meh", "Neutral")])


class TestVocabulary:
    def test_frequency_ranking_with_first_seen_tiebreak(self):
        texts = ["debate good debate bad", "good debate", "bad"]
        vocab = build_vocab(texts, capacity=100)
        # debate appears 3x; good and bad 2x each, good seen first
        assert vocab.word_to_id == {"debate": 1, "good": 2, "bad": 3}

    def test_capacity_caps_ids(self):
        texts = ["a a a a", "b b b", "c c", "d"]
        vocab = build_vocab(texts, capacity=3)
        assert vocab.word_to_id == {"a": 1, "b": 2}
        assert len(vocab) == 3  # padding id plus two words

    def test_normalization_applied_before_counting(self):
        vocab = build_vocab(["Great! GREAT? great."], capacity=10)
        assert vocab.word_to_id == {"great": 1}

    def test_capacity_floor(self):
        with pytest.raises(ConfigError):
            build_vocab(["x"], capacity=1)

    def test_tie_at_the_capacity_cut_keeps_first_seen(self):
        vocab = build_vocab(["z y x w", "w x y z", "v"], capacity=3)
        assert vocab.word_to_id == {"z": 1, "y": 2}

    @given(st.lists(st.lists(st.sampled_from(["a", "B", "c!", "d-e", "F9", "g", "A"]),
                             max_size=8).map(" ".join), max_size=10),
           st.integers(2, 12))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_with_ties(self, texts, capacity):
        ranked = build_vocab(texts, capacity=capacity).word_to_id
        assert list(ranked.items()) == list(oracle_vocab(texts, capacity).items())


class TestTokenize:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["debate good debate bad", "good debate", "bad"],
                           capacity=100)

    def test_known_words_left_padded(self, vocab):
        np.testing.assert_array_equal(tokenize(vocab, "bad debate", 4), [0, 0, 3, 1])

    def test_unknown_words_dropped(self, vocab):
        np.testing.assert_array_equal(
            tokenize(vocab, "the good zebra debate", 4), [0, 0, 2, 1])

    def test_front_truncation_keeps_last_words(self, vocab):
        np.testing.assert_array_equal(
            tokenize(vocab, "bad bad bad good debate", 2), [2, 1])

    def test_all_unknown_gives_all_padding(self, vocab):
        np.testing.assert_array_equal(tokenize(vocab, "xyzzy plugh", 3), [0, 0, 0])


def test_encode_dataset_labels_and_shapes(fixture_csv):
    records, _ = ingest_csv(fixture_csv)
    binary = select_binary(records)
    vocab = build_vocab([r.text for r in binary], capacity=500)
    ds = encode_dataset(binary, vocab, maxlen=12)
    assert ds.sequences.shape == (52, 12)
    assert ds.sequences.dtype == np.int64
    assert set(ds.labels.tolist()) == {0, 1}
    assert np.bincount(ds.labels).tolist() == [25, 27]  # negative, positive
    flipped = [i for i, r in enumerate(binary) if r.label == "Positive"]
    assert np.all(ds.labels[flipped] == 1)


def test_encode_dataset_of_no_records_is_empty():
    ds = encode_dataset([], build_vocab(["a b"], capacity=10), maxlen=7)
    assert ds.sequences.shape == (0, 7) and ds.sequences.dtype == np.int64
    assert ds.labels.shape == (0,) and ds.labels.dtype == np.int64
    assert len(ds) == 0


@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "D", "e!", "zz", "9"]),
                         max_size=12).map(" ".join), max_size=12),
       st.integers(2, 6), st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_encode_dataset_matches_per_record_tokenize(texts, capacity, maxlen):
    vocab = build_vocab(texts[::2], capacity=capacity)  # so some words are unknown
    records = [RawRecord(t, "Positive" if k % 2 else "Negative") for k, t in enumerate(texts)]
    ds = encode_dataset(records, vocab, maxlen)
    if records:
        np.testing.assert_array_equal(
            ds.sequences, np.stack([tokenize(vocab, t, maxlen) for t in texts]))
    expected = [oracle_tokenize(vocab.word_to_id, t, maxlen) for t in texts]
    assert ds.sequences.tobytes() == b"".join(row.tobytes() for row in expected)
    assert ds.sequences.shape == (len(texts), maxlen) and ds.sequences.dtype == np.int64


class TestSplit:
    def make(self, n):
        return LabeledDataset(np.arange(n * 2, dtype=np.int64).reshape(n, 2),
                              np.arange(n, dtype=np.int64) % 2)

    def test_sizes_round_up_validation(self):
        train, val = split_train_val(self.make(10), 0.33, Rng(0))
        assert len(val) == 4  # ceil(3.3)
        assert len(train) == 6

    def test_deterministic_given_rng_seed(self):
        a = split_train_val(self.make(20), 0.4, Rng(5))
        b = split_train_val(self.make(20), 0.4, Rng(5))
        np.testing.assert_array_equal(a[0].sequences, b[0].sequences)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_partition_is_exact(self):
        ds = self.make(17)
        train, val = split_train_val(ds, 0.25, Rng(2))
        joined = np.concatenate([train.sequences, val.sequences])
        assert sorted(map(tuple, joined.tolist())) == sorted(map(tuple, ds.sequences.tolist()))

    @given(st.integers(2, 60), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_sides_always_nonempty_or_error(self, n, ratio):
        import math

        ds = self.make(n)
        n_val = math.ceil(ratio * n)
        if 0 < n_val < n:
            train, val = split_train_val(ds, ratio, Rng(1))
            assert len(train) + len(val) == n
            assert len(val) == n_val
        else:
            with pytest.raises(DataError):
                split_train_val(ds, ratio, Rng(1))

    def test_bad_ratio(self):
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                split_train_val(self.make(10), ratio, Rng(0))
