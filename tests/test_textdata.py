"""Ingestion, normalization, vocabulary ranking, tokenization, splitting."""

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
from slimrnn.textdata import LabeledDataset, RawRecord


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
