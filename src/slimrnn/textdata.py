"""Dataset ingestion and preprocessing: class selection, normalization,
frequency-ranked tokenization with pre-padding, and the train/val split."""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .rng import Rng

LABELS = ("Positive", "Negative", "Neutral")
PAD_ID = 0

_NON_ALNUM = re.compile(r"[^a-z0-9]+")


@dataclass
class RawRecord:
    text: str
    label: str  # one of LABELS


@dataclass
class IngestReport:
    total_rows: int = 0
    skipped_rows: int = 0
    class_counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "total_rows": self.total_rows,
            "skipped_rows": self.skipped_rows,
            "class_counts": dict(sorted(self.class_counts.items())),
        }


def ingest_csv(path: str, text_column: str = "text",
               label_column: str = "sentiment") -> tuple[list[RawRecord], IngestReport]:
    """Parse one record per CSV row; malformed rows are counted and skipped.

    A row is malformed if either field is missing, the text is empty after
    trimming, or the label is not Positive/Negative/Neutral (case-insensitive).
    A file that is not UTF-8 or that the csv module cannot parse raises
    DataError.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from None
    report = IngestReport(class_counts={label: 0 for label in LABELS})
    records = []
    try:
        with handle:
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
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset {path} is not valid UTF-8: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"dataset {path} is not a readable CSV: {exc}") from None
    return records, report


def select_binary(records: list[RawRecord]) -> list[RawRecord]:
    """Drop Neutral records, preserving order."""
    kept = [r for r in records if r.label != "Neutral"]
    if not kept:
        raise DataError("no Positive or Negative records remain after selection")
    return kept


def normalize_text(s: str) -> str:
    """Lowercase and keep only letters/digits; everything else becomes a
    single space, with the result trimmed."""
    return _NON_ALNUM.sub(" ", s.lower()).strip()


@dataclass
class Vocabulary:
    """word -> id map; id 0 is padding, 1..V-1 rank words by corpus frequency
    (ties broken by first occurrence)."""

    word_to_id: dict[str, int]
    capacity: int

    def __len__(self) -> int:
        return len(self.word_to_id) + 1  # plus the padding id


def build_vocab(texts: list[str], capacity: int = 20000) -> Vocabulary:
    if capacity < 2:
        raise ConfigError(f"vocabulary capacity must be >= 2, got {capacity}")
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    position = 0
    for text in texts:
        for word in normalize_text(text).split():
            counts[word] += 1
            if word not in first_seen:
                first_seen[word] = position
                position += 1
    ranked = sorted(counts, key=lambda w: (-counts[w], first_seen[w]))
    word_to_id = {w: i + 1 for i, w in enumerate(ranked[: capacity - 1])}
    return Vocabulary(word_to_id, capacity)


def tokenize(vocab: Vocabulary, text: str, maxlen: int) -> np.ndarray:
    """Map words to ids (out-of-vocabulary words dropped), keep the last
    ``maxlen`` ids, and left-pad with 0 to exactly ``maxlen``."""
    ids = [vocab.word_to_id[w] for w in normalize_text(text).split()
           if w in vocab.word_to_id]
    ids = ids[-maxlen:]
    seq = np.full(maxlen, PAD_ID, dtype=np.int64)
    if ids:
        seq[-len(ids):] = ids
    return seq


@dataclass
class LabeledDataset:
    """Padded sequences plus binary labels: 0 negative, 1 positive."""

    sequences: np.ndarray  # [N, maxlen] int64
    labels: np.ndarray  # [N] int64

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def class_counts(self) -> dict[str, int]:
        return {
            "negative": int(np.sum(self.labels == 0)),
            "positive": int(np.sum(self.labels == 1)),
        }


def encode_dataset(records: list[RawRecord], vocab: Vocabulary,
                   maxlen: int) -> LabeledDataset:
    """Tokenize binary (Positive/Negative) records into a padded dataset."""
    sequences = np.stack([tokenize(vocab, r.text, maxlen) for r in records])
    labels = np.array([1 if r.label == "Positive" else 0 for r in records],
                      dtype=np.int64)
    return LabeledDataset(sequences, labels)


def split_train_val(dataset: LabeledDataset, ratio: float,
                    rng: Rng) -> tuple[LabeledDataset, LabeledDataset]:
    """Shuffle once, then send the last ceil(ratio * N) records to validation."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    n = len(dataset)
    n_val = int(np.ceil(ratio * n))
    if n_val == 0 or n_val == n:
        raise DataError(f"split ratio {ratio} leaves an empty side for {n} records")
    order = rng.permutation(n)
    seqs, labels = dataset.sequences[order], dataset.labels[order]
    cut = n - n_val
    return (LabeledDataset(seqs[:cut], labels[:cut]),
            LabeledDataset(seqs[cut:], labels[cut:]))
