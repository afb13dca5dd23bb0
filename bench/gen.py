"""Seeded generator for the labeled CSV of short texts the benchmark feeds
to slimrnn, so nothing is downloaded.

Background words follow a Zipf law over more distinct words than the
reference vocabulary cap, so ``build_vocab`` truncates and tokenizing drops
out-of-vocabulary words. The label rule is learnable: a Positive text holds
more words from a positive lexicon than from a negative one, and the reverse
for Negative. A share of Neutral rows and of malformed rows (empty text, a
label outside Positive/Negative/Neutral, a missing field) makes ingest's skip
path and ``select_binary`` do real work. The same seed gives the same bytes.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import random

DISTINCT_WORDS = 30000  # more than the reference vocabulary cap of 20000
ZIPF_S = 1.05
LEXICON_SIZE = 8
NEUTRAL_SHARE = 0.10
MALFORMED_SHARE = 0.03
MIN_WORDS, MAX_WORDS = 6, 26  # below maxlen 32, so truncation rarely drops markers

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
_VOWELS = ("a", "e", "i", "o", "u")


def _words(count: int, prefix: str) -> list[str]:
    """``count`` distinct pronounceable words; the prefix keeps lists disjoint."""
    syllables = [o + v for o, v in itertools.product(_ONSETS, _VOWELS)]
    out = []
    for length in itertools.count(1):
        for combo in itertools.product(syllables, repeat=length):
            out.append(prefix + "".join(combo))
            if len(out) == count:
                return out


class TextGenerator:
    """Draws rows from one seeded stream; the word tables are fixed."""

    def __init__(self, seed: int, stream: str):
        # A string seed hashes the same in every process and Python version.
        self.rng = random.Random(f"{seed}:{stream}")
        self.background = _words(DISTINCT_WORDS, "")
        self.positive = _words(LEXICON_SIZE, "yay")
        self.negative = _words(LEXICON_SIZE, "boo")
        self.neutral = _words(LEXICON_SIZE, "meh")
        weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, DISTINCT_WORDS + 1)]
        self.cumulative = list(itertools.accumulate(weights))

    def _background(self, k: int) -> list[str]:
        top = self.cumulative[-1]
        return [self.background[bisect.bisect_left(self.cumulative, self.rng.random() * top)]
                for _ in range(k)]

    def _text(self, label: str) -> str:
        r = self.rng
        if label == "Neutral":
            markers = r.sample(self.neutral, 2)
        else:
            own, other = ((self.positive, self.negative) if label == "Positive"
                          else (self.negative, self.positive))
            markers = r.sample(own, 2) + r.sample(other, r.randint(0, 1))
        words = self._background(r.randint(MIN_WORDS, MAX_WORDS) - len(markers))
        for word in markers:
            words.insert(r.randint(0, len(words)), word)
        words = [w.capitalize() if r.random() < 0.1 else w for w in words]
        text = " ".join(words)
        if r.random() < 0.2:
            text = f"RT @{self.background[r.randrange(500)]}: {text}"
        if r.random() < 0.3:
            text += r.choice(("!", "!!", " :)", "...", " #tbt", " http://t.co/x1"))
        return text

    def row(self) -> tuple[str, str]:
        r = self.rng
        roll = r.random()
        if roll < MALFORMED_SHARE:
            kind = r.randrange(3)
            if kind == 0:
                return "   ", r.choice(("Positive", "Negative"))
            if kind == 1:
                return self._text("Positive"), "Mixed"
            return self._text("Negative"), ""
        if roll < MALFORMED_SHARE + NEUTRAL_SHARE:
            return self._text("Neutral"), "Neutral"
        label = "Positive" if r.random() < 0.5 else "Negative"
        return self._text(label), label


def write_csv(path: str, seed: int, stream: str, rows: int) -> None:
    """Write ``rows`` generated rows (header excluded) to ``path``; distinct
    ``stream`` names give independent files from one seed."""
    gen = TextGenerator(seed, stream)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "sentiment", "text"])
        for k in range(rows):
            text, label = gen.row()
            writer.writerow([k, label, text])
