"""Feature-to-text serialization and a closed-vocabulary tokenizer.

Feature vectors become "name value" word pairs; names tokenize as single
symbols and numbers split into per-character digit tokens, so the whole
vocabulary stays a few dozen entries and follows from the feature names
alone: a trained model stores its kept names, never a vocabulary file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .features import FeatureVector

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
SPECIALS = (PAD, UNK, CLS, SEP)
CHAR_TOKENS = tuple("0123456789") + (".", "-")

DEFAULT_DECIMALS = 2


def build_vocabulary(feature_names: Sequence[str]) -> dict:
    """{token: id}: specials, then feature names in schema order, then digit
    characters, with dense ids; a repeated token keeps its first place."""
    tokens = dict.fromkeys(SPECIALS + tuple(feature_names) + CHAR_TOKENS)
    return {token: i for i, token in enumerate(tokens)}


@dataclass(frozen=True)
class TokenSequence:
    input_ids: np.ndarray
    attention_mask: np.ndarray
    true_length: int


def serialize_features(vector: FeatureVector) -> str:
    """Space-joined "name value" pairs, fixed-point at DEFAULT_DECIMALS, no
    exponent notation."""
    values = np.asarray(vector.values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("feature vector contains NaN or infinity")
    words = []
    negative_zero = "-" + f"{0.0:.{DEFAULT_DECIMALS}f}"
    for name, value in zip(vector.names, values):
        text = f"{value:.{DEFAULT_DECIMALS}f}"
        if text == negative_zero:
            text = text[1:]
        words.append(f"{name} {text}")
    return " ".join(words)


def _word_ids(word: str, vocab: dict) -> list:
    if word in vocab:
        return [vocab[word]]
    if word and all(c in vocab for c in word):
        return [vocab[c] for c in word]
    return [UNK_ID]


def tokenize(text: str, vocab: dict, max_len: int) -> TokenSequence:
    """[CLS], the text's tokens, [SEP], padded to max_len.  Text that does
    not fit is a ConfigError: the encoder would never see its tail."""
    content: list = []
    for word in text.split():
        content.extend(_word_ids(word, vocab))
    if len(content) + 2 > max_len:
        raise ConfigError(f"feature text needs {len(content) + 2} tokens, "
                          f"encoder.max_len is {max_len}")

    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    ids[1:1 + len(content)] = content
    ids[1 + len(content)] = SEP_ID
    true_length = len(content) + 2
    mask = np.zeros(max_len, dtype=np.int64)
    mask[:true_length] = 1
    return TokenSequence(input_ids=ids, attention_mask=mask,
                         true_length=true_length)
