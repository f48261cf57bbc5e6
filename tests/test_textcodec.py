"""Tests for feature serialization, the closed vocabulary, and tokenization."""

import numpy as np
import pytest

from speechbp.errors import ConfigError
from speechbp.features import BASE_NAMES, FeatureVector
from speechbp.textcodec import (CHAR_TOKENS, CLS_ID, PAD_ID, SEP_ID,
                                SPECIALS, UNK_ID, build_vocabulary,
                                serialize_features, tokenize)

# the default EncoderConfig.max_len
MAX_LEN = 512


def base_vector(values=None):
    if values is None:
        rng = np.random.default_rng(0)
        values = rng.normal(0, 5, size=17)
    return FeatureVector(names=BASE_NAMES,
                         values=np.asarray(values, dtype=np.float64),
                         n_segments=1, schema_id="base")


@pytest.fixture
def vocab():
    return build_vocabulary(BASE_NAMES)


class TestVocabulary:
    def test_special_ids_fixed(self, vocab):
        assert vocab["[PAD]"] == 0
        assert vocab["[UNK]"] == 1
        assert vocab["[CLS]"] == 2
        assert vocab["[SEP]"] == 3

    def test_dense_ids(self, vocab):
        # specials, then the names in schema order, then the digit tokens
        assert list(vocab) == [*SPECIALS, *BASE_NAMES, *CHAR_TOKENS]
        assert list(vocab.values()) == list(range(len(vocab)))

    def test_size_bound(self, vocab):
        # 4 specials + 17 names + 12 characters
        assert len(vocab) == 33
        assert len(vocab) < 64

    def test_round_trip_tokens(self, vocab):
        # every id names exactly one token
        id_to_token = {idx: token for token, idx in vocab.items()}
        assert len(id_to_token) == len(vocab)

    def test_repeated_name_keeps_first_place(self):
        vocab = build_vocabulary(("mfcc2", "mfcc1", "mfcc2", "[CLS]", "7"))
        assert list(vocab) == [*SPECIALS, "mfcc2", "mfcc1", "7",
                               *(c for c in CHAR_TOKENS if c != "7")]
        assert list(vocab.values()) == list(range(len(vocab)))

    def test_unknown_token_maps_to_unk(self, vocab):
        assert "banana" not in vocab
        seq = tokenize("banana", vocab, MAX_LEN)
        assert list(seq.input_ids[:3]) == [CLS_ID, UNK_ID, SEP_ID]


class TestSerialize:
    def test_formatting_contract(self):
        vec = FeatureVector(names=("mfcc1", "skewness"),
                            values=np.array([1.0, -0.5]),
                            n_segments=1, schema_id="base")
        assert serialize_features(vec) == "mfcc1 1.00 skewness -0.50"

    def test_zero_format(self):
        vec = FeatureVector(names=("a",), values=np.array([0.0]),
                            n_segments=1, schema_id="base")
        assert serialize_features(vec) == "a 0.00"

    def test_negative_zero_normalized(self):
        vec = FeatureVector(names=("a",), values=np.array([-0.001]),
                            n_segments=1, schema_id="base")
        assert serialize_features(vec) == "a 0.00"

    def test_full_vector_counts(self):
        text = serialize_features(base_vector())
        words = text.split()
        assert len(words) == 34
        assert words[0::2] == list(BASE_NAMES)
        for value_word in words[1::2]:
            assert "e" not in value_word and "E" not in value_word

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        vec = FeatureVector(names=("a",), values=np.array([bad]),
                            n_segments=1, schema_id="base")
        with pytest.raises(ValueError, match="contains NaN or infinity"):
            serialize_features(vec)


class TestTokenize:
    def test_single_pair_example(self, vocab):
        seq = tokenize("mfcc1 1.00", vocab, MAX_LEN)
        want = [CLS_ID, vocab["mfcc1"], vocab["1"], vocab["."], vocab["0"],
                vocab["0"], SEP_ID]
        assert list(seq.input_ids[:7]) == want
        assert seq.true_length == 7
        assert list(seq.attention_mask[:7]) == [1] * 7
        assert np.all(seq.attention_mask[7:] == 0)
        assert np.all(seq.input_ids[7:] == PAD_ID)

    def test_empty_text(self, vocab):
        seq = tokenize("", vocab, MAX_LEN)
        assert list(seq.input_ids[:2]) == [CLS_ID, SEP_ID]
        assert seq.true_length == 2

    def test_output_length_fixed(self, vocab):
        seq = tokenize("mfcc1 1.00", vocab, MAX_LEN)
        assert len(seq.input_ids) == MAX_LEN
        assert len(seq.attention_mask) == MAX_LEN

    def test_unknown_word_single_unk(self, vocab):
        seq = tokenize("mystery 1.00", vocab, MAX_LEN)
        assert seq.input_ids[1] == UNK_ID
        assert seq.true_length == 7

    def test_mask_is_prefix_of_ones(self, vocab):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vec = base_vector(rng.normal(0, 20, size=17))
            seq = tokenize(serialize_features(vec), vocab, MAX_LEN)
            mask = seq.attention_mask
            assert np.array_equal(np.sort(mask)[::-1], mask)

    def test_length_matches_character_count(self, vocab):
        rng = np.random.default_rng(11)
        for _ in range(100):
            vec = base_vector(rng.normal(0, 50, size=17))
            text = serialize_features(vec)
            seq = tokenize(text, vocab, MAX_LEN)
            value_words = text.split()[1::2]
            want = 2 + 17 + sum(len(w) for w in value_words)
            assert seq.true_length == want
            assert seq.true_length < MAX_LEN

    def test_overlong_text_is_config_error(self, vocab):
        # 14 tokens and the two specials fit in 16; one more does not
        seq = tokenize("mfcc1 " * 14, vocab, max_len=16)
        assert seq.true_length == 16
        assert seq.input_ids[15] == SEP_ID
        with pytest.raises(ConfigError,
                           match="needs 17 tokens, encoder.max_len is 16"):
            tokenize("mfcc1 " * 15, vocab, max_len=16)

    def test_min_max_len(self, vocab):
        with pytest.raises(ValueError):
            tokenize("x", vocab, max_len=2)

    def test_deterministic(self, vocab):
        a = tokenize("mfcc2 -3.50", vocab, MAX_LEN)
        b = tokenize("mfcc2 -3.50", vocab, MAX_LEN)
        np.testing.assert_array_equal(a.input_ids, b.input_ids)

    def test_all_ids_within_vocab(self, vocab):
        seq = tokenize(serialize_features(base_vector()), vocab, MAX_LEN)
        assert np.all(seq.input_ids < len(vocab))
        assert np.all(seq.input_ids >= 0)
