"""Vocabulary id assignment, round-trips, and reserved tokens."""

import pytest

from treegen.trees import CLOSE, EOS
from treegen.vocab import BOS_TOKEN, UNK_TOKEN, UnknownToken, Vocabulary


def test_reserved_ids_are_fixed():
    vocab = Vocabulary.from_tokens(["hello", "[INFORM"])
    assert vocab.encode([UNK_TOKEN])[0] == 0 == vocab.unk_id
    assert vocab.encode([EOS])[0] == 1 == vocab.eos_id
    assert vocab.encode([CLOSE])[0] == 2 == vocab.close_id
    assert vocab.encode([BOS_TOKEN])[0] == 3 == vocab.bos_id


def test_ids_dense_and_sorted():
    vocab = Vocabulary.from_tokens(["zebra", "apple", "mango"])
    assert vocab.tokens == (UNK_TOKEN, EOS, CLOSE, BOS_TOKEN, "apple", "mango", "zebra")
    assert vocab.encode(vocab.tokens) == list(range(len(vocab)))


def test_same_token_set_same_vocabulary():
    a = Vocabulary.from_tokens(["x", "y", "z"])
    b = Vocabulary.from_tokens(["z", "x", "y", "x"])
    assert a == b


def test_reserved_tokens_in_input_are_deduplicated():
    vocab = Vocabulary.from_tokens([EOS, CLOSE, "word"])
    assert len(vocab) == 5


def test_encode_decode_round_trip():
    vocab = Vocabulary.from_tokens(["it", "rains", "[INFORM"])
    tokens = ["[INFORM", "it", "rains", CLOSE, EOS]
    assert vocab.decode(vocab.encode(tokens)) == tokens


def test_encode_accepts_a_string():
    vocab = Vocabulary.from_tokens(["a", "b"])
    assert vocab.encode("a b") == vocab.encode(["a", "b"]) == [4, 5]


def test_unknown_string_maps_to_unk():
    vocab = Vocabulary.from_tokens(["known"])
    assert vocab.encode(["mystery"]) == [vocab.unk_id]
    assert "mystery" not in vocab


def test_out_of_range_id_raises():
    vocab = Vocabulary.from_tokens(["a"])
    with pytest.raises(UnknownToken):
        vocab.token(len(vocab))
    with pytest.raises(UnknownToken):
        vocab.token(-1)


@pytest.mark.parametrize("bad", [-1, "size"])
def test_decode_names_the_first_out_of_range_id(bad):
    vocab = Vocabulary.from_tokens(["a", "b"])
    bad = len(vocab) if bad == "size" else bad
    # the first bad id is named, whatever follows it; a negative id never
    # wraps round to the end of the vocabulary
    with pytest.raises(UnknownToken) as excinfo:
        vocab.decode([vocab.eos_id, bad, len(vocab) + 7, -5])
    assert excinfo.value.args == (bad,)
    assert vocab.decode([len(vocab) - 1, 0]) == [vocab.tokens[-1], vocab.tokens[0]]
    assert vocab.decode([]) == []


def test_structural_ids_cover_exactly_opens_close_eos():
    vocab = Vocabulary.from_tokens(["word", "[INFORM", "[date_time", "43"])
    structural = {vocab.token(i) for i in vocab.structural_ids}
    assert structural == {"[INFORM", "[date_time", CLOSE, EOS}
    # BOS and UNK count as words, never masked
    assert vocab.bos_id not in vocab.structural_ids
    assert vocab.unk_id not in vocab.structural_ids


def test_constructor_rejects_missing_specials():
    with pytest.raises(ValueError):
        Vocabulary(["a", "b", "c"])


def test_constructor_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary((UNK_TOKEN, EOS, CLOSE, BOS_TOKEN, "a", "a"))
