"""Token-id vocabulary shared by scorers and the decoder.

Four ids are reserved and stable across save/load: unknown (0), end of
sequence (1), the close bracket (2), and beginning of sequence (3).  All
other tokens get dense ids in sorted order, so two vocabularies built
from the same token set are identical.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .trees import CLOSE, EOS, is_open

UNK_TOKEN = "<unk>"
BOS_TOKEN = "<s>"

_SPECIALS = (UNK_TOKEN, EOS, CLOSE, BOS_TOKEN)


class UnknownToken(KeyError):
    """A token id falls outside the vocabulary."""


class Vocabulary:
    """Bidirectional token ↔ id map with dense, deterministic ids."""

    unk_id = 0
    eos_id = 1
    close_id = 2
    bos_id = 3

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[: len(_SPECIALS)] != _SPECIALS:
            raise ValueError(f"vocabulary must start with the reserved tokens {_SPECIALS}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self._tokens = tokens
        self._ids = {tok: i for i, tok in enumerate(tokens)}
        # EOS and Close are structural; BOS/UNK count as plain words.
        self._structural = tuple(
            i for i, tok in enumerate(tokens) if tok == CLOSE or tok == EOS or is_open(tok)
        )

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build from any token collection; reserved tokens are implied."""
        rest = sorted(set(tokens) - set(_SPECIALS))
        return cls(_SPECIALS + tuple(rest))

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(self._tokens)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def structural_ids(self) -> tuple[int, ...]:
        """Ids of Open/Close/EOS tokens, the only ones masking can touch."""
        return self._structural

    def token(self, token_id: int) -> str:
        if 0 <= token_id < len(self._tokens):
            return self._tokens[token_id]
        raise UnknownToken(token_id)

    def encode(self, tokens: str | Sequence[str]) -> list[int]:
        """Map tokens to ids; a string is split on whitespace first."""
        if isinstance(tokens, str):
            tokens = tokens.split()
        return [self._ids.get(tok, self.unk_id) for tok in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        """Map ids to tokens; UnknownToken names the first id out of range."""
        tokens = self._tokens
        if len(ids) and not (0 <= min(ids) and max(ids) < len(tokens)):
            raise UnknownToken(next(i for i in ids if not 0 <= i < len(tokens)))
        return [tokens[i] for i in ids]
