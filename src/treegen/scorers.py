"""Next-token probability sources for the decoder.

Three interchangeable scorers: a uniform baseline, a backoff n-gram
model trained on linearized annotated responses (optionally specialized
per MR signature), and a bridge to an external process speaking a
newline-delimited JSON protocol.  All of them expose ``logprobs`` over a
shared :class:`~treegen.vocab.Vocabulary` and return full-vocabulary
log-probability vectors whose exponentials sum to one.

The decoder scores through :func:`bind`: one session per MR, whose
``logprobs(prefixes)`` answers a whole beam with one (rows x vocab)
matrix.  A scorer with its own ``bind`` resolves the MR once per
session; any other scorer is lifted by an adapter that asks it prefix by
prefix.
"""

from __future__ import annotations

import base64
import json
import math
import os
import select
import subprocess
import time
from collections.abc import Iterable, Sequence
from typing import IO, Protocol, runtime_checkable

import numpy as np

from .trees import CLOSE, EOS, MrNode, MrTree, canonicalize, is_open, linearize, signature
from .vocab import UnknownToken, Vocabulary

MODEL_FORMAT = "treegen-ngram"
MODEL_VERSION = 1

# Probability mass must sum to 1 within these tolerances.
BUILTIN_SUM_TOLERANCE = 1e-9
EXTERNAL_SUM_TOLERANCE = 1e-6

# The one wire-protocol version spoken, stated in the handshake.
PROTOCOL_VERSION = 2

# Seconds a scorer child gets to exit on its own once its input closes,
# and then again after SIGTERM, before it is killed.
EXTERNAL_EXIT_GRACE_S = 5.0

# Seconds a scorer child gets to send its handshake, and then to answer
# each request, before it counts as hung and is shut down.
EXTERNAL_READ_TIMEOUT_S = 60.0

Context = MrTree | MrNode | Sequence[int] | None


class EmptyCorpus(ValueError):
    """Training requested on a corpus with no examples."""


class ScorerUnavailable(RuntimeError):
    """The external scorer process is gone or refuses to answer."""


class ProtocolViolation(RuntimeError):
    """The external scorer sent a frame that breaks the wire contract."""


@runtime_checkable
class Scorer(Protocol):
    vocabulary: Vocabulary

    def logprobs(self, prefix: Sequence[int], context: Context) -> np.ndarray:
        """Log-probabilities over the full vocabulary for the next token."""
        ...


class ScorerSession(Protocol):
    def logprobs(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """(len(prefixes), vocab) float64 log-probabilities, one row per prefix."""
        ...


class _PerPrefixSession:
    """Lifts a scorer that only has ``logprobs(prefix, context)``."""

    def __init__(self, scorer: Scorer, context: Context):
        self._scorer = scorer
        self._context = context
        self._size = len(scorer.vocabulary)

    def logprobs(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        out = np.empty((len(prefixes), self._size))
        for row, prefix in zip(out, prefixes):
            row[:] = self._scorer.logprobs(prefix, self._context)
        return out


def bind(scorer: Scorer, context: Context) -> ScorerSession:
    """A scoring session for one MR: the scorer's own, or the adapter."""
    native = getattr(scorer, "bind", None)
    if native is not None:
        return native(context)
    return _PerPrefixSession(scorer, context)


def _context_ids(vocabulary: Vocabulary, context: Context) -> list[int]:
    if context is None:
        return []
    if isinstance(context, (MrTree, MrNode)):
        return vocabulary.encode(linearize(canonicalize(context)))
    return list(context)


def _context_signature(vocabulary: Vocabulary, context: Context) -> str:
    """MR signature string for sub-model lookup.

    From ids this keeps only bracket tokens, which equals the tree
    signature whenever the ids encode a canonicalized linearization.
    """
    if context is None:
        return ""
    if isinstance(context, (MrTree, MrNode)):
        return signature(context)
    tokens = (vocabulary.token(i) for i in context)
    return " ".join(t for t in tokens if is_open(t) or t == CLOSE)


def _check_prefix(size: int, prefix: Sequence[int]) -> None:
    if len(prefix) and (min(prefix) < 0 or max(prefix) >= size):
        raise UnknownToken(next(i for i in prefix if not 0 <= i < size))


class UniformScorer:
    """Every token equally likely; the untrained baseline."""

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self._vector = np.full(len(vocabulary), -math.log(len(vocabulary)))

    def logprobs(self, prefix: Sequence[int], context: Context = None) -> np.ndarray:
        _check_prefix(len(self.vocabulary), prefix)
        return self._vector.copy()


class _CountTable:
    """Raw n-gram counts for one training slice, one level per context length."""

    def __init__(self, order: int):
        self.order = order
        self.counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(order)
        ]
        self.totals: list[dict[tuple[int, ...], int]] = [{} for _ in range(order)]

    def add_stream(self, ids: Sequence[int], bos: int) -> None:
        stream = [bos] * (self.order - 1) + list(ids)
        for pos in range(self.order - 1, len(stream)):
            target = stream[pos]
            for k in range(self.order):
                ctx = tuple(stream[pos - k : pos])
                level = self.counts[k]
                bucket = level.setdefault(ctx, {})
                bucket[target] = bucket.get(target, 0) + 1
                self.totals[k][ctx] = self.totals[k].get(ctx, 0) + 1

    def to_json(self) -> dict:
        levels = []
        for level in self.counts:
            levels.append(
                [[list(ctx), sorted(bucket.items())] for ctx, bucket in sorted(level.items())]
            )
        return {"levels": levels}

    @classmethod
    def from_json(cls, data: dict, order: int) -> "_CountTable":
        table = cls(order)
        for k, level in enumerate(data["levels"]):
            for ctx_list, pairs in level:
                ctx = tuple(ctx_list)
                bucket = {int(w): int(c) for w, c in pairs}
                table.counts[k][ctx] = bucket
                table.totals[k][ctx] = sum(bucket.values())
        return table


class NGramModel:
    """Interpolated absolute-discounting n-gram model over token ids.

    Contexts back off level by level down to the unigram distribution,
    which itself interpolates with uniform mass so every token keeps
    nonzero probability.  When at least ``min_signature_examples``
    training examples share an MR signature, a sub-model trained on just
    those examples answers queries for that signature; everything else
    falls to the global model.
    """

    # vectors are O(vocab) each; clear the memo before it outgrows RAM
    _CACHE_LIMIT = 8192

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int = 4,
        discount: float = 0.75,
        min_signature_examples: int = 5,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 < discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        self.vocabulary = vocabulary
        self.order = order
        self.discount = discount
        self.min_signature_examples = min_signature_examples
        self._global = _CountTable(order)
        self._signature_tables: dict[str, _CountTable] = {}
        self._cache: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    # -- training ---------------------------------------------------------

    def _train(self, corpus: Sequence[tuple[Context, Sequence[str]]]) -> None:
        vocab = self.vocabulary
        grouped: dict[str, list[list[int]]] = {}
        for context, tokens in corpus:
            ids = vocab.encode(tokens)
            if not ids or ids[-1] != vocab.eos_id:
                ids.append(vocab.eos_id)
            self._global.add_stream(ids, vocab.bos_id)
            sig = _context_signature(vocab, context)
            grouped.setdefault(sig, []).append(ids)
        for sig, streams in grouped.items():
            if sig and len(streams) >= self.min_signature_examples:
                table = _CountTable(self.order)
                for ids in streams:
                    table.add_stream(ids, vocab.bos_id)
                self._signature_tables[sig] = table

    # -- scoring ----------------------------------------------------------

    def _prob_vector(self, key: str, table: _CountTable, ctx: tuple[int, ...]) -> np.ndarray:
        cached = self._cache.get((key, ctx))
        if cached is not None:
            return cached
        if len(self._cache) >= self._CACHE_LIMIT:
            self._cache.clear()
        size = len(self.vocabulary)
        if ctx and ctx not in table.counts[len(ctx)]:
            vec = self._prob_vector(key, table, ctx[1:])
            self._cache[(key, ctx)] = vec
            return vec
        lower = (
            self._prob_vector(key, table, ctx[1:])
            if ctx
            else np.full(size, 1.0 / size)
        )
        bucket = table.counts[len(ctx)].get(ctx)
        if bucket is None:
            # empty table at the unigram level: nothing was trained
            self._cache[(key, ctx)] = lower
            return lower
        total = table.totals[len(ctx)][ctx]
        vec = np.zeros(size)
        words = np.fromiter(bucket.keys(), dtype=np.intp, count=len(bucket))
        hits = np.fromiter(bucket.values(), dtype=np.float64, count=len(bucket))
        vec[words] = hits - self.discount
        vec /= total
        vec += (self.discount * len(bucket) / total) * lower
        self._cache[(key, ctx)] = vec
        return vec

    def bind(self, context: Context = None) -> "_NGramSession":
        """A session with the MR's signature and sub-table resolved once."""
        sig = _context_signature(self.vocabulary, context)
        table = self._signature_tables.get(sig)
        if table is None:
            sig, table = "", self._global
        return _NGramSession(self, sig, table)

    def logprobs(self, prefix: Sequence[int], context: Context = None) -> np.ndarray:
        return self.bind(context).logprobs([prefix])[0]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_cache"] = {}
        return state

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "order": self.order,
            "discount": self.discount,
            "min_signature_examples": self.min_signature_examples,
            "vocabulary": list(self.vocabulary.tokens),
            "global": self._global.to_json(),
            "signatures": {
                sig: table.to_json() for sig, table in sorted(self._signature_tables.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
        if payload.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {payload.get('version')!r}")
        try:
            model = cls(
                Vocabulary(payload["vocabulary"]),
                order=payload["order"],
                discount=payload["discount"],
                min_signature_examples=payload["min_signature_examples"],
            )
            model._global = _CountTable.from_json(payload["global"], model.order)
            model._signature_tables = {
                sig: _CountTable.from_json(data, model.order)
                for sig, data in payload["signatures"].items()
            }
        except KeyError as exc:
            raise ValueError(f"{path}: model file has no field {exc.args[0]!r}") from exc
        return model


class _NGramSession:
    """One MR's view of an n-gram model, with a log-vector per context."""

    def __init__(self, model: NGramModel, key: str, table: _CountTable):
        self._model = model
        self._key = key
        self._table = table
        self._size = len(model.vocabulary)
        self._n = model.order - 1
        self._pad = (model.vocabulary.bos_id,) * self._n
        # dies with the session, so it holds at most one decode's contexts
        self._memo: dict[tuple[int, ...], np.ndarray] = {}

    def logprobs(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        n = self._n
        out = np.empty((len(prefixes), self._size))
        for row, prefix in zip(out, prefixes):
            _check_prefix(self._size, prefix)
            if not n:
                ctx = ()
            elif len(prefix) >= n:
                ctx = tuple(prefix[-n:])
            else:
                ctx = self._pad[len(prefix) :] + tuple(prefix)
            vec = self._memo.get(ctx)
            if vec is None:
                vec = np.log(self._model._prob_vector(self._key, self._table, ctx))
                self._memo[ctx] = vec
            row[:] = vec
        return out


def train_ngram(
    corpus: Iterable[tuple[Context, Sequence[str]]],
    order: int = 4,
    discount: float = 0.75,
    min_signature_examples: int = 5,
    vocabulary: Vocabulary | None = None,
) -> NGramModel:
    """Train an n-gram scorer on (mr, annotated tokens) pairs.

    The vocabulary is built from both the response tokens and the MR
    linearizations unless one is supplied, so decode-time contexts encode
    without unknowns.
    """
    examples = [(context, list(tokens)) for context, tokens in corpus]
    if not examples:
        raise EmptyCorpus("no training examples")
    if vocabulary is None:
        seen: set[str] = set()
        for context, tokens in examples:
            seen.update(tokens)
            if isinstance(context, (MrTree, MrNode)):
                seen.update(linearize(canonicalize(context)))
        vocabulary = Vocabulary.from_tokens(seen)
    model = NGramModel(
        vocabulary,
        order=order,
        discount=discount,
        min_signature_examples=min_signature_examples,
    )
    model._train(examples)
    return model


# -- external scorer protocol ----------------------------------------------
#
# Newline-delimited JSON over the child's standard streams, one request
# per beam step.
#   handshake (server -> client): {"vocab_size": int, "protocol": 2}
#   request   (client -> server): {"id": int, "context": [int], "prefixes": [[int], ...]}
#   response  (server -> client): {"id": int, "logprobs": str}
#       base64 of little-endian float64, len(prefixes) x vocab_size, row-major
#   error     (server -> client): {"id": int | null, "error": str}
#       the server could not answer that request; it keeps serving


def _encode_matrix(matrix: np.ndarray) -> str:
    return base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode("ascii")


class ExternalScorer:
    """Adapter speaking the wire protocol to a child scorer process."""

    def __init__(self, command: Sequence[str], vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self._next_id = 0
        self._pending = b""  # bytes read past the last complete frame
        try:
            self._proc = subprocess.Popen(
                list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise ScorerUnavailable(f"cannot start scorer process: {exc}") from exc
        # stdout is read straight from its descriptor, never through the
        # buffered file object, so poll() sees every byte not yet taken
        self._poll = select.poll()
        self._poll.register(self._proc.stdout.fileno(), select.POLLIN)
        try:
            handshake = self._read_frame()
            protocol = handshake.get("protocol")
            if protocol != PROTOCOL_VERSION:
                raise ProtocolViolation(
                    f"handshake protocol {protocol!r} != {PROTOCOL_VERSION}"
                )
            size = handshake.get("vocab_size")
            if size != len(vocabulary):
                raise ProtocolViolation(
                    f"handshake vocab_size {size!r} != local vocabulary {len(vocabulary)}"
                )
        except (ProtocolViolation, ScorerUnavailable):
            # the caller never gets the object, so nothing else can close it
            self.close()
            raise

    def _read_line(self) -> str:
        """The next line from the child, waiting at most EXTERNAL_READ_TIMEOUT_S."""
        assert self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + EXTERNAL_READ_TIMEOUT_S
        data, start = self._pending, 0
        while (end := data.find(b"\n", start)) < 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._poll.poll(remaining * 1000):
                # a hung child gets no grace period: stop it, then reap it
                self._proc.terminate()
                self.close()
                raise ScorerUnavailable(
                    f"scorer process sent no complete frame within "
                    f"{EXTERNAL_READ_TIMEOUT_S} s"
                )
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ScorerUnavailable("scorer process closed its output")
            data, start = data + chunk, len(data)
        self._pending = data[end + 1 :]
        return data[: end + 1].decode("utf-8", errors="replace")

    def _read_frame(self) -> dict:
        line = self._read_line()
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolViolation(f"malformed frame: {line!r}") from exc
        if not isinstance(frame, dict):
            raise ProtocolViolation(f"frame is not an object: {line!r}")
        return frame

    def bind(self, context: Context = None) -> "_ExternalSession":
        return _ExternalSession(self, _context_ids(self.vocabulary, context))

    def logprobs(self, prefix: Sequence[int], context: Context = None) -> np.ndarray:
        return self.bind(context).logprobs([prefix])[0]

    def _score(self, context: list[int], prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """One request and its response: a (len(prefixes), vocab) matrix."""
        size = len(self.vocabulary)
        for prefix in prefixes:
            _check_prefix(size, prefix)
        request_id = self._next_id
        self._next_id += 1
        request = {"id": request_id, "context": context, "prefixes": list(prefixes)}
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write(json.dumps(request).encode() + b"\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:  # ValueError: already closed
            raise ScorerUnavailable("scorer process pipe is closed") from exc
        frame = self._read_frame()
        if "error" in frame:
            raise ProtocolViolation(f"scorer refused request {request_id}: {frame['error']}")
        if frame.get("id") != request_id:
            raise ProtocolViolation(f"response id {frame.get('id')!r} != {request_id}")
        encoded = frame.get("logprobs")
        if not isinstance(encoded, str):
            raise ProtocolViolation(
                f"logprobs must be a base64 string, got {type(encoded).__name__}"
            )
        try:
            raw = base64.b64decode(encoded, validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII string
            raise ProtocolViolation(f"logprobs is not base64: {exc}") from exc
        rows = len(prefixes)
        if len(raw) != 8 * rows * size:
            raise ProtocolViolation(
                f"logprobs must hold {8 * rows * size} bytes "
                f"({rows} rows x {size} float64), got {len(raw)}"
            )
        matrix = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, size)
        mass = np.exp(matrix).sum(axis=1)
        bad = ~np.isfinite(mass) | (np.abs(mass - 1.0) > EXTERNAL_SUM_TOLERANCE)
        if bad.any():
            row = int(np.argmax(bad))
            raise ProtocolViolation(f"row {row}: probabilities sum to {mass[row]}, not 1")
        return matrix

    def close(self) -> None:
        proc = self._proc
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        # a healthy child exits at end of input; only a stuck one is signalled
        try:
            proc.wait(timeout=EXTERNAL_EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=EXTERNAL_EXIT_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "ExternalScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ExternalSession:
    """One MR's context ids, sent with every request of a decode."""

    def __init__(self, scorer: ExternalScorer, context: list[int]):
        self._scorer = scorer
        self._context = context

    def logprobs(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        return self._scorer._score(self._context, prefixes)


def _is_token_ids(value) -> bool:
    return isinstance(value, list) and all(type(i) is int for i in value)


def _answer(scorer: Scorer, line: str) -> dict:
    """The response frame, or error frame, for one request line."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"id": None, "error": f"request is not JSON: {exc}"}
    if not isinstance(request, dict):
        return {"id": None, "error": "request is not a JSON object"}
    request_id = request.get("id")
    for field in ("context", "prefixes"):
        if field not in request:
            return {"id": request_id, "error": f"request has no {field!r}"}
    context, prefixes = request["context"], request["prefixes"]
    if not _is_token_ids(context):
        return {"id": request_id, "error": "context must be a list of token ids"}
    if not isinstance(prefixes, list) or not all(_is_token_ids(p) for p in prefixes):
        return {"id": request_id, "error": "prefixes must be lists of token ids"}
    try:
        matrix = bind(scorer, context).logprobs(prefixes)
    except UnknownToken as exc:
        return {"id": request_id, "error": f"unknown token id {exc.args[0]!r}"}
    return {"id": request_id, "logprobs": _encode_matrix(matrix)}


def serve_loop(scorer: Scorer, in_stream: IO[str], out_stream: IO[str]) -> None:
    """Answer wire-protocol requests with an in-process scorer.

    Runs until the input stream ends; a request it cannot answer gets an
    error frame and the loop goes on.  Lets any scorer be mounted as a
    child process, which is also how the protocol tests drive doubles.
    """
    handshake = {"vocab_size": len(scorer.vocabulary), "protocol": PROTOCOL_VERSION}
    out_stream.write(json.dumps(handshake) + "\n")
    out_stream.flush()
    for line in in_stream:
        if not line.strip():
            continue
        out_stream.write(json.dumps(_answer(scorer, line)) + "\n")
        out_stream.flush()


# -- evaluation helpers -----------------------------------------------------


def sequence_logprob(scorer: Scorer, tokens: Sequence[str], context: Context = None) -> float:
    """Total log-probability of a token sequence ending in EOS.

    Every prefix is scored in one session call; the total adds the
    per-token log-probabilities in sequence order.
    """
    vocab = scorer.vocabulary
    ids = vocab.encode(tokens)
    if not ids or ids[-1] != vocab.eos_id:
        ids.append(vocab.eos_id)
    matrix = bind(scorer, context).logprobs([ids[:pos] for pos in range(len(ids))])
    total = 0.0
    for row, target in zip(matrix, ids):
        total += float(row[target])
    return total


def perplexity(scorer: Scorer, corpus: Iterable[tuple[Context, Sequence[str]]]) -> float:
    """Per-token perplexity of the scorer over (context, tokens) pairs."""
    total_logprob = 0.0
    total_tokens = 0
    for context, tokens in corpus:
        total_logprob += sequence_logprob(scorer, tokens, context)
        total_tokens += len(tokens) + (0 if tokens and tokens[-1] == EOS else 1)
    if total_tokens == 0:
        raise EmptyCorpus("no tokens to evaluate")
    return math.exp(-total_logprob / total_tokens)
