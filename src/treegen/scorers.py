"""Next-token probability sources for the decoder.

Three interchangeable scorers: a uniform baseline, a backoff n-gram
model trained on linearized annotated responses (optionally specialized
per MR signature), and a bridge to an external process speaking a
newline-delimited JSON protocol.  All of them expose ``logprobs`` over a
shared :class:`~treegen.vocab.Vocabulary` and return full-vocabulary
log-probability vectors whose exponentials sum to one.

The decoder scores through :func:`bind`: one session per MR, whose
``logprobs(parents, tails)`` answers a whole beam with one (rows x vocab)
matrix.  Row i is row ``parents[i]`` of the session's previous call
extended by the ids ``tails[i]``, and parent -1 is the empty prefix, so a
beam step sends one new id per hypothesis; a request of wire protocol 3
means the same.  A scorer with its own ``bind`` resolves the MR once per
session; any other scorer is lifted by an adapter that rebuilds each
prefix and asks for it whole.
"""

from __future__ import annotations

import base64
import json
import math
import os
import select
import subprocess
import time
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from typing import IO, Protocol

import numpy as np

from .trees import CLOSE, MrNode, MrTree, canonicalize, is_open, linearize, signature
from .vocab import UnknownToken, Vocabulary

MODEL_FORMAT = "treegen-ngram"
MODEL_VERSION = 1
# Each saved model field and the JSON types it may take; bool never counts
# as a number.
_MODEL_FIELDS = {
    "vocabulary": list,
    "order": int,
    "discount": (int, float),
    "min_signature_examples": int,
    "global": dict,
    "signatures": dict,
}

# An external scorer's probability mass must sum to 1 within this tolerance.
EXTERNAL_SUM_TOLERANCE = 1e-6

# The one wire-protocol version spoken, stated in the handshake.
PROTOCOL_VERSION = 3

# Seconds a scorer child gets to exit on its own once its input closes,
# and then again after SIGTERM, before it is killed.
EXTERNAL_EXIT_GRACE_S = 5.0

# Seconds a scorer child gets to send its handshake, to take each request
# and then to answer it, before it counts as hung and is shut down.
EXTERNAL_READ_TIMEOUT_S = 60.0

Context = MrTree | MrNode | Sequence[int] | None


class EmptyCorpus(ValueError):
    """Training requested on a corpus with no examples."""


class ScorerUnavailable(RuntimeError):
    """The external scorer process is gone or refuses to answer."""


class ProtocolViolation(RuntimeError):
    """The external scorer sent a frame that breaks the wire contract."""


class Scorer(Protocol):
    vocabulary: Vocabulary

    def logprobs(self, prefix: Sequence[int], context: Context) -> np.ndarray:
        """Log-probabilities over the full vocabulary for the next token."""
        ...


class ScorerSession(Protocol):
    def logprobs(self, parents: Sequence[int], tails: Sequence[Sequence[int]]) -> np.ndarray:
        """(len(parents), vocab) float64 log-probabilities, one row per prefix.

        Prefix i is prefix parents[i] of the session's previous call
        followed by tails[i]; parent -1 is the empty prefix.
        """
        ...


def _check_parents(count: int, parents: Sequence[int], tails: Sequence) -> None:
    """ValueError unless there is a tail per parent and each parent is -1
    or one of the count prefixes of the previous call."""
    if len(parents) != len(tails):
        raise ValueError(f"{len(parents)} parents but {len(tails)} tails")
    if len(parents) and not (-1 <= min(parents) and max(parents) < count):
        bad = next(p for p in parents if not -1 <= p < count)
        raise ValueError(f"parent {bad} is not -1 or one of the {count} previous prefixes")


def _prefixes(
    previous: list[tuple[int, ...]], parents: Sequence[int], tails: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Each prefix whole: previous[parents[i]] followed by tails[i]."""
    _check_parents(len(previous), parents, tails)
    return [previous[p] + tuple(t) if p >= 0 else tuple(t) for p, t in zip(parents, tails)]


class _PerPrefixSession:
    """Lifts a scorer that only has ``logprobs(prefix, context)``.

    It keeps the previous call's prefixes and asks for each row whole.
    """

    def __init__(self, scorer: Scorer, context: Context):
        self._scorer = scorer
        self._context = context
        self._size = len(scorer.vocabulary)
        self._prefixes: list[tuple[int, ...]] = []

    def logprobs(self, parents: Sequence[int], tails: Sequence[Sequence[int]]) -> np.ndarray:
        prefixes = _prefixes(self._prefixes, parents, tails)
        out = np.empty((len(prefixes), self._size))
        for row, prefix in zip(out, prefixes):
            row[:] = self._scorer.logprobs(prefix, self._context)
        self._prefixes = prefixes
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
    def from_json(cls, data, order: int, size: int, name: str) -> "_CountTable":
        """The table ``to_json`` wrote; a ValueError names the first bad part."""
        levels = data.get("levels") if isinstance(data, dict) else None
        if not isinstance(levels, list) or len(levels) != order:
            raise ValueError(f"{name}: 'levels' must be a list of {order} levels")
        table = cls(order)
        for k, level in enumerate(levels):
            if not isinstance(level, list):
                raise ValueError(f"{name}: level {k} is not a list")
            counts, totals = table.counts[k], table.totals[k]
            for entry in level:
                if not (
                    isinstance(entry, list)
                    and len(entry) == 2
                    and _is_token_ids(entry[0])
                    and len(entry[0]) == k
                    and isinstance(entry[1], list)
                ):
                    raise ValueError(
                        f"{name}: level {k} entry is not [{k} context ids, counts]"
                    )
                ctx_list, pairs = entry
                bucket = {}
                for pair in pairs:
                    if not (
                        isinstance(pair, list)
                        and len(pair) == 2
                        and type(pair[0]) is int
                        and type(pair[1]) is int
                        and 0 <= pair[0] < size
                        and pair[1] > 0
                    ):
                        raise ValueError(
                            f"{name}: level {k} count {pair!r} is not [token id, count > 0]"
                        )
                    bucket[pair[0]] = pair[1]
                ctx = tuple(ctx_list)
                counts[ctx] = bucket
                totals[ctx] = sum(bucket.values())
        return table


class NGramModel:
    """Interpolated absolute-discounting n-gram model over token ids.

    Contexts back off level by level down to the unigram distribution,
    which itself interpolates with uniform mass so every token keeps
    nonzero probability.  When at least ``min_signature_examples``
    training examples share an MR signature, a sub-model trained on just
    those examples answers queries for that signature; everything else
    falls to the global model.

    Log rows live in one LRU per model, at most ``_ROW_LIMIT`` of them
    (8 x vocabulary bytes each), keyed by signature and the longest
    context suffix with counts.  A row's probabilities are computed only
    when it is missing, and nothing else is cached.
    """

    # log rows are O(vocab) floats each; the LRU keeps at most this many
    _ROW_LIMIT = 6144

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
        # (signature, context with counts) -> log row, least recent first
        self._log_rows: OrderedDict[tuple[str, tuple[int, ...]], np.ndarray] = OrderedDict()
        # the last id-context bind resolved, with its signature and table
        self._last_bind: tuple[tuple[int, ...], tuple[str, _CountTable]] | None = None

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

    def _prob_vector(self, table: _CountTable, ctx: tuple[int, ...]) -> np.ndarray:
        """The interpolated distribution, built up from the uniform one.

        Each suffix of ctx with counts, shortest first, mixes its own
        discounted counts with the vector below it; a suffix without
        counts backs off and leaves the vector as it is.
        """
        size = len(self.vocabulary)
        vec = np.full(size, 1.0 / size)
        for k in range(len(ctx) + 1):
            sub = ctx[len(ctx) - k :]
            bucket = table.counts[k].get(sub)
            if bucket is None:
                continue
            total = table.totals[k][sub]
            lower, vec = vec, np.zeros(size)
            words = np.fromiter(bucket.keys(), dtype=np.intp, count=len(bucket))
            hits = np.fromiter(bucket.values(), dtype=np.float64, count=len(bucket))
            vec[words] = hits - self.discount
            vec /= total
            vec += (self.discount * len(bucket) / total) * lower
        return vec

    def _log_row(self, key: str, table: _CountTable, ctx: tuple[int, ...]) -> np.ndarray:
        """The log row for ctx, from the LRU or computed and kept there.

        A context without counts scores as its longest suffix with counts,
        so every context that backs off to one suffix shares its row,
        which is read-only.
        """
        while ctx and ctx not in table.counts[len(ctx)]:
            ctx = ctx[1:]
        rows, entry = self._log_rows, (key, ctx)
        row = rows.get(entry)
        if row is not None:
            rows.move_to_end(entry)
            return row
        row = rows[entry] = np.log(self._prob_vector(table, ctx))
        row.flags.writeable = False
        if len(rows) > self._ROW_LIMIT:
            rows.popitem(last=False)
        return row

    def bind(self, context: Context = None) -> "_NGramSession":
        """A session with the MR's signature and sub-table resolved once.

        The last id-context resolved is remembered, so a caller that binds
        once per prefix with one MR's ids builds its signature once.
        """
        key = None
        if context is not None and not isinstance(context, (MrTree, MrNode)):
            key = tuple(context)
            last = self._last_bind
            if last is not None and last[0] == key:
                return _NGramSession(self, *last[1])
        sig = _context_signature(self.vocabulary, context)
        table = self._signature_tables.get(sig)
        if table is None:
            sig, table = "", self._global
        if key is not None:
            self._last_bind = (key, (sig, table))
        return _NGramSession(self, sig, table)

    def logprobs(self, prefix: Sequence[int], context: Context = None) -> np.ndarray:
        return self.bind(context).logprobs([-1], [prefix])[0]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_log_rows"] = OrderedDict()
        state["_last_bind"] = None
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
        """The model ``save`` wrote; ValueError for any other JSON payload."""
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: model file is not a JSON object")
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
        if payload.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {payload.get('version')!r}")
        for field, kinds in _MODEL_FIELDS.items():
            if field not in payload:
                raise ValueError(f"{path}: model file has no field {field!r}")
            value = payload[field]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{path}: field {field!r} has type {type(value).__name__}")
        tokens, signatures = payload["vocabulary"], payload["signatures"]
        if not all(isinstance(t, str) for t in tokens):
            raise ValueError(f"{path}: field 'vocabulary' must hold only strings")
        order, size = payload["order"], len(tokens)
        # the tables first: each checks its level count before it allocates
        global_table = _CountTable.from_json(payload["global"], order, size, "global")
        tables = {
            sig: _CountTable.from_json(data, order, size, f"signature {sig!r}")
            for sig, data in signatures.items()
        }
        model = cls(
            Vocabulary(tokens),
            order=order,
            discount=payload["discount"],
            min_signature_examples=payload["min_signature_examples"],
        )
        model._global, model._signature_tables = global_table, tables
        return model


class _NGramSession:
    """One MR's view of an n-gram model: an automaton over contexts.

    Each context the session reaches (its last order - 1 ids, BOS-padded)
    gets a dense id, a log row in a growing matrix and a map from a next
    token id to the context it leads to.  A tail id is checked when it
    first enters a context's map; a parent of -1 makes the tail the whole
    prefix, which is checked whole.  A call gathers its rows with one
    fancy index.
    """

    def __init__(self, model: NGramModel, key: str, table: _CountTable):
        self._model = model
        self._key = key
        self._table = table
        self._size = len(model.vocabulary)
        self._pad = (model.vocabulary.bos_id,) * (model.order - 1)
        self._id_of: dict[tuple[int, ...], int] = {}  # context -> its id
        self._ctx: list[tuple[int, ...]] = []  # id -> context
        self._next: list[dict[int, int]] = []  # id -> {token id: id}
        self._logp = np.empty((8, self._size))  # id -> log row
        self._rows: list[int] = []  # the previous call's context id per row

    def _context_id(self, ctx: tuple[int, ...]) -> int:
        cid = self._id_of.get(ctx)
        if cid is None:
            cid = self._id_of[ctx] = len(self._ctx)
            if cid == len(self._logp):
                grown = np.empty((2 * cid, self._size))
                grown[:cid] = self._logp
                self._logp = grown
            self._logp[cid] = self._model._log_row(self._key, self._table, ctx)
            self._ctx.append(ctx)
            self._next.append({})
        return cid

    def _extend(self, cid: int, token: int) -> int:
        if not 0 <= token < self._size:
            raise UnknownToken(token)
        nxt = self._next[cid][token] = self._context_id((self._ctx[cid] + (token,))[1:])
        return nxt

    def logprobs(self, parents: Sequence[int], tails: Sequence[Sequence[int]]) -> np.ndarray:
        _check_parents(len(self._rows), parents, tails)
        previous, nexts, rows = self._rows, self._next, []
        for parent, tail in zip(parents, tails):
            if parent < 0:
                tail = tuple(tail)
                _check_prefix(self._size, tail)
                cid = self._context_id((self._pad + tail)[len(tail) :])
            else:
                cid = previous[parent]
                for token in tail:
                    nxt = nexts[cid].get(token)
                    cid = self._extend(cid, token) if nxt is None else nxt
            rows.append(cid)
        self._rows = rows
        return self._logp[rows]


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
# per session call.  A request means what a session call means: row i
# extends row parents[i] of the previous request by tails[i].  Each side
# keeps the prefixes of the last request it answered, and the client
# finds each session row among them, so sessions may interleave on one
# connection; a request sends only what is new and a response sends each
# distinct row once.
#   handshake (server -> client): {"vocab_size": int, "protocol": 3}
#   request   (client -> server):
#       {"id": int, "context": [int], "parents": [int], "tails": [[int], ...]}
#       prefix i is prefix parents[i] of the previous request on the
#       connection followed by tails[i]; parent -1 is the empty prefix
#   response  (server -> client): {"id": int, "logprobs": str, "rows": [int]}
#       logprobs is base64 of little-endian float64, the distinct rows in
#       first-seen order, vocab_size each, row-major; prefix i's row is
#       distinct row rows[i]
#   error     (server -> client): {"id": int | null, "error": str}
#       the server could not answer that request and forgets the previous
#       prefixes, so the next request may reference none; it keeps serving


def _encode_matrix(matrix: np.ndarray) -> str:
    return base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode("ascii")


class ExternalScorer:
    """Adapter speaking the wire protocol to a child scorer process."""

    def __init__(self, command: Sequence[str], vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self._next_id = 0
        self._pending = b""  # bytes read past the last complete frame
        # prefix -> index in the last request the server answered
        self._sent: dict[tuple[int, ...], int] = {}
        try:
            self._proc = subprocess.Popen(
                list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
        except OSError as exc:
            raise ScorerUnavailable(f"cannot start scorer process: {exc}") from exc
        # stdout is read straight from its descriptor, never through the
        # buffered file object, so poll() sees every byte not yet taken;
        # stdin is written the same way, without blocking, so a child that
        # stops reading cannot hold a write past the deadline
        self._poll = select.poll()
        self._poll.register(self._proc.stdout.fileno(), select.POLLIN)
        self._write_poll = select.poll()
        self._write_poll.register(self._proc.stdin.fileno(), select.POLLOUT)
        os.set_blocking(self._proc.stdin.fileno(), False)
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

    def _hung(self, waiting_for: str) -> ScorerUnavailable:
        """Stop a hung child, with no grace period, and reap it."""
        self._proc.terminate()
        self.close()
        return ScorerUnavailable(
            f"scorer process {waiting_for} within {EXTERNAL_READ_TIMEOUT_S} s"
        )

    def _write(self, data: bytes) -> None:
        """Send data, waiting at most EXTERNAL_READ_TIMEOUT_S for pipe room."""
        assert self._proc.stdin is not None
        view, deadline = memoryview(data), None
        while True:
            try:
                view = view[os.write(self._proc.stdin.fileno(), view) :]
            except BlockingIOError:
                pass
            except (OSError, ValueError) as exc:  # ValueError: already closed
                raise ScorerUnavailable("scorer process pipe is closed") from exc
            if not view:
                return
            # a short write: the pipe is full, so wait for the child to read
            if deadline is None:
                deadline = time.monotonic() + EXTERNAL_READ_TIMEOUT_S
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._write_poll.poll(remaining * 1000):
                raise self._hung("took no complete request")

    def _read_line(self) -> str:
        """The next line from the child, waiting at most EXTERNAL_READ_TIMEOUT_S."""
        assert self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + EXTERNAL_READ_TIMEOUT_S
        data, start = self._pending, 0
        while (end := data.find(b"\n", start)) < 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._poll.poll(remaining * 1000):
                raise self._hung("sent no complete frame")
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
        return self.bind(context).logprobs([-1], [prefix])[0]

    def _score(self, context: list[int], prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """One request and its response: a (len(prefixes), vocab) matrix."""
        size = len(self.vocabulary)
        sent = self._sent
        keys, parents, tails = [], [], []
        for prefix in prefixes:
            key = tuple(prefix)
            parent = sent.get(key[:-1], -1) if key else -1
            tail = key[-1:] if parent >= 0 else key
            _check_prefix(size, tail)
            keys.append(key)
            parents.append(parent)
            tails.append(tail)
        request_id = self._next_id
        self._next_id += 1
        request = {"id": request_id, "context": context, "parents": parents, "tails": tails}
        # until a response is validated, the server's view of the previous
        # request is unknown, so the next request references none of it
        self._sent = {}
        self._write(json.dumps(request).encode() + b"\n")
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
        if len(raw) % (8 * size):
            raise ProtocolViolation(
                f"logprobs must hold whole rows of {8 * size} bytes "
                f"({size} float64), got {len(raw)} bytes"
            )
        distinct = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(-1, size)
        rows = frame.get("rows")
        if not isinstance(rows, list) or len(rows) != len(keys):
            raise ProtocolViolation(f"rows must be a list of {len(keys)} row indices")
        if not all(type(r) is int and 0 <= r < len(distinct) for r in rows):
            raise ProtocolViolation(
                f"rows must index the {len(distinct)} rows sent, got {rows!r:.80}"
            )
        mass = np.exp(distinct).sum(axis=1)
        bad = (~np.isfinite(mass) | (np.abs(mass - 1.0) > EXTERNAL_SUM_TOLERANCE))[rows]
        if bad.any():
            row = int(np.argmax(bad))
            raise ProtocolViolation(
                f"row {row}: probabilities sum to {mass[rows[row]]}, not 1"
            )
        self._sent = {key: i for i, key in enumerate(keys)}
        return distinct[rows]

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
    """One MR's context ids, sent with every request of a decode.

    It keeps the previous call's prefixes and hands the scorer each row
    whole; the scorer finds what the server already holds.
    """

    def __init__(self, scorer: ExternalScorer, context: list[int]):
        self._scorer = scorer
        self._context = context
        self._prefixes: list[tuple[int, ...]] = []

    def logprobs(self, parents: Sequence[int], tails: Sequence[Sequence[int]]) -> np.ndarray:
        prefixes = _prefixes(self._prefixes, parents, tails)
        matrix = self._scorer._score(self._context, prefixes)
        self._prefixes = prefixes
        return matrix


def _is_token_ids(value) -> bool:
    return isinstance(value, list) and all(type(i) is int for i in value)


def _refuse(request_id, message: str) -> tuple[dict, list]:
    return {"id": request_id, "error": message}, []


def _answer(
    scorer: Scorer, line: str, previous: list[tuple[int, ...]]
) -> tuple[dict, list[tuple[int, ...]]]:
    """The response frame for one request line, and the prefixes it held.

    ``previous`` holds the prefixes of the last request answered.  A
    request that gets an error frame holds no prefixes, so the next one
    may reference none.
    """
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return _refuse(None, f"request is not JSON: {exc}")
    if not isinstance(request, dict):
        return _refuse(None, "request is not a JSON object")
    request_id = request.get("id")
    for field in ("context", "parents", "tails"):
        if field not in request:
            return _refuse(request_id, f"request has no {field!r}")
    context, parents, tails = request["context"], request["parents"], request["tails"]
    if not _is_token_ids(context):
        return _refuse(request_id, "context must be a list of token ids")
    if not isinstance(tails, list) or not all(_is_token_ids(t) for t in tails):
        return _refuse(request_id, "tails must be lists of token ids")
    if not isinstance(parents, list) or not all(type(p) is int for p in parents):
        return _refuse(request_id, "parents must be a list of ints")
    try:
        prefixes = _prefixes(previous, parents, tails)
    except ValueError as exc:
        return _refuse(request_id, str(exc))
    try:
        matrix = bind(scorer, context).logprobs([-1] * len(prefixes), prefixes)
    except UnknownToken as exc:
        return _refuse(request_id, f"unknown token id {exc.args[0]!r}")
    # each distinct row once, compared bit for bit
    first: dict[bytes, int] = {}
    rows = [first.setdefault(row.tobytes(), len(first)) for row in matrix]
    distinct = matrix[np.unique(rows, return_index=True)[1]]
    frame = {"id": request_id, "logprobs": _encode_matrix(distinct), "rows": rows}
    return frame, prefixes


def serve_loop(scorer: Scorer, in_stream: IO[str], out_stream: IO[str]) -> None:
    """Answer wire-protocol requests with an in-process scorer.

    Runs until the input stream ends; a request it cannot answer gets an
    error frame and the loop goes on.  Lets any scorer be mounted as a
    child process, which is also how the protocol tests drive doubles.
    """
    handshake = {"vocab_size": len(scorer.vocabulary), "protocol": PROTOCOL_VERSION}
    out_stream.write(json.dumps(handshake) + "\n")
    out_stream.flush()
    previous: list[tuple[int, ...]] = []
    for line in in_stream:
        if not line.strip():
            continue
        frame, previous = _answer(scorer, line, previous)
        out_stream.write(json.dumps(frame) + "\n")
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
    prefixes = [ids[:pos] for pos in range(len(ids))]
    matrix = bind(scorer, context).logprobs([-1] * len(prefixes), prefixes)
    total = 0.0
    for row, target in zip(matrix, ids):
        total += float(row[target])
    return total
