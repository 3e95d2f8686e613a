"""Corpus file format: one JSON object per line.

Each example carries the user query, its scenario context, the
linearized MR, the plain response text, and the bracket-annotated
response.  Delexicalized corpora additionally store the placeholder
table so the surface form can be restored.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .ontology import Ontology
from .trees import AnnotatedNode, MrTree, parse_linearized, parse_mr

# every required key, with the JSON type its value must have
REQUIRED_KEYS = {
    "query": str,
    "context": dict,
    "mr": str,
    "response": str,
    "annotated_response": str,
}


class MalformedLine(ValueError):
    """A corpus line that is not valid JSON, misses a key or has a mistyped field."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


@dataclass
class CorpusExample:
    query: str
    context: dict
    mr: str
    response: str
    annotated_response: str
    delex_table: list | None = None
    # the 1-based file line read_corpus found it on; never written out
    line: int | None = field(default=None, compare=False, repr=False)

    def mr_tree(self, ontology: Ontology) -> MrTree:
        return parse_mr(self.mr, ontology)

    def annotated_tree(self, ontology: Ontology) -> AnnotatedNode:
        return parse_linearized(self.annotated_response, ontology)

    def to_json(self) -> dict:
        data = {
            "query": self.query,
            "context": self.context,
            "mr": self.mr,
            "response": self.response,
            "annotated_response": self.annotated_response,
        }
        if self.delex_table is not None:
            data["delex_table"] = self.delex_table
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CorpusExample":
        return cls(
            query=data["query"],
            context=data["context"],
            mr=data["mr"],
            response=data["response"],
            annotated_response=data["annotated_response"],
            delex_table=data.get("delex_table"),
        )


def parse_example(line: str) -> CorpusExample:
    """One corpus line as an example; ValueError says what is wrong with it."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise ValueError("line is not a JSON object")
    missing = [k for k in REQUIRED_KEYS if k not in data]
    if missing:
        raise ValueError(f"missing keys: {missing}")
    mistyped = [k for k, kind in REQUIRED_KEYS.items() if not isinstance(data[k], kind)]
    if mistyped:
        raise ValueError(
            f"wrongly typed keys: {mistyped} (context is an object, others strings)"
        )
    table = data.get("delex_table")
    if table is not None and not (
        isinstance(table, list)
        and all(
            isinstance(entry, list)
            and len(entry) == 3
            and all(isinstance(field, str) for field in entry)
            for entry in table
        )
    ):
        raise ValueError("delex_table is not a list of [placeholder, label, value] strings")
    return CorpusExample.from_json(data)


def numbered_lines(path) -> list[tuple[int, str]]:
    """A JSON-lines file's non-blank lines, numbered from 1 (U+2028 ends no line)."""
    with open(path, encoding="utf-8") as fh:
        return [(number, line) for number, line in enumerate(fh, start=1) if line.strip()]


def read_corpus(path) -> list[CorpusExample]:
    """Load a JSONL corpus; malformed lines fail with their line number."""
    examples: list[CorpusExample] = []
    for number, line in numbered_lines(path):
        try:
            example = parse_example(line)
        except ValueError as exc:
            raise MalformedLine(number, str(exc)) from exc
        example.line = number
        examples.append(example)
    return examples


def write_json(path, doc) -> None:
    """Write one JSON document: indented, keys sorted, ending in a newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_corpus(path, examples: Iterable[CorpusExample]) -> None:
    """Write a JSONL corpus, one example per line; the directory must exist."""
    write_jsonl(path, (example.to_json() for example in examples))
