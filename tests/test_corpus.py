"""Corpus JSONL reading, writing, and error reporting."""

from __future__ import annotations

import json

import pytest

from treegen.corpus import (
    CorpusExample,
    MalformedLine,
    parse_example,
    read_corpus,
    write_corpus,
)
from treegen.ontology import weather_ontology
from treegen.weather import synthesize_examples

ONT = weather_ontology()


def test_write_read_round_trip(tmp_path):
    examples = synthesize_examples(30, seed=4)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, examples)
    assert read_corpus(path) == examples


def test_one_json_object_per_line(tmp_path):
    examples = synthesize_examples(5, seed=4)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, examples)
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        assert set(record) >= {"query", "context", "mr", "response",
                               "annotated_response"}


def test_trees_parse_from_disk(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, synthesize_examples(10, seed=4))
    for example in read_corpus(path):
        assert example.mr_tree(ONT).root is not None
        assert example.annotated_tree(ONT).words()


def test_write_into_a_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_corpus(tmp_path / "missing" / "corpus.jsonl", synthesize_examples(1, seed=4))
    assert list(tmp_path.iterdir()) == []


def test_blank_lines_are_skipped(tmp_path):
    examples = synthesize_examples(2, seed=4)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, examples)
    padded = tmp_path / "padded.jsonl"
    padded.write_text("\n" + path.read_text().replace("\n", "\n\n"))
    assert read_corpus(padded) == examples


def test_bad_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(synthesize_examples(1, seed=4)[0].to_json())
    path.write_text(good + "\n{not json\n")
    with pytest.raises(MalformedLine) as err:
        read_corpus(path)
    assert err.value.line_number == 2


def test_missing_key_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = synthesize_examples(1, seed=4)[0].to_json()
    del record["mr"]
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(MalformedLine) as err:
        read_corpus(path)
    assert err.value.line_number == 1
    assert "mr" in str(err.value)


def test_non_object_line_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(MalformedLine):
        read_corpus(path)


def test_example_json_round_trip():
    example = synthesize_examples(1, seed=4)[0]
    assert CorpusExample.from_json(example.to_json()) == example


@pytest.mark.parametrize(
    "field, value",
    [
        ("query", 3),
        ("context", []),
        ("mr", 5),
        ("response", None),
        ("annotated_response", ["[INFORM", "]"]),
        ("delex_table", [[1]]),
        ("delex_table", [["__CITY_1__", "city"]]),
        ("delex_table", "__CITY_1__ city parker"),
    ],
)
def test_mistyped_field_reports_line_number(tmp_path, field, value):
    record = synthesize_examples(1, seed=4)[0].to_json()
    good = json.dumps(record)
    record[field] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n" + json.dumps(record) + "\n")
    with pytest.raises(MalformedLine) as err:
        read_corpus(path)
    assert err.value.line_number == 2
    assert field in err.value.reason


def test_line_parser_accepts_a_delex_table():
    record = synthesize_examples(1, seed=4)[0].to_json()
    record["delex_table"] = [["__CITY_1__", "city", "parker"]]
    example = parse_example(json.dumps(record))
    assert example.delex_table == [["__CITY_1__", "city", "parker"]]
    assert example.to_json() == record
