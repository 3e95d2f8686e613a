"""End-to-end tests for the command-line pipeline."""

import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from treegen import __version__, cli
from treegen.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def one_error_line(capsys) -> str:
    """The run's only stderr line, which must be an ``error:`` line."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def rewrite_line(source, target, number, **fields) -> Path:
    """A copy of a corpus with fields of its line ``number`` (1-based) replaced."""
    lines = Path(source).read_text().splitlines()
    record = json.loads(lines[number - 1])
    record.update(fields)
    lines[number - 1] = json.dumps(record)
    Path(target).write_text("\n".join(lines) + "\n")
    return Path(target)


# a corpus field with a value of the wrong JSON type
MISTYPED_FIELDS = [
    ("mr", 5),
    ("query", None),
    ("response", ["a"]),
    ("annotated_response", 1.5),
    ("context", "sunny"),
    ("delex_table", [[1]]),
    ("delex_table", {"a": "b"}),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """A synthesized corpus with a trained scorer, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run("synthesize", "--n", 200, "--seed", 11, "--out-dir", root / "corpus") == 0
    assert (
        run(
            "train-scorer",
            "--corpus",
            root / "corpus" / "train.jsonl",
            "--out",
            root / "model.json",
        )
        == 0
    )
    return root


class TestSynthesize:
    def test_writes_split_stats_and_manifest(self, tmp_path):
        out = tmp_path / "corpus"
        assert run("synthesize", "--n", 10, "--seed", 3, "--out-dir", out) == 0
        assert len(read_jsonl(out / "train.jsonl")) == 8
        assert len(read_jsonl(out / "test.jsonl")) == 2
        stats = json.loads((out / "stats.json").read_text())
        assert stats["examples"] == 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synthesize"
        assert manifest["seeds"] == {"seed": 3}
        assert manifest["arguments"]["n"] == 10
        assert any(p.endswith("train.jsonl") for p in manifest["outputs"])

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run("synthesize", "--n", 25, "--seed", 9, "--out-dir", tmp_path / name) == 0
        for fname in ("train.jsonl", "test.jsonl", "stats.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_bad_n_is_a_usage_error(self, tmp_path):
        assert run("synthesize", "--n", 0, "--seed", 1, "--out-dir", tmp_path / "x") == 2

    def test_synth_config_file_is_applied(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"ellipsis_probability": 0.0, "horizon_days": 5}))
        out = tmp_path / "corpus"
        assert run(
            "synthesize", "--n", 12, "--seed", 2, "--out-dir", out, "--synth-config", cfg
        ) == 0
        assert len(read_jsonl(out / "train.jsonl")) == 10

    def test_unknown_synth_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"no_such_knob": 1}))
        assert (
            run("synthesize", "--n", 5, "--seed", 2, "--out-dir", tmp_path / "c",
                "--synth-config", cfg)
            == 2
        )


class TestConfigFile:
    def test_flags_override_config_values(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 10, "seed": 4, "out_dir": str(tmp_path / "from_cfg")}))
        assert run("synthesize", "--config", cfg, "--n", 5) == 0
        assert len(read_jsonl(tmp_path / "from_cfg" / "train.jsonl")) == 4

    def test_config_supplies_required_options(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 5, "out-dir": str(tmp_path / "c")}))
        assert run("synthesize", "--config", cfg) == 0
        assert (tmp_path / "c" / "train.jsonl").exists()

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 5, "out_dir": str(tmp_path / "c"), "bogus": 1}))
        assert run("synthesize", "--config", cfg) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_required_option_is_a_usage_error(self, tmp_path, capsys):
        assert run("synthesize", "--n", 5) == 2
        assert "--out-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("decode", {"limit": 1.5}),
            ("decode", {"limit": [1]}),
            ("decode", {"limit": True}),
            ("decode", {"limit": -1}),
            ("decode", {"jobs": 2.0}),
            ("decode", {"beam_size": 2.5}),
            ("decode", {"mode": "bogus"}),
            ("delex", {"number_occurrences": "yes"}),
            ("validate", {"report": True}),
        ],
    )
    def test_mistyped_config_value_is_a_usage_error(
        self, workdir, tmp_path, capsys, monkeypatch, command, config
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", cfg, "--corpus", workdir / "corpus" / "test.jsonl"]
        if command == "decode":
            argv += ["--model", workdir / "model.json"]
        if command != "validate":
            argv += ["--out", tmp_path / "out.jsonl"]
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_config_values_decode_like_the_same_flags(self, workdir, tmp_path):
        test, model = workdir / "corpus" / "test.jsonl", workdir / "model.json"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"beam-size": 3, "limit": 3}))
        by_flags, by_config = tmp_path / "flags.jsonl", tmp_path / "config.jsonl"
        assert run(
            "decode", "--corpus", test, "--model", model, "--out", by_flags,
            "--beam-size", 3, "--limit", 3,
        ) == 0
        assert run(
            "decode", "--config", cfg, "--corpus", test, "--model", model, "--out", by_config
        ) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()
        manifest = json.loads(Path(str(by_config) + ".manifest.json").read_text())
        assert manifest["arguments"]["beam_size"] == 3
        assert manifest["arguments"]["limit"] == 3
        assert type(manifest["arguments"]["limit"]) is int


class TestValidate:
    def test_clean_corpus_passes(self, workdir, capsys):
        assert run("validate", "--corpus", workdir / "corpus" / "train.jsonl") == 0
        out = capsys.readouterr().out
        assert "OK" in out and "0 invalid" in out

    def test_broken_lines_are_reported_with_line_numbers(self, tmp_path, workdir, capsys):
        lines = (workdir / "corpus" / "train.jsonl").read_text().splitlines()
        record = json.loads(lines[4])
        record["annotated_response"] = "[INFORM nothing to see ]"
        lines[4] = json.dumps(record)
        lines[7] = "{ not json"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.json"
        assert run("validate", "--corpus", bad, "--report", report) == 1
        out = capsys.readouterr().out
        assert f"{bad}:5:" in out
        assert f"{bad}:8:" in out
        assert "2 invalid" in out
        data = json.loads(report.read_text())
        assert [f["line"] for f in data["failures"]] == [5, 8]
        assert data["checked"] == len(lines)

    def test_missing_file_is_a_usage_error(self, tmp_path):
        assert run("validate", "--corpus", tmp_path / "absent.jsonl") == 2

    def test_lines_are_numbered_as_read_corpus_numbers_them(self, workdir, tmp_path, capsys):
        # a raw U+2028 inside a JSON string is no line break
        lines = (workdir / "corpus" / "test.jsonl").read_text().splitlines()[:3]
        record = json.loads(lines[1])
        record["query"] += "\u2028"
        lines[1] = json.dumps(record, ensure_ascii=False)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("validate", "--corpus", corpus) == 0
        assert "OK: 3 examples checked, 0 invalid" in capsys.readouterr().out
        assert run("delex", "--corpus", corpus, "--out", tmp_path / "delexed.jsonl") == 0

    @pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
    def test_mistyped_field_is_reported(self, workdir, tmp_path, capsys, field, value):
        bad = rewrite_line(workdir / "corpus" / "test.jsonl", tmp_path / "bad.jsonl", 3,
                           **{field: value})
        assert run("validate", "--corpus", bad) == 1
        out = capsys.readouterr().out
        assert f"{bad}:3: " in out and "1 invalid" in out


class TestDecodePipeline:
    def test_constrained_decode_then_evaluate(self, workdir, tmp_path):
        preds = tmp_path / "preds.jsonl"
        assert (
            run(
                "decode",
                "--corpus",
                workdir / "corpus" / "test.jsonl",
                "--model",
                workdir / "model.json",
                "--out",
                preds,
                "--beam-size",
                5,
            )
            == 0
        )
        records = read_jsonl(preds)
        assert len(records) == 40
        assert [r["index"] for r in records] == list(range(40))
        assert all(r["failure"] is None for r in records)
        assert all(r["tree_valid"] for r in records)
        report = tmp_path / "report.json"
        assert (
            run(
                "evaluate",
                "--predictions",
                preds,
                "--corpus",
                workdir / "corpus" / "test.jsonl",
                "--out",
                report,
            )
            == 0
        )
        data = json.loads(report.read_text())
        assert data["tree_accuracy"] == 1.0
        assert data["examples_evaluated"] == 40
        assert 0.0 <= data["bleu4"] <= 1.0
        assert len(data["per_example"]) == 40
        assert (report.parent / (report.name + ".manifest.json")).exists()

    def test_parallel_decode_matches_serial(self, workdir, tmp_path):
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"preds-{jobs}.jsonl"
            assert (
                run(
                    "decode",
                    "--corpus",
                    workdir / "corpus" / "test.jsonl",
                    "--model",
                    workdir / "model.json",
                    "--out",
                    out,
                    "--beam-size",
                    5,
                    "--jobs",
                    jobs,
                    "--limit",
                    12,
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unconstrained_scores_below_constrained(self, workdir, tmp_path):
        accuracies = {}
        for mode in ("constrained", "unconstrained"):
            preds = tmp_path / f"{mode}.jsonl"
            code = run(
                "decode",
                "--corpus",
                workdir / "corpus" / "test.jsonl",
                "--model",
                workdir / "model.json",
                "--out",
                preds,
                "--mode",
                mode,
                "--beam-size",
                5,
            )
            assert code in (0, 1)
            report = tmp_path / f"{mode}-report.json"
            assert (
                run(
                    "evaluate",
                    "--predictions",
                    preds,
                    "--corpus",
                    workdir / "corpus" / "test.jsonl",
                    "--out",
                    report,
                )
                == 0
            )
            accuracies[mode] = json.loads(report.read_text())["tree_accuracy"]
        assert accuracies["constrained"] > accuracies["unconstrained"]

    def test_impossible_budget_fails_with_exit_one(self, workdir, tmp_path):
        preds = tmp_path / "doomed.jsonl"
        assert (
            run(
                "decode",
                "--corpus",
                workdir / "corpus" / "test.jsonl",
                "--model",
                workdir / "model.json",
                "--out",
                preds,
                "--max-length",
                4,
                "--limit",
                5,
            )
            == 1
        )
        records = read_jsonl(preds)
        assert all(r["failure"] for r in records)
        assert all(r["score"] is None for r in records)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("model", ["absent", "hollow"])
    def test_unloadable_model_is_a_usage_error(self, workdir, tmp_path, capsys, jobs, model):
        path = tmp_path / f"{model}.json"
        if model == "hollow":
            path.write_text(json.dumps({"format": "treegen-ngram", "version": 1}))
        code = run(
            "decode", "--corpus", workdir / "corpus" / "test.jsonl", "--model", path,
            "--out", tmp_path / "preds.jsonl", "--jobs", jobs, "--limit", 4,
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize(
        "model, message",
        [
            ("array", "cannot load model {path}: {path}: model file is not a JSON object"),
            ("bad-levels", "cannot load model {path}: global: 'levels' must be a list"),
            ("directory", "cannot read {path}: "),
            ("latin1", "cannot read {path}: "),
        ],
    )
    def test_malformed_or_unreadable_model_is_one_error_line(
        self, workdir, tmp_path, capsys, model, message
    ):
        path = tmp_path / f"{model}.json"
        if model == "array":
            path.write_text("[]")
        elif model == "bad-levels":
            payload = json.loads((workdir / "model.json").read_text())
            payload["global"] = {"levels": 5}
            path.write_text(json.dumps(payload))
        elif model == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"format": "caf\xe9"}')
        code = run(
            "decode", "--corpus", workdir / "corpus" / "test.jsonl", "--model", path,
            "--out", tmp_path / "preds.jsonl", "--limit", 4,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: " + message.format(path=path))
        assert not (tmp_path / "preds.jsonl").exists()


    def test_crashed_worker_is_a_usage_error(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_decode_one", _crash_worker)
        # two workers even on one core: the crash must happen in a child
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code = run(
            "decode", "--corpus", workdir / "corpus" / "test.jsonl",
            "--model", workdir / "model.json", "--out", tmp_path / "preds.jsonl",
            "--jobs", 2, "--limit", 4,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "preds.jsonl").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--limit", -1, "--limit must be >= 0, got -1"),
            ("--jobs", 0, "--jobs must be >= 1, got 0"),
            ("--jobs", -3, "--jobs must be >= 1, got -3"),
            ("--length-penalty", "nan", "--length-penalty must be finite, got nan"),
            ("--length-penalty", "inf", "--length-penalty must be finite, got inf"),
            ("--beam-size", 0, "--beam-size must be >= 1, got 0"),
            ("--max-length", 1, "--max-length must be >= 2, got 1"),
        ],
    )
    def test_out_of_range_option_is_a_usage_error(
        self, workdir, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        # refused before the corpus is read or the model loaded
        reads = []
        monkeypatch.setattr(cli, "read_corpus", lambda *a, **k: reads.append(a))
        monkeypatch.setattr(cli.NGramModel, "load", lambda *a, **k: reads.append(a))
        code = run(
            "decode", "--corpus", workdir / "corpus" / "test.jsonl",
            "--model", workdir / "model.json", "--out", tmp_path / "preds.jsonl",
            "--limit", 3, flag, value,
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert not (tmp_path / "preds.jsonl").exists()
        assert reads == []


# the commands that write one file
FILE_OUTPUT_COMMANDS = ["decode", "delex", "evaluate", "relex", "train-scorer", "validate"]


def file_output(command, corpus, model, preds) -> tuple[str, list]:
    """The command's file output option, and the other options it needs."""
    if command == "decode":
        return "out", ["--corpus", corpus, "--model", model, "--limit", 1]
    if command == "evaluate":
        return "out", ["--predictions", preds, "--corpus", corpus]
    return ("report" if command == "validate" else "out"), ["--corpus", corpus]


class TestOutputs:
    def refused(self, workdir, tmp_path, capsys, monkeypatch, command, target, message):
        """Both as a flag and through --config, the output is refused before any work."""
        calls = []
        for name in ("read_corpus", "numbered_lines"):
            monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"index": 0, "tokens": [], "failure": "x"}) + "\n")
        option, argv = file_output(
            command, workdir / "corpus" / "test.jsonl", workdir / "model.json", preds
        )
        out = tmp_path / target
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({option: str(out)}))
        before = sorted(tmp_path.rglob("*"))
        for given in ([f"--{option}", out], ["--config", cfg]):
            assert run(command, *argv, *given) == 2
            assert f"cannot write {out}: {message}" in one_error_line(capsys)
            assert calls == []
            assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", FILE_OUTPUT_COMMANDS)
    def test_output_in_a_missing_directory_is_a_usage_error(
        self, workdir, tmp_path, capsys, monkeypatch, command
    ):
        self.refused(
            workdir, tmp_path, capsys, monkeypatch, command,
            "missing/out.json", "No such file or directory",
        )

    @pytest.mark.parametrize("command", FILE_OUTPUT_COMMANDS)
    def test_output_under_a_plain_file_is_a_usage_error(
        self, workdir, tmp_path, capsys, monkeypatch, command
    ):
        (tmp_path / "plain").write_text("")
        self.refused(
            workdir, tmp_path, capsys, monkeypatch, command, "plain/out.json", "Not a directory"
        )

    @pytest.mark.parametrize("command", FILE_OUTPUT_COMMANDS)
    def test_output_that_is_a_directory_is_a_usage_error(
        self, workdir, tmp_path, capsys, monkeypatch, command
    ):
        (tmp_path / "folder").mkdir()
        self.refused(workdir, tmp_path, capsys, monkeypatch, command, "folder", "Is a directory")

    def test_synthesize_creates_its_output_directory(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert run("synthesize", "--n", 5, "--seed", 1, "--out-dir", out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "stats.json", "test.jsonl", "train.jsonl"
        ]


# bytes that are not UTF-8: a Latin-1 "é"
NOT_UTF8 = "café".encode("latin-1")


class TestUnreadableInputs:
    @pytest.mark.parametrize("command", FILE_OUTPUT_COMMANDS)
    def test_non_utf8_corpus(self, workdir, tmp_path, capsys, command):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes((workdir / "corpus" / "test.jsonl").read_bytes() + NOT_UTF8)
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"index": 0, "tokens": [], "failure": "x"}) + "\n")
        option, argv = file_output(command, corpus, workdir / "model.json", preds)
        assert run(command, *argv, f"--{option}", tmp_path / "out") == 2
        assert one_error_line(capsys).startswith(f"error: cannot read {corpus}: ")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_predictions(self, workdir, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_bytes(b'{"index": 0, "tokens": ["' + NOT_UTF8 + b'"], "failure": null}\n')
        out = tmp_path / "report.json"
        code = run(
            "evaluate", "--predictions", preds, "--corpus", workdir / "corpus" / "test.jsonl",
            "--out", out,
        )
        assert code == 2
        assert one_error_line(capsys).startswith(f"error: cannot read {preds}: ")
        assert not out.exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b'{"n": 5, "out-dir": "' + NOT_UTF8 + b'"}')
        assert run("synthesize", "--config", cfg) == 2
        assert one_error_line(capsys).startswith(f"error: cannot read {cfg}: ")
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_non_utf8_synth_config(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_bytes(b'{"horizon_days": "' + NOT_UTF8 + b'"}')
        out = tmp_path / "corpus"
        code = run("synthesize", "--n", 5, "--out-dir", out, "--synth-config", cfg)
        assert code == 2
        assert one_error_line(capsys).startswith(f"error: cannot read {cfg}: ")
        assert not out.exists()


class FakePool:
    """An in-process stand-in for ProcessPoolExecutor; it starts no process."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        FakePool.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestDecodeJobs:
    @pytest.mark.parametrize("cores, workers", [(2, [2]), (4, [4]), (None, []), (1, [])])
    def test_workers_are_capped_at_the_core_count(
        self, workdir, tmp_path, monkeypatch, cores, workers
    ):
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        out = tmp_path / "preds.jsonl"
        code = run(
            "decode", "--corpus", workdir / "corpus" / "test.jsonl",
            "--model", workdir / "model.json", "--out", out,
            "--jobs", 100000, "--limit", 3,
        )
        assert code in (0, 1)
        # one core, or an unknown count, decodes in this process
        assert FakePool.sizes == workers
        assert len(read_jsonl(out)) == 3


class TestOutputsFailFast:
    def test_decode_does_no_work(self, workdir, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_decode_one", calls.append)
        out = tmp_path / "missing" / "preds.jsonl"
        code = run(
            "decode", "--corpus", workdir / "corpus" / "test.jsonl",
            "--model", workdir / "model.json", "--out", out, "--limit", 2,
        )
        assert code == 2
        assert "No such file or directory" in one_error_line(capsys)
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_train_scorer_does_no_work(self, workdir, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "train_ngram", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "read_corpus", lambda *a, **k: calls.append(a))
        plain = tmp_path / "plain"
        plain.write_text("")
        for out in (tmp_path / "missing" / "model.json", plain / "model.json"):
            corpus = workdir / "corpus" / "train.jsonl"
            code = run("train-scorer", "--corpus", corpus, "--out", out)
            assert code == 2
            assert str(out) in one_error_line(capsys)
        assert calls == []
        assert list(tmp_path.iterdir()) == [plain]


class TestEvaluate:
    @pytest.mark.parametrize("failure", [False, 0, "", [], 1.5])
    def test_failure_field_must_be_null_or_a_reason(
        self, workdir, tmp_path, capsys, failure
    ):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"index": 0, "tokens": ["a"], "failure": None}) + "\n"
            + json.dumps({"index": 3, "tokens": ["a"], "failure": failure}) + "\n"
        )
        out = tmp_path / "report.json"
        code = run(
            "evaluate", "--predictions", preds, "--corpus", workdir / "corpus" / "test.jsonl",
            "--out", out,
        )
        assert code == 2
        line = one_error_line(capsys)
        assert str(preds) in line and "example 3" in line and json.dumps(failure) in line
        assert not out.exists()

    def test_failure_reason_counts_as_a_decode_failure(self, workdir, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"index": 0, "tokens": ["a"], "failure": None}) + "\n"
            + json.dumps({"index": 1, "tokens": [], "failure": "no hypothesis"}) + "\n"
        )
        out = tmp_path / "report.json"
        code = run(
            "evaluate", "--predictions", preds, "--corpus", workdir / "corpus" / "test.jsonl",
            "--out", out,
        )
        assert code == 0
        assert "over 1 examples (1 decode failures)" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert [e["failure"] for e in report["per_example"]] == [None, "no hypothesis"]

    def test_tokens_after_eos_are_not_tree_valid(self, workdir, tmp_path, capsys):
        corpus = workdir / "corpus" / "test.jsonl"
        responses = [r["annotated_response"].split() for r in read_jsonl(corpus)[:4]]
        tails = [[], ["</s>", "extra", "words"], ["</s>", "</s>"], ["</s>"]]
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            "".join(
                json.dumps({"index": i, "tokens": tokens + tail, "failure": None}) + "\n"
                for i, (tokens, tail) in enumerate(zip(responses, tails))
            )
        )
        out = tmp_path / "report.json"
        code = run("evaluate", "--predictions", preds, "--corpus", corpus, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        # one trailing EOS is accepted; anything after it is not
        assert [e["tree_valid"] for e in report["per_example"]] == [True, False, False, True]

    @pytest.mark.parametrize(
        "record, named",
        [
            ({"index": 0, "tokens": [1, 2], "failure": None}, "example 0"),
            ({"index": 1, "tokens": ["[INFORM", None, "]"], "failure": None}, "example 1"),
            ({"index": True, "tokens": ["a"], "failure": None}, "index True"),
            ({"index": 1.0, "tokens": ["a"], "failure": None}, "index 1.0"),
        ],
    )
    def test_bad_prediction_record_is_a_usage_error(
        self, workdir, tmp_path, capsys, record, named
    ):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps(record) + "\n")
        out = tmp_path / "report.json"
        code = run(
            "evaluate", "--predictions", preds, "--corpus", workdir / "corpus" / "test.jsonl",
            "--out", out,
        )
        assert code == 2
        line = one_error_line(capsys)
        assert str(preds) in line and named in line
        assert not out.exists()


def _crash_worker(item):
    """Stands in for the pool's per-MR function: the worker dies at once."""
    os._exit(1)


class TestDelexRelex:
    def test_roundtrip_restores_every_example(self, workdir, tmp_path):
        source = workdir / "corpus" / "test.jsonl"
        delexed = tmp_path / "delexed.jsonl"
        restored = tmp_path / "restored.jsonl"
        assert run("delex", "--corpus", source, "--out", delexed) == 0
        placeholderful = read_jsonl(delexed)
        assert all(e["delex_table"] is not None for e in placeholderful)
        assert any("__CITY_1__" in e["mr"] for e in placeholderful)
        assert run("relex", "--corpus", delexed, "--out", restored) == 0
        before = read_jsonl(source)
        after = read_jsonl(restored)
        assert len(before) == len(after)
        for b, a in zip(before, after):
            assert a["mr"] == b["mr"]
            assert a["annotated_response"] == b["annotated_response"]

    @pytest.mark.parametrize("command", ["delex", "relex", "train-scorer"])
    @pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
    def test_mistyped_field_is_a_usage_error(
        self, workdir, tmp_path, capsys, command, field, value
    ):
        bad = rewrite_line(workdir / "corpus" / "test.jsonl", tmp_path / "bad.jsonl", 3,
                           **{field: value})
        out = tmp_path / "out.jsonl"
        assert run(command, "--corpus", bad, "--out", out) == 2
        assert one_error_line(capsys).startswith(f"error: {bad}:3: ")
        assert not out.exists()

    def test_line_number_is_printed_once(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        lines = (workdir / "corpus" / "test.jsonl").read_text().splitlines()
        bad.write_text("\n".join(lines[:7] + ["{ not json"]) + "\n")
        assert run("delex", "--corpus", bad, "--out", tmp_path / "x.jsonl") == 2
        line = one_error_line(capsys)
        assert line.startswith(f"error: {bad}:8: invalid JSON (")
        assert "line 8" not in line

    @pytest.mark.parametrize(
        "table",
        [
            [["__CITY_1__", "city", "a"], ["__CITY_1__", "city", "b"]],
            [],
        ],
        ids=["duplicate-placeholder", "placeholder-not-in-table"],
    )
    def test_table_that_does_not_fit_is_a_usage_error(self, workdir, tmp_path, capsys, table):
        delexed = tmp_path / "delexed.jsonl"
        assert run("delex", "--corpus", workdir / "corpus" / "test.jsonl", "--out", delexed) == 0
        number = next(
            n for n, r in enumerate(read_jsonl(delexed), 1) if "__CITY_1__" in r["mr"]
        )
        bad = rewrite_line(delexed, tmp_path / "bad.jsonl", number, delex_table=table)
        capsys.readouterr()
        out = tmp_path / "out.jsonl"
        assert run("relex", "--corpus", bad, "--out", out) == 2
        assert one_error_line(capsys).startswith(f"error: {bad}:{number}: ")
        assert not out.exists()

    def test_relex_without_tables_is_an_error(self, workdir, tmp_path, capsys):
        corpus = workdir / "corpus" / "test.jsonl"
        assert run("relex", "--corpus", corpus, "--out", tmp_path / "x.jsonl") == 2
        assert one_error_line(capsys) == f"error: {corpus}:1: no delex table"


class TestBadTreeNamesItsLine:
    """An MR that does not parse is reported at its file line, blank lines counted."""

    def corpus(self, workdir, tmp_path) -> Path:
        lines = (workdir / "corpus" / "test.jsonl").read_text().splitlines()
        bad = json.loads(lines[1])
        bad["mr"] = "[INFORM [temp 20 ]"
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([lines[0], "", json.dumps(bad)]) + "\n")
        return path

    @pytest.mark.parametrize("command", ["train-scorer", "decode", "evaluate", "delex"])
    def test_error_names_path_and_line(self, workdir, tmp_path, capsys, command):
        corpus = self.corpus(workdir, tmp_path)
        out = tmp_path / "out"
        argv = [command, "--corpus", corpus, "--out", out]
        if command == "decode":
            argv += ["--model", workdir / "model.json"]
        if command == "evaluate":
            preds = tmp_path / "preds.jsonl"
            preds.write_text(
                "".join(
                    json.dumps({"index": i, "tokens": ["a"], "failure": None}) + "\n"
                    for i in (0, 1)
                )
            )
            argv += ["--predictions", preds]
        assert run(*argv) == 2
        line = one_error_line(capsys)
        assert line == f"error: {corpus}:3: bad MR: 1 node(s) never closed"
        assert not out.exists()


MANIFEST_KEYS = {
    "command",
    "arguments",
    "seeds",
    "inputs",
    "outputs",
    "tool_version",
    "started_at",
    "elapsed_seconds",
}


@pytest.fixture(scope="module")
def manifest_runs(workdir, tmp_path_factory) -> dict:
    """Every subcommand run once: command -> (manifest, inputs, outputs, seeds).

    synthesize and train-scorer are the runs that built ``workdir``.
    """
    root = tmp_path_factory.mktemp("manifests")
    corpus = workdir / "corpus"
    test, model = corpus / "test.jsonl", workdir / "model.json"
    preds, report = root / "preds.jsonl", root / "report.json"
    evaluation, delexed, relexed = root / "eval.json", root / "delex.jsonl", root / "relex.jsonl"
    assert run("validate", "--corpus", test, "--report", report) == 0
    assert run(
        "decode", "--corpus", test, "--model", model, "--out", preds,
        "--beam-size", 3, "--limit", 3,
    ) == 0
    assert run("evaluate", "--predictions", preds, "--corpus", test, "--out", evaluation) == 0
    assert run("delex", "--corpus", test, "--out", delexed) == 0
    assert run("relex", "--corpus", delexed, "--out", relexed) == 0

    def beside(out, inputs):
        return Path(str(out) + ".manifest.json"), inputs, [out], {}

    return {
        "synthesize": (
            corpus / "manifest.json",
            [],
            [corpus / "train.jsonl", test, corpus / "stats.json"],
            {"seed": 11},
        ),
        "validate": beside(report, [test]),
        "train-scorer": beside(model, [corpus / "train.jsonl"]),
        "decode": beside(preds, [test, model]),
        "evaluate": beside(evaluation, [preds, test]),
        "delex": beside(delexed, [test]),
        "relex": beside(relexed, [delexed]),
    }


class TestManifests:
    @pytest.mark.parametrize(
        "command",
        ["synthesize", "validate", "train-scorer", "decode", "evaluate", "delex", "relex"],
    )
    def test_each_subcommand_writes_its_manifest(self, manifest_runs, command):
        path, inputs, outputs, seeds = manifest_runs[command]
        manifest = json.loads(path.read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == command
        assert manifest["seeds"] == seeds
        assert [Path(p) for p in manifest["inputs"]] == inputs
        assert [Path(p) for p in manifest["outputs"]] == outputs
        assert manifest["tool_version"] == __version__
        datetime.fromisoformat(manifest["started_at"])
        assert manifest["elapsed_seconds"] >= 0
        assert manifest["arguments"]["ontology"] == "weather"

    def test_validate_without_report_writes_no_manifest(self, workdir, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes((workdir / "corpus" / "test.jsonl").read_bytes())
        monkeypatch.chdir(tmp_path)
        assert run("validate", "--corpus", corpus) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


class TestConsoleScript:
    def test_version_runs_from_the_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "treegen", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "treegen" in proc.stdout
