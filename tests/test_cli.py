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


    def test_crashed_worker_is_a_usage_error(self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_decode_one", _crash_worker)
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

    def test_relex_without_tables_is_an_error(self, workdir, tmp_path):
        assert (
            run(
                "relex",
                "--corpus",
                workdir / "corpus" / "test.jsonl",
                "--out",
                tmp_path / "x.jsonl",
            )
            == 2
        )


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
