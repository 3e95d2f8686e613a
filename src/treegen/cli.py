"""Command-line interface for the corpus and decoding pipeline.

Every subcommand accepts ``--config FILE``, a JSON object whose keys are
the subcommand's long option names.  Its values become flags placed
before the explicit ones, so one parse checks both and explicit flags
beat config values, which beat built-in defaults.

Exit codes: 0 on success, 1 when a run completes but found validation or
decoding failures, 2 on usage, configuration, input or output errors, each
printed as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .beam import DecodeConfig, DecodeMode, DecodingFailed, decode
from .constraints import first_rejection
from .corpus import CorpusExample, MalformedLine, numbered_lines, parse_example, read_corpus
from .corpus import write_corpus, write_json, write_jsonl
from .delex import DelexTable, UnknownPlaceholder, delexicalize_example, relexicalize
from .metrics import EvalReport, bleu4, diversity, tree_accuracy
from .ontology import Ontology, UnknownLabel, restaurant_ontology, weather_ontology
from .scorers import NGramModel, train_ngram
from .trees import MrTree, TreeError, parse_linearized, parse_mr, to_string
from .weather import SynthConfig, synthesize_corpus


class CliError(Exception):
    """Fatal usage or configuration problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise CliError, not SystemExit."""

    def error(self, message):
        raise CliError(message)


_ONTOLOGIES = {"weather": weather_ontology, "restaurant": restaurant_ontology}


def _read(path, load):
    """``load(path)``; an unreadable or non-UTF-8 file or a bad corpus line is a CliError."""
    try:
        return load(path)
    except MalformedLine as exc:
        raise CliError(f"{path}:{exc.line_number}: {exc.reason}")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _mr_at(path, example: CorpusExample, ontology: Ontology) -> MrTree:
    """The example's MR; one that does not parse is a CliError at its file line."""
    try:
        return example.mr_tree(ontology)
    except (TreeError, UnknownLabel) as exc:
        raise CliError(f"{path}:{example.line}: bad MR: {exc}")


def _text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_predictions(path) -> list[dict]:
    records = []
    for line_number, line in _read(path, numbered_lines):
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}:{line_number}: bad JSON: {exc.msg}")
        if not isinstance(data, dict):
            raise CliError(f"{path}:{line_number}: expected a JSON object")
        records.append(data)
    return records


def _out_file(value: str) -> str:
    """Argparse type of every file output: not a directory, inside an existing one."""
    path = Path(value)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return value
    raise argparse.ArgumentTypeError(f"cannot write {value}: {os.strerror(code)}")


def _surface(tokens) -> list[str]:
    return [t for t in tokens if t != "]" and not t.startswith("[")]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclasses.dataclass(frozen=True)
class Manifest:
    """Where a run's manifest goes, and the files and seeds it records."""

    path: Path
    inputs: list
    outputs: list
    seeds: dict


def _manifest_beside(out, inputs) -> Manifest:
    """The manifest of a run with one output file: ``<out>.manifest.json``."""
    return Manifest(Path(str(out) + ".manifest.json"), inputs, [out], {})


def _write_manifest(
    manifest: Manifest, args: argparse.Namespace, started_at: str, t0: float
) -> None:
    arguments = {k: v for k, v in vars(args).items() if k != "func"}
    record = {
        "command": args.command,
        "arguments": arguments,
        "seeds": manifest.seeds,
        "inputs": [str(p) for p in manifest.inputs],
        "outputs": [str(p) for p in manifest.outputs],
        "tool_version": __version__,
        "started_at": started_at,
        "elapsed_seconds": round(time.monotonic() - t0, 3),
    }
    write_json(manifest.path, record)


# -- synthesize -------------------------------------------------------------


def _cmd_synthesize(args: argparse.Namespace) -> tuple[int, Manifest]:
    config = None
    inputs = []
    if args.synth_config is not None:
        inputs.append(args.synth_config)
        try:
            config = SynthConfig.from_json(json.loads(_read(args.synth_config, _text)))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise CliError(f"bad synth config {args.synth_config}: {exc}")
    try:
        result = synthesize_corpus(
            args.n,
            args.seed,
            args.out_dir,
            train_fraction=args.train_fraction,
            config=config,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    stats = result["stats"]
    print(f"wrote {stats['train_examples']} train / {stats['test_examples']} test examples")
    for key in ("train_path", "test_path", "stats_path"):
        print(f"  {key.removesuffix('_path')}: {result[key]}")
    return 0, Manifest(
        Path(args.out_dir) / "manifest.json",
        inputs,
        [result["train_path"], result["test_path"], result["stats_path"]],
        {"seed": args.seed},
    )


# -- validate ---------------------------------------------------------------


def _validate_line(line: str, ontology: Ontology) -> str | None:
    try:
        example = parse_example(line)
    except ValueError as exc:
        return str(exc)
    try:
        mr = parse_mr(example.mr, ontology)
    except (TreeError, UnknownLabel) as exc:
        return f"bad MR: {exc}"
    try:
        parse_linearized(example.annotated_response, ontology)
    except (TreeError, UnknownLabel) as exc:
        return f"bad annotated response: {exc}"
    pos = first_rejection(mr, example.annotated_response.split())
    if pos is not None:
        return f"annotated response does not realize the MR (first rejected token at {pos})"
    return None


def _cmd_validate(args: argparse.Namespace) -> tuple[int, Manifest | None]:
    ontology = _ONTOLOGIES[args.ontology]()
    lines = _read(args.corpus, numbered_lines)
    failures: list[dict] = []
    for line_number, line in lines:
        reason = _validate_line(line, ontology)
        if reason is not None:
            failures.append({"line": line_number, "reason": reason})
    for failure in failures:
        print(f"{args.corpus}:{failure['line']}: {failure['reason']}")
    status = "FAIL" if failures else "OK"
    print(f"{status}: {len(lines)} examples checked, {len(failures)} invalid")
    code = 1 if failures else 0
    if args.report is None:
        return code, None
    report = {"corpus": str(args.corpus), "checked": len(lines), "failures": failures}
    write_json(args.report, report)
    return code, _manifest_beside(args.report, [args.corpus])


# -- train-scorer -----------------------------------------------------------


def _cmd_train_scorer(args: argparse.Namespace) -> tuple[int, Manifest]:
    ontology = _ONTOLOGIES[args.ontology]()
    examples = _read(args.corpus, read_corpus)
    pairs = [
        (_mr_at(args.corpus, ex, ontology), ex.annotated_response.split()) for ex in examples
    ]
    try:
        model = train_ngram(
            pairs,
            order=args.order,
            discount=args.discount,
            min_signature_examples=args.min_signature_examples,
        )
    except (TreeError, UnknownLabel, ValueError) as exc:
        raise CliError(f"training failed: {exc}")
    model.save(args.out)
    print(
        f"trained order-{model.order} model on {len(examples)} examples "
        f"(vocabulary {len(model.vocabulary)} tokens): {args.out}"
    )
    return 0, _manifest_beside(args.out, [args.corpus])


# -- decode -----------------------------------------------------------------

# Per-process state for decoding: the parent loads it once, and _decode_init
# installs it in the parent and in each pool worker.
_WORKER: dict = {}


def _decode_init(state: dict) -> None:
    _WORKER.update(state)


def _decode_one(item: tuple[int, MrTree]) -> dict:
    index, mr = item
    record = {"index": index, "score": None, "tree_valid": False, "failure": None}
    try:
        best = decode(mr, _WORKER["model"], _WORKER["config"]).candidates[0]
    except DecodingFailed as exc:
        # the best unfinished hypothesis, never counted as valid
        return record | {"tokens": list(exc.partial.tokens), "failure": exc.reason}
    return record | {
        "tokens": list(best.tokens), "score": best.score, "tree_valid": best.tree_valid
    }


def _cmd_decode(args: argparse.Namespace) -> tuple[int, Manifest]:
    if args.limit is not None and args.limit < 0:
        raise CliError(f"--limit must be >= 0, got {args.limit}")
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    # DecodeConfig checks these too, but its messages name fields, not flags
    if args.beam_size < 1:
        raise CliError(f"--beam-size must be >= 1, got {args.beam_size}")
    if args.max_length is not None and args.max_length < 2:
        raise CliError(f"--max-length must be >= 2, got {args.max_length}")
    if not math.isfinite(args.length_penalty):
        raise CliError(f"--length-penalty must be finite, got {args.length_penalty}")
    config = DecodeConfig(
        beam_size=args.beam_size,
        max_length=args.max_length,
        mode=DecodeMode(args.mode),
        length_penalty=args.length_penalty,
    )
    # more workers than cores only adds processes
    workers = min(args.jobs, os.cpu_count() or 1)
    examples = _read(args.corpus, read_corpus)
    if args.limit is not None:
        examples = examples[: args.limit]
    ontology = _ONTOLOGIES[args.ontology]()
    items = [(i, _mr_at(args.corpus, ex, ontology)) for i, ex in enumerate(examples)]
    try:
        model = _read(args.model, NGramModel.load)
    except ValueError as exc:
        raise CliError(f"cannot load model {args.model}: {exc}")
    state = {"model": model, "config": config}
    _decode_init(state)
    try:
        if workers > 1 and len(items) > 1:
            chunk = max(1, len(items) // (workers * 4))
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_decode_init, initargs=(state,)
            ) as pool:
                records = list(pool.map(_decode_one, items, chunksize=chunk))
        else:
            records = [_decode_one(item) for item in items]
    except (OSError, ValueError, BrokenProcessPool) as exc:
        raise CliError(f"decoding failed: {exc}")
    write_jsonl(args.out, records)
    failed = sum(1 for r in records if r["failure"] is not None)
    print(
        f"decoded {len(records)} examples in {args.mode} mode, "
        f"{failed} failures: {args.out}"
    )
    return (1 if failed else 0), _manifest_beside(args.out, [args.corpus, args.model])


# -- evaluate ---------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> tuple[int, Manifest]:
    ontology = _ONTOLOGIES[args.ontology]()
    examples = _read(args.corpus, read_corpus)
    records = _read_predictions(args.predictions)
    seen: set[int] = set()
    pairs = []
    hypotheses = []
    references = []
    per_example = []
    failed = 0
    for record in records:
        index = record.get("index")
        if type(index) is not int or not 0 <= index < len(examples):
            raise CliError(f"{args.predictions}: bad example index {index!r}")
        if index in seen:
            raise CliError(f"{args.predictions}: duplicate example index {index}")
        seen.add(index)
        failure = record.get("failure")
        if failure is not None:
            if type(failure) is not str or not failure:
                raise CliError(
                    f"{args.predictions}: example {index} has failure "
                    f"{json.dumps(failure)}, not null or a non-empty string"
                )
            failed += 1
            per_example.append(
                {"index": index, "tree_valid": False, "failure": failure}
            )
            continue
        tokens = record.get("tokens")
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CliError(
                f"{args.predictions}: example {index} has no list of string tokens"
            )
        example = examples[index]
        pairs.append((index, _mr_at(args.corpus, example, ontology), tokens))
        hypotheses.append(_surface(tokens))
        references.append([example.response.split()])
    if pairs:
        accuracy, flags = tree_accuracy((mr, tokens) for _, mr, tokens in pairs)
        surface_bleu = bleu4(hypotheses, references)
    else:
        accuracy, flags, surface_bleu = 0.0, [], 0.0
    spread = diversity(hypotheses)
    for (index, _, _), ok in zip(pairs, flags):
        per_example.append({"index": index, "tree_valid": ok, "failure": None})
    per_example.sort(key=lambda entry: entry["index"])
    report = EvalReport(
        tree_accuracy=accuracy,
        bleu4=surface_bleu,
        diversity=spread,
        examples_evaluated=len(pairs),
        per_example=per_example,
    )
    write_json(args.out, report.to_json())
    print(f"tree accuracy {accuracy:.4f} over {len(pairs)} examples ({failed} decode failures)")
    print(f"surface BLEU-4 {surface_bleu:.4f}")
    print(
        f"diversity: {spread.unique_tokens} tokens, {spread.unique_trigrams} trigrams, "
        f"{spread.shannon_entropy_bits:.2f} bits"
    )
    return 0, _manifest_beside(args.out, [args.predictions, args.corpus])


# -- delex / relex ----------------------------------------------------------


def _cmd_delex(args: argparse.Namespace) -> tuple[int, Manifest]:
    ontology = _ONTOLOGIES[args.ontology]()
    examples = _read(args.corpus, read_corpus)
    rewritten = []
    for example in examples:
        mr = _mr_at(args.corpus, example, ontology)
        try:
            mr_out, annotated_out, table = delexicalize_example(
                mr,
                example.annotated_tree(ontology),
                ontology,
                number_occurrences=args.number_occurrences,
            )
        except (TreeError, UnknownLabel, ValueError) as exc:
            raise CliError(f"{args.corpus}:{example.line}: {exc}")
        annotated_text = to_string(annotated_out)
        rewritten.append(
            dataclasses.replace(
                example,
                mr=to_string(mr_out),
                response=" ".join(_surface(annotated_text.split())),
                annotated_response=annotated_text,
                delex_table=table.to_json(),
            )
        )
    write_corpus(args.out, rewritten)
    print(f"delexicalized {len(rewritten)} examples: {args.out}")
    return 0, _manifest_beside(args.out, [args.corpus])


def _cmd_relex(args: argparse.Namespace) -> tuple[int, Manifest]:
    examples = _read(args.corpus, read_corpus)
    restored = []
    for example in examples:
        if example.delex_table is None:
            raise CliError(f"{args.corpus}:{example.line}: no delex table")
        try:
            table = DelexTable.from_json(example.delex_table)
            mr_tokens = relexicalize(example.mr, table)
            annotated_tokens = relexicalize(example.annotated_response, table)
        except (UnknownPlaceholder, ValueError) as exc:
            raise CliError(f"{args.corpus}:{example.line}: {exc}")
        restored.append(
            dataclasses.replace(
                example,
                mr=" ".join(mr_tokens),
                response=" ".join(_surface(annotated_tokens)),
                annotated_response=" ".join(annotated_tokens),
                delex_table=None,
            )
        )
    write_corpus(args.out, restored)
    print(f"relexicalized {len(restored)} examples: {args.out}")
    return 0, _manifest_beside(args.out, [args.corpus])


# -- parser wiring ----------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--config",
        default=None,
        help="JSON file of long option names to values; flags override it",
    )
    sub.add_argument(
        "--ontology",
        default="weather",
        choices=sorted(_ONTOLOGIES),
        help="domain ontology (default: weather)",
    )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="treegen",
        description="Synthesize, validate, and decode tree-structured NLG corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    sub = subparsers.add_parser("synthesize", help="generate a synthetic weather corpus")
    sub.add_argument("--n", type=int, required=True, help="number of examples to generate")
    sub.add_argument("--seed", type=int, default=0, help="corpus seed (default: 0)")
    sub.add_argument("--out-dir", required=True, help="directory for train/test/stats files")
    sub.add_argument(
        "--train-fraction",
        type=float,
        default=0.8,
        help="fraction of examples in the train split (default: 0.8)",
    )
    sub.add_argument(
        "--synth-config", default=None, help="JSON file of generator settings"
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_synthesize)
    registry["synthesize"] = sub

    sub = subparsers.add_parser("validate", help="check a corpus file line by line")
    sub.add_argument("--corpus", required=True, help="corpus file (JSON lines)")
    sub.add_argument("--report", type=_out_file, help="write a JSON failure report here")
    _add_common(sub)
    sub.set_defaults(func=_cmd_validate)
    registry["validate"] = sub

    sub = subparsers.add_parser("train-scorer", help="fit an n-gram scorer to a corpus")
    sub.add_argument("--corpus", required=True, help="training corpus (JSON lines)")
    sub.add_argument("--out", type=_out_file, required=True, help="model output path")
    sub.add_argument("--order", type=int, default=4, help="n-gram order (default: 4)")
    sub.add_argument(
        "--discount", type=float, default=0.75, help="absolute discount (default: 0.75)"
    )
    sub.add_argument(
        "--min-signature-examples",
        type=int,
        default=5,
        help="examples needed before a signature gets its own table (default: 5)",
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_train_scorer)
    registry["train-scorer"] = sub

    sub = subparsers.add_parser("decode", help="beam-search responses for corpus MRs")
    sub.add_argument("--corpus", required=True, help="corpus whose MRs to decode")
    sub.add_argument("--model", required=True, help="trained scorer model path")
    sub.add_argument(
        "--out", type=_out_file, required=True, help="predictions output path (JSON lines)"
    )
    sub.add_argument(
        "--mode",
        default="constrained",
        choices=[m.value for m in DecodeMode],
        help="decoding mode (default: constrained)",
    )
    sub.add_argument("--beam-size", type=int, default=10, help="beam width (default: 10)")
    sub.add_argument(
        "--max-length",
        type=int,
        default=None,
        help="token budget per example (default: scaled to the MR)",
    )
    sub.add_argument(
        "--length-penalty",
        type=float,
        default=0.0,
        help="length normalization exponent (default: 0.0)",
    )
    sub.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most one per core (default: 1)"
    )
    sub.add_argument(
        "--limit", type=int, default=None, help="decode only the first N examples"
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_decode)
    registry["decode"] = sub

    sub = subparsers.add_parser("evaluate", help="score predictions against a corpus")
    sub.add_argument("--predictions", required=True, help="decode output (JSON lines)")
    sub.add_argument("--corpus", required=True, help="reference corpus (JSON lines)")
    sub.add_argument(
        "--out", type=_out_file, required=True, help="evaluation report output path (JSON)"
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_evaluate)
    registry["evaluate"] = sub

    sub = subparsers.add_parser(
        "delex", help="replace argument values with placeholders"
    )
    sub.add_argument("--corpus", required=True, help="corpus file (JSON lines)")
    sub.add_argument(
        "--out", type=_out_file, required=True, help="delexicalized corpus output path"
    )
    sub.add_argument(
        "--number-occurrences",
        action="store_true",
        help="give repeated values distinct numbered placeholders",
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_delex)
    registry["delex"] = sub

    sub = subparsers.add_parser("relex", help="restore values from stored delex tables")
    sub.add_argument(
        "--corpus", required=True, help="delexicalized corpus file (JSON lines)"
    )
    sub.add_argument("--out", type=_out_file, required=True, help="restored corpus output path")
    _add_common(sub)
    sub.set_defaults(func=_cmd_relex)
    registry["relex"] = sub

    return parser, registry


def _with_config(argv: list, registry: dict[str, argparse.ArgumentParser]) -> list:
    """argv with the ``--config`` file's values as flags after the subcommand.

    The explicit flags follow them, so they win.  A switch takes true or
    false and null keeps the default; the one parse that follows checks
    every value's type, choices and presence as it checks a typed flag's.
    """
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    command = next((arg for arg in argv if arg in registry), None)
    if path is None or command is None:
        return argv
    try:
        data = json.loads(_read(path, _text))
    except json.JSONDecodeError as exc:
        raise CliError(f"bad config {path}: {exc.msg}")
    if not isinstance(data, dict):
        raise CliError(f"bad config {path}: expected a JSON object")
    actions = {
        flag: action
        for flag, action in registry[command]._option_string_actions.items()
        if flag.startswith("--") and action.dest not in ("help", "config")
    }
    flags = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if flag not in actions:
            raise CliError(
                f"bad config {path}: unknown option {key!r} for {command} "
                f"(valid: {', '.join(sorted(f[2:] for f in actions))})"
            )
        switch = actions[flag].nargs == 0
        if value is None or (switch and value is False):
            continue
        if switch and value is True:
            flags.append(flag)
        elif not switch and type(value) in (str, int, float):
            flags.append(f"{flag}={value}")
        else:
            wanted = "true or false" if switch else "a string or a number"
            raise CliError(f"bad config {path}: {key} takes {wanted}, not {json.dumps(value)}")
    at = argv.index(command) + 1
    return argv[:at] + flags + argv[at:]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, registry = build_parser()
    try:
        args = parser.parse_args(_with_config(list(argv), registry))
        started_at, t0 = _utc_now(), time.monotonic()
        code, manifest = args.func(args)
        if manifest is not None:
            _write_manifest(manifest, args, started_at, t0)
        return code
    except (CliError, OSError, TreeError, UnknownLabel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
