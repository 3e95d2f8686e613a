"""Command-line interface for the corpus and decoding pipeline.

Every subcommand accepts ``--config FILE``, a JSON object whose keys are
the subcommand's long option names.  Explicit flags beat config values,
which beat built-in defaults.

Exit codes: 0 on success, 1 when a run completes but found validation or
decoding failures, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .beam import DecodeConfig, DecodeMode, DecodingFailed, decode
from .constraints import first_rejection
from .corpus import CorpusExample, MalformedLine, read_corpus, write_corpus
from .delex import DelexTable, delexicalize_example, relexicalize
from .metrics import EvalReport, bleu4, diversity, tree_accuracy
from .ontology import Ontology, UnknownLabel, restaurant_ontology, weather_ontology
from .scorers import NGramModel, train_ngram
from .trees import TreeError, parse_linearized, parse_mr, to_string, validate
from .weather import SynthConfig, synthesize_corpus


class CliError(Exception):
    """Fatal usage or configuration problem; maps to exit code 2."""


_ONTOLOGIES = {"weather": weather_ontology, "restaurant": restaurant_ontology}


def _ontology(name: str) -> Ontology:
    try:
        return _ONTOLOGIES[name]()
    except KeyError:
        raise CliError(f"unknown ontology {name!r}; choose from {sorted(_ONTOLOGIES)}")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _load_corpus(path) -> list[CorpusExample]:
    try:
        return read_corpus(path)
    except MalformedLine as exc:
        raise CliError(f"{path}:{exc.line_number}: {exc}")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _read_jsonl(path) -> list[dict]:
    records = []
    for line_number, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}:{line_number}: bad JSON: {exc.msg}")
        if not isinstance(data, dict):
            raise CliError(f"{path}:{line_number}: expected a JSON object")
        records.append(data)
    return records


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise CliError(f"missing required option(s): {flags}")


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
    arguments = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in ("func",)
    }
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
    manifest.path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- synthesize -------------------------------------------------------------


def _cmd_synthesize(args: argparse.Namespace) -> tuple[int, Manifest]:
    _require(args, "n", "out_dir")
    config = None
    inputs = []
    if args.synth_config is not None:
        inputs.append(args.synth_config)
        try:
            config = SynthConfig.from_json(json.loads(_read_text(args.synth_config)))
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
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"bad JSON: {exc.msg}"
    if not isinstance(data, dict):
        return "expected a JSON object"
    try:
        example = CorpusExample.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        return f"bad example: {exc}"
    try:
        mr = parse_mr(example.mr, ontology)
        validate(mr, ontology)
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
    _require(args, "corpus")
    ontology = _ontology(args.ontology)
    checked = 0
    failures: list[dict] = []
    for line_number, line in enumerate(_read_text(args.corpus).splitlines(), start=1):
        if not line.strip():
            continue
        checked += 1
        reason = _validate_line(line, ontology)
        if reason is not None:
            failures.append({"line": line_number, "reason": reason})
    for failure in failures:
        print(f"{args.corpus}:{failure['line']}: {failure['reason']}")
    status = "FAIL" if failures else "OK"
    print(f"{status}: {checked} examples checked, {len(failures)} invalid")
    code = 1 if failures else 0
    if args.report is None:
        return code, None
    report = {"corpus": str(args.corpus), "checked": checked, "failures": failures}
    Path(args.report).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return code, _manifest_beside(args.report, [args.corpus])


# -- train-scorer -----------------------------------------------------------


def _cmd_train_scorer(args: argparse.Namespace) -> tuple[int, Manifest]:
    _require(args, "corpus", "out")
    ontology = _ontology(args.ontology)
    examples = _load_corpus(args.corpus)
    try:
        pairs = [
            (ex.mr_tree(ontology), ex.annotated_response.split()) for ex in examples
        ]
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


def _decode_one(item: tuple[int, str]) -> dict:
    index, mr_text = item
    mr = parse_mr(mr_text, _WORKER["ontology"])
    try:
        result = decode(mr, _WORKER["model"], _WORKER["config"])
    except DecodingFailed as exc:
        partial = list(exc.partial.tokens) if exc.partial is not None else []
        return {
            "index": index,
            "tokens": partial,
            "score": None,
            "tree_valid": False,
            "failure": exc.reason,
        }
    best = result.candidates[0]
    return {
        "index": index,
        "tokens": list(best.tokens),
        "score": best.score,
        "tree_valid": best.tree_valid,
        "failure": None,
    }


def _cmd_decode(args: argparse.Namespace) -> tuple[int, Manifest]:
    _require(args, "corpus", "model", "out")
    if args.mode not in [m.value for m in DecodeMode]:
        raise CliError(f"unknown mode {args.mode!r}")
    if args.limit is not None and args.limit < 0:
        raise CliError(f"--limit must be >= 0, got {args.limit}")
    if args.jobs < 1:
        raise CliError(f"--jobs must be >= 1, got {args.jobs}")
    examples = _load_corpus(args.corpus)
    if args.limit is not None:
        examples = examples[: args.limit]
    items = [(i, ex.mr) for i, ex in enumerate(examples)]
    try:
        state = {
            "model": NGramModel.load(args.model),
            "ontology": _ontology(args.ontology),
            "config": DecodeConfig(
                beam_size=args.beam_size,
                max_length=args.max_length,
                mode=DecodeMode(args.mode),
                length_penalty=args.length_penalty,
            ),
        }
        _decode_init(state)
        if args.jobs > 1 and len(items) > 1:
            chunk = max(1, len(items) // (args.jobs * 4))
            with ProcessPoolExecutor(
                max_workers=args.jobs, initializer=_decode_init, initargs=(state,)
            ) as pool:
                records = list(pool.map(_decode_one, items, chunksize=chunk))
        else:
            records = [_decode_one(item) for item in items]
    except (OSError, ValueError, BrokenProcessPool) as exc:
        raise CliError(f"decoding failed: {exc}")
    with open(args.out, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    failed = sum(1 for r in records if r["failure"] is not None)
    print(
        f"decoded {len(records)} examples in {args.mode} mode, "
        f"{failed} failures: {args.out}"
    )
    return (1 if failed else 0), _manifest_beside(args.out, [args.corpus, args.model])


# -- evaluate ---------------------------------------------------------------


def _cmd_evaluate(args: argparse.Namespace) -> tuple[int, Manifest]:
    _require(args, "predictions", "corpus", "out")
    ontology = _ontology(args.ontology)
    examples = _load_corpus(args.corpus)
    records = _read_jsonl(args.predictions)
    seen: set[int] = set()
    pairs = []
    hypotheses = []
    references = []
    per_example = []
    failed = 0
    for record in records:
        index = record.get("index")
        if not isinstance(index, int) or not 0 <= index < len(examples):
            raise CliError(f"{args.predictions}: bad example index {index!r}")
        if index in seen:
            raise CliError(f"{args.predictions}: duplicate example index {index}")
        seen.add(index)
        if record.get("failure") is not None:
            failed += 1
            per_example.append(
                {"index": index, "tree_valid": False, "failure": record["failure"]}
            )
            continue
        tokens = record.get("tokens")
        if not isinstance(tokens, list):
            raise CliError(f"{args.predictions}: example {index} has no token list")
        example = examples[index]
        pairs.append((index, parse_mr(example.mr, ontology), tokens))
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
    Path(args.out).write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"tree accuracy {accuracy:.4f} over {len(pairs)} examples ({failed} decode failures)")
    print(f"surface BLEU-4 {surface_bleu:.4f}")
    print(
        f"diversity: {spread.unique_tokens} tokens, {spread.unique_trigrams} trigrams, "
        f"{spread.shannon_entropy_bits:.2f} bits"
    )
    return 0, _manifest_beside(args.out, [args.predictions, args.corpus])


# -- delex / relex ----------------------------------------------------------


def _cmd_delex(args: argparse.Namespace) -> tuple[int, Manifest]:
    _require(args, "corpus", "out")
    ontology = _ontology(args.ontology)
    examples = _load_corpus(args.corpus)
    rewritten = []
    for position, example in enumerate(examples):
        try:
            mr_out, annotated_out, table = delexicalize_example(
                example.mr_tree(ontology),
                example.annotated_tree(ontology),
                ontology,
                number_occurrences=args.number_occurrences,
            )
        except (TreeError, UnknownLabel, ValueError) as exc:
            raise CliError(f"example {position}: {exc}")
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
    _require(args, "corpus", "out")
    examples = _load_corpus(args.corpus)
    restored = []
    for position, example in enumerate(examples):
        if example.delex_table is None:
            raise CliError(f"example {position} has no delex table")
        table = DelexTable.from_json(example.delex_table)
        mr_tokens = relexicalize(example.mr, table)
        annotated_tokens = relexicalize(example.annotated_response, table)
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
    parser = argparse.ArgumentParser(
        prog="treegen",
        description="Synthesize, validate, and decode tree-structured NLG corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    sub = subparsers.add_parser("synthesize", help="generate a synthetic weather corpus")
    sub.add_argument("--n", type=int, help="number of examples to generate")
    sub.add_argument("--seed", type=int, default=0, help="corpus seed (default: 0)")
    sub.add_argument("--out-dir", help="directory for train/test/stats files")
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
    sub.add_argument("--corpus", help="corpus file (JSON lines)")
    sub.add_argument("--report", default=None, help="write a JSON failure report here")
    _add_common(sub)
    sub.set_defaults(func=_cmd_validate)
    registry["validate"] = sub

    sub = subparsers.add_parser("train-scorer", help="fit an n-gram scorer to a corpus")
    sub.add_argument("--corpus", help="training corpus (JSON lines)")
    sub.add_argument("--out", help="model output path")
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
    sub.add_argument("--corpus", help="corpus whose MRs to decode")
    sub.add_argument("--model", help="trained scorer model path")
    sub.add_argument("--out", help="predictions output path (JSON lines)")
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
    sub.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    sub.add_argument(
        "--limit", type=int, default=None, help="decode only the first N examples"
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_decode)
    registry["decode"] = sub

    sub = subparsers.add_parser("evaluate", help="score predictions against a corpus")
    sub.add_argument("--predictions", help="decode output (JSON lines)")
    sub.add_argument("--corpus", help="reference corpus (JSON lines)")
    sub.add_argument("--out", help="evaluation report output path (JSON)")
    _add_common(sub)
    sub.set_defaults(func=_cmd_evaluate)
    registry["evaluate"] = sub

    sub = subparsers.add_parser(
        "delex", help="replace argument values with placeholders"
    )
    sub.add_argument("--corpus", help="corpus file (JSON lines)")
    sub.add_argument("--out", help="delexicalized corpus output path")
    sub.add_argument(
        "--number-occurrences",
        action="store_true",
        help="give repeated values distinct numbered placeholders",
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_delex)
    registry["delex"] = sub

    sub = subparsers.add_parser("relex", help="restore values from stored delex tables")
    sub.add_argument("--corpus", help="delexicalized corpus file (JSON lines)")
    sub.add_argument("--out", help="restored corpus output path")
    _add_common(sub)
    sub.set_defaults(func=_cmd_relex)
    registry["relex"] = sub

    return parser, registry


def _apply_config(
    parser: argparse.ArgumentParser,
    registry: dict[str, argparse.ArgumentParser],
    args: argparse.Namespace,
    argv,
) -> argparse.Namespace:
    sub = registry[args.command]
    try:
        data = json.loads(_read_text(args.config))
    except json.JSONDecodeError as exc:
        raise CliError(f"bad config {args.config}: {exc.msg}")
    if not isinstance(data, dict):
        raise CliError(f"bad config {args.config}: expected a JSON object")
    valid = {
        action.dest
        for action in sub._actions
        if action.dest not in ("help", "config", "func")
    }
    overrides = {}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            raise CliError(
                f"bad config {args.config}: unknown option {key!r} "
                f"for {args.command} (valid: {', '.join(sorted(valid))})"
            )
        overrides[dest] = value
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            args = _apply_config(parser, registry, args, argv)
        started_at, t0 = _utc_now(), time.monotonic()
        code, manifest = args.func(args)
        if manifest is not None:
            _write_manifest(manifest, args, started_at, t0)
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TreeError, UnknownLabel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
