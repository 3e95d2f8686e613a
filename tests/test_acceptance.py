"""Acceptance suite: one numbered check per release gate.

Each test records a CRITERION line (PASS or FAIL with a short detail);
the conftest hook replays all of them in the terminal summary, so the
verdicts show even under pytest's output capture.  Heavy artifacts (a
2,500-example corpus and a trained scorer) are shared through
module-scoped fixtures.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import acceptance_report
from oracles import enumerate_valid_skeletons, random_mr
from test_constraints import (
    SCHEMA,
    TWO_ACT_MR,
    automaton_accepted_set,
    contrastive_weather_pair,
    restaurant_example,
)

from treegen import (
    DecodeConfig,
    DecodeMode,
    DecodingFailed,
    bleu4,
    decode,
    diversity,
    parse_mr,
    train_ngram,
    tree_accuracy,
    weather_ontology,
)
from treegen.cli import main as cli_main
from treegen.constraints import build_constraints, check_tree, first_rejection
from treegen.ontology import NodeKind
from treegen.weather import split_examples, synthesize_examples

WEATHER = weather_ontology()


def check(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'}: {label}{suffix}"
    acceptance_report.record(line)
    print(line, flush=True)
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="module")
def pipeline():
    """2,000 training examples, 500 held out, and a 4-gram scorer."""
    examples = synthesize_examples(2500, seed=20250815)
    train, test = split_examples(examples, 0.8)
    pairs = [(parse_mr(ex.mr, WEATHER), ex.annotated_response.split()) for ex in train]
    model = train_ngram(pairs)
    return train, test, model


@pytest.fixture(scope="module")
def constrained_run(pipeline):
    """Constrained decodes of the 500 held-out MRs, with wall time."""
    _, test, model = pipeline
    config = DecodeConfig(beam_size=10)
    outcomes = []
    t0 = time.monotonic()
    for ex in test:
        mr = parse_mr(ex.mr, WEATHER)
        try:
            result = decode(mr, model, config)
            outcomes.append((mr, result.candidates[0]))
        except DecodingFailed:
            outcomes.append((mr, None))
    return outcomes, time.monotonic() - t0


def test_01_automaton_equals_bruteforce_enumeration():
    rng = random.Random(424242)
    t0 = time.monotonic()
    relations = set()
    grouped = 0
    for _ in range(500):
        tree = random_mr(rng, SCHEMA, max_nodes=7, value_pool=("v",))
        for node in tree.root.iter_nodes():
            if node.kind is NodeKind.RELATION:
                relations.add(node.label)
        if any(
            len(opts) > 1 for opts in build_constraints(tree).ellipsis_options
        ):
            grouped += 1
        if automaton_accepted_set(tree) != enumerate_valid_skeletons(tree):
            check(1, "accepted language equals brute-force enumeration", False,
                  f"mismatch on {tree}")
    elapsed = time.monotonic() - t0
    ok = relations >= {"JOIN", "CONTRAST", "JUSTIFY"} and grouped > 0 and elapsed < 120
    check(
        1,
        "accepted language equals brute-force enumeration",
        ok,
        f"500 trees, {grouped} with same-value groups, {elapsed:.1f}s",
    )


def test_02_worked_checking_examples():
    mr, valid_1, valid_2, invalid_3 = restaurant_example()
    first = check_tree(mr, valid_1)
    second = check_tree(mr, valid_2)
    third = check_tree(mr, invalid_3)
    pos = first_rejection(mr, invalid_3)
    at_illegal_open = pos is not None and invalid_3[pos] == "[customerrating"
    check(
        2,
        "worked checking examples: accept, accept, reject at first illegal Open",
        first and second and not third and at_illegal_open,
        f"rejection at token {pos} ({invalid_3[pos] if pos is not None else 'none'})",
    )


def test_03_numbering_and_ellipsis_map_worked_example():
    tracker = build_constraints(TWO_ACT_MR)
    inform_ids = [i for i, node in enumerate(tracker.nodes) if node.label == "INFORM"]
    numbering = "INFORM -> {" + ", ".join(map(str, inform_ids)) + "}"
    groups = {
        i: set(opts)
        for i, opts in enumerate(tracker.ellipsis_options)
        if len(opts) > 1
    }
    rendered = (
        "{"
        + ", ".join(
            f"{k}: {{{', '.join(map(str, sorted(v)))}}}" for k, v in sorted(groups.items())
        )
        + "}"
    )
    ok = numbering == "INFORM -> {1, 4}" and rendered == "{3: {3, 5}, 5: {3, 5}}"
    check(
        3,
        "worked two-act example: dialog-act numbering and ellipsis map",
        ok,
        f"{numbering}; {rendered}",
    )


def test_04_contrastive_pair_with_elided_date():
    mr, annotated = contrastive_weather_pair()
    accepted = check_tree(mr, annotated)
    first_act = mr.root.children[0]
    first_inform_has_date = "date_time" in {c.label for c in first_act.children}
    opens = [i for i, t in enumerate(annotated) if t == "[INFORM"]
    first_span = annotated[opens[0] : opens[1]]
    elided_in_output = "[date_time" not in first_span
    check(
        4,
        "contrastive snow/rain pair accepted with date elided in its first act",
        accepted and first_inform_has_date and elided_in_output,
        "date_time realized once, covering both acts",
    )


def test_05_constrained_decodes_are_always_valid(pipeline):
    _, _, model = pipeline
    mrs = [ex.mr for ex in synthesize_examples(1250, seed=424344)]
    config = DecodeConfig(beam_size=10)
    t0 = time.monotonic()
    failures = 0
    invalid = 0
    for text in mrs:
        mr = parse_mr(text, WEATHER)
        try:
            result = decode(mr, model, config)
        except DecodingFailed:
            failures += 1
            continue
        if not result.candidates[0].tree_valid:
            invalid += 1
    elapsed = time.monotonic() - t0
    rate = failures / len(mrs)
    ok = invalid == 0 and elapsed < 600
    check(
        5,
        "every successful constrained decode is tree-valid",
        ok,
        f"{len(mrs)} MRs, {invalid} invalid, failure rate "
        f"{100 * rate:.2f}% ({failures}/{len(mrs)}), {elapsed:.0f}s",
    )


def test_06_high_tree_accuracy_from_2k_training_examples(constrained_run):
    outcomes, elapsed = constrained_run
    valid = sum(1 for _, cand in outcomes if cand is not None and cand.tree_valid)
    accuracy = valid / len(outcomes)
    ok = accuracy >= 0.90 and len(outcomes) == 500 and elapsed < 600
    check(
        6,
        "2,000 training examples reach 0.90 tree accuracy on 500 held out",
        ok,
        f"accuracy {accuracy:.4f}, {elapsed:.0f}s",
    )


def test_07_constrained_strictly_beats_unconstrained(pipeline, constrained_run):
    _, test, model = pipeline
    outcomes, _ = constrained_run
    constrained_acc = sum(
        1 for _, cand in outcomes if cand is not None and cand.tree_valid
    ) / len(outcomes)
    config = DecodeConfig(beam_size=10, mode=DecodeMode.UNCONSTRAINED)
    valid = 0
    for ex in test:
        mr = parse_mr(ex.mr, WEATHER)
        try:
            result = decode(mr, model, config)
        except DecodingFailed:
            continue
        if result.candidates[0].tree_valid:
            valid += 1
    unconstrained_acc = valid / len(test)
    check(
        7,
        "constrained tree accuracy strictly exceeds unconstrained",
        constrained_acc > unconstrained_acc,
        f"{constrained_acc:.4f} vs {unconstrained_acc:.4f} on the same scorer",
    )


def test_08_metric_self_checks(pipeline):
    train, test, _ = pipeline
    hyp = "it will be partly cloudy with a high of 62".split()
    perfect = bleu4([hyp], [[hyp]])

    uniform = [[f"tok{i}" for i in range(16)]]
    record = diversity(uniform)
    entropy_exact = abs(record.shannon_entropy_bits - 4.0) < 1e-9

    rng = random.Random(9)
    conditional_ok = True
    for _ in range(100):
        vocab = [f"w{i}" for i in range(rng.randint(2, 12))]
        corpus = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
            for _ in range(rng.randint(1, 8))
        ]
        rec = diversity(corpus)
        if rec.conditional_bigram_entropy_bits > rec.shannon_entropy_bits + 1e-9:
            conditional_ok = False
            break

    pairs = [
        (parse_mr(ex.mr, WEATHER), ex.annotated_response.split())
        for ex in train + test
    ]
    reference_accuracy, _ = tree_accuracy(pairs)

    ok = (
        perfect == 1.0
        and entropy_exact
        and conditional_ok
        and reference_accuracy == 1.0
    )
    check(
        8,
        "metric self-checks: BLEU identity, uniform entropy, conditioning, references",
        ok,
        f"bleu {perfect}, entropy err {abs(record.shannon_entropy_bits - 4.0):.1e}, "
        f"reference tree accuracy {reference_accuracy}",
    )


def test_09_pipeline_rerun_is_byte_identical(tmp_path):
    def run_once(root: Path) -> dict[str, str]:
        corpus = root / "corpus"
        assert cli_main(["synthesize", "--n", "120", "--seed", "5", "--out-dir", str(corpus)]) == 0
        model = root / "model.json"
        assert cli_main(["train-scorer", "--corpus", str(corpus / "train.jsonl"), "--out", str(model)]) == 0
        preds = root / "preds.jsonl"
        code = cli_main([
            "decode", "--corpus", str(corpus / "test.jsonl"), "--model", str(model),
            "--out", str(preds), "--beam-size", "5",
        ])
        assert code in (0, 1)
        report = root / "report.json"
        assert cli_main([
            "evaluate", "--predictions", str(preds), "--corpus", str(corpus / "test.jsonl"),
            "--out", str(report),
        ]) == 0
        digests = {}
        for path in sorted(root.rglob("*")):
            if path.is_file() and "manifest" not in path.name:
                digests[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        return digests

    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")
    ok = first == second and len(first) >= 6
    check(
        9,
        "full pipeline rerun under a fixed seed is byte-identical",
        ok,
        f"{len(first)} artifacts compared, manifests excluded",
    )


def test_10_out_of_scope_results_are_declared():
    statement = (
        "Not reproduced here, by design: absolute BLEU and tree-accuracy "
        "numbers for neural sequence-to-sequence models, human-judged "
        "correctness and disfluency scores, absolute diversity statistics "
        "of human-written corpora, and cross-domain transfer curves. Those "
        "depend on LSTM training runs or human annotators; the "
        "property-based checks in this suite stand in for them."
    )
    acceptance_report.record(statement)
    print(statement, flush=True)
    ok = all(
        phrase in statement
        for phrase in ("neural", "human", "diversity", "transfer", "property-based")
    )
    check(10, "results beyond desk scale are declared, not imitated", ok)
