"""Tree-structured meaning representations, constrained decoding, metrics,
and a synthetic weather corpus generator for task-oriented NLG."""

__version__ = "0.1.0"

from .beam import (
    Candidate,
    DecodeConfig,
    DecodeMode,
    DecodeResult,
    DecodingFailed,
    decode,
)
from .constraints import build_constraints, check_tree, first_rejection
from .corpus import CorpusExample, read_corpus, write_corpus
from .delex import DelexTable, delexicalize, delexicalize_example, relexicalize
from .metrics import EvalReport, bleu4, diversity, tree_accuracy
from .ontology import NodeKind, Ontology, restaurant_ontology, weather_ontology
from .scorers import (
    ExternalScorer,
    NGramModel,
    UniformScorer,
    perplexity,
    serve_loop,
    train_ngram,
)
from .trees import (
    AnnotatedNode,
    MrNode,
    MrTree,
    canonicalize,
    linearize,
    parse_linearized,
    parse_mr,
    signature,
    to_string,
)

__all__ = [
    "__version__",
    "Candidate",
    "DecodeConfig",
    "DecodeMode",
    "DecodeResult",
    "DecodingFailed",
    "decode",
    "build_constraints",
    "check_tree",
    "first_rejection",
    "CorpusExample",
    "read_corpus",
    "write_corpus",
    "DelexTable",
    "delexicalize",
    "delexicalize_example",
    "relexicalize",
    "EvalReport",
    "bleu4",
    "diversity",
    "tree_accuracy",
    "NodeKind",
    "Ontology",
    "restaurant_ontology",
    "weather_ontology",
    "ExternalScorer",
    "NGramModel",
    "UniformScorer",
    "perplexity",
    "serve_loop",
    "train_ngram",
    "AnnotatedNode",
    "MrNode",
    "MrTree",
    "canonicalize",
    "linearize",
    "parse_linearized",
    "parse_mr",
    "signature",
    "to_string",
]
