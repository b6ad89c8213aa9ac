"""dst_lab: spoken-dialog state tracking context-management lab.

Compares three context strategies (multimodal, full spoken, compressed
spoken) at desk scale with a query-pooling compression module, plus the full
evaluation stack: joint goal accuracy, fuzzy post-processing, slot-group F1,
and per-turn analyses.
"""

__version__ = "0.1.0"

from .corpus import (
    Dialogue,
    DialogueState,
    SlotTaxonomy,
    Speaker,
    SynthConfig,
    Turn,
    filter_corrupted,
    load_corpus,
    parse_corpus,
    synth_corpus,
    synthetic_taxonomy,
)
from .postprocess import MatchPolicy, canonicalize_time, levenshtein_ratio, values_match
from .state_codec import (
    ParseFailure,
    Strategy,
    build_prompt,
    parse_state,
    serialize_state,
)

__all__ = [
    "Dialogue",
    "DialogueState",
    "MatchPolicy",
    "ParseFailure",
    "SlotTaxonomy",
    "Speaker",
    "Strategy",
    "SynthConfig",
    "Turn",
    "build_prompt",
    "canonicalize_time",
    "filter_corrupted",
    "levenshtein_ratio",
    "load_corpus",
    "parse_corpus",
    "parse_state",
    "serialize_state",
    "synth_corpus",
    "synthetic_taxonomy",
    "values_match",
    "__version__",
]
