"""Bilingual subword segmentation with linked lexicons and an edit lexicon.

Two target-language morph inventories are trained jointly under a
description-length objective; automatically extracted cognate pairs are
linked through a third inventory of string edits, which rewards reusing the
regular spelling correspondences between the languages. The package also
ships the surrounding pipeline: cognate pair extraction from aligned word
counts, corpus segmentation for translation systems, and a language-balanced
BPE baseline.
"""

import logging

__version__ = "0.1.0"

from .bpe import BalancedCounts, MergeTable, apply_bpe, balance_counts, train_bpe
from .cognates import (
    AlignedPair,
    extract,
    filter_pairs,
    levenshtein_threshold,
    resolve_unique,
)
from .edits import (
    AlignmentOp,
    Edit,
    EditScript,
    apply_edit_script,
    extract_edits,
    levenshtein_align,
    levenshtein_distance,
)
from .errors import CogsegError, ContractError, FormatError, ModelIntegrityError
from .model import (
    Analysis,
    CognateModel,
    CognatePair,
    CountLexicon,
)
from .segmenter import (
    SegmenterConfig,
    Segmentation,
    prefix_target_tag,
    segment_corpus,
    segment_source,
    unjoin,
    viterbi_segment,
)
from .serialization import load_model, report_edits, save_model
from .trainer import (
    EpochStats,
    TrainingParams,
    TrainingReport,
    initialize,
    resegment_pair,
    resegment_word,
    train,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())
