"""Command-line interface.

Every command is deterministic given identical inputs, flags, and seeds.
Errors, usage errors included, exit nonzero with a single machine-readable
JSON line on stderr.
Flags take precedence over values from an optional JSON config file
(--config), which takes precedence over built-in defaults.
"""

from __future__ import annotations

import argparse
import collections
import json
import logging
import sys

from . import bpe, cognates, segmenter, serialization, trainer
from .errors import CogsegError, FormatError, UsageError, open_text, parse_positive, read_rows
from .model import DAMPENING_MODES, EDIT_MODES

_logger = logging.getLogger(__name__)

# Characters that would collide with the file formats or segment markers.
RESERVED_SUBSTRINGS = ("|", "@@")


def validate_token(token: str) -> str:
    for bad in RESERVED_SUBSTRINGS:
        if bad in token:
            raise CogsegError("token %r contains reserved %r" % (token, bad))
    return token


def load_word_counts(path) -> dict[str, int]:
    """Count whitespace-separated tokens of a UTF-8 text file."""
    counts: collections.Counter = collections.Counter()
    with open_text(path) as stream:
        for line in stream:
            tokens = line.split()
            # No reserved substring holds whitespace, so a line without one
            # holds no offending token; a line with one raises at its first.
            if any(bad in line for bad in RESERVED_SUBSTRINGS):
                for token in tokens:
                    validate_token(token)
            counts.update(tokens)
    if not counts:
        raise CogsegError("corpus %s contains no tokens" % path)
    return dict(counts)


def load_count_table(path) -> dict[str, int]:
    """Read a word<TAB>count table; every word must be non-empty and listed
    once, and every count positive."""
    table: dict[str, int] = {}
    for lineno, (word, count) in read_rows(path, 2):
        if not word:
            raise FormatError("empty word", path, lineno)
        if word in table:
            raise FormatError("word %r listed twice" % word, path, lineno)
        table[word] = parse_positive(count, path, lineno)
    return table


def _load_config(path) -> dict:
    """The --config file: a JSON object mapping flag names to values."""
    with open_text(path) as stream:
        try:
            config = json.load(stream)
        except ValueError as exc:
            raise FormatError("bad JSON (%s)" % exc, path) from None
    if not isinstance(config, dict):
        raise FormatError("expected a JSON object", path)
    return config


def _training_params(args) -> trainer.TrainingParams:
    """flags > config file > defaults, for the seven training settings; a
    config key that names none of them, or whose value does not have the
    setting's JSON type, is rejected. Reads only the config file, so a
    caller checks its settings before reading any corpus."""
    # Each config key (the flag's dest) with its TrainingParams field and type.
    # A float setting takes any JSON number, an int setting a JSON integer, a
    # str setting a JSON string; a bool (an int to Python) is none of them.
    fields = {
        "alpha": ("alpha", float),
        "edit_weight": ("edit_weight", float),
        "max_epochs": ("max_epochs", int),
        "convergence": ("convergence_threshold", float),
        "seed": ("rng_seed", int),
        "dampening": ("dampening", str),
        "edit_mode": ("edit_mode", str),
    }
    config = _load_config(args.config) if args.config else {}
    unknown = sorted(set(config) - set(fields))
    if unknown:
        raise FormatError("unknown config key %r" % unknown[0], args.config)
    default = trainer.TrainingParams()
    settings = {}
    for key, (name, kind) in fields.items():
        # train-mono has no --edit-weight or --edit-mode flag.
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, getattr(default, name))
        json_types = (int, float) if kind is float else kind
        try:
            if isinstance(value, bool) or not isinstance(value, json_types):
                raise TypeError
            settings[name] = kind(value)
        except (TypeError, OverflowError):  # float() of a JSON integer can overflow
            raise CogsegError("bad value %r for %r" % (value, key)) from None
    return trainer.TrainingParams(**settings)


def _add_training_flags(sub, with_edits: bool):
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--max-epochs", type=int, dest="max_epochs")
    sub.add_argument("--convergence", type=float)
    sub.add_argument("--dampening", choices=DAMPENING_MODES)
    sub.add_argument("--config")
    sub.add_argument("--out", required=True)
    if with_edits:
        sub.add_argument("--edit-weight", type=float, dest="edit_weight")
        sub.add_argument("--edit-mode", choices=EDIT_MODES, dest="edit_mode")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError, so they exit
    as every other error does; subparsers are of the same class."""

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def _int_at_least(low: int):
    """An argparse type: an integer of at least low."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value"
    return parse


def cmd_extract_cognates(args):
    pairs = cognates.read_pairs_tsv(args.pairs)
    result = cognates.extract(pairs, min_count=args.min_count, short_len=args.short_len)
    cognates.write_pairs_tsv(args.out, result)
    _logger.info("kept %d of %d pairs", len(result), len(pairs))


def _train_and_save(args, params, corpus_a, corpus_b, pairs):
    model = trainer.initialize(corpus_a, corpus_b, pairs, params)
    report = trainer.train(model, params)
    serialization.save_model(model, args.out)
    _logger.info(
        "trained %d epochs, final cost %.4f", report.epochs_run, report.final_cost
    )


def cmd_train(args):
    params = _training_params(args)
    corpus_a = load_word_counts(args.corpus_a)
    corpus_b = load_word_counts(args.corpus_b)
    pair_rows = cognates.read_pairs_tsv(args.cognates) if args.cognates else []
    pairs = [(p.word_a, p.word_b) for p in pair_rows]
    _train_and_save(args, params, corpus_a, corpus_b, pairs)


def cmd_train_mono(args):
    params = _training_params(args)
    _train_and_save(args, params, load_word_counts(args.corpus), {}, [])


def cmd_segment(args):
    config = segmenter.SegmenterConfig(joiner=args.joiner)
    model = serialization.load_model(args.model)
    sys.stdout.writelines(segmenter.segment_corpus(model, sys.stdin, args.lang, config))


def cmd_segment_source(args):
    config = segmenter.SegmenterConfig(joiner=args.joiner)
    source = serialization.load_model(args.source_model)
    cognate_model = serialization.load_model(args.cognate_model)
    override = segmenter.override_source_segmentation
    sys.stdout.writelines(segmenter.segment_lines(
        sys.stdin, lambda token: override(source, cognate_model, token).morphs, config
    ))


def cmd_prep_tag(args):
    prefix = segmenter.target_tag(args.lang, tuple(args.targets.split(","))) + " "
    sys.stdout.writelines(segmenter.map_lines(sys.stdin, lambda text: prefix + text))


def cmd_bpe_train(args):
    tables = {}
    for index, path in enumerate(args.counts.split(",")):
        tables["lang%d" % index] = load_count_table(path)
    if len(tables) > 1:
        counts = bpe.balance_counts(tables).combined()
    else:
        (counts,) = tables.values()
    table = bpe.train_bpe(counts, args.vocab)
    bpe.save_merges(args.out, table)
    _logger.info("learned %d merges%s", len(table.merges),
                 " (truncated)" if table.truncated else "")


def cmd_bpe_apply(args):
    config = segmenter.SegmenterConfig(joiner=args.joiner)
    table = bpe.load_merges(args.merges)
    sys.stdout.writelines(segmenter.segment_lines(
        sys.stdin, lambda token: bpe.apply_bpe(table, token), config
    ))


def cmd_report_edits(args):
    model = serialization.load_model(args.model)
    for edit, count in serialization.report_edits(model, args.top, args.direction):
        sys.stdout.write("%s\t%d\n" % (edit, count))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cogseg",
        description="Bilingual subword segmentation toolkit: linked-lexicon "
        "training, cognate extraction, corpus segmentation, and a balanced "
        "BPE baseline.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-cognates", help="filter aligned pairs to a cognate list")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=_int_at_least(1), default=2, dest="min_count")
    p.add_argument("--short-len", type=_int_at_least(0), default=4, dest="short_len")
    p.set_defaults(func=cmd_extract_cognates)

    p = sub.add_parser("train", help="train the bilingual model")
    p.add_argument("--corpus-a", required=True, dest="corpus_a")
    p.add_argument("--corpus-b", required=True, dest="corpus_b")
    p.add_argument("--cognates", default=None)
    _add_training_flags(p, with_edits=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-mono", help="train a single-language model")
    p.add_argument("--corpus", required=True)
    _add_training_flags(p, with_edits=False)
    p.set_defaults(func=cmd_train_mono)

    p = sub.add_parser("segment", help="segment stdin with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--lang", required=True, choices=("a", "b"))
    p.add_argument("--joiner", default=segmenter.DEFAULT_JOINER)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser(
        "segment-source",
        help="segment source text, reusing target-side analyses where present",
    )
    p.add_argument("--source-model", required=True, dest="source_model")
    p.add_argument("--cognate-model", required=True, dest="cognate_model")
    p.add_argument("--joiner", default=segmenter.DEFAULT_JOINER)
    p.set_defaults(func=cmd_segment_source)

    p = sub.add_parser("prep-tag", help="prefix the target-language tag")
    p.add_argument("--lang", required=True)
    p.add_argument("--targets", default="et,fi")
    p.set_defaults(func=cmd_prep_tag)

    p = sub.add_parser("bpe-train", help="train balanced BPE merges")
    p.add_argument("--counts", required=True, help="comma-separated count TSVs")
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bpe_train)

    p = sub.add_parser("bpe-apply", help="apply BPE merges to stdin")
    p.add_argument("--merges", required=True)
    p.add_argument("--joiner", default=segmenter.DEFAULT_JOINER)
    p.set_defaults(func=cmd_bpe_apply)

    p = sub.add_parser("report-edits", help="most frequent learned edits")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=_int_at_least(1), default=30)
    p.add_argument("--direction", choices=("ab", "ba"), default="ab")
    p.set_defaults(func=cmd_report_edits)
    return parser


def main(argv=None) -> int:
    for stream in (sys.stdin, sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(message)s",
        )
        args.func(args)
    except (CogsegError, OSError, UnicodeError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
