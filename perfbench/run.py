"""cogseg benchmark: time the real CLI commands end to end, check their outputs.

    python3 perfbench/run.py --workload train-joint --seed 1 --seconds 40 --trace 0

Run from the root of a cogseg checkout. The run generates its inputs from
--seed (perfbench/gen.py), then repeats the workload's training commands
and then its apply commands (see TRAIN_SHARE and MIN_REPS). Each command
runs through cogseg.cli.main in a fresh process of its own
(perfbench/child.py), so every command starts with cold caches, as a real
invocation does. The outputs are checked and hashed; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus trace.overhead_ratio.
Work files go to .perfbench_work/ in the checkout, which each run replaces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import probe  # noqa: E402

EPOCHS = 2
TRAIN_SEED = 1
JOINER = "@@"
RUN_LIMIT_S = 170  # a run must end within 180 s; children share this budget

# World sizes per workload. train-joint is sized so that the distinct
# (morph_a, morph_b) keys its pair search sends to the edit caches exceed
# their 131072-entry caps, so epoch 2 misses; train-mono trains on the a
# side only, which is an order of magnitude cheaper per unit. The apply
# streams are the same size in both: tokens of the stored, unseen, source
# and bpe-apply streams, and words per language in the bpe-train tables.
STREAMS = {"stored": 600000, "unseen": 20000, "source": 40000, "bpe": 6000, "bpe_types": 400}
SIZES = {
    "train-joint": dict(STREAMS, types=3400),
    "train-mono": dict(STREAMS, types=5600),
}
SMOKE_SIZE = {"types": 80, "stored": 400, "unseen": 200, "source": 300, "bpe": 100,
              "bpe_types": 60}
BPE_VOCAB = {False: 400, True: 120}  # by --smoke

# A run first repeats the training commands until TRAIN_SHARE of --seconds
# has passed, then the apply commands until --seconds have passed, each at
# least MIN_REPS[trace][phase] times. Traced runs alternate untraced and
# traced repetitions; two traced apply repetitions check that counts repeat.
TRAIN_SHARE = 0.5
MIN_REPS = {0: {"train": 1, "apply": 3}, 1: {"train": 2, "apply": 4}}

SETUP_TIMERS = (
    "cli.load_word_counts",
    "cognates.read_pairs_tsv",
    "trainer.initialize",
    "serialization.load_model",
)
SEGMENT_STEPS = ("segment-stored", "segment-unseen", "segment-source")
ALL_STEPS = ("extract-cognates", "train", "train-mono") + SEGMENT_STEPS + (
    "bpe-train", "bpe-apply")

END_TO_END = (
    ("setup_s", "s"),
    ("train_units_per_s", "1/s"),
    ("train_final_cost_nats", "nats"),
    ("segment_stored_tok_per_s", "1/s"),
    ("segment_unseen_tok_per_s", "1/s"),
    ("segment_source_tok_per_s", "1/s"),
    ("bpe_train_s", "s"),
    ("bpe_apply_tok_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Step:
    def __init__(self, name, argv, stdin=None, stdout=None, outputs=()):
        self.name = name
        self.argv = argv
        self.stdin = stdin
        self.stdout = stdout
        self.outputs = tuple(outputs) + ((stdout,) if stdout else ())


def workload_steps(workload, inp, out, smoke):
    """The commands of one repetition of each phase, in order."""
    joint = workload == "train-joint"
    model = os.path.join(out, "model")
    train_flags = ["--max-epochs", str(EPOCHS), "--convergence", "0",
                   "--seed", str(TRAIN_SEED), "--out", model]
    if joint:
        cognates = os.path.join(out, "cognates.tsv")
        steps = [
            Step("extract-cognates", ["extract-cognates", "--pairs",
                                      os.path.join(inp, "aligned.tsv"), "--out", cognates],
                 outputs=[cognates]),
            Step("train", ["train", "--corpus-a", os.path.join(inp, "corpus_a.txt"),
                           "--corpus-b", os.path.join(inp, "corpus_b.txt"),
                           "--cognates", cognates, "--edit-mode", "full"] + train_flags,
                 outputs=[model]),
        ]
        target = os.path.join(inp, "target_joint.model")
    else:
        steps = [
            Step("train-mono", ["train-mono", "--corpus", os.path.join(inp, "corpus_a.txt")]
                 + train_flags, outputs=[model]),
        ]
        target = os.path.join(inp, "target_mono.model")
    merges = os.path.join(out, "merges.txt")
    counts = ",".join(os.path.join(inp, "counts_%s.tsv" % lang) for lang in "abs")
    apply = [
        Step("segment-stored", ["segment", "--model", target, "--lang", "a"],
             os.path.join(inp, "stream_stored.txt"), os.path.join(out, "stored.seg")),
        Step("segment-unseen", ["segment", "--model", target, "--lang", "a"],
             os.path.join(inp, "stream_unseen.txt"), os.path.join(out, "unseen.seg")),
        Step("segment-source", ["segment-source", "--source-model",
                                os.path.join(inp, "source.model"), "--cognate-model", target],
             os.path.join(inp, "stream_source.txt"), os.path.join(out, "source.seg")),
        Step("bpe-train", ["bpe-train", "--counts", counts, "--vocab",
                           str(BPE_VOCAB[smoke]), "--out", merges], outputs=[merges]),
        Step("bpe-apply", ["bpe-apply", "--merges", merges],
             os.path.join(inp, "stream_bpe.txt"), os.path.join(out, "bpe.seg")),
    ]
    return {"train": steps, "apply": apply}


def sha256(path):
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def token_counts(path):
    """(tokens, tag tokens) of a stream."""
    tokens = tags = 0
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            words = line.split()
            tokens += len(words)
            tags += sum(1 for w in words if w.startswith("<to_"))
    return tokens, tags


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Checks:
    """Each output check is one attempted operation; a failure one failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


class Run:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench_work", "%s-%d" % (args.workload, args.seed))
        self.inp = os.path.join(self.work, "in")
        self.out = os.path.join(self.work, "out")
        self.checks = Checks()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.hashes: dict[str, str] = {}
        self.facts: dict = {}

    # -- repetitions -------------------------------------------------------

    def run_step(self, step, name, hash_seed, traced):
        spec = {
            "src": self.src,
            "step": step.name,
            "argv": step.argv,
            "stdin": step.stdin,
            "stdout": step.stdout,
            "trace": traced,
            "result": os.path.join(self.work, "spec", name + ".result.json"),
            "spans": os.path.join(self.work, "trace", name + ".spans"),
        }
        spec_path = os.path.join(self.work, "spec", name + ".json")
        with open(spec_path, "w", encoding="utf-8") as stream:
            json.dump(spec, stream)
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed % (1 << 32)))
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                env=env, cwd=self.root, timeout=max(1.0, self.deadline - time.monotonic()),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: %s ran out of the run's time\n" % name)
            return None
        result = None
        if proc.returncode == 0:
            with open(spec["result"], encoding="utf-8") as stream:
                result = json.load(stream)
        if result is None or result["rc"] != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            return None
        return result

    def repetition(self, phase, rep, steps, traced):
        """One fresh process per command; returns step name -> result."""
        results = {}
        for index, step in enumerate(steps):
            name = "%s%d.%s" % (phase, rep, step.name)
            hash_seed = self.args.seed * 1009 + rep * 31 + index
            result = self.run_step(step, name, hash_seed, traced)
            if not self.checks.check(result is not None, "%s exited nonzero" % step.name):
                return None
            results[step.name] = result
            for path in step.outputs:
                digest = sha256(path)
                key = os.path.basename(path)
                first = self.hashes.setdefault(key, digest)
                if rep > 0:
                    self.checks.check(digest == first, "%s differs between repetitions" % key)
        return results

    # -- output checks -----------------------------------------------------

    def check_training(self, steps):
        """Checks of the trained model, from the first repetition."""
        from cogseg import trainer
        from cogseg.cli import load_word_counts
        from cogseg.errors import CogsegError
        from cogseg.serialization import load_model

        c = self.checks
        model_path = os.path.join(self.out, "model")
        try:
            model = load_model(model_path)
        except CogsegError as exc:
            c.check(False, "model does not reload: %s" % exc)
            return
        c.check(True, "model reloads")
        cached = model.total_cost()
        try:
            recount = model.recompute_from_scratch()
            ok = abs(recount - cached) <= 1e-9 * max(1.0, abs(recount))
        except CogsegError:
            ok = False
        c.check(ok, "recompute_from_scratch disagrees with the cached cost")
        c.check(
            all(len(model.analyses["a"][p.word_a].morphs)
                == len(model.analyses["b"][p.word_b].morphs) for p in model.pairs),
            "a pair has unequal morph counts",
        )
        corpus_a = load_word_counts(os.path.join(self.inp, "corpus_a.txt"))
        if steps[-1].name == "train":
            corpus_b = load_word_counts(os.path.join(self.inp, "corpus_b.txt"))
        else:
            corpus_b = {}
        pairs = [(p.word_a, p.word_b) for p in model.pairs]
        initial = trainer.initialize(corpus_a, corpus_b, pairs,
                                     trainer.TrainingParams()).total_cost()
        c.check(cached <= initial, "final cost %.4f above initial %.4f" % (cached, initial))
        self.facts.update(
            final_cost=cached,
            units=len(corpus_a) + len(corpus_b) - len(pairs),
            pairs_kept=len(pairs),
            trained_model_bytes=os.path.getsize(model_path),
        )

    def check_apply(self, steps):
        """Checks of the apply commands' outputs, from the first repetition."""
        from cogseg.segmenter import unjoin

        c = self.checks
        for step in steps:
            if step.stdin is None:
                continue
            with open(step.stdin, encoding="utf-8", newline="\n") as src, \
                    open(step.stdout, encoding="utf-8", newline="\n") as out:
                restored = "".join(unjoin(line.rstrip("\n"), JOINER) + "\n" for line in out)
                c.check(restored == src.read(), "%s: unjoin does not restore input" % step.name)
        merges = os.path.join(self.out, "merges.txt")
        with open(merges, encoding="utf-8") as stream:
            self.facts["merges"] = sum(1 for _ in stream)
        c.check(self.facts["merges"] > 0, "merges file is empty")
        target = steps[0].argv[2]
        self.facts["read_model_bytes"] = (os.path.getsize(target)
                                          + os.path.getsize(os.path.join(self.inp, "source.model")))

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, train_reps, apply_reps):
        def median(reps, f):
            return statistics.median(f(r) for r in reps)

        def throughput(step):
            tokens = self.facts["tokens"][step]

            def rate(r):
                res = r[step]
                return tokens / (res["wall_s"] - res["timers"].get("serialization.load_model", 0.0))

            return median(apply_reps, rate)

        def setup(r):
            total = r["extract-cognates"]["wall_s"] if "extract-cognates" in r else 0.0
            return total + sum(res["timers"].get(t, 0.0)
                               for res in r.values() for t in SETUP_TIMERS)

        def peak_mb(r):
            return max(res["maxrss_kb"] for res in r.values()) / 1024.0

        train = "train" if "train" in train_reps[0] else "train-mono"
        visited = self.facts["units"] * EPOCHS
        values = {
            "setup_s": median(train_reps, setup) + median(apply_reps, setup),
            "train_units_per_s": median(
                train_reps, lambda r: visited / r[train]["timers"]["trainer.train"]),
            "train_final_cost_nats": self.facts["final_cost"],
            "segment_stored_tok_per_s": throughput("segment-stored"),
            "segment_unseen_tok_per_s": throughput("segment-unseen"),
            "segment_source_tok_per_s": throughput("segment-source"),
            "bpe_train_s": median(apply_reps, lambda r: r["bpe-train"]["wall_s"]),
            "bpe_apply_tok_per_s": throughput("bpe-apply"),
            "peak_rss_mb": max(median(train_reps, peak_mb), median(apply_reps, peak_mb)),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self, reps):
        """Per-layer metrics: counts from the first traced repetition (and
        checked to repeat exactly), times as medians over traced ones."""
        train, apply = reps["train"]["traced"], reps["apply"]["traced"]
        traced = [dict(train[min(i, len(train) - 1)], **apply[min(i, len(apply) - 1)])
                  for i in range(max(len(train), len(apply)))]
        summaries = [layer_values(r, self.facts) for r in traced]
        first = summaries[0]
        for other in summaries[1:]:
            self.checks.check(
                all(other[k][0] == v for k, (v, unit) in first.items() if unit == "count"),
                "per-layer counts differ between traced repetitions",
            )
        values = {}
        for name, (value, unit) in first.items():
            if unit != "count":
                value = statistics.median(s[name][0] for s in summaries)
            values[name] = {"value": value, "unit": unit}

        def wall(kind):
            return sum(
                statistics.median(sum(res["wall_s"] for res in r.values()) for r in phase[kind])
                for phase in reps.values()
            )

        values["trace.overhead_ratio"] = {"value": wall("traced") / wall("untraced"),
                                          "unit": "ratio"}
        return values

    # -- the run -----------------------------------------------------------

    def prepare(self):
        """Generate the inputs and count what the metrics divide by."""
        args = self.args
        shutil.rmtree(os.path.join(self.root, ".perfbench_work"), ignore_errors=True)
        for sub in ("in", "out", "spec", "trace"):
            os.makedirs(os.path.join(self.work, sub))
        sizes = gen.generate(args.seed, self.inp, **(SMOKE_SIZE if args.smoke
                                                      else SIZES[args.workload]))
        gen.write_models(self.inp)
        phases = workload_steps(args.workload, self.inp, self.out, args.smoke)
        self.facts.update(tokens={}, tags={}, pairs_in=0)
        if args.workload == "train-joint":
            with open(os.path.join(self.inp, "aligned.tsv"), encoding="utf-8") as stream:
                self.facts["pairs_in"] = sum(1 for _ in stream)
        for step in phases["apply"]:
            if step.stdin:
                self.facts["tokens"][step.name], self.facts["tags"][step.name] = \
                    token_counts(step.stdin)
        return sizes, phases

    def execute(self):
        args = self.args
        sizes, phases = self.prepare()
        cpu = probe.pin_to_fastest_cpu()
        reps = {phase: {"untraced": [], "traced": []} for phase in phases}
        start = time.monotonic()
        for phase, steps in phases.items():
            budget = args.seconds * (TRAIN_SHARE if phase == "train" else 1.0)
            min_reps = MIN_REPS[args.trace][phase]
            rep = 0
            while rep < min_reps or time.monotonic() - start < budget:
                traced = bool(args.trace) and rep % 2 == 1
                results = self.repetition(phase, rep, steps, traced)
                if results is None:
                    break
                reps[phase]["traced" if traced else "untraced"].append(results)
                if rep == 0:
                    (self.check_training if phase == "train" else self.check_apply)(steps)
                rep += 1
            if self.checks.failed:
                break
        self.facts["model_bytes"] = (self.facts.get("trained_model_bytes", 0)
                                     + self.facts.get("read_model_bytes", 0))

        sizes.update(pairs_kept=self.facts.get("pairs_kept", 0), units=self.facts.get("units", 0))
        report = {"workload": args.workload, "seed": args.seed, "sizes": sizes, "cpu": cpu,
                  "hashes": self.hashes,
                  "repetitions": {p: len(r["untraced"]) + len(r["traced"])
                                  for p, r in reps.items()}}
        baseline = load_baseline()
        if args.seed == baseline["seed"] and not args.smoke:
            report["hashes_match_baseline"] = self.hashes == baseline["hashes"].get(args.workload)
        if self.checks.messages:
            report["failures"] = self.checks.messages[:20]
        else:
            report["step_wall_s"] = {
                s.name: statistics.median(r[s.name]["raw_wall_s"] for r in reps[p]["untraced"])
                for p, steps in phases.items() for s in steps}
        print(json.dumps(report, sort_keys=True))

        metrics = {}
        if not self.checks.failed:
            if args.trace:
                metrics = self.per_layer(reps)
            else:
                metrics = self.end_to_end(reps["train"]["untraced"], reps["apply"]["untraced"])
        c = self.checks
        print(json.dumps({"correct": c.failed == 0, "attempted": c.attempted,
                          "failed": c.failed, "metrics": metrics}))
        return 0


def load_baseline():
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as stream:
        return json.load(stream)


def layer_values(rep, facts):
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    counts: dict[str, int] = {}
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    peak = {"edits.extract_edits.distinct_keys": 0, "edits.extract_edits.cache_misses": 0,
            "edits.extract_edits.cache_currsize": 0}
    cache = {"edits": [0, 0], "forms": [0, 0]}
    for res in rep.values():
        layers = res["layers"]
        for name, n in layers["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in layers["s"].items():
            seconds[name] = seconds.get(name, 0.0) + s
        for name, values in layers["durations"].items():
            durations.setdefault(name, []).extend(values)
        for name, n in layers["counts"].items():
            if name in peak:
                peak[name] = max(peak[name], n)
            else:
                counts[name] = counts.get(name, 0) + n
        cache["edits"][0] += layers["counts"]["edits.extract_edits.cache_hits"]
        cache["edits"][1] += layers["counts"]["edits.extract_edits.cache_misses"]
        cache["forms"][0] += layers["counts"]["trainer.edit_forms.cache_hits"]
        cache["forms"][1] += layers["counts"]["trainer.edit_forms.cache_misses"]

    def ratio(hits_misses):
        hits, misses = hits_misses
        return hits / (hits + misses) if hits + misses else 0.0

    train = next((res["layers"] for res in rep.values() if "train" in res["layers"]), None)
    visited = train["train"]["units"] * train["train"]["epochs"] if train else 0
    segment_tokens = sum(facts["tokens"][s] - facts["tags"][s] for s in SEGMENT_STEPS)
    viterbi_calls = sum(rep[s]["layers"]["calls"].get("segmenter.viterbi_segment", 0)
                        for s in SEGMENT_STEPS)
    v = {
        "edits.extract_edits.calls": (calls.get("edits.extract_edits", 0), "count"),
        "edits.extract_edits.s": (seconds.get("edits.extract_edits", 0.0), "s"),
        "edits.extract_edits.hit_ratio": (ratio(cache["edits"]), "ratio"),
        "edits.extract_edits.distinct_keys": (peak["edits.extract_edits.distinct_keys"], "count"),
        "edits.extract_edits.cache_misses": (peak["edits.extract_edits.cache_misses"], "count"),
        "edits.extract_edits.cache_currsize": (peak["edits.extract_edits.cache_currsize"],
                                               "count"),
        "trainer.edit_forms.cache_misses": (cache["forms"][1], "count"),
        "trainer.edit_forms.hit_ratio": (ratio(cache["forms"]), "ratio"),
        "edits.levenshtein_align.calls": (calls.get("edits.levenshtein_align", 0), "count"),
        "edits.levenshtein_align.s": (seconds.get("edits.levenshtein_align", 0.0), "s"),
        "model.CountLexicon.add.calls": (counts.get("model.CountLexicon.add", 0), "count"),
        "model.total_cost.calls": (counts.get("model.total_cost", 0), "count"),
        "model.recompute_from_scratch.s": (train["recompute_s"] if train else 0.0, "s"),
        "model.recount_gap_nats": (train["recount_gap_nats"] if train else 0.0, "nats"),
        "trainer.train.s": (seconds.get("trainer.train", 0.0), "s"),
        "trainer.candidates_per_unit": (
            train["train"]["total_cost_calls"] / visited if visited else 0.0, "ratio"),
        "trainer.units_changed_ratio": (
            train["train"]["units_changed"] / visited if visited else 0.0, "ratio"),
    }
    for name, unit, scale in (
        ("trainer.resegment_word", "ms", 1e3),
        ("trainer.resegment_pair", "ms", 1e3),
        ("segmenter.viterbi_segment", "us", 1e6),
    ):
        v[name + ".calls"] = (calls.get(name, 0), "count")
        v[name + ".s"] = (seconds.get(name, 0.0), "s")
        v["%s.p50_%s" % (name, unit)] = (percentile(durations[name], 0.5) * scale, unit)
        v["%s.p99_%s" % (name, unit)] = (percentile(durations[name], 0.99) * scale, unit)
    v.update({
        "segmenter.stored_tokens": (segment_tokens - viterbi_calls, "count"),
        "segmenter.viterbi_tokens": (viterbi_calls, "count"),
        "segmenter.unknown_char_tokens": (counts.get("segmenter.unknown_char_tokens", 0),
                                          "count"),
        "serialization.load_model.s": (seconds.get("serialization.load_model", 0.0), "s"),
        "serialization.save_model.s": (seconds.get("serialization.save_model", 0.0), "s"),
        "serialization.model_bytes": (facts["model_bytes"], "bytes"),
        "bpe.train_bpe.s": (seconds.get("bpe.train_bpe", 0.0), "s"),
        "bpe.merges": (facts["merges"], "count"),
        "bpe.apply_bpe.calls": (calls.get("bpe.apply_bpe", 0), "count"),
        "bpe.apply_bpe.s": (seconds.get("bpe.apply_bpe", 0.0), "s"),
        "bpe.apply_bpe.p99_us": (percentile(durations["bpe.apply_bpe"], 0.99) * 1e6, "us"),
        "cognates.extract.s": (seconds.get("cognates.extract", 0.0), "s"),
        "cognates.extract.pairs_in": (facts["pairs_in"], "count"),
        "cognates.extract.pairs_kept": (facts["pairs_kept"], "count"),
    })
    for step in ALL_STEPS:
        self_s = rep[step]["layers"]["self_s"] if step in rep else 0.0
        v["cli.%s.self_s" % step] = (self_s, "s")
    return v


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cogseg", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a cogseg checkout "
                         "(src/cogseg not found in %s)\n" % root)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    return Run(args, root).execute()


if __name__ == "__main__":
    sys.exit(main())
