"""Run one cogseg CLI command in this (fresh) process and time it from outside.

The benchmark starts one process per command, as a user does, so the
module-level lru_caches in cogseg.edits and cogseg.trainer start cold every
time. Reusing a process would let every command after the first hit a warm
edit cache and look faster than any real invocation.

Untraced, the only hooks are timestamps around the set-up calls a command
makes once (load_word_counts, read_pairs_tsv, initialize, load_model) and
around trainer.train. Traced, every public function of each module is
wrapped where it is looked up (modules import functions by name), each call
records a span {name, start, end, parent} in memory, and the spans are
written out when the command ends. CountLexicon.add and
CognateModel.total_cost run tens of millions of times and only count calls.

Every reported time is normalized for host speed with perfbench/probe.py:
the probe runs a few times before and after the command and, in untraced
runs, every SAMPLE_INTERVAL_S during it (from a SIGALRM handler, its time
taken out of the command's), and times are scaled by
probe.REF_S / (mean probe time).

Run: python3 perfbench/child.py SPEC.json   (written by perfbench/run.py)
"""

from __future__ import annotations

import array
import json
import resource
import signal
import statistics
import sys
import time

import probe

clock = time.perf_counter

SAMPLE_INTERVAL_S = 0.02

# Set-up calls: timestamped in every run, traced or not.
SETUP = (
    ("cli", "load_word_counts"),
    ("cognates", "read_pairs_tsv"),
    ("trainer", "initialize"),
    ("serialization", "load_model"),
)

# Traced only: (module looked up in, attribute, span name).
TRACED = (
    ("cli", "load_count_table", "cli.load_count_table"),
    ("cognates", "extract", "cognates.extract"),
    ("cognates", "write_pairs_tsv", "cognates.write_pairs_tsv"),
    ("trainer", "resegment_word", "trainer.resegment_word"),
    ("trainer", "resegment_pair", "trainer.resegment_pair"),
    ("trainer", "extract_edits", "edits.extract_edits"),
    ("model", "extract_edits", "edits.extract_edits"),
    ("edits", "levenshtein_align", "edits.levenshtein_align"),
    ("serialization", "save_model", "serialization.save_model"),
    ("segmenter", "viterbi_segment", "segmenter.viterbi_segment"),
    ("bpe", "balance_counts", "bpe.balance_counts"),
    ("bpe", "train_bpe", "bpe.train_bpe"),
    ("bpe", "save_merges", "bpe.save_merges"),
    ("bpe", "load_merges", "bpe.load_merges"),
    ("bpe", "apply_bpe", "bpe.apply_bpe"),
)


class HostSampler:
    """Probe samples of this CPU's speed, taken while a command runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = clock()
        self.samples.append(probe.probe_once())
        self.spent += clock() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Timers:
    """Accumulated seconds per hooked name; the untraced run's only hooks.
    The probe passes the sampler runs inside a call are taken out."""

    def __init__(self, sampler):
        self.totals: dict[str, float] = {}
        self.sampler = sampler

    def wrap(self, func, name):
        totals = self.totals
        sampler = self.sampler

        def timed(*args, **kwargs):
            spent = sampler.spent
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start - (sampler.spent - spent)
                totals[name] = totals.get(name, 0.0) + elapsed

        return timed


class Tracer:
    """In-memory spans: four doubles (name id, start, end, parent) per call."""

    def __init__(self):
        self.names: list[str] = []
        self.data = array.array("d")
        self.stack = [-1.0]
        self.counts: dict[str, int] = {}
        # Distinct (morph_a, morph_b) keys reaching the edit cache.
        self.edit_keys: set[tuple[str, str]] = set()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, func, name):
        nid = float(self.name_id(name))
        data = self.data
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(data) >> 2
            data.extend((nid, 0.0, 0.0, stack[-1]))
            stack.append(float(idx))
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                data[4 * idx + 1] = start
                data[4 * idx + 2] = end

        return traced

    def count(self, func, name):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    def spans(self):
        """(name, start, end, parent index) per recorded span."""
        data = self.data
        for i in range(0, len(data), 4):
            yield self.names[int(data[i])], data[i + 1], data[i + 2], int(data[i + 3])

    def write(self, path):
        with open(path, "wb") as stream:
            self.data.tofile(stream)
        with open(path + ".names", "w", encoding="utf-8") as stream:
            json.dump(self.names, stream)


def read_spans(path):
    """Spans written by Tracer.write, as (name, start, end, parent) tuples."""
    tracer = Tracer()
    with open(path + ".names", encoding="utf-8") as stream:
        tracer.names = json.load(stream)
    with open(path, "rb") as stream:
        tracer.data.frombytes(stream.read())
    return list(tracer.spans())


class TrainObserver:
    """Traced run only: watches trainer.train for units, epochs and changes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.model = None
        self.info: dict = {}

    def wrap(self, train):
        counts = self.tracer.counts

        def observed(model, params, epoch_callback=None):
            def snapshot():
                return {
                    (lang, word): analysis.morphs
                    for lang in ("a", "b")
                    for word, analysis in model.analyses[lang].items()
                }

            units = sum(
                1
                for lang in ("a", "b")
                for word in model.analyses[lang]
                if model.pair_for(lang, word) is None
            ) + len(model.pairs)
            state = {"prev": snapshot(), "changed": 0}

            def callback(m, epoch):
                now = snapshot()
                changed = {key for key, morphs in now.items() if state["prev"][key] != morphs}
                seen_pairs = set()
                for lang, word in changed:
                    pair = m.pair_for(lang, word)
                    if pair is None:
                        state["changed"] += 1
                    elif pair.key not in seen_pairs:
                        seen_pairs.add(pair.key)
                        state["changed"] += 1
                state["prev"] = now
                if epoch_callback is not None:
                    epoch_callback(m, epoch)

            cost_calls = counts["model.total_cost"]
            report = train(model, params, epoch_callback=callback)
            self.model = model
            self.info = {
                "units": units,
                "epochs": report.epochs_run,
                "total_cost_calls": counts["model.total_cost"] - cost_calls,
                "units_changed": state["changed"],
            }
            return report

        return observed


def _install(modules, spec, sampler):
    """Patch the hooks into the modules; returns (timers, tracer, observer)."""
    timers = Timers(sampler)
    if not spec["trace"]:
        for module, attr in SETUP:
            setattr(modules[module], attr, timers.wrap(getattr(modules[module], attr),
                                                       "%s.%s" % (module, attr)))
        modules["trainer"].train = timers.wrap(modules["trainer"].train, "trainer.train")
        return timers, None, None

    tracer = Tracer()
    observer = TrainObserver(tracer)
    model = modules["model"]
    model.CountLexicon.add = tracer.count(model.CountLexicon.add, "model.CountLexicon.add")
    model.CognateModel.total_cost = tracer.count(model.CognateModel.total_cost,
                                                 "model.total_cost")
    for module, attr in SETUP:
        setattr(modules[module], attr, tracer.wrap(getattr(modules[module], attr),
                                                   "%s.%s" % (module, attr)))
    modules["trainer"].train = tracer.wrap(observer.wrap(modules["trainer"].train),
                                           "trainer.train")
    for module, attr, name in TRACED:
        setattr(modules[module], attr, tracer.wrap(getattr(modules[module], attr), name))

    # Unknown-character tokens: Viterbi results that emit a morph the
    # lexicon does not hold. Counted outside the span.
    traced_viterbi = modules["segmenter"].viterbi_segment
    tracer.counts["segmenter.unknown_char_tokens"] = 0

    def viterbi(lexicon, word, *args, **kwargs):
        analysis = traced_viterbi(lexicon, word, *args, **kwargs)
        if any(m not in lexicon.counts for m in analysis.morphs):
            tracer.counts["segmenter.unknown_char_tokens"] += 1
        return analysis

    modules["segmenter"].viterbi_segment = viterbi

    # Distinct keys reaching the edit cache are its working set.
    keys = tracer.edit_keys
    for module in ("trainer", "model"):
        traced_extract = getattr(modules[module], "extract_edits")

        def extract(morph_a, morph_b, _inner=traced_extract):
            keys.add((morph_a, morph_b))
            return _inner(morph_a, morph_b)

        setattr(modules[module], "extract_edits", extract)
    return timers, tracer, observer


# Spans whose latency distribution is reported, not only their sum.
DISTRIBUTIONS = (
    "trainer.resegment_word",
    "trainer.resegment_pair",
    "segmenter.viterbi_segment",
    "bpe.apply_bpe",
)


def _layer_summary(tracer, observer, edit_cache, edit_forms_cache):
    """Per-layer numbers of this command, computed after it has ended."""
    counts = dict(tracer.counts)
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    durations: dict[str, list[float]] = {name: [] for name in DISTRIBUTIONS}
    covered: dict[int, float] = {}
    self_s = 0.0
    for idx, (name, start, end, parent) in enumerate(tracer.spans()):
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + end - start
        if name in durations:
            durations[name].append(end - start)
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + end - start
        else:
            self_s = end - start - covered.get(idx, 0.0)
    counts["edits.extract_edits.distinct_keys"] = len(tracer.edit_keys)
    info = edit_cache.cache_info()
    counts["edits.extract_edits.cache_hits"] = info.hits
    counts["edits.extract_edits.cache_misses"] = info.misses
    counts["edits.extract_edits.cache_currsize"] = info.currsize
    info = edit_forms_cache.cache_info()
    counts["trainer.edit_forms.cache_hits"] = info.hits
    counts["trainer.edit_forms.cache_misses"] = info.misses
    out = {"counts": counts, "calls": calls, "s": seconds, "durations": durations,
           "self_s": self_s}
    if observer.model is not None:
        model = observer.model
        cached = model.total_cost()
        start = clock()
        recount = model.recompute_from_scratch()
        out["recompute_s"] = clock() - start
        out["recount_gap_nats"] = abs(cached - recount)
        out["train"] = observer.info
    return out


def scale_times(result, scale):
    """Normalize the reported times for host speed (see probe.py)."""
    result["raw_wall_s"] = result["wall_s"]
    result["host_scale"] = scale
    result["wall_s"] *= scale
    result["timers"] = {k: v * scale for k, v in result["timers"].items()}
    layers = result.get("layers")
    if layers:
        layers["s"] = {k: v * scale for k, v in layers["s"].items()}
        layers["durations"] = {k: [v * scale for v in values]
                               for k, values in layers["durations"].items()}
        layers["self_s"] *= scale
        if "recompute_s" in layers:
            layers["recompute_s"] *= scale


def main(spec_path):
    with open(spec_path, encoding="utf-8") as stream:
        spec = json.load(stream)
    sys.path.insert(0, spec["src"])
    from cogseg import bpe, cli, cognates, edits, model, segmenter, serialization, trainer

    modules = {
        "bpe": bpe, "cli": cli, "cognates": cognates, "edits": edits, "model": model,
        "segmenter": segmenter, "serialization": serialization, "trainer": trainer,
    }
    edit_cache = edits.extract_edits
    edit_forms_cache = trainer._edit_forms
    sampler = HostSampler()
    timers, tracer, observer = _install(modules, spec, sampler)
    run = cli.main
    if tracer is not None:
        run = tracer.wrap(run, "cli." + spec["step"])

    stdin, stdout = sys.stdin, sys.stdout
    try:
        if spec["stdin"]:
            sys.stdin = open(spec["stdin"], encoding="utf-8", newline="\n")
        if spec["stdout"]:
            sys.stdout = open(spec["stdout"], "w", encoding="utf-8", newline="\n")
        for _ in range(5):
            probe.probe_once()  # warm up
        samples = [probe.probe_once() for _ in range(10)]
        start = clock()
        if tracer is None:
            with sampler:
                rc = run(spec["argv"])
        else:
            rc = run(spec["argv"])
        wall = clock() - start - sampler.spent
        samples += sampler.samples + [probe.probe_once() for _ in range(10)]
    finally:
        for opened, original in ((sys.stdin, stdin), (sys.stdout, stdout)):
            if opened is not original:
                opened.close()
        sys.stdin, sys.stdout = stdin, stdout

    result = {
        "rc": rc,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": statistics.fmean(samples),
        "probe_samples": len(samples),
    }
    if tracer is None:
        result["timers"] = timers.totals
    else:
        totals: dict[str, float] = {}
        for name, start, end, _ in tracer.spans():
            totals[name] = totals.get(name, 0.0) + end - start
        result["timers"] = totals
        tracer.write(spec["spans"])
        result["layers"] = _layer_summary(tracer, observer, edit_cache, edit_forms_cache)
    scale_times(result, probe.REF_S / result["probe_s"])
    with open(spec["result"], "w", encoding="utf-8") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
