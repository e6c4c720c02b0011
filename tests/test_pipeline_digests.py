"""The whole pipeline's output bytes, pinned.

A 600-type seed-1 world from the benchmark's generator runs through every
command of the paper's pipeline, in process through cli.main, and the
SHA-256 of each of the 8 outputs must equal its committed digest. A change
that alters output on purpose updates DIGESTS and COSTS and says so in
CHANGES.md, with the cost difference.

Two more pins make the test see changes that a world this size does not
turn into other bytes. The total cost and the cost components of each
trained model, as loaded, are pinned bit for bit: one-ulp changes to a cost
term flipped no training decision on this world, but they change those
costs. And the bpe-apply stream gets one line of words holding runs of a
symbol the learned table merges with itself ("lll"), whose overlapping
occurrences the generated words never hold: apply_bpe merges the leftmost
first.

The values were recorded with CPython 3.11 on Linux. They are the same
under CPython 3.10, 3.12 and 3.13 and under PYTHONHASHSEED 0, 12345 and
random seeds. Another platform's libm may round a cost term differently,
and that is outside what this test checks.
"""

import hashlib
import sys

import pytest

from cogseg import cli, edits
from cogseg.serialization import load_model

from worlds import gen

DIGESTS = {
    "cognates.tsv": "f2d62a47bda3ba779c7a2c8fcaf963b0ea7f966951d7d0896a073963081699c8",
    "joint.model": "9c4946d22c381b1cde08f139199c21c811b0313ff639676450a9190d5be908d4",
    "mono.model": "d1b1159a548247f4d9a6afd9d3cc29e02d96dd0153c7ed052df633113175bba7",
    "stored.seg": "b6e00c9a2001c80be44edb1d13931b6ec76e2c87e05dec6f1a68c1427825eec8",
    "unseen.seg": "fe433b47f1c1746c6a6d2275e75cafc6e06d8f47230896b2f087dfaccfdd128d",
    "source.seg": "7ef4577a3eee7e6613b2045bb1669fe18685ede1d84e44d9168f993279a44ede",
    "merges.txt": "3d4684a4c0dee4b675e7c58012033f27e6e812197af037f95a2f50a499b93cbd",
    "bpe.seg": "fedcaa696624aabec9dca44a0f7084475b59961c7fd4343cbd931f96b300ebe5",
}

# float.hex of the total cost and of each cost component of each trained
# model, as loaded.
COSTS = {
    "joint.model": [
        "0x1.7d27d855a56e3p+13",
        "0x1.192cc2a373c99p+12",
        "0x1.aaf4c21428745p+15",
        "0x1.207c0cd8ab360p+12",
        "0x1.c308de7b8f238p+15",
        "0x1.75cc0b79a1d76p+7",
        "0x1.c0153c451cc48p+9",
    ],
    "mono.model": [
        "0x1.22b137454498bp+12",
        "0x1.fe8009358864cp+11",
        "0x1.bb06f95344fecp+15",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
    ],
}

# Words holding runs of the self-merged symbols of the learned table.
BPE_RUNS = "lll eeee telllo\n"

TRAIN_FLAGS = ["--max-epochs", "2", "--convergence", "0", "--seed", "1"]


def run(argv, stdin=None, stdout=None):
    """cli.main(argv) with an empty edit-form cache, stdin read from the
    file stdin and stdout written to the file stdout, if given."""
    edits.edit_forms.cache_clear()
    saved = sys.stdin, sys.stdout
    try:
        if stdin is not None:
            sys.stdin = open(stdin, encoding="utf-8", newline="\n")
        if stdout is not None:
            sys.stdout = open(stdout, "w", encoding="utf-8", newline="\n")
        assert cli.main([str(arg) for arg in argv]) == 0, argv
    finally:
        for opened, original in zip((sys.stdin, sys.stdout), saved):
            if opened is not original:
                opened.close()
        sys.stdin, sys.stdout = saved


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The name and path of each output of one pipeline run."""
    inp = tmp_path_factory.mktemp("world")
    out = tmp_path_factory.mktemp("out")
    gen.generate(1, inp, types=600, stored=2000, unseen=1000, source=1000, bpe=1000,
                 bpe_types=200)
    gen.write_models(inp)
    target = inp / "target_joint.model"
    run(["extract-cognates", "--pairs", inp / "aligned.tsv", "--out", out / "cognates.tsv"])
    run(["train", "--corpus-a", inp / "corpus_a.txt", "--corpus-b", inp / "corpus_b.txt",
         "--cognates", out / "cognates.tsv", "--edit-mode", "full", "--out",
         out / "joint.model"] + TRAIN_FLAGS)
    run(["train-mono", "--corpus", inp / "corpus_a.txt", "--out", out / "mono.model"]
        + TRAIN_FLAGS)
    run(["segment", "--model", target, "--lang", "a"],
        inp / "stream_stored.txt", out / "stored.seg")
    run(["segment", "--model", target, "--lang", "a"],
        inp / "stream_unseen.txt", out / "unseen.seg")
    run(["segment-source", "--source-model", inp / "source.model", "--cognate-model", target],
        inp / "stream_source.txt", out / "source.seg")
    with open(inp / "stream_bpe.txt", "a", encoding="utf-8", newline="\n") as stream:
        stream.write(BPE_RUNS)
    counts = ",".join(str(inp / ("counts_%s.tsv" % lang)) for lang in "abs")
    run(["bpe-train", "--counts", counts, "--vocab", "400", "--out", out / "merges.txt"])
    run(["bpe-apply", "--merges", out / "merges.txt"],
        inp / "stream_bpe.txt", out / "bpe.seg")
    return {name: out / name for name in DIGESTS}


def test_pipeline_outputs_match_their_digests(outputs):
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in outputs.items()}
    assert digests == DIGESTS


def cost_pins(model):
    return [cost.hex() for cost in (model.total_cost(), *model.cost_components().values())]


def test_trained_model_costs_match_their_pins(outputs):
    assert {name: cost_pins(load_model(outputs[name])) for name in COSTS} == COSTS
