"""The paper's claim as a gate: Cognate Morfessor segments cognates more
consistently than monolingual Morfessor.

The world is the benchmark generator's (perfbench/gen.py, loaded from its
file and not changed): 600 a-side types at seed 1, whose cognate pairs are
built morph by morph with gen.to_b. A gold pair counts as consistent when
the trained b analysis is gen.to_b of each trained a morph. The world and
the seed were fixed before the result was looked at.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cogseg.trainer import TrainingParams, initialize, train

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    # Write no bytecode cache into the benchmark's directory.
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


gen = load_gen()


def trained(corpus_a, corpus_b, pairs, alpha):
    params = TrainingParams(alpha=alpha, rng_seed=1)
    model = initialize(corpus_a, corpus_b, pairs, params)
    train(model, params)
    return model


def consistent_pairs(world, analyses_a, analyses_b):
    """The gold pairs whose b analysis is gen.to_b of their a analysis."""
    return sum(
        tuple(map(gen.to_b, analyses_a[word_a].morphs)) == analyses_b[word_b].morphs
        for word_a, word_b in world.pairs
    )


@pytest.fixture(scope="module")
def world():
    return gen.World(1, 600)


@pytest.mark.parametrize("alpha", [0.01, 1.0])
def test_joint_training_segments_cognates_more_consistently(world, alpha):
    corpus_a = {word: count for word, (_, count) in world.a.items()}
    corpus_b = {word: count for word, (_, count) in world.b.items()}
    joint = trained(corpus_a, corpus_b, world.pairs, alpha)
    # Each monolingual model holds its one language on side a.
    mono_a = trained(corpus_a, {}, [], alpha)
    mono_b = trained(corpus_b, {}, [], alpha)
    joint_hits = consistent_pairs(world, joint.analyses["a"], joint.analyses["b"])
    mono_hits = consistent_pairs(world, mono_a.analyses["a"], mono_b.analyses["a"])
    assert joint_hits > mono_hits, (joint_hits, mono_hits, len(world.pairs))
