"""The paper's claim as a gate: Cognate Morfessor segments cognates more
consistently than monolingual Morfessor.

The world is the benchmark generator's (perfbench/gen.py, loaded from its
file and not changed): 600 a-side types at seed 1, whose cognate pairs are
built morph by morph with gen.to_b. A gold pair counts as consistent when
the trained b analysis is gen.to_b of each trained a morph. The world and
the seed were fixed before the result was looked at.

The claim is checked on two sets of pairs: the gold pairs, which training
stores, and unseen pairs, new inflections of the shared stems that neither
corpus holds, which Viterbi segments under each side's lexicon. Each model
is trained once per alpha and serves both checks.
"""

import pytest

from cogseg.segmenter import viterbi_segment
from cogseg.trainer import TrainingParams, initialize, train

from worlds import gen


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


def unseen_pairs(world):
    """Each shared stem with each gen.A_SUFFIXES suffix, where neither
    corpus holds the a word or its b word; the b word is the a word's stem
    and suffix mapped by gen.to_b."""
    stems = {world.a[word_a][0][0] for word_a, _ in world.pairs}
    pairs = set()
    for stem in stems:
        for suffix in gen.A_SUFFIXES:
            word_a, word_b = stem + suffix, gen.to_b(stem) + gen.to_b(suffix)
            if word_a not in world.a and word_b not in world.b:
                pairs.add((word_a, word_b))
    return sorted(pairs)


def consistent_unseen_pairs(pairs, lexicon_a, lexicon_b):
    """The pairs whose b segmentation is gen.to_b of their a segmentation."""
    return sum(
        tuple(map(gen.to_b, viterbi_segment(lexicon_a, word_a).morphs))
        == viterbi_segment(lexicon_b, word_b).morphs
        for word_a, word_b in pairs
    )


@pytest.fixture(scope="module")
def world():
    return gen.World(1, 600)


@pytest.fixture(scope="module", params=[0.01, 1.0])
def models(request, world):
    """(joint, mono_a, mono_b) trained at one alpha. Each monolingual model
    holds its one language on side a."""
    alpha = request.param
    corpus_a = {word: count for word, (_, count) in world.a.items()}
    corpus_b = {word: count for word, (_, count) in world.b.items()}
    return (
        trained(corpus_a, corpus_b, world.pairs, alpha),
        trained(corpus_a, {}, [], alpha),
        trained(corpus_b, {}, [], alpha),
    )


def test_joint_training_segments_cognates_more_consistently(world, models):
    joint, mono_a, mono_b = models
    joint_hits = consistent_pairs(world, joint.analyses["a"], joint.analyses["b"])
    mono_hits = consistent_pairs(world, mono_a.analyses["a"], mono_b.analyses["a"])
    assert joint_hits > mono_hits, (joint_hits, mono_hits, len(world.pairs))


def test_joint_training_segments_unseen_cognates_more_consistently(world, models):
    joint, mono_a, mono_b = models
    pairs = unseen_pairs(world)
    assert pairs
    joint_hits = consistent_unseen_pairs(pairs, joint.lexicons["a"], joint.lexicons["b"])
    mono_hits = consistent_unseen_pairs(pairs, mono_a.lexicons["a"], mono_b.lexicons["a"])
    assert joint_hits > mono_hits, (joint_hits, mono_hits, len(pairs))
