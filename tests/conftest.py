"""Shared trained fixtures.

Training is deterministic, so these are built once per session: a tiny
memorization model, the 500-sentence fixture with paired cause/mean frames,
and the inference fixture whose corpus holds premises and conclusions.
"""

import time

import pytest

from vqlat import corpus as cg
from vqlat.model import ModelConfig
from vqlat.quantizer import QuantizerConfig
from vqlat.training import TrainSchedule, train_model


def fixture_corpus(seed: int = 42) -> list[cg.AnnotatedSentence]:
    """500 grammar sentences: 300 sampled plus the full cause and mean grids.

    The grids pair every event with every effect under both relations, so the
    two predicate regions share frames exactly.
    """
    sentences = cg.generate_sentences(seed, 300)
    for event in cg.EVENTS:
        for effect in cg.EFFECTS:
            sentences.append(cg.make_causes(event, effect))
            sentences.append(cg.make_means_nn(event, effect))
    return sentences


def train_bundle(token_lists, seed=0, epochs=60, codebook_size=256, target=1.0,
                 d_model=64, n_heads=4, check_every=5, batch_size=16, lr=2e-3):
    vocab = cg.build_vocab(token_lists)
    config = ModelConfig(vocab_size=len(vocab), d_model=d_model, n_heads=n_heads, max_len=16)
    schedule = TrainSchedule(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed,
                             codebook_size=codebook_size, codebook_decay=0.9,
                             target_exact_match=target, check_every=check_every)
    log: list[dict] = []
    bundle = train_model(token_lists, vocab, config, QuantizerConfig(), schedule, log)
    return bundle, log


def inference_fixture_corpus(instances: list[cg.InferenceInstance]) -> list[cg.AnnotatedSentence]:
    """Deduplicated premises and conclusions, suitable for memorization training."""
    seen: set[str] = set()
    corpus: list[cg.AnnotatedSentence] = []
    for inst in instances:
        for sent in (inst.premise1, inst.premise2, inst.conclusion):
            key = sent.text()
            if key not in seen:
                seen.add(key)
                corpus.append(sent)
    return corpus


@pytest.fixture(scope="session")
def memorization_fixture():
    sentences = cg.generate_sentences(0, 10)
    tokens = [s.tokens for s in sentences]
    start = time.monotonic()
    bundle, log = train_bundle(tokens, seed=0, epochs=300, codebook_size=64)
    elapsed = time.monotonic() - start
    return {"bundle": bundle, "sentences": sentences, "tokens": tokens,
            "log": log, "seconds": elapsed}


@pytest.fixture(scope="session")
def trained_fixture():
    sentences = fixture_corpus(42)
    tokens = [s.tokens for s in sentences]
    start = time.monotonic()
    bundle, log = train_bundle(tokens, seed=0, epochs=50, codebook_size=512, target=0.9)
    elapsed = time.monotonic() - start
    return {"bundle": bundle, "sentences": sentences, "tokens": tokens,
            "log": log, "seconds": elapsed}


@pytest.fixture(scope="session")
def inference_fixture():
    instances = cg.generate_inference_instances(0, 100)
    corpus = inference_fixture_corpus(instances)
    tokens = [s.tokens for s in corpus]
    start = time.monotonic()
    bundle, log = train_bundle(tokens, seed=0, epochs=80, codebook_size=256)
    elapsed = time.monotonic() - start
    return {"bundle": bundle, "instances": instances, "corpus": corpus,
            "log": log, "seconds": elapsed}


def region_grid_corpus() -> list[cg.AnnotatedSentence]:
    """Paired cause/mean frames over the full event-by-effect grid."""
    grid = []
    for event in cg.EVENTS:
        for effect in cg.EFFECTS:
            grid.append(cg.make_causes(event, effect))
            grid.append(cg.make_means_nn(event, effect))
    return grid


@pytest.fixture(scope="session")
def region_fixture():
    """Narrow-width model for the predicate-region movement experiment.

    A small latent width keeps the discriminative direction within reach of
    the tree path's axis-aligned edits, and a word-level codebook keeps
    context rows snapped to their own entries while the verb row crosses.
    """
    grid = region_grid_corpus()
    tokens = [s.tokens for s in grid]
    bundle, log = train_bundle(tokens, seed=0, epochs=150, codebook_size=32,
                               d_model=16, n_heads=4, target=0.98, check_every=10)
    cause = [s for s in grid if s.template_id == "causes"]
    mean = [s for s in grid if s.template_id == "means_nn"]
    return {"bundle": bundle, "cause": cause, "mean": mean, "log": log}
