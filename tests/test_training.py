"""Trainer behaviour: determinism, persistence, and memorization quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqlat import corpus as cg
from vqlat import model as md
from vqlat.cli import _reconstruct_report
from vqlat.errors import ContractError
from vqlat.model import ModelConfig
from vqlat.quantizer import QuantizerConfig, quantize_kmeans
from vqlat.reports import fmt
from vqlat.training import (
    TrainSchedule,
    exact_match_rate,
    length_batches,
    load_bundle,
    save_bundle,
    sentences_to_ids,
    teacher_forced,
    token_accuracy,
    train_model,
)

from tests.oracles import greedy_generate_one


def small_corpus(n=20, seed=5):
    return [s.tokens for s in cg.generate_sentences(seed, n)]


def make_schedule(**kw):
    defaults = dict(epochs=2, batch_size=8, lr=2e-3, seed=0, codebook_size=32,
                    codebook_decay=0.9)
    defaults.update(kw)
    return TrainSchedule(**defaults)


class TestTrainModel:
    def test_zero_epochs_keeps_initialization(self):
        tokens = small_corpus()
        vocab = cg.build_vocab(tokens)
        config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, max_len=16)
        log = []
        bundle = train_model(tokens, vocab, config, QuantizerConfig(),
                             make_schedule(epochs=0), log)
        assert log == []
        fresh = md.init_params(config, np.random.default_rng(0))
        for name in fresh.names():
            np.testing.assert_array_equal(bundle.params[name].data, fresh[name].data)

    def test_same_seed_bitwise_identical(self):
        tokens = small_corpus()
        vocab = cg.build_vocab(tokens)
        config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, max_len=16)

        def run():
            log = []
            b = train_model(tokens, vocab, config, QuantizerConfig(), make_schedule(), log)
            return b, log

        b1, log1 = run()
        b2, log2 = run()
        assert log1 == log2
        for name in b1.params.names():
            assert b1.params[name].data.tobytes() == b2.params[name].data.tobytes()
        assert b1.codebook.entries.tobytes() == b2.codebook.entries.tobytes()

    def test_loss_decreases(self):
        tokens = small_corpus()
        vocab = cg.build_vocab(tokens)
        config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4, max_len=16)
        log = []
        train_model(tokens, vocab, config, QuantizerConfig(), make_schedule(epochs=10), log)
        assert log[-1]["ce"] < log[0]["ce"]

    def test_vocab_size_mismatch_rejected(self):
        tokens = small_corpus()
        vocab = cg.build_vocab(tokens)
        config = ModelConfig(vocab_size=len(vocab) + 1, d_model=16, n_heads=2, max_len=16)
        with pytest.raises(ContractError):
            train_model(tokens, vocab, config, QuantizerConfig(), make_schedule())

    def test_max_len_too_small_rejected(self):
        tokens = small_corpus()
        vocab = cg.build_vocab(tokens)
        config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, max_len=4)
        with pytest.raises(ContractError):
            train_model(tokens, vocab, config, QuantizerConfig(), make_schedule())


class TestLengthBatches:
    def test_shuffled_batches_follow_the_per_length_shuffle(self):
        tokens = small_corpus(40)
        ids = sentences_to_ids(tokens, cg.build_vocab(tokens))
        got = [b.tolist() for b in length_batches(ids, 4, np.random.default_rng(9))]
        # reference: bucket positions by length, shuffle each bucket, cut into batches
        rng = np.random.default_rng(9)
        want = []
        for length in sorted({len(row) for row in ids}):
            order = np.array([i for i, row in enumerate(ids) if len(row) == length])
            rng.shuffle(order)
            want += [[ids[i].tolist() for i in order[start:start + 4]]
                     for start in range(0, len(order), 4)]
        assert got == want

    def test_unbatched_lengths_keep_corpus_order(self):
        ids = [np.array([5, 6]), np.array([7]), np.array([8, 9]), np.array([4])]
        got = [b.tolist() for b in length_batches(ids)]
        assert got == [[[7], [4]], [[5, 6], [8, 9]]]


class TestMemorization:
    def test_exact_match_reaches_one(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        ids = sentences_to_ids(memorization_fixture["tokens"], bundle.vocab)
        assert exact_match_rate(bundle, ids) == 1.0

    def test_generation_reproduces_each_sentence(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        assert token_accuracy(bundle, memorization_fixture["tokens"]) >= 0.99
        for words in memorization_fixture["tokens"]:
            _, quantized = bundle.quantize_words(words)
            assert bundle.decode_words(quantized[None], max_len=len(words) + 2) == [words]

    def test_batched_decode_equals_one_sequence_oracle(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        ids = sentences_to_ids(memorization_fixture["tokens"], bundle.vocab)
        lengths = [len(row) for row in ids]
        assert len(set(lengths)) > 1 and lengths != sorted(lengths)  # input order is restored
        want = [greedy_generate_one(bundle.quantize_ids(row)[1], bundle.params, bundle.config,
                                    len(row) + 2, bundle.vocab.START, bundle.vocab.END)
                for row in ids]
        assert bundle.autoencode_ids(ids) == want

    def test_deterministic_generation(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        words = memorization_fixture["tokens"][0]
        _, quantized = bundle.quantize_words(words)
        assert bundle.decode_words(quantized[None]) == bundle.decode_words(quantized[None])


class TestSharedPasses:
    def test_teacher_forced_rows_equal_bundle_quantizer(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        ids = sentences_to_ids(memorization_fixture["tokens"], bundle.vocab)
        seen = 0
        for rows in length_batches(ids):
            _, indices, quantized, _, _ = teacher_forced(bundle, rows)
            for row, row_indices, row_quantized in zip(rows, indices.reshape(rows.shape),
                                                        quantized):
                want_indices, want_quantized = bundle.quantize_words(
                    [bundle.vocab.word_of(i) for i in row])
                assert np.array_equal(row_indices, want_indices)
                assert np.array_equal(row_quantized, want_quantized)
                seen += 1
        assert seen == len(ids)

    def test_exact_match_rate_equals_reconstruct_report(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        tokens = memorization_fixture["tokens"]
        report = _reconstruct_report(bundle, tokens)
        rate = exact_match_rate(bundle, sentences_to_ids(tokens, bundle.vocab))
        assert report.splitlines()[1] == f"exact_match\t{fmt(rate)}"


class TestBundlePersistence:
    def test_round_trip_bit_exact_and_behavior_preserved(self, tmp_path, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        path = tmp_path / "model.ckpt"
        save_bundle(path, bundle)
        raw = path.read_bytes()
        loaded = load_bundle(path)
        assert loaded.params.trainable() == []  # inference records no tape
        save_bundle(path, loaded)
        assert path.read_bytes() == raw

        words = memorization_fixture["tokens"][1]
        idx_a, q_a = bundle.quantize_words(words)
        idx_b, q_b = loaded.quantize_words(words)
        np.testing.assert_array_equal(idx_a, idx_b)
        assert loaded.decode_words(q_b[None]) == bundle.decode_words(q_a[None])

    def test_codebook_tensors_present(self, tmp_path, memorization_fixture):
        path = tmp_path / "model.ckpt"
        save_bundle(path, memorization_fixture["bundle"])
        _, tensors = md.load_checkpoint(path)
        assert {"codebook.z", "codebook.N", "codebook.m"} <= set(tensors)


class TestCorruptCheckpoint:
    @pytest.fixture(scope="class")
    def raw(self, tmp_path_factory):
        tokens = small_corpus(12)
        vocab = cg.build_vocab(tokens)
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, max_len=16)
        bundle = train_model(tokens, vocab, config, QuantizerConfig(),
                             make_schedule(epochs=0, codebook_size=8))
        path = tmp_path_factory.mktemp("flip") / "model.ckpt"
        save_bundle(path, bundle)
        return path.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flip_loads_or_is_contract_error(self, raw, tmp_path_factory, data):
        # half the flips land in the first KiB: magic, config JSON, first records
        offset = data.draw(st.integers(0, 1023) | st.integers(0, len(raw) - 1))
        flipped = bytearray(raw)
        flipped[offset] ^= 1 << data.draw(st.integers(0, 7))
        path = tmp_path_factory.getbasetemp() / "flipped.ckpt"
        path.write_bytes(bytes(flipped))
        try:
            load_bundle(path)
        except ContractError:
            pass


class TestBundleHelpers:
    def test_wmd_embeddings_empty_falls_back(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        rows = bundle.wmd_embeddings([])
        assert rows.shape == (1, bundle.config.d_model)

    def test_end_token_latent_is_codebook_entry(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        row = bundle.end_token_latent()
        idx, snapped = quantize_kmeans(row[None, :], bundle.codebook)
        np.testing.assert_array_equal(snapped[0], row)

    def test_connective_latent_requires_and(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        with pytest.raises(ContractError):
            bundle.connective_latent(["a", "shark", "can", "swim"])
