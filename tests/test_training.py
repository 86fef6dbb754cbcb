"""Trainer behaviour: determinism, persistence, and memorization quality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqlat import autodiff as ad
from vqlat import corpus as cg
from vqlat import model as md
from vqlat import training
from vqlat.cli import _reconstruct_report, main
from vqlat.errors import ContractError
from vqlat.model import ModelConfig
from vqlat.quantizer import QuantizerConfig, quantize_kmeans, vq_loss
from vqlat.reports import fmt
from vqlat.training import (
    ModelBundle,
    TrainSchedule,
    exact_match_rate,
    length_batches,
    load_bundle,
    reconstruct,
    save_bundle,
    sentences_to_ids,
    teacher_forced,
    token_accuracy,
    train_model,
    warmup_codebook,
)

from tests.conftest import train_bundle
from tests.oracles import (
    attention_chain,
    greedy_generate_one,
    linear_chain,
    relative_error,
    token_accuracy_per_length,
)


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

    def test_nan_lr_rejected(self):
        with pytest.raises(ContractError):
            make_schedule(lr=float("nan"))

def test_step_gradients_equal_chained_linear_and_attention(monkeypatch):
    """A float64 teacher-forced step gives the same parameter gradients through
    the fused linear and attention nodes as through the chains they replace."""
    tokens = small_corpus()
    vocab = cg.build_vocab(tokens)
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=4, max_len=16)
    ids = sentences_to_ids(tokens, vocab)
    rows = max(length_batches(ids), key=len)
    assert rows.shape[0] > 1 and rows.shape[1] > 1

    def step_gradients():
        params = md.init_params(config, np.random.default_rng(0), dtype=np.float64, init_scale=0.3)
        codebook = warmup_codebook(ids, params, config, 16, 0.9, np.random.default_rng(1))
        bundle = ModelBundle(config, params, codebook, QuantizerConfig(), vocab)
        enc_out, _, quantized, logits, targets = teacher_forced(bundle, rows)
        ce = ad.cross_entropy_with_logits(ad.reshape(logits, (targets.size, config.vocab_size)),
                                          targets.reshape(-1))
        ad.backward(vq_loss(enc_out, quantized, ce, 0.25, reduction="mean"))
        return {name: t.grad for name, t in params.tensors.items()}

    fused = step_gradients()
    monkeypatch.setattr(ad, "linear", linear_chain)
    monkeypatch.setattr(ad, "attention", attention_chain)
    chained = step_gradients()
    assert fused.keys() == chained.keys()
    scale = max(np.abs(grad).max() for grad in fused.values())
    for name, grad in fused.items():
        if name.endswith(".bk"):
            # a key bias shifts every score of a query row alike, which the
            # softmax cancels: its gradient is zero up to rounding on both sides
            assert max(np.abs(grad).max(), np.abs(chained[name]).max()) < 1e-12 * scale, name
        else:
            assert np.abs(grad).max() > 1e-6 * scale, name
            assert relative_error(grad, chained[name]) < 1e-9, name


def test_teacher_forced_forward_records_72_nodes(monkeypatch):
    """At the benchmark's shape (d_model 64, 4 heads, 2+2 layers, a [16, 6] batch)
    one forward records 72 tape nodes; the head split stays inside each of the
    six attention nodes, so no reshape or transpose node reaches the tape."""
    tokens = small_corpus()
    vocab = cg.build_vocab(tokens)
    config = ModelConfig(vocab_size=len(vocab), d_model=64, n_heads=4, n_layers_enc=2,
                         n_layers_dec=2)
    params = md.init_params(config, np.random.default_rng(0))
    rows = np.random.default_rng(1).integers(4, len(vocab), size=(16, 6))
    codebook = warmup_codebook(list(rows), params, config, 32, 0.9, np.random.default_rng(2))
    bundle = ModelBundle(config, params, codebook, QuantizerConfig(), vocab)
    ops = []
    record = ad._node

    def counting(data, parents, backward_fn):
        ops.append(backward_fn.__qualname__.split(".")[0])
        return record(data, parents, backward_fn)

    monkeypatch.setattr(ad, "_node", counting)
    teacher_forced(bundle, rows)
    assert len(ops) == 72
    assert ops.count("attention") == 6
    assert "reshape" not in ops and "transpose" not in ops


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


def greedy_spy(monkeypatch) -> list[np.ndarray]:
    """Latent stacks [B, L, d] of every ``model.greedy_generate`` call from now on."""
    stacks = []
    greedy_generate = md.greedy_generate

    def spy(stack, *args, **kwargs):
        stacks.append(np.array(stack))
        return greedy_generate(stack, *args, **kwargs)

    monkeypatch.setattr(md, "greedy_generate", spy)
    return stacks


def oracle_decodes(bundle, ids) -> list[list[int]]:
    """Each id row's greedy decode by the one-sequence oracle, with ``max_len`` L + 2."""
    entries = bundle.codebook.entries
    return [greedy_generate_one(entries[bundle.quantize_ids([row])[0]], bundle.params,
                                bundle.config, len(row) + 2, bundle.vocab.START,
                                bundle.vocab.END)
            for row in ids]


class TestMemorization:
    def test_exact_match_reaches_one(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        ids = sentences_to_ids(memorization_fixture["tokens"], bundle.vocab)
        assert exact_match_rate(bundle, ids) == 1.0

    def test_generation_reproduces_each_sentence(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        assert token_accuracy(bundle, memorization_fixture["tokens"]) >= 0.99
        for words in memorization_fixture["tokens"]:
            indices, _ = bundle.quantize_words(words)
            assert bundle.decode_words(indices[None], max_len=len(words) + 2) == [words]

    def test_batched_decode_equals_one_sequence_oracle(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        ids = sentences_to_ids(memorization_fixture["tokens"], bundle.vocab)
        lengths = [len(row) for row in ids]
        assert len(set(lengths)) > 1 and lengths != sorted(lengths)  # input order is restored
        entries = bundle.codebook.entries
        want = [greedy_generate_one(entries[bundle.quantize_ids([row])[0]], bundle.params,
                                    bundle.config, len(row) + 2, bundle.vocab.START,
                                    bundle.vocab.END)
                for row in ids]
        assert reconstruct(bundle, ids)[0] == want

    def test_decode_ids_decodes_each_distinct_sequence_once_per_length(
            self, memorization_fixture, monkeypatch):
        bundle = memorization_fixture["bundle"]
        quantized = bundle.quantize_ids(sentences_to_ids(memorization_fixture["tokens"],
                                                         bundle.vocab))
        # mixed lengths, repeats, and an equal copy that is a different array
        rows = [quantized[i] for i in (3, 0, 3, 1, 0, 2, 3)] + [quantized[1].copy()]
        distinct = {tuple(row): row for row in rows}
        lengths = {len(row) for row in distinct.values()}
        assert len(lengths) > 1 and len(distinct) < len(rows)
        stacks = greedy_spy(monkeypatch)
        got = bundle.decode_ids(rows)
        monkeypatch.undo()
        entries = bundle.codebook.entries
        want = [greedy_generate_one(entries[row], bundle.params, bundle.config,
                                    bundle.config.max_len, bundle.vocab.START, bundle.vocab.END)
                for row in rows]
        assert got == want
        # each stack is the float [B, L, d] gather of its rows' entries
        assert all(stack.dtype == np.float32 and stack.ndim == 3 for stack in stacks)
        assert sorted(stack.shape[1] for stack in stacks) == sorted(lengths)
        passed = [latents.tobytes() for stack in stacks for latents in stack]
        assert sorted(passed) == sorted(entries[row].tobytes() for row in distinct.values())

    def test_deterministic_generation(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        words = memorization_fixture["tokens"][0]
        indices, _ = bundle.quantize_words(words)
        assert bundle.decode_words(indices[None]) == bundle.decode_words(indices[None])


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

    @pytest.fixture
    def shuffled_ids(self, memorization_fixture):
        ids = sentences_to_ids(memorization_fixture["tokens"], memorization_fixture["bundle"].vocab)
        ids = ids + [ids[3]]  # one duplicate sentence
        ids = [ids[i] for i in np.random.default_rng(5).permutation(len(ids))]
        lengths = [len(row) for row in ids]
        assert len(set(lengths)) > 1 and lengths != sorted(lengths)
        return ids

    def test_encode_ids_rows_equal_one_row_encoder(self, memorization_fixture, shuffled_ids):
        bundle = memorization_fixture["bundle"]
        got = bundle.encode_ids(shuffled_ids)
        assert len(got) == len(shuffled_ids)
        for row, rows in zip(shuffled_ids, got):
            assert np.array_equal(rows, md.encode_batch(row[None], bundle.params,
                                                        bundle.config).data[0])

    def test_quantize_ids_equals_per_sentence_quantizer(self, memorization_fixture, shuffled_ids):
        bundle = memorization_fixture["bundle"]
        got = bundle.quantize_ids(shuffled_ids)
        assert len(got) == len(shuffled_ids)
        for row, indices in zip(shuffled_ids, got):
            encoded = md.encode_batch(row[None], bundle.params, bundle.config).data[0]
            assert np.array_equal(indices, quantize_kmeans(encoded, bundle.codebook)[0])

    def test_quantize_ids_of_nothing_is_empty(self, memorization_fixture):
        assert memorization_fixture["bundle"].quantize_ids([]) == []

    def test_disentangle_on_empty_corpus_is_header_only(self, tmp_path, memorization_fixture):
        save_bundle(tmp_path / "model.ckpt", memorization_fixture["bundle"])
        (tmp_path / "corpus.txt").write_text("")
        assert main(["disentangle", "--checkpoint", str(tmp_path / "model.ckpt"),
                     "--corpus", str(tmp_path / "corpus.txt"), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "disentangle.txt").read_text() == \
            "role_content\tnum_centers\tavg_dis\tmax_dis\tmin_dis\n"

    def test_reconstruct_equals_per_length_oracles(self, memorization_fixture, shuffled_ids):
        bundle = memorization_fixture["bundle"]
        untrained, _ = train_bundle(memorization_fixture["tokens"], seed=0, epochs=0,
                                    codebook_size=16)
        for model in (bundle, untrained):
            decodes, accuracy = reconstruct(model, shuffled_ids)
            assert decodes == [greedy_generate_one(
                model.codebook.entries[model.quantize_ids([row])[0]], model.params, model.config,
                len(row) + 2, model.vocab.START, model.vocab.END) for row in shuffled_ids]
            words = [[model.vocab.word_of(i) for i in row] for row in shuffled_ids]
            assert accuracy == token_accuracy_per_length(model, words)
            assert token_accuracy(model, words) == accuracy
        assert accuracy < 1.0  # the untrained model's count is not trivially full

    def test_exact_match_rate_equals_reconstruct_report(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        tokens = memorization_fixture["tokens"]
        report = _reconstruct_report(bundle, tokens)
        rate = exact_match_rate(bundle, sentences_to_ids(tokens, bundle.vocab))
        assert report.splitlines()[1] == f"exact_match\t{fmt(rate)}"


class TestVerifiedRows:
    """A row whose teacher-forced pass wins every position clearly is its own decode."""

    @staticmethod
    def logits(targets, gap, top=10.0):
        # [B, P, 6] logits: the runner-up ``top`` in the last column, each target
        # ``gap`` above it, every other column far below
        targets = np.asarray(targets)
        out = np.full(targets.shape + (6,), top - 50.0, dtype=np.float32)
        out[..., -1] = top
        np.put_along_axis(out, targets[..., None], np.float32(top + gap), axis=-1)
        return out, targets

    def test_clear_margin_is_verified(self):
        assert training._verified(*self.logits([[1, 4, 0, 2]], gap=0.01)).tolist() == [True]
        # below |winner| = 1 the margin stays 1e-4 absolute
        assert training._verified(*self.logits([[1, 4, 0, 2]], gap=2e-4, top=0.5)).tolist() == [True]

    @pytest.mark.parametrize("gap, top", [(5e-4, 10.0), (5e-4, -10.0), (5e-5, 0.5)])
    def test_correct_argmax_inside_the_margin_is_not(self, gap, top):
        logits, targets = self.logits([[1, 4, 0, 2]], gap=gap, top=top)
        assert (logits.argmax(axis=-1) == targets).all()
        assert training._verified(logits, targets).tolist() == [False]

    def test_exact_tie_is_not(self):
        logits, targets = self.logits([[1, 4, 0, 2]], gap=0.0)
        assert (logits.argmax(axis=-1) == targets).all()  # the tie goes to the target
        assert training._verified(logits, targets).tolist() == [False]

    @pytest.mark.parametrize("position", range(4))  # the last one is END's
    def test_wrong_argmax_at_any_position_is_not(self, position):
        logits, targets = self.logits([[1, 4, 0, 2], [3, 3, 1, 2]], gap=1.0)
        logits[1, position, targets[1, position]] = -100.0  # the runner-up wins clearly
        assert training._verified(logits, targets).tolist() == [True, False]

    def test_memorized_rows_make_no_greedy_call(self, memorization_fixture, monkeypatch):
        bundle = memorization_fixture["bundle"]
        ids = sentences_to_ids(memorization_fixture["tokens"], bundle.vocab)
        stacks = greedy_spy(monkeypatch)
        decodes, _ = reconstruct(bundle, ids)
        monkeypatch.undo()
        assert stacks == []
        assert decodes == oracle_decodes(bundle, ids)

    def test_only_unverified_rows_are_greedy_decoded(self, memorization_fixture, monkeypatch):
        tokens = memorization_fixture["tokens"]
        partial, _ = train_bundle(tokens, seed=0, epochs=14, codebook_size=64, target=None)
        ids = sentences_to_ids(tokens, partial.vocab)
        want = oracle_decodes(partial, ids)
        misses = [i for i, row in enumerate(ids) if want[i] != row.tolist()]
        missed_lengths = {len(ids[i]) for i in misses}
        # one length stack holds rows that decode to themselves and rows that do not
        assert any(len(row) in missed_lengths and i not in misses for i, row in enumerate(ids))
        stacks = greedy_spy(monkeypatch)
        decodes, _ = reconstruct(partial, ids)
        monkeypatch.undo()
        assert decodes == want
        assert sorted(stack.shape[1] for stack in stacks) == sorted(missed_lengths)
        entries = partial.codebook.entries
        passed = [latents.tobytes() for stack in stacks for latents in stack]
        assert sorted(passed) == sorted({entries[partial.quantize_ids([ids[i]])[0]].tobytes()
                                         for i in misses})


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
        np.testing.assert_array_equal(q_a, q_b)
        assert loaded.decode_words(idx_b[None]) == bundle.decode_words(idx_a[None])

    def test_saved_weights_are_the_optimizer_buffer(self, tmp_path, monkeypatch):
        optimizers = []

        class RecordingAdam(ad.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(training, "Adam", RecordingAdam)
        tokens = small_corpus()
        vocab = cg.build_vocab(tokens)
        config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, max_len=16)
        bundle = train_model(tokens, vocab, config, QuantizerConfig(), make_schedule())
        (opt,) = optimizers
        assert opt.t > 0
        save_bundle(tmp_path / "model.ckpt", bundle)
        arrays = load_bundle(tmp_path / "model.ckpt").params.arrays()
        assert list(arrays) == bundle.params.names()
        assert np.concatenate([a.ravel() for a in arrays.values()]).tobytes() == opt._flat.tobytes()

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
        assert bundle.wmd_embeddings([]) == []
        [rows] = bundle.wmd_embeddings([[]])
        assert rows.shape == (1, bundle.config.d_model)

    def test_end_token_latent_is_codebook_entry(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        row = bundle.end_token_latent()
        idx, snapped = quantize_kmeans(row[None, :], bundle.codebook)
        np.testing.assert_array_equal(snapped[0], row)
        assert int(idx[0]) == bundle.end_token_index()

    def test_connective_index_requires_and(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        with pytest.raises(ContractError):
            bundle.connective_index(["a", "shark", "can", "swim"])

    def test_connective_index_requires_and_in_the_vocabulary(self, memorization_fixture):
        bundle = memorization_fixture["bundle"]
        assert "and" not in bundle.vocab
        with pytest.raises(ContractError, match="'and'"):
            bundle.connective_index(["a", "shark", "can", "swim", "and", "fly"])
