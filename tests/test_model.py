"""Encoder/decoder transformer contracts and the checkpoint wire format."""

import numpy as np
import pytest

from vqlat import autodiff as ad
from vqlat import model as md
from vqlat.autodiff import Tensor
from vqlat.errors import ContractError, InputError, ShapeError

from tests.oracles import finite_difference, greedy_generate_one, relative_error


@pytest.fixture(scope="module")
def small_setup():
    config = md.ModelConfig(vocab_size=20, d_model=16, n_heads=2,
                            n_layers_enc=2, n_layers_dec=2, max_len=12)
    params = md.init_params(config, np.random.default_rng(0))
    return config, params


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ContractError):
            md.ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_round_trip(self):
        cfg = md.ModelConfig(vocab_size=50, d_model=32, n_heads=4)
        assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestEncode:
    def test_single_token_shape(self, small_setup):
        config, params = small_setup
        out = md.encode([5], params, config)
        assert out.shape == (1, config.d_model)

    def test_eval_mode_deterministic(self, small_setup):
        config, params = small_setup
        a = md.encode([4, 5, 6], params, config)
        b = md.encode([4, 5, 6], params, config)
        assert a.data.tobytes() == b.data.tobytes()

    def test_random_params_finite(self):
        config = md.ModelConfig(vocab_size=30, d_model=16, n_heads=4)
        params = md.init_params(config, np.random.default_rng(99))
        out = md.encode([1, 7, 3, 9, 2], params, config)
        assert np.isfinite(out.data).all()

    def test_out_of_vocab_rejected(self, small_setup):
        config, params = small_setup
        with pytest.raises(InputError):
            md.encode([25], params, config)

    def test_empty_rejected(self, small_setup):
        config, params = small_setup
        with pytest.raises(InputError):
            md.encode([], params, config)

    def test_too_long_rejected(self, small_setup):
        config, params = small_setup
        with pytest.raises(InputError):
            md.encode(list(range(13)), params, config)

    def test_no_state_mutated(self, small_setup):
        config, params = small_setup
        before = {k: v.data.copy() for k, v in params.tensors.items()}
        md.encode([3, 2, 1], params, config)
        for k, v in params.tensors.items():
            np.testing.assert_array_equal(v.data, before[k])


class TestDecode:
    def test_zeroed_params_give_output_bias(self, small_setup):
        config, _ = small_setup
        rng = np.random.default_rng(1)
        params = md.init_params(config, rng)
        for name, t in params.tensors.items():
            t.data[...] = 0.0
        bias = rng.standard_normal(config.vocab_size).astype(np.float32)
        params["out.b"].data[...] = bias
        latents = Tensor(np.zeros((1, 4, config.d_model), dtype=np.float32))
        logits = md.decode_batch(latents, np.array([[1, 5, 6]]), params, config)
        np.testing.assert_allclose(logits.data, np.broadcast_to(bias, (1, 3, config.vocab_size)),
                                   atol=1e-6)

    def test_latent_perturbation_moves_logits(self, small_setup):
        config, params = small_setup
        rng = np.random.default_rng(2)
        latents = rng.standard_normal((1, 5, config.d_model)).astype(np.float32)
        prefix = np.array([[1, 4, 7]])
        base = md.decode_batch(Tensor(latents), prefix, params, config).data
        bumped = latents.copy()
        bumped[0, 2] += 0.5
        moved = md.decode_batch(Tensor(bumped), prefix, params, config).data
        assert np.abs(moved - base).max() > 0

    def test_latent_width_mismatch(self, small_setup):
        config, params = small_setup
        with pytest.raises(ShapeError):
            md.decode_batch(Tensor(np.zeros((1, 3, config.d_model + 1))), np.array([[1, 2]]),
                            params, config)

    def test_reconstruction_gradient_wrt_latents_matches_fd(self):
        config = md.ModelConfig(vocab_size=12, d_model=8, n_heads=2,
                                n_layers_enc=1, n_layers_dec=1, max_len=8)
        rng = np.random.default_rng(3)
        params = md.init_params(config, rng, dtype=np.float64, init_scale=0.3)
        latents = Tensor(rng.standard_normal((1, 4, 8)), requires_grad=True, dtype=np.float64)
        prefix = np.array([[1, 5, 6, 7]])
        targets = np.array([5, 6, 7, 2])

        def forward():
            logits = md.decode_batch(latents, prefix, params, config)
            return ad.cross_entropy_with_logits(ad.reshape(logits, (4, config.vocab_size)),
                                                targets)

        ad.backward(forward())
        assert np.abs(latents.grad).max() > 0
        numeric = finite_difference(lambda: float(forward().data), [latents])[0]
        assert relative_error(latents.grad, numeric) < 1e-4

    def test_causal_mask_blocks_future_targets(self, small_setup):
        config, params = small_setup
        rng = np.random.default_rng(4)
        latents = Tensor(rng.standard_normal((1, 4, config.d_model)).astype(np.float32))
        a = md.decode_batch(latents, np.array([[1, 5, 6, 7]]), params, config).data
        b = md.decode_batch(latents, np.array([[1, 5, 9, 9]]), params, config).data
        np.testing.assert_allclose(a[:, :2], b[:, :2], atol=1e-6)


class TestGreedyGenerate:
    def test_max_len_one_emits_at_most_one(self, small_setup):
        config, params = small_setup
        rng = np.random.default_rng(5)
        latents = rng.standard_normal((3, config.d_model)).astype(np.float32)
        [out] = md.greedy_generate(latents[None], params, config, max_len=1)
        assert len(out) <= 1

    def test_deterministic(self, small_setup):
        config, params = small_setup
        rng = np.random.default_rng(6)
        latents = rng.standard_normal((3, config.d_model)).astype(np.float32)
        a = md.greedy_generate(latents[None], params, config, max_len=8)
        b = md.greedy_generate(latents[None], params, config, max_len=8)
        assert a == b

    def test_never_exceeds_max_len(self, small_setup):
        config, params = small_setup
        rng = np.random.default_rng(7)
        latents = rng.standard_normal((2, config.d_model)).astype(np.float32)
        [out] = md.greedy_generate(latents[None], params, config, max_len=5)
        assert len(out) <= 5

    @pytest.mark.parametrize("max_len", [1, 9])
    def test_stack_equals_one_sequence_oracle(self, max_len):
        # a small vocabulary and large weights make rows stop at different steps
        config = md.ModelConfig(vocab_size=6, d_model=16, n_heads=2,
                                n_layers_enc=1, n_layers_dec=2, max_len=12)
        params = md.init_params(config, np.random.default_rng(11), init_scale=0.5)
        latents = np.random.default_rng(12).standard_normal((24, 3, 16)).astype(np.float32)
        want = [greedy_generate_one(rows, params, config, max_len) for rows in latents]
        assert len({len(w) for w in want}) >= min(3, max_len + 1)  # rows stop at different steps
        assert md.greedy_generate(latents, params, config, max_len) == want


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path, small_setup):
        config, params = small_setup
        blob = {"model": config.to_dict(), "note": "fixture"}
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, blob, params.arrays())
        raw1 = path.read_bytes()
        loaded_blob, tensors = md.load_checkpoint(path)
        assert loaded_blob == blob
        for name, arr in params.arrays().items():
            np.testing.assert_array_equal(tensors[name], arr.astype("<f4"))
        md.save_checkpoint(path, loaded_blob, tensors)
        assert path.read_bytes() == raw1

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputError):
            md.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path, small_setup):
        config, params = small_setup
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(path, {"model": config.to_dict()}, params.arrays())
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(InputError):
            md.load_checkpoint(path)

    def test_header_layout(self, small_setup):
        config, _ = small_setup
        blob = md.write_checkpoint_bytes({"a": 1}, {"w": np.zeros((2, 3), dtype=np.float32)})
        assert blob[:4] == b"VQL1"
        import struct
        config_len = struct.unpack("<I", blob[4:8])[0]
        assert blob[8:8 + config_len] == b'{"a":1}'
