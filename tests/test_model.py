"""Encoder/decoder transformer contracts and the checkpoint wire format."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqlat import autodiff as ad
from vqlat import model as md
from vqlat import training
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

    @pytest.mark.parametrize("n_heads", [0, -2])
    def test_heads_must_be_positive(self, n_heads):
        with pytest.raises(ContractError):
            md.ModelConfig(vocab_size=10, d_model=8, n_heads=n_heads)

    def test_round_trip(self):
        cfg = md.ModelConfig(vocab_size=50, d_model=32, n_heads=4)
        assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg


def encode_one(ids, params, config):
    """The encoder on a stack of one id sequence."""
    return md.encode_batch(np.asarray([ids], dtype=np.int64), params, config)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_position_table_is_built_once_and_read_only(dtype):
    table = md.sinusoidal_positions(7, 16, dtype, 3)
    assert table is md.sinusoidal_positions(7, 16, dtype, 3)
    assert table.dtype == dtype and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    want = [[f(p / 10_000.0 ** (2 * (i // 2) / 16))
             for i, f in zip(range(16), [np.sin, np.cos] * 8)] for p in range(3, 10)]
    np.testing.assert_allclose(table, np.array(want), rtol=0, atol=1e-6)


class TestEncode:
    def test_single_token_shape(self, small_setup):
        config, params = small_setup
        out = encode_one([5], params, config)
        assert out.shape == (1, 1, config.d_model)

    def test_eval_mode_deterministic(self, small_setup):
        config, params = small_setup
        a = encode_one([4, 5, 6], params, config)
        b = encode_one([4, 5, 6], params, config)
        assert a.data.tobytes() == b.data.tobytes()

    def test_random_params_finite(self):
        config = md.ModelConfig(vocab_size=30, d_model=16, n_heads=4)
        params = md.init_params(config, np.random.default_rng(99))
        out = encode_one([1, 7, 3, 9, 2], params, config)
        assert np.isfinite(out.data).all()

    def test_out_of_vocab_rejected(self, small_setup):
        config, params = small_setup
        with pytest.raises(InputError):
            encode_one([25], params, config)

    def test_empty_rejected(self, small_setup):
        config, params = small_setup
        with pytest.raises(InputError):
            encode_one([], params, config)

    def test_too_long_rejected(self, small_setup):
        config, params = small_setup
        with pytest.raises(InputError):
            encode_one(list(range(13)), params, config)

    def test_no_state_mutated(self, small_setup):
        config, params = small_setup
        before = {k: v.data.copy() for k, v in params.tensors.items()}
        encode_one([3, 2, 1], params, config)
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


def drop_rows(cache, keep):
    """A decoder cache without the rows ``keep`` leaves out, as greedy decoding
    drops them."""
    return {name: [a[keep] for a in kv] for name, kv in cache.items()}


class TestDecodeCache:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_layers_dec", [1, 3])
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("chunks", [[1] * 7, [3, 1, 2, 1]], ids=["steps", "chunks"])
    def test_cached_steps_match_full_prefix(self, dtype, n_layers_dec, n_heads, chunks):
        config = md.ModelConfig(vocab_size=9, d_model=16, n_heads=n_heads, n_layers_enc=1,
                                n_layers_dec=n_layers_dec, max_len=7)
        params = md.init_params(config, np.random.default_rng(21), dtype=dtype, init_scale=0.3)
        rng = np.random.default_rng(22)
        latents = rng.standard_normal((5, 4, 16)).astype(dtype)
        ids = rng.integers(0, 9, size=(5, 7))
        full = md.decode_batch(Tensor(latents), ids, params, config).data
        tol = {"rtol": 1e-4, "atol": 1e-5} if dtype == np.float32 else {"rtol": 1e-10}
        ends = np.cumsum(chunks)
        for keep in (np.ones(5, dtype=bool), np.array([True, False, True, True, False])):
            # rows leave after the first chunk, mid-stack
            cache, rows = {}, np.arange(5)
            for start, stop in zip(ends - chunks, ends):
                step = md.decode_batch(Tensor(latents[rows]), ids[rows, start:stop], params,
                                       config, cache).data
                assert step.dtype == full.dtype
                np.testing.assert_allclose(step, full[rows, start:stop], **tol)
                cache, rows = drop_rows(cache, keep[rows]), rows[keep[rows]]

    def test_cache_records_no_tape(self):
        config = md.ModelConfig(vocab_size=9, d_model=8, n_heads=2, n_layers_dec=2, max_len=4)
        params = md.init_params(config, np.random.default_rng(23))  # trainable params
        latents = Tensor(np.random.default_rng(24).standard_normal((2, 3, 8)))
        cache = {}
        for token in (1, 5):
            md.decode_batch(latents, np.full((2, 1), token), params, config, cache)
        assert sorted(cache) == ["dec.0.cross", "dec.0.self", "dec.1.cross", "dec.1.self"]
        assert all(isinstance(a, np.ndarray) for kv in cache.values() for a in kv)
        assert cache["dec.1.self"][0].shape == (2, 2, 8)
        assert cache["dec.1.cross"][1].shape == (2, 3, 8)

    def test_cached_length_counts_toward_max_len(self):
        config = md.ModelConfig(vocab_size=9, d_model=8, n_heads=2, max_len=3)
        params = md.init_params(config, np.random.default_rng(25))
        latents = Tensor(np.zeros((1, 2, 8)))
        cache = {}
        md.decode_batch(latents, np.array([[1, 4]]), params, config, cache)
        md.decode_batch(latents, np.array([[5]]), params, config, cache)
        with pytest.raises(InputError, match="sequence length 4 exceeds max_len 3"):
            md.decode_batch(latents, np.array([[6]]), params, config, cache)


@functools.cache
def ending_setup():
    """A model and latent rows [3, 16] whose oracle decodes stop at different
    steps, from the first (an empty decode) to never within nine tokens."""
    config = md.ModelConfig(vocab_size=6, d_model=16, n_heads=2,
                            n_layers_enc=1, n_layers_dec=2, max_len=12)
    params = md.init_params(config, np.random.default_rng(11), init_scale=0.5)
    latents = np.random.default_rng(12).standard_normal((40, 3, 16)).astype(np.float32)
    return config, params, latents


@functools.cache
def oracle_decode(row: int, max_len: int) -> tuple[int, ...]:
    config, params, latents = ending_setup()
    return tuple(greedy_generate_one(latents[row], params, config, max_len))


class TestDroppedRows:
    def test_pool_ends_at_every_kind_of_step(self):
        lengths = {len(oracle_decode(row, 9)) for row in range(40)}
        assert {0, 1, 2, 9} <= lengths and len(lengths) >= 5

    def check(self, rows, max_len):
        config, params, latents = ending_setup()
        got = md.greedy_generate(latents[list(rows)], params, config, max_len)
        assert got == [list(oracle_decode(row, max_len)) for row in rows]

    @pytest.mark.parametrize("max_len", [1, 2, 9])
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    def test_all_rows_but_one_end_at_step_one(self, max_len, place):
        empty = [row for row in range(40) if not oracle_decode(row, 9)]
        long = next(row for row in range(40) if len(oracle_decode(row, 9)) == 9)
        at = {"first": 0, "middle": len(empty) // 2, "last": len(empty)}[place]
        self.check(empty[:at] + [long] + empty[at:], max_len)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 39), min_size=1, max_size=10),
           st.sampled_from([1, 2, 4, 9]))
    def test_stacks_equal_the_oracle_row_for_row(self, rows, max_len):
        self.check(rows, max_len)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("end_id", [0, 2, 3])
    def test_length_guard_matches_the_oracle(self, seed, end_id):
        """A row still live past ``config.max_len`` positions raises the error the
        full-prefix oracle raises, and a stack that ends in time decodes as it does."""
        config = md.ModelConfig(vocab_size=6, d_model=16, n_heads=2,
                                n_layers_enc=1, n_layers_dec=2, max_len=8)
        params = md.init_params(config, np.random.default_rng(seed), init_scale=0.5)
        latents = np.random.default_rng(seed + 1).standard_normal((5, 3, 16)).astype(np.float32)
        try:
            want = [greedy_generate_one(rows, params, config, 12, end_id=end_id)
                    for rows in latents]
        except InputError as exc:
            assert str(exc) == "sequence length 9 exceeds max_len 8"
            with pytest.raises(InputError, match=f"^{exc}$"):
                md.greedy_generate(latents, params, config, 12, end_id=end_id)
        else:
            assert md.greedy_generate(latents, params, config, 12, end_id=end_id) == want


class TestCheckpointFormat:
    """The VQL1 container, framed and read by ``training``, on model parameters."""

    def test_round_trip_bit_exact(self, small_setup):
        config, params = small_setup
        blob = {"model": config.to_dict(), "note": "fixture"}
        raw1 = training.write_checkpoint_bytes(blob, params.arrays())
        loaded_blob, tensors = training.read_checkpoint_bytes(raw1)
        assert loaded_blob == blob
        for name, arr in params.arrays().items():
            np.testing.assert_array_equal(tensors[name], arr.astype("<f4"))
        assert training.write_checkpoint_bytes(loaded_blob, tensors) == raw1

    def test_magic_enforced(self):
        with pytest.raises(InputError):
            training.read_checkpoint_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncation_detected(self, small_setup):
        config, params = small_setup
        raw = training.write_checkpoint_bytes({"model": config.to_dict()}, params.arrays())
        with pytest.raises(InputError):
            training.read_checkpoint_bytes(raw[:-3])

    def test_header_layout(self):
        import struct
        blob = training.write_checkpoint_bytes({"a": 1}, {"w": np.zeros((2, 3), dtype=np.float32)})
        assert blob == (b"VQL1" + struct.pack("<I", 7) + b'{"a":1}'
                        + struct.pack("<I", 1) + b"w" + struct.pack("<3I", 2, 2, 3) + bytes(24))
