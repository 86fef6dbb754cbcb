"""Small encoder/decoder transformer whose decoder cross-attention reads the
quantized latent rows as key and value.

The encoder maps each input token to one continuous vector; those vectors are
quantized elsewhere and handed back to :func:`decode_batch`, whose cross-attention
uses them directly (they are never concatenated into the token stream).
Positions are sinusoidal; blocks are pre-norm with a final layer norm on each
stack.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, InputError, ShapeError
from .reports import DictCodec, atomic_write_bytes

CHECKPOINT_MAGIC = b"VQL1"
NEG_INF = -1e9


@dataclass
class ModelConfig(DictCodec):
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    max_len: int = 32
    dropout_rate: float = 0.0
    ffn_mult: int = 4

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ContractError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < 4:
            raise ContractError("vocab_size must cover the special ids")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


class ModelParams:
    """Named parameter tensors; iteration order is creation order."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def trainable(self) -> list[Tensor]:
        return [t for t in self.tensors.values() if t.requires_grad]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32, init_scale: float = 0.02,
                emb_init_scale: float = 0.1) -> ModelParams:
    tensors: dict[str, Tensor] = {}

    def param(name, *shape, zero=False, one=False, scale=init_scale):
        if one:
            data = np.ones(shape, dtype=dtype)
        elif zero:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = (rng.standard_normal(shape) * scale).astype(dtype)
        tensors[name] = Tensor(data, requires_grad=True)

    d, hidden = config.d_model, config.d_model * config.ffn_mult
    # embeddings are scaled by sqrt(d) in the forward pass; this init keeps
    # their magnitude comparable to the positional signal
    param("tok_emb", config.vocab_size, d, scale=emb_init_scale)

    def attention_block(prefix):
        for proj in ("wq", "wk", "wv", "wo"):
            param(f"{prefix}.{proj}", d, d)
        for bias in ("bq", "bk", "bv", "bo"):
            param(f"{prefix}.{bias}", d, zero=True)

    def norm_block(prefix):
        param(f"{prefix}.g", d, one=True)
        param(f"{prefix}.b", d, zero=True)

    def ffn_block(prefix):
        param(f"{prefix}.w1", d, hidden)
        param(f"{prefix}.b1", hidden, zero=True)
        param(f"{prefix}.w2", hidden, d)
        param(f"{prefix}.b2", d, zero=True)

    for i in range(config.n_layers_enc):
        norm_block(f"enc.{i}.ln1")
        attention_block(f"enc.{i}.attn")
        norm_block(f"enc.{i}.ln2")
        ffn_block(f"enc.{i}.ffn")
    norm_block("enc.ln_out")

    for i in range(config.n_layers_dec):
        norm_block(f"dec.{i}.ln1")
        attention_block(f"dec.{i}.self")
        norm_block(f"dec.{i}.ln2")
        attention_block(f"dec.{i}.cross")
        norm_block(f"dec.{i}.ln3")
        ffn_block(f"dec.{i}.ffn")
    norm_block("dec.ln_out")

    param("out.w", d, config.vocab_size)
    param("out.b", config.vocab_size, zero=True)
    return ModelParams(tensors)


def sinusoidal_positions(length: int, d_model: int, dtype=np.float32) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(np.float64)
    dim = np.arange(d_model // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10_000.0, 2.0 * dim / d_model)
    enc = np.zeros((length, d_model), dtype=np.float64)
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)
    return enc.astype(dtype)


def _multi_head_attention(params: ModelParams, prefix: str, config: ModelConfig,
                          queries: Tensor, keys_values: Tensor,
                          mask: np.ndarray | None, training: bool,
                          rng: np.random.Generator | None) -> Tensor:
    """Projected scaled dot-product attention over [B, L, d] streams."""
    b, lq, d = queries.shape
    lk = keys_values.shape[1]
    h, dh = config.n_heads, d // config.n_heads

    def project(x, name, length):
        y = ad.add(ad.matmul(x, params[f"{prefix}.w{name}"]), params[f"{prefix}.b{name}"])
        y = ad.reshape(y, (b, length, h, dh))
        return ad.transpose(y, (0, 2, 1, 3))

    q = project(queries, "q", lq)
    k = project(keys_values, "k", lk)
    v = project(keys_values, "v", lk)

    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = ad.add(scores, Tensor(mask.astype(scores.data.dtype)))
    weights = ad.softmax(scores, axis=-1)
    weights = ad.dropout(weights, config.dropout_rate, rng, training)
    ctx = ad.matmul(weights, v)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, lq, d))
    return ad.add(ad.matmul(ctx, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


def _feed_forward(params: ModelParams, prefix: str, config: ModelConfig,
                  x: Tensor, training: bool, rng) -> Tensor:
    h = ad.relu(ad.add(ad.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    h = ad.dropout(h, config.dropout_rate, rng, training)
    return ad.add(ad.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _layer_norm(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _validate_ids(ids: np.ndarray, config: ModelConfig) -> None:
    if ids.size == 0 or ids.shape[-1] == 0:
        raise InputError("empty token sequence")
    if ids.shape[-1] > config.max_len:
        raise InputError(f"sequence length {ids.shape[-1]} exceeds max_len {config.max_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(f"token id outside vocabulary of size {config.vocab_size}")


def encode_batch(token_ids: np.ndarray, params: ModelParams, config: ModelConfig,
                 training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Continuous embeddings [B, L, d] for same-length id rows [B, L]."""
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise ShapeError(f"encode_batch: expected [B, L] ids, got shape {ids.shape}")
    _validate_ids(ids, config)
    b, length = ids.shape

    # scale embeddings by sqrt(d) so token identity is not drowned out by the
    # O(1)-per-dim positional signal
    x = ad.mul(ad.embedding_lookup(params["tok_emb"], ids), float(np.sqrt(config.d_model)))
    x = ad.add(x, Tensor(sinusoidal_positions(length, config.d_model, params["tok_emb"].data.dtype)))
    x = ad.dropout(x, config.dropout_rate, rng, training)
    for i in range(config.n_layers_enc):
        normed = _layer_norm(params, f"enc.{i}.ln1", x)
        attn = _multi_head_attention(params, f"enc.{i}.attn", config,
                                     normed, normed, None, training, rng)
        x = ad.add(x, ad.dropout(attn, config.dropout_rate, rng, training))
        ffn = _feed_forward(params, f"enc.{i}.ffn", config,
                            _layer_norm(params, f"enc.{i}.ln2", x), training, rng)
        x = ad.add(x, ad.dropout(ffn, config.dropout_rate, rng, training))
    return _layer_norm(params, "enc.ln_out", x)


def encode(tokens, params: ModelParams, config: ModelConfig,
           training: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """One continuous embedding per input token: [L, d]."""
    ids = np.asarray(list(tokens), dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"encode: expected a flat id sequence, got shape {ids.shape}")
    out = encode_batch(ids[None, :], params, config, training=training, rng=rng)
    return ad.reshape(out, (ids.shape[0], config.d_model))


def causal_mask(length: int) -> np.ndarray:
    mask = np.zeros((1, 1, length, length), dtype=np.float32)
    mask[..., np.triu_indices(length, k=1)[0], np.triu_indices(length, k=1)[1]] = NEG_INF
    return mask


def decode_batch(latents: Tensor, prefix_ids: np.ndarray, params: ModelParams,
                 config: ModelConfig, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Next-token logits [B, L', vocab] given latent rows [B, L, d]."""
    if latents.ndim != 3:
        raise ShapeError(f"decode_batch: expected [B, L, d] latents, got {latents.shape}")
    if latents.shape[-1] != config.d_model:
        raise ShapeError(f"latent width {latents.shape[-1]} does not match d_model {config.d_model}")
    ids = np.asarray(prefix_ids)
    if ids.ndim != 2 or ids.shape[0] != latents.shape[0]:
        raise ShapeError(f"decode_batch: prefix shape {ids.shape} does not match batch {latents.shape[0]}")
    _validate_ids(ids, config)
    b, length = ids.shape

    x = ad.mul(ad.embedding_lookup(params["tok_emb"], ids), float(np.sqrt(config.d_model)))
    x = ad.add(x, Tensor(sinusoidal_positions(length, config.d_model, params["tok_emb"].data.dtype)))
    x = ad.dropout(x, config.dropout_rate, rng, training)
    mask = causal_mask(length)
    for i in range(config.n_layers_dec):
        normed = _layer_norm(params, f"dec.{i}.ln1", x)
        self_attn = _multi_head_attention(params, f"dec.{i}.self", config,
                                          normed, normed, mask, training, rng)
        x = ad.add(x, ad.dropout(self_attn, config.dropout_rate, rng, training))
        cross = _multi_head_attention(params, f"dec.{i}.cross", config,
                                      _layer_norm(params, f"dec.{i}.ln2", x),
                                      latents, None, training, rng)
        x = ad.add(x, ad.dropout(cross, config.dropout_rate, rng, training))
        ffn = _feed_forward(params, f"dec.{i}.ffn", config,
                            _layer_norm(params, f"dec.{i}.ln3", x), training, rng)
        x = ad.add(x, ad.dropout(ffn, config.dropout_rate, rng, training))
    x = _layer_norm(params, "dec.ln_out", x)
    return ad.add(ad.matmul(x, params["out.w"]), params["out.b"])


def greedy_generate(latents, params: ModelParams, config: ModelConfig,
                    max_len: int, start_id: int = 1, end_id: int = 2) -> list[list[int]]:
    """Greedy argmax decoding of a stack of same-length latents [B, L, d] from the
    start token.  Returns B id lists, each cut before its first ``end_id`` and
    holding at most ``max_len`` ids."""
    lat = Tensor(np.asarray(latents))
    prefix = np.full((lat.shape[0], 1), start_id, dtype=np.int64)
    for _ in range(max_len):
        logits = decode_batch(lat, prefix, params, config)
        prefix = np.concatenate([prefix, logits.data[:, -1].argmax(axis=-1)[:, None]], axis=1)
        if (prefix[:, 1:] == end_id).any(axis=1).all():
            break
    return [row[:row.index(end_id)] if end_id in row else row for row in prefix[:, 1:].tolist()]


# -- checkpoint format ---------------------------------------------------------
#
# magic "VQL1" | u32 config byte length | config JSON (UTF-8) | records...
# record: u32 name length | name UTF-8 | u32 rank | u32 dims... | f32 data (LE)


def _canonical_json(blob: dict) -> bytes:
    return json.dumps(blob, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_checkpoint_bytes(config_blob: dict, tensors: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    config_bytes = _canonical_json(config_blob)
    buf.write(struct.pack("<I", len(config_bytes)))
    buf.write(config_bytes)
    for name, array in tensors.items():
        name_bytes = name.encode("utf-8")
        arr = np.ascontiguousarray(array, dtype="<f4")
        buf.write(struct.pack("<I", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(arr.tobytes())
    return buf.getvalue()


def read_checkpoint_bytes(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    buf = io.BytesIO(blob)
    magic = buf.read(4)
    if magic != CHECKPOINT_MAGIC:
        raise InputError(f"bad checkpoint magic {magic!r}")

    def read_u32():
        raw = buf.read(4)
        if len(raw) != 4:
            raise InputError("truncated checkpoint")
        return struct.unpack("<I", raw)[0]

    def read_text(length, what):
        raw = buf.read(length)
        if len(raw) != length:
            raise InputError(f"truncated checkpoint {what}")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"checkpoint {what} is not UTF-8") from exc

    try:
        config_blob = json.loads(read_text(read_u32(), "config"))
    except json.JSONDecodeError as exc:
        raise InputError(f"checkpoint config is not JSON: {exc}") from exc
    if not isinstance(config_blob, dict):
        raise InputError("checkpoint config is not a JSON object")
    tensors: dict[str, np.ndarray] = {}
    while True:
        head = buf.read(4)
        if not head:
            break
        if len(head) != 4:
            raise InputError("truncated checkpoint record")
        name = read_text(struct.unpack("<I", head)[0], "tensor name")
        rank = read_u32()
        shape = tuple(read_u32() for _ in range(rank))
        count = math.prod(shape)
        # a corrupt shape can ask for more bytes than an index can hold
        data = buf.read(min(count * 4, len(blob)))
        if len(data) != count * 4:
            raise InputError(f"truncated data for tensor {name!r}")
        try:
            tensors[name] = np.frombuffer(data, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:  # a zero dim beside absurd ones, or rank above numpy's
            raise InputError(f"tensor {name!r} has an unusable shape: {exc}") from exc
    return config_blob, tensors


def save_checkpoint(path, config_blob: dict, tensors: dict[str, np.ndarray]) -> None:
    atomic_write_bytes(path, write_checkpoint_bytes(config_blob, tensors))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        return read_checkpoint_bytes(fh.read())
