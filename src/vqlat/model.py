"""Small encoder/decoder transformer whose decoder cross-attention reads the
quantized latent rows as key and value.

The encoder maps each input token to one continuous vector; those vectors are
quantized elsewhere and handed back to :func:`decode_batch`, whose cross-attention
uses them directly (they are never concatenated into the token stream).
Positions are sinusoidal; blocks are pre-norm with a final layer norm on each
stack.  Every projection is one ``ad.linear`` node and every attention core one
``ad.attention`` node, which alone splits the [B, L, d] streams into heads.
:func:`param_layout` names each parameter's shape and init kind, so a loaded
checkpoint is checked without drawing weights.  :func:`greedy_generate` steps
the decoder over a key/value cache (the latents' cross-attention keys and
values are projected once per stack), drops each row once it emits the end
id, and keeps the full-prefix ``max_len`` guard.  The module holds no I/O: the
checkpoint format belongs to :mod:`vqlat.training`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, InputError, ShapeError
from .reports import DictCodec

NEG_INF = -1e9


@dataclass
class ModelConfig(DictCodec):
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    max_len: int = 32
    ffn_mult: int = 4

    def __post_init__(self):
        if self.d_model < 2 or self.d_model % 2:
            raise ContractError(f"d_model must be positive and even, got {self.d_model}")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ContractError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size < 4:
            raise ContractError("vocab_size must cover the special ids")
        # without a decoder layer no cross-attention reads the latents
        for name, least in (("ffn_mult", 1), ("n_layers_enc", 0), ("n_layers_dec", 1)):
            if getattr(self, name) < least:
                raise ContractError(f"{name} must be at least {least}, got {getattr(self, name)}")


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

    def frozen(self) -> "ModelParams":
        """The same arrays, uncopied, in tensors that take no gradient: a forward
        through them records no autodiff tape."""
        return ModelParams({name: Tensor(t.data) for name, t in self.tensors.items()})

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}


def param_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Each parameter's shape and init kind, in creation order.  Kinds "one" and
    "zero" are constant; "embed" and "normal" draw scaled standard normals."""
    layout: dict[str, tuple[tuple[int, ...], str]] = {}
    d, hidden = config.d_model, config.d_model * config.ffn_mult
    # embeddings are scaled by sqrt(d) in the forward pass; their larger init
    # keeps their magnitude comparable to the positional signal
    layout["tok_emb"] = ((config.vocab_size, d), "embed")

    def attention_block(prefix):
        layout.update({f"{prefix}.{proj}": ((d, d), "normal") for proj in ("wq", "wk", "wv", "wo")})
        layout.update({f"{prefix}.{bias}": ((d,), "zero") for bias in ("bq", "bk", "bv", "bo")})

    def norm_block(prefix):
        layout.update({f"{prefix}.g": ((d,), "one"), f"{prefix}.b": ((d,), "zero")})

    def ffn_block(prefix):
        layout.update({f"{prefix}.w1": ((d, hidden), "normal"), f"{prefix}.b1": ((hidden,), "zero"),
                       f"{prefix}.w2": ((hidden, d), "normal"), f"{prefix}.b2": ((d,), "zero")})

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

    layout.update({"out.w": ((d, config.vocab_size), "normal"),
                   "out.b": ((config.vocab_size,), "zero")})
    return layout


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32, init_scale: float = 0.02) -> ModelParams:
    """Fresh parameters of :func:`param_layout`, drawn from ``rng`` in its order;
    "normal" draws are scaled by ``init_scale`` and "embed" draws by 0.1."""
    def draw(shape, kind):
        if kind in ("one", "zero"):
            return np.full(shape, float(kind == "one"), dtype=dtype)
        return (rng.standard_normal(shape) * (0.1 if kind == "embed" else init_scale)).astype(dtype)

    return ModelParams({name: Tensor(draw(shape, kind), requires_grad=True)
                        for name, (shape, kind) in param_layout(config).items()})


@functools.lru_cache(maxsize=1024)
def sinusoidal_positions(length: int, d_model: int, dtype=np.float32, start: int = 0) -> np.ndarray:
    """Position table [length, d_model] from position ``start``, built once per
    argument tuple; the shared array is read-only."""
    pos = np.arange(start, start + length)[:, None].astype(np.float64)
    dim = np.arange(d_model // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10_000.0, 2.0 * dim / d_model)
    enc = np.zeros((length, d_model), dtype=np.float64)
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)
    enc = enc.astype(dtype)
    enc.flags.writeable = False
    return enc


def _multi_head_attention(params: ModelParams, prefix: str, config: ModelConfig,
                          queries: Tensor, keys_values: Tensor | None,
                          mask: np.ndarray | None, cache: dict | None = None) -> Tensor:
    """Projected scaled dot-product attention over [B, L, d] streams.  A ``cache`` keeps
    the keys and values under ``prefix``, appending those of ``keys_values`` if given."""
    def project(x, name):
        return ad.linear(x, params[f"{prefix}.w{name}"], params[f"{prefix}.b{name}"])

    q = project(queries, "q")
    if keys_values is not None:
        k, v = project(keys_values, "k"), project(keys_values, "v")
    if cache is not None:
        if keys_values is not None:
            held = cache.get(prefix, [k.data[:, :0], v.data[:, :0]])
            cache[prefix] = [np.concatenate([a, t.data], axis=1) for a, t in zip(held, (k, v))]
        k, v = cache[prefix]

    return project(ad.attention(q, k, v, config.n_heads, mask), "o")


def _feed_forward(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    h = ad.relu(ad.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ad.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _layer_norm(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _validate_ids(ids: np.ndarray, config: ModelConfig, past: int = 0) -> None:
    if ids.size == 0 or ids.shape[-1] == 0:
        raise InputError("empty token sequence")
    if past + ids.shape[-1] > config.max_len:
        raise InputError(f"sequence length {past + ids.shape[-1]} exceeds max_len {config.max_len}")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise InputError(f"token id outside vocabulary of size {config.vocab_size}")


def _embed(params: ModelParams, config: ModelConfig, ids: np.ndarray, past: int = 0) -> Tensor:
    # scale embeddings by sqrt(d) so token identity is not drowned out by the
    # O(1)-per-dim positional signal
    x = ad.mul(ad.embedding_lookup(params["tok_emb"], ids), float(np.sqrt(config.d_model)))
    return ad.add(x, Tensor(sinusoidal_positions(ids.shape[1], config.d_model, x.data.dtype, past)))


def encode_batch(token_ids: np.ndarray, params: ModelParams, config: ModelConfig) -> Tensor:
    """Continuous embeddings [B, L, d] for same-length id rows [B, L]."""
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise ShapeError(f"encode_batch: expected [B, L] ids, got shape {ids.shape}")
    _validate_ids(ids, config)
    x = _embed(params, config, ids)
    for i in range(config.n_layers_enc):
        normed = _layer_norm(params, f"enc.{i}.ln1", x)
        x = ad.add(x, _multi_head_attention(params, f"enc.{i}.attn", config, normed, normed, None))
        x = ad.add(x, _feed_forward(params, f"enc.{i}.ffn", _layer_norm(params, f"enc.{i}.ln2", x)))
    return _layer_norm(params, "enc.ln_out", x)


def causal_mask(length: int, past: int = 0) -> np.ndarray:
    """Additive mask [length, past + length]: query i sees keys up to past + i."""
    mask = np.zeros((length, past + length), dtype=np.float32)
    mask[np.triu_indices(length, k=past + 1, m=past + length)] = NEG_INF
    return mask


def decode_batch(latents: Tensor, prefix_ids: np.ndarray, params: ModelParams,
                 config: ModelConfig, cache: dict | None = None) -> Tensor:
    """Next-token logits [B, L', vocab] given latent rows [B, L, d].

    Without a ``cache`` the whole prefix is decoded (teacher forcing).  A cache,
    first ``{}``, keeps each attention block's [keys, values] arrays [B, positions,
    d], with no tape: ``prefix_ids`` continue its positions, and the latents'
    cross-attention ones are projected on the first call only."""
    if latents.ndim != 3:
        raise ShapeError(f"decode_batch: expected [B, L, d] latents, got {latents.shape}")
    if latents.shape[-1] != config.d_model:
        raise ShapeError(f"latent width {latents.shape[-1]} does not match d_model {config.d_model}")
    ids = np.asarray(prefix_ids)
    if ids.ndim != 2 or ids.shape[0] != latents.shape[0]:
        raise ShapeError(f"decode_batch: prefix shape {ids.shape} does not match batch {latents.shape[0]}")
    past = cache["dec.0.self"][0].shape[1] if cache else 0
    _validate_ids(ids, config, past)
    x = _embed(params, config, ids, past)
    mask = causal_mask(ids.shape[1], past)
    for i in range(config.n_layers_dec):
        normed = _layer_norm(params, f"dec.{i}.ln1", x)
        x = ad.add(x, _multi_head_attention(params, f"dec.{i}.self", config, normed, normed,
                                            mask, cache))
        x = ad.add(x, _multi_head_attention(params, f"dec.{i}.cross", config,
                                            _layer_norm(params, f"dec.{i}.ln2", x),
                                            None if past else latents, None, cache))
        x = ad.add(x, _feed_forward(params, f"dec.{i}.ffn", _layer_norm(params, f"dec.{i}.ln3", x)))
    x = _layer_norm(params, "dec.ln_out", x)
    return ad.linear(x, params["out.w"], params["out.b"])


def greedy_generate(latents, params: ModelParams, config: ModelConfig,
                    max_len: int, start_id: int = 1, end_id: int = 2) -> list[list[int]]:
    """Greedy argmax decoding of a stack of same-length latents [B, L, d] from the
    start token, one cached step at a time; a row leaves once it emits ``end_id``.
    Returns B id lists, each cut before its first ``end_id``, of at most ``max_len`` ids."""
    lat = np.asarray(latents)
    live = np.arange(lat.shape[0])
    last = np.full((lat.shape[0], 1), start_id, dtype=np.int64)
    out: list[list[int]] = [[] for _ in live]
    cache: dict = {}
    for _ in range(max_len):
        chosen = decode_batch(Tensor(lat), last, params, config, cache).data[:, -1].argmax(axis=-1)
        going = chosen != end_id
        for row, token in zip(live[going].tolist(), chosen[going].tolist()):
            out[row].append(token)
        if not going.any():
            break
        if not going.all():
            live, lat = live[going], lat[going]
            cache = {name: [a[going] for a in kv] for name, kv in cache.items()}
        last = chosen[going][:, None]
    return out
