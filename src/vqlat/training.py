"""Training loop for the quantized autoencoder and the trained-artifact bundle.

Sentences are bucketed by length so batches never need padding.  Each step
encodes a batch, quantizes against the codebook, folds the batch into the
codebook's moving averages, decodes through the straight-through latents with
teacher forcing, and applies one Adam update to the network parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as md
from .autodiff import Adam, Tensor
from .corpus import Vocabulary
from .errors import ContractError
from .quantizer import Codebook, QuantizerConfig, ema_update, quantize_kmeans, straight_through, vq_loss
from .reports import DictCodec


@dataclass
class TrainSchedule(DictCodec):
    epochs: int
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    codebook_size: int = 512
    codebook_decay: float = 0.99
    target_exact_match: float | None = None
    check_every: int = 5


@dataclass
class ModelBundle:
    """Everything a trained artifact needs to encode, quantize, and decode."""

    config: md.ModelConfig
    params: md.ModelParams
    codebook: Codebook
    qconfig: QuantizerConfig
    vocab: Vocabulary

    def word_ids(self, words: list[str]) -> np.ndarray:
        return np.asarray([self.vocab.id_of(w) for w in words], dtype=np.int64)

    def encode_words(self, words: list[str]) -> np.ndarray:
        """Continuous (pre-quantization) latent rows for a word sequence."""
        return md.encode(self.word_ids(words), self.params, self.config).data

    def quantize_words(self, words: list[str]) -> tuple[np.ndarray, np.ndarray]:
        return quantize_kmeans(self.encode_words(words), self.codebook)

    def decode_ids(self, latents: np.ndarray, max_len: int | None = None) -> list[int]:
        return md.greedy_generate(latents, self.params, self.config,
                                  max_len or self.config.max_len,
                                  start_id=self.vocab.START, end_id=self.vocab.END)

    def decode_words(self, latents: np.ndarray, max_len: int | None = None) -> list[str]:
        return [self.vocab.word_of(i) for i in self.decode_ids(latents, max_len)]

    def wmd_embeddings(self, words: list[str]) -> np.ndarray:
        """Quantized latents of a word sequence; empty sequences fall back to
        the end marker's latent so distance comparisons stay total."""
        ids = [self.vocab.id_of(w) for w in words] or [self.vocab.END]
        rows = md.encode(ids, self.params, self.config).data
        _, quantized = quantize_kmeans(rows, self.codebook)
        return quantized

    def end_token_latent(self) -> np.ndarray:
        """Codebook entry nearest the end marker's embedding; used as padding."""
        rows = md.encode([self.vocab.END], self.params, self.config).data
        _, quantized = quantize_kmeans(rows, self.codebook)
        return quantized[0]

    def connective_latent(self, sentence_with_and: list[str]) -> np.ndarray:
        """Quantized latent of the first 'and' token in the given sentence."""
        if "and" not in sentence_with_and:
            raise ContractError("sentence does not contain the connective 'and'")
        _, rows = self.quantize_words(sentence_with_and)
        return rows[sentence_with_and.index("and")]


def sentences_to_ids(token_lists: list[list[str]], vocab: Vocabulary) -> list[np.ndarray]:
    return [np.asarray([vocab.id_of(t) for t in toks], dtype=np.int64) for toks in token_lists]


def _length_buckets(ids: list[np.ndarray]) -> dict[int, list[int]]:
    buckets: dict[int, list[int]] = {}
    for i, row in enumerate(ids):
        buckets.setdefault(len(row), []).append(i)
    return buckets


def warmup_codebook(ids: list[np.ndarray], params: md.ModelParams, config: md.ModelConfig,
                    k: int, decay: float, rng: np.random.Generator) -> Codebook:
    """Collect one eval-mode pass of encoder outputs and seed entries from them."""
    outputs = []
    buckets = _length_buckets(ids)
    for length in sorted(buckets):
        rows = np.stack([ids[i] for i in buckets[length]])
        out = md.encode_batch(rows, params, config).data
        outputs.append(out.reshape(-1, config.d_model))
    data = np.concatenate(outputs, axis=0)
    return Codebook.init_from_data(data, k, rng, decay=decay, seed=int(rng.integers(2**31)))


def exact_match_rate(bundle: ModelBundle, ids: list[np.ndarray]) -> float:
    """Fraction of sentences greedy decoding reproduces token-for-token."""
    hits = 0
    buckets = _length_buckets(ids)
    for length in sorted(buckets):
        rows = np.stack([ids[i] for i in buckets[length]])
        latents = md.encode_batch(rows, bundle.params, bundle.config).data
        flat = latents.reshape(-1, bundle.config.d_model)
        _, quantized = quantize_kmeans(flat, bundle.codebook)
        quantized = quantized.reshape(latents.shape)
        for row, lat in zip(rows, quantized):
            decoded = bundle.decode_ids(lat, max_len=length + 2)
            if decoded == list(row):
                hits += 1
    return hits / len(ids)


def train_model(token_lists: list[list[str]], vocab: Vocabulary, config: md.ModelConfig,
                qconfig: QuantizerConfig, schedule: TrainSchedule,
                log: list[dict] | None = None) -> ModelBundle:
    """Train on the given sentences; returns the bundle, appending per-epoch rows to ``log``."""
    if config.vocab_size != len(vocab):
        raise ContractError(f"config.vocab_size {config.vocab_size} != vocabulary size {len(vocab)}")
    # the loop below always selects by nearest entry and moves entries by EMA
    if qconfig.scheme != "kmeans" or not qconfig.use_ema:
        raise ContractError(f"training supports only scheme 'kmeans' with use_ema true, got "
                            f"scheme {qconfig.scheme!r} with use_ema {qconfig.use_ema}")
    ids = sentences_to_ids(token_lists, vocab)
    if not ids:
        raise ContractError("empty corpus")
    longest = max(len(row) for row in ids)
    if longest + 2 > config.max_len:
        raise ContractError(f"max_len {config.max_len} too small for corpus sentences of {longest} tokens")

    param_rng = np.random.default_rng(schedule.seed)
    batch_rng = np.random.default_rng(schedule.seed + 1)
    warm_rng = np.random.default_rng(schedule.seed + 2)
    drop_rng = np.random.default_rng(schedule.seed + 3)

    params = md.init_params(config, param_rng)
    codebook = warmup_codebook(ids, params, config, schedule.codebook_size,
                               schedule.codebook_decay, warm_rng)
    bundle = ModelBundle(config, params, codebook, qconfig, vocab)
    optimizer = Adam(params.trainable(), lr=schedule.lr)
    beta = qconfig.commitment_beta
    buckets = _length_buckets(ids)

    for epoch in range(schedule.epochs):
        total_ce = 0.0
        total_commit = 0.0
        total_tokens = 0
        correct_tokens = 0
        for length in sorted(buckets):
            order = np.array(buckets[length])
            batch_rng.shuffle(order)
            for start in range(0, len(order), schedule.batch_size):
                chosen = order[start:start + schedule.batch_size]
                rows = np.stack([ids[i] for i in chosen])
                b = rows.shape[0]

                enc_out = md.encode_batch(rows, params, config, training=True, rng=drop_rng)
                flat = enc_out.data.reshape(-1, config.d_model)
                indices, quantized = quantize_kmeans(flat, codebook)
                ema_update(codebook, flat.astype(np.float64), indices)

                st_latents = straight_through(enc_out, quantized.reshape(enc_out.shape))
                dec_in = np.concatenate([np.full((b, 1), vocab.START, dtype=np.int64), rows], axis=1)
                targets = np.concatenate([rows, np.full((b, 1), vocab.END, dtype=np.int64)], axis=1)
                logits = md.decode_batch(st_latents, dec_in, params, config,
                                         training=True, rng=drop_rng)
                flat_logits = ad.reshape(logits, (b * (length + 1), config.vocab_size))
                ce = ad.cross_entropy_with_logits(flat_logits, targets.reshape(-1))
                loss = vq_loss(enc_out, quantized.reshape(enc_out.shape), ce, beta,
                               include_codebook_term=qconfig.include_codebook_term,
                               reduction="mean")

                optimizer.zero_grad()
                ad.backward(loss)
                optimizer.step()

                n_tok = targets.size
                total_ce += float(ce.data) * n_tok
                total_commit += (float(loss.data) - float(ce.data)) * n_tok
                total_tokens += n_tok
                correct_tokens += int((logits.data.argmax(axis=-1) == targets).sum())

        row = {"epoch": epoch + 1,
               "ce": total_ce / total_tokens,
               "commit": total_commit / total_tokens,
               "token_acc": correct_tokens / total_tokens}
        if not (math.isfinite(row["ce"]) and math.isfinite(row["commit"])):
            raise ContractError(f"epoch {epoch + 1}: non-finite loss (ce {row['ce']}, "
                                f"commit {row['commit']}); lower the learning rate")
        if log is not None:
            log.append(row)

        if (schedule.target_exact_match is not None
                and row["token_acc"] >= 0.98
                and (epoch + 1) % schedule.check_every == 0):
            if exact_match_rate(bundle, ids) >= schedule.target_exact_match:
                break
    return bundle


def token_accuracy(bundle: ModelBundle, token_lists: list[list[str]]) -> float:
    """Teacher-forced next-token accuracy over a corpus."""
    ids = sentences_to_ids(token_lists, bundle.vocab)
    buckets = _length_buckets(ids)
    total = 0
    correct = 0
    for length in sorted(buckets):
        rows = np.stack([ids[i] for i in buckets[length]])
        b = rows.shape[0]
        enc_out = md.encode_batch(rows, bundle.params, bundle.config)
        flat = enc_out.data.reshape(-1, bundle.config.d_model)
        _, quantized = quantize_kmeans(flat, bundle.codebook)
        latents = Tensor(quantized.reshape(enc_out.shape))
        dec_in = np.concatenate([np.full((b, 1), bundle.vocab.START, dtype=np.int64), rows], axis=1)
        targets = np.concatenate([rows, np.full((b, 1), bundle.vocab.END, dtype=np.int64)], axis=1)
        logits = md.decode_batch(latents, dec_in, bundle.params, bundle.config)
        total += targets.size
        correct += int((logits.data.argmax(axis=-1) == targets).sum())
    return correct / total


# -- persistence -----------------------------------------------------------------


def save_bundle(path, bundle: ModelBundle) -> None:
    blob = {"model": bundle.config.to_dict(),
            "quantizer": bundle.qconfig.to_dict(),
            "codebook_decay": bundle.codebook.decay,
            "vocab": bundle.vocab.words}
    tensors = dict(bundle.params.arrays())
    tensors["codebook.z"] = bundle.codebook.entries
    tensors["codebook.N"] = bundle.codebook.counts.astype(np.float32)
    tensors["codebook.m"] = bundle.codebook.sums.astype(np.float32)
    md.save_checkpoint(path, blob, tensors)


def load_bundle(path) -> ModelBundle:
    """Read a checkpoint for inference; its params record no autodiff tape."""
    blob, tensors = md.load_checkpoint(path)
    missing = [key for key in ("model", "quantizer", "codebook_decay", "vocab") if key not in blob]
    if missing:
        raise ContractError(f"checkpoint config lacks sections {missing}")
    config = md.ModelConfig.from_dict(blob["model"])
    qconfig = QuantizerConfig.from_dict(blob["quantizer"])
    vocab = Vocabulary(blob["vocab"])
    if len(vocab) != config.vocab_size:
        raise ContractError(f"checkpoint vocabulary size {len(vocab)} != model vocab_size {config.vocab_size}")
    layout = {name: t.shape for name, t in
              md.init_params(config, np.random.default_rng(0)).tensors.items()}
    k = tensors.get("codebook.N", np.empty(0)).size
    layout.update({"codebook.z": (k, config.d_model), "codebook.N": (k,),
                   "codebook.m": (k, config.d_model)})
    if {name: arr.shape for name, arr in tensors.items()} != layout:
        raise ContractError("checkpoint tensor names or shapes do not match the model layout")
    if not all(np.isfinite(arr).all() for arr in tensors.values()):
        raise ContractError("checkpoint holds non-finite weights")
    codebook = Codebook(tensors.pop("codebook.z"), decay=blob["codebook_decay"],
                        counts=tensors.pop("codebook.N"), sums=tensors.pop("codebook.m"))
    params = md.ModelParams({name: Tensor(arr) for name, arr in tensors.items()})
    return ModelBundle(config, params, codebook, qconfig, vocab)
