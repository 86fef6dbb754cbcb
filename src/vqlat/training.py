"""Training loop for the quantized autoencoder and the trained-artifact bundle.

Sentences are batched by length so batches never need padding.  Each step runs
the teacher-forced forward that token accuracy also scores, folds the batch
into the codebook's moving averages, and applies one Adam update.
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

    def __post_init__(self):
        for name in ("batch_size", "check_every"):
            if getattr(self, name) < 1:
                raise ContractError(f"schedule {name} must be at least 1, got {getattr(self, name)}")


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

    def quantize_ids(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-entry indices and quantized latent rows of one id sequence."""
        return quantize_kmeans(md.encode(ids, self.params, self.config).data, self.codebook)

    def quantize_words(self, words: list[str]) -> tuple[np.ndarray, np.ndarray]:
        return self.quantize_ids(self.word_ids(words))

    def decode_ids(self, latents: np.ndarray, max_len: int | None = None) -> list[list[int]]:
        """Greedy decodes of a stack of same-length latents [B, L, d], one per row."""
        return md.greedy_generate(latents, self.params, self.config,
                                  max_len or self.config.max_len,
                                  start_id=self.vocab.START, end_id=self.vocab.END)

    def decode_words(self, latents: np.ndarray, max_len: int | None = None) -> list[list[str]]:
        return [[self.vocab.word_of(i) for i in row] for row in self.decode_ids(latents, max_len)]

    def autoencode_ids(self, ids: list[np.ndarray]) -> list[list[int]]:
        """Greedy reconstructions of id sequences from their quantized latents, in
        input order; each length is decoded as one stack of per-sentence latents."""
        decoded = [row for rows in length_batches(ids)
                   for row in self.decode_ids(np.stack([self.quantize_ids(r)[1] for r in rows]),
                                              max_len=rows.shape[1] + 2)]
        # length_batches yields each length's rows in input order, shortest length first
        order = sorted(range(len(ids)), key=lambda i: len(ids[i]))
        return [row for _, row in sorted(zip(order, decoded))]

    def wmd_embeddings(self, words: list[str]) -> np.ndarray:
        """Quantized latents of a word sequence; empty sequences fall back to
        the end marker's latent so distance comparisons stay total."""
        return self.quantize_ids([self.vocab.id_of(w) for w in words] or [self.vocab.END])[1]

    def end_token_latent(self) -> np.ndarray:
        """Codebook entry nearest the end marker's embedding; used as padding."""
        return self.wmd_embeddings([])[0]

    def connective_latent(self, sentence_with_and: list[str]) -> np.ndarray:
        """Quantized latent of the first 'and' token in the given sentence."""
        if "and" not in sentence_with_and:
            raise ContractError("sentence does not contain the connective 'and'")
        _, rows = self.quantize_words(sentence_with_and)
        return rows[sentence_with_and.index("and")]


def sentences_to_ids(token_lists: list[list[str]], vocab: Vocabulary) -> list[np.ndarray]:
    return [np.asarray([vocab.id_of(t) for t in toks], dtype=np.int64) for toks in token_lists]


def length_batches(ids: list[np.ndarray], batch_size: int | None = None,
                   rng: np.random.Generator | None = None):
    """Same-length [B, L] id batches, shortest length first; ``rng`` shuffles each
    length's sentences, and without a ``batch_size`` each length is one batch."""
    positions: dict[int, list[int]] = {}
    for i, row in enumerate(ids):
        positions.setdefault(len(row), []).append(i)
    for length in sorted(positions):
        order = np.array(positions[length])
        if rng is not None:
            rng.shuffle(order)
        step = len(order) if batch_size is None else batch_size
        for start in range(0, len(order), step):
            yield np.stack([ids[i] for i in order[start:start + step]])


def teacher_forced(bundle: ModelBundle, rows: np.ndarray, training: bool = False,
                   rng: np.random.Generator | None = None):
    """Encode and quantize one [B, L] batch, then decode it behind the start marker
    through the straight-through latents.  Returns the encoder output, the entry
    indices [B*L], the quantized rows, the logits and the end-closed targets [B, L+1]."""
    params, config, vocab = bundle.params, bundle.config, bundle.vocab
    enc_out = md.encode_batch(rows, params, config, training=training, rng=rng)
    indices, quantized = quantize_kmeans(enc_out.data.reshape(-1, config.d_model), bundle.codebook)
    quantized = quantized.reshape(enc_out.shape)
    b = rows.shape[0]
    dec_in = np.concatenate([np.full((b, 1), vocab.START, dtype=np.int64), rows], axis=1)
    targets = np.concatenate([rows, np.full((b, 1), vocab.END, dtype=np.int64)], axis=1)
    logits = md.decode_batch(straight_through(enc_out, quantized), dec_in, params, config,
                             training=training, rng=rng)
    return enc_out, indices, quantized, logits, targets


def warmup_codebook(ids: list[np.ndarray], params: md.ModelParams, config: md.ModelConfig,
                    k: int, decay: float, rng: np.random.Generator) -> Codebook:
    """Collect one eval-mode pass of encoder outputs and seed entries from them."""
    data = np.concatenate([md.encode_batch(rows, params, config).data.reshape(-1, config.d_model)
                           for rows in length_batches(ids)], axis=0)
    return Codebook.init_from_data(data, k, rng, decay=decay, seed=int(rng.integers(2**31)))


def exact_match_rate(bundle: ModelBundle, ids: list[np.ndarray]) -> float:
    """Fraction of sentences greedy decoding reproduces token-for-token."""
    return sum(got == list(row) for got, row in zip(bundle.autoencode_ids(ids), ids)) / len(ids)


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

    for epoch in range(schedule.epochs):
        total_ce = 0.0
        total_commit = 0.0
        total_tokens = 0
        correct_tokens = 0
        for rows in length_batches(ids, schedule.batch_size, batch_rng):
            enc_out, indices, quantized, logits, targets = teacher_forced(
                bundle, rows, training=True, rng=drop_rng)
            ema_update(codebook, enc_out.data.reshape(-1, config.d_model).astype(np.float64),
                       indices)
            flat_logits = ad.reshape(logits, (targets.size, config.vocab_size))
            ce = ad.cross_entropy_with_logits(flat_logits, targets.reshape(-1))
            loss = vq_loss(enc_out, quantized, ce, beta,
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
    total = correct = 0
    for rows in length_batches(sentences_to_ids(token_lists, bundle.vocab)):
        *_, logits, targets = teacher_forced(bundle, rows)
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
