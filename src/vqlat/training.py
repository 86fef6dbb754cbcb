"""Training loop for the quantized autoencoder and the trained-artifact bundle.

Sentences are batched by length so batches never need padding.  Each step runs
the teacher-forced forward that token accuracy also scores, folds the batch
into the codebook's moving averages, and applies one Adam update.  The bundle
persists as one VQL1 checkpoint: this module frames it, reads it through one
bounds-checked cursor, and checks its header and tensors against the layout.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as md
from .autodiff import Adam, Tensor
from .corpus import Vocabulary
from .errors import ContractError, InputError
from .quantizer import Codebook, QuantizerConfig, ema_update, quantize_kmeans, straight_through, vq_loss
from .reports import DictCodec, atomic_write_bytes, canonical_json, decode_json


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
        for name, least in (("epochs", 0), ("batch_size", 1), ("codebook_size", 1),
                            ("check_every", 1)):
            if getattr(self, name) < least:
                raise ContractError(f"schedule {name} must be at least {least}, "
                                    f"got {getattr(self, name)}")
        if not self.lr > 0.0:  # NaN fails too
            raise ContractError(f"schedule lr must be positive, got {self.lr}")
        if self.target_exact_match is not None and not 0.0 <= self.target_exact_match <= 1.0:
            raise ContractError("schedule target_exact_match must lie in [0, 1], "
                                f"got {self.target_exact_match}")


@dataclass
class CheckpointHeader(DictCodec):
    """The JSON config a checkpoint carries ahead of its tensor records."""

    model: dict
    quantizer: dict
    codebook_decay: float
    vocab: list


@dataclass
class ModelBundle:
    """Everything a trained artifact needs to encode, quantize, and decode."""

    config: md.ModelConfig
    params: md.ModelParams
    codebook: Codebook
    qconfig: QuantizerConfig
    vocab: Vocabulary

    def encode_ids(self, ids: list[np.ndarray]) -> list[np.ndarray]:
        """Continuous (pre-quantization) latent rows [L, d] of each id sequence, in
        input order; each length is encoded as one stack."""
        return by_length(lambda rows: md.encode_batch(rows, self.params, self.config).data, ids)

    def encode_words(self, words: list[str]) -> np.ndarray:
        """Continuous (pre-quantization) latent rows for a word sequence."""
        return self.encode_ids(sentences_to_ids([words], self.vocab))[0]

    def quantize_ids(self, ids: list[np.ndarray]) -> list[np.ndarray]:
        """Nearest-entry indices [L] of each id sequence, in input order, from one
        quantizer call over every encoded row."""
        encoded = self.encode_ids(ids)
        if not encoded:
            return []
        indices, _ = quantize_kmeans(np.concatenate(encoded), self.codebook)
        return np.split(indices, np.cumsum([len(rows) for rows in encoded])[:-1])

    def quantize_words(self, words: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Entry indices and quantized latent rows of a word sequence; the benchmark
        checks read both halves."""
        [indices] = self.quantize_ids(sentences_to_ids([words], self.vocab))
        return indices, self.codebook.entries[indices]

    def decode_ids(self, indices, max_len: int | None = None) -> list[list[int]]:
        """Greedy decodes of entry-index rows [L] of any lengths, in input order, each
        of at most ``max_len`` tokens and never more than the model's ``max_len``.
        A decode depends only on its row, so each distinct row is decoded once,
        and each length as one stack of the entries it gathers."""
        budget = min(max_len or self.config.max_len, self.config.max_len)

        def generate(stack: np.ndarray) -> list[list[int]]:
            return md.greedy_generate(self.codebook.entries[stack], self.params, self.config,
                                      budget, start_id=self.vocab.START, end_id=self.vocab.END)

        keys = [tuple(self.codebook.check_indices(row, "decode indices").tolist())
                for row in indices]
        distinct = list(dict.fromkeys(keys))
        decodes = dict(zip(distinct, by_length(generate, [np.array(key, dtype=np.intp)
                                                          for key in distinct])))
        return [decodes[key] for key in keys]

    def decode_words(self, indices, max_len: int | None = None) -> list[list[str]]:
        return [[self.vocab.word_of(i) for i in row] for row in self.decode_ids(indices, max_len)]

    def wmd_embeddings(self, sentences: list[list[str]]) -> list[np.ndarray]:
        """Quantized latents of each word sequence; an empty sequence falls back to
        the end marker's latent so distance comparisons stay total."""
        ids = [row if row.size else np.array([self.vocab.END], dtype=np.int64)
               for row in sentences_to_ids(sentences, self.vocab)]
        return [self.codebook.entries[indices] for indices in self.quantize_ids(ids)]

    def end_token_index(self) -> int:
        """Index of the entry nearest the end marker's embedding; used as padding."""
        return int(self.quantize_ids([np.array([self.vocab.END], dtype=np.int64)])[0][0])

    def end_token_latent(self) -> np.ndarray:
        """The entry row of :meth:`end_token_index`."""
        return self.codebook.entries[self.end_token_index()]

    def connective_index(self, sentence_with_and: list[str]) -> int:
        """Entry index of the first 'and' token in the given sentence."""
        if "and" not in sentence_with_and:
            raise ContractError("sentence does not contain the connective 'and'")
        if "and" not in self.vocab:
            raise ContractError("the connective 'and' is not in the checkpoint vocabulary")
        indices, _ = self.quantize_words(sentence_with_and)
        return int(indices[sentence_with_and.index("and")])


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


def by_length(fn, ids: list[np.ndarray]) -> list:
    """``fn`` applied to each length's [B, L] stack from :func:`length_batches`;
    its B per-row results are returned in input order."""
    results = [row for rows in length_batches(ids) for row in fn(rows)]
    # length_batches yields each length's rows in input order, shortest length first
    order = sorted(range(len(ids)), key=lambda i: len(ids[i]))
    return [row for _, row in sorted(zip(order, results), key=lambda pair: pair[0])]


def teacher_forced(bundle: ModelBundle, rows: np.ndarray):
    """Encode and quantize one [B, L] batch, then decode it behind the start marker
    through the straight-through latents.  Returns the encoder output, the entry
    indices [B*L], the quantized rows, the logits and the end-closed targets [B, L+1]."""
    params, config, vocab = bundle.params, bundle.config, bundle.vocab
    enc_out = md.encode_batch(rows, params, config)
    indices, quantized = quantize_kmeans(enc_out.data.reshape(-1, config.d_model), bundle.codebook)
    quantized = quantized.reshape(enc_out.shape)
    b = rows.shape[0]
    dec_in = np.concatenate([np.full((b, 1), vocab.START, dtype=np.int64), rows], axis=1)
    targets = np.concatenate([rows, np.full((b, 1), vocab.END, dtype=np.int64)], axis=1)
    logits = md.decode_batch(straight_through(enc_out, quantized), dec_in, params, config)
    return enc_out, indices, quantized, logits, targets


def warmup_codebook(ids: list[np.ndarray], params: md.ModelParams, config: md.ModelConfig,
                    k: int, decay: float, rng: np.random.Generator) -> Codebook:
    """Collect one pass of encoder outputs and seed entries from them."""
    data = np.concatenate([md.encode_batch(rows, params, config).data.reshape(-1, config.d_model)
                           for rows in length_batches(ids)], axis=0)
    return Codebook.init_from_data(data, k, rng, decay=decay, seed=int(rng.integers(2**31)))


# Cached greedy steps round logits ~1e-6 off the teacher-forced pass; a wider lead wins in both.
VERIFY_MARGIN = 1e-4


def _verified(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rows [B] whose teacher-forced argmax is the target at every position, by more than
    ``VERIFY_MARGIN * max(1, |winner|)``; the decoder is causal, so each is its own greedy decode."""
    runner, winner = np.moveaxis(np.partition(logits, -2, axis=-1)[..., -2:], -1, 0)
    clear = winner - runner > VERIFY_MARGIN * np.maximum(1.0, np.abs(winner))
    return ((logits.argmax(axis=-1) == targets) & clear).all(axis=1)


def reconstruct(bundle: ModelBundle, ids: list[np.ndarray]) -> tuple[list[list[int]], float]:
    """Greedy reconstructions of id sequences, in input order, and their
    teacher-forced next-token accuracy.  Each length is encoded and quantized
    once: its teacher-forced forward verifies the rows that are their own greedy
    decode, and only the other rows' entry indices are greedy-decoded."""
    hits = total = 0

    def decode(rows: np.ndarray) -> list[list[int]]:
        nonlocal hits, total
        _, indices, _, logits, targets = teacher_forced(bundle, rows)
        hits += int((logits.data.argmax(axis=-1) == targets).sum())
        total += targets.size
        verified = _verified(logits.data, targets)
        del logits  # the greedy decode's peak need not hold the teacher-forced logits
        greedy = iter(bundle.decode_ids(indices.reshape(rows.shape)[~verified],
                                        max_len=rows.shape[1] + 2))
        return [row.tolist() if ok else next(greedy) for row, ok in zip(rows, verified)]

    decodes = by_length(decode, ids)
    return decodes, hits / total


def exact_match_rate(bundle: ModelBundle, ids: list[np.ndarray]) -> float:
    """Fraction of sentences greedy decoding reproduces token-for-token."""
    return sum(got == list(row) for got, row in zip(reconstruct(bundle, ids)[0], ids)) / len(ids)


def train_model(token_lists: list[list[str]], vocab: Vocabulary, config: md.ModelConfig,
                qconfig: QuantizerConfig, schedule: TrainSchedule,
                log: list[dict] | None = None) -> ModelBundle:
    """Train on the given sentences; returns the bundle, appending per-epoch rows to ``log``."""
    if config.vocab_size != len(vocab):
        raise ContractError(f"config.vocab_size {config.vocab_size} != vocabulary size {len(vocab)}")
    ids = sentences_to_ids(token_lists, vocab)
    if not ids:
        raise ContractError("empty corpus")
    longest = max(len(row) for row in ids)
    if longest + 2 > config.max_len:
        raise ContractError(f"max_len {config.max_len} too small for corpus sentences of {longest} tokens")

    param_rng = np.random.default_rng(schedule.seed)
    batch_rng = np.random.default_rng(schedule.seed + 1)
    warm_rng = np.random.default_rng(schedule.seed + 2)

    params = md.init_params(config, param_rng)
    codebook = warmup_codebook(ids, params, config, schedule.codebook_size,
                               schedule.codebook_decay, warm_rng)
    bundle = ModelBundle(config, params, codebook, qconfig, vocab)
    optimizer = Adam(params.trainable(), lr=schedule.lr)

    for epoch in range(schedule.epochs):
        total_ce = 0.0
        total_commit = 0.0
        total_tokens = 0
        correct_tokens = 0
        # a diverging step overflows to inf and NaN quietly: the loss check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in length_batches(ids, schedule.batch_size, batch_rng):
                enc_out, indices, quantized, logits, targets = teacher_forced(bundle, rows)
                ema_update(codebook, enc_out.data.reshape(-1, config.d_model).astype(np.float64),
                           indices)
                flat_logits = ad.reshape(logits, (targets.size, config.vocab_size))
                ce = ad.cross_entropy_with_logits(flat_logits, targets.reshape(-1))
                loss = vq_loss(enc_out, quantized, ce, qconfig.commitment_beta, reduction="mean")

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
    return reconstruct(bundle, sentences_to_ids(token_lists, bundle.vocab))[1]


# -- persistence -----------------------------------------------------------------
#
# The VQL1 container: magic "VQL1" | u32 header byte length | header JSON (UTF-8,
# canonical) | records...; record: u32 name length | name UTF-8 | u32 rank |
# u32 dims... | f32 data.  Every integer and float is little-endian.

CHECKPOINT_MAGIC = b"VQL1"


def write_checkpoint_bytes(header: dict, tensors: dict[str, np.ndarray]) -> bytes:
    """The VQL1 bytes of a header and named tensors, each stored as float32."""
    buf = io.BytesIO()

    def sized(text: str) -> None:
        raw = text.encode("utf-8")
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)

    buf.write(CHECKPOINT_MAGIC)
    sized(canonical_json(header))
    for name, array in tensors.items():
        arr = np.ascontiguousarray(array, dtype="<f4")
        sized(name)
        buf.write(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
        buf.write(arr.tobytes())
    return buf.getvalue()


def read_checkpoint_bytes(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The header JSON value and named tensors of VQL1 bytes.  Every read passes
    one bounds check, so a corrupt length, rank or shape is an :class:`InputError`
    before anything past the end of ``blob`` is read or allocated."""
    if blob[:4] != CHECKPOINT_MAGIC:
        raise InputError(f"bad checkpoint magic {blob[:4]!r}")
    view, at = memoryview(blob), 4

    def take(size: int, what: str) -> memoryview:
        nonlocal at
        if size > len(view) - at:
            raise InputError(f"truncated checkpoint {what}")
        at += size
        return view[at - size:at]

    def u32s(count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count, what))

    def sized(what: str) -> memoryview:
        (size,) = u32s(1, f"{what} length")
        return take(size, what)

    header = decode_json(sized("config"), "checkpoint config")
    tensors: dict[str, np.ndarray] = {}
    while at < len(view):
        try:
            name = str(sized("tensor name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise InputError("checkpoint tensor name is not UTF-8") from exc
        (rank,) = u32s(1, f"rank of tensor {name!r}")
        shape = u32s(rank, f"shape of tensor {name!r}")
        data = take(4 * math.prod(shape), f"data of tensor {name!r}")
        try:
            tensors[name] = np.frombuffer(data, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:  # a zero dim beside absurd ones, or rank above numpy's
            raise InputError(f"tensor {name!r} has an unusable shape: {exc}") from exc
    return header, tensors


def save_bundle(path, bundle: ModelBundle) -> None:
    header = CheckpointHeader(bundle.config.to_dict(), bundle.qconfig.to_dict(),
                              bundle.codebook.decay, bundle.vocab.words)
    tensors = dict(bundle.params.arrays())
    tensors["codebook.z"] = bundle.codebook.entries
    tensors["codebook.N"] = bundle.codebook.counts.astype(np.float32)
    tensors["codebook.m"] = bundle.codebook.sums.astype(np.float32)
    atomic_write_bytes(path, write_checkpoint_bytes(header.to_dict(), tensors))


def load_bundle(path) -> ModelBundle:
    """Read a checkpoint for inference; its params record no autodiff tape."""
    with open(path, "rb") as fh:
        blob, tensors = read_checkpoint_bytes(fh.read())
    header = CheckpointHeader.from_dict(blob)
    if not all(isinstance(word, str) for word in header.vocab):
        raise ContractError("checkpoint vocab must be a list of words")
    config = md.ModelConfig.from_dict(header.model)
    qconfig = QuantizerConfig.from_dict(header.quantizer)
    vocab = Vocabulary(header.vocab)
    if len(vocab) != config.vocab_size:
        raise ContractError(f"checkpoint vocabulary size {len(vocab)} != model vocab_size {config.vocab_size}")
    layout = {name: shape for name, (shape, _) in md.param_layout(config).items()}
    k = tensors.get("codebook.N", np.empty(0)).size
    layout.update({"codebook.z": (k, config.d_model), "codebook.N": (k,),
                   "codebook.m": (k, config.d_model)})
    if {name: arr.shape for name, arr in tensors.items()} != layout:
        raise ContractError("checkpoint tensor names or shapes do not match the model layout")
    if not all(np.isfinite(arr).all() for arr in tensors.values()):
        raise ContractError("checkpoint holds non-finite weights")
    codebook = Codebook(tensors.pop("codebook.z"), decay=header.codebook_decay,
                        counts=tensors.pop("codebook.N"), sums=tensors.pop("codebook.m"))
    params = md.ModelParams({name: Tensor(arr) for name, arr in tensors.items()})
    return ModelBundle(config, params, codebook, qconfig, vocab)
