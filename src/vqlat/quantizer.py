"""Discrete latent space: nearest-entry quantization, straight-through
gradients, the reconstruction-plus-commitment objective, moving-average
codebook updates, and a standalone Gumbel-softmax selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError
from .reports import DictCodec

# An entry whose running count decays below this is considered dead and is
# reseeded from the current batch.
DEAD_COUNT_THRESHOLD = 1e-3


@dataclass
class QuantizerConfig(DictCodec):
    scheme: str = "kmeans"
    commitment_beta: float = 0.25

    def __post_init__(self):
        # training selects by nearest entry and moves entries by EMA, nothing else
        if self.scheme != "kmeans":
            raise ContractError(f"quantizer scheme must be 'kmeans', got {self.scheme!r}")
        if not 0.0 <= self.commitment_beta < 1.0:
            raise ContractError(f"commitment weight must lie in [0, 1), got {self.commitment_beta}")


class Codebook:
    """Latent embedding table with moving-average accumulators.

    Invariant maintained by every update: for live entries the table row
    equals ``sums[k] / counts[k]``.
    """

    def __init__(self, entries: np.ndarray, decay: float = 0.99,
                 counts: np.ndarray | None = None, sums: np.ndarray | None = None,
                 seed: int = 0):
        entries = np.asarray(entries, dtype=np.float32)
        if entries.ndim != 2 or entries.shape[0] == 0:
            raise ContractError(f"codebook entries must be a nonempty [K, I] array, got shape {entries.shape}")
        if not 0.0 <= decay < 1.0:
            raise ContractError(f"decay must lie in [0, 1), got {decay}")
        self.entries = entries.copy()
        self.decay = float(decay)
        self.counts = (np.ones(entries.shape[0], dtype=np.float64) if counts is None
                       else np.asarray(counts, dtype=np.float64).copy())
        self.sums = (self.entries.astype(np.float64) * self.counts[:, None] if sums is None
                     else np.asarray(sums, dtype=np.float64).copy())
        self._rng = np.random.default_rng(seed)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    def check_indices(self, indices, what: str) -> np.ndarray:
        """``indices`` as an integer array of values in [0, size), or a
        :class:`ContractError`: numpy would silently wrap a negative index."""
        indices = np.asarray(indices)
        if not np.issubdtype(indices.dtype, np.integer):
            raise ContractError(f"{what}: entry indices must be integers, got {indices.dtype}")
        if indices.size and not (indices.min() >= 0 and indices.max() < self.size):
            raise ContractError(f"{what}: entry indices must lie in [0, {self.size})")
        return indices

    @classmethod
    def init_from_data(cls, data: np.ndarray, k: int, rng: np.random.Generator,
                       decay: float = 0.99, seed: int = 0) -> "Codebook":
        """Seed ``k`` entries from observed vectors by farthest-point traversal.

        Plain uniform draws routinely plant several entries inside one tight
        cluster and leave another cluster unclaimed; greedily taking the
        point farthest from the entries chosen so far covers every
        well-separated cluster before refining within one.  Each pick rescans
        only the rows its :func:`_gemm_bound` cannot rule out, so the picks
        are those of a full scan.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ContractError("init_from_data: need a nonempty [N, I] array")
        if k < 1:
            raise ContractError(f"init_from_data: need k >= 1 entries, got {k}")
        n = data.shape[0]
        with np.errstate(over="ignore"):
            data_sq = np.einsum("nd,nd->n", data, data)
        chosen = [int(rng.integers(n))]
        d2 = pairwise_sq_dists(data, data[chosen])[:, 0]
        while len(chosen) < k:
            if d2.max() <= 0.0:
                chosen.append(int(rng.integers(n)))
            else:
                chosen.append(int(np.argmax(d2)))
            centre = data[chosen[-1:]]
            # a row's d2 can fall only where its lower bound is below it, NaN or
            # overflowed; every other row keeps its d2 bit for bit
            with np.errstate(over="ignore", invalid="ignore"):
                approx, margin, widen = _gemm_bound(data, data_sq, centre, data_sq[chosen[-1:]], data.dtype)
                low = (approx[:, 0] - margin) / widen
            scan = np.flatnonzero(~(low >= d2) | (low == np.inf))
            d2[scan] = np.minimum(d2[scan], pairwise_sq_dists(data[scan], centre)[:, 0])
        return cls(data[chosen].astype(np.float32), decay=decay, seed=seed)


def pairwise_sq_dists(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances [N, K] via the explicit difference form.

    Computed exactly as a per-pair sum of squared differences so results are
    bit-identical to a row-by-row scan.  Rows go through in blocks of
    ``max(1, 2**17 // (K*d))``, so each [rows, K, d] difference block holds
    about 2**17 values (0.5 MB in float32) whatever N is.  This is the
    package's exact distance kernel, in the dtype of its inputs: codebook seeding,
    interpolation rows, traversal and transport costs read it directly, and
    :func:`nearest_entries` settles every row its bound leaves undecided with it.
    """
    vectors = np.asarray(vectors)
    out = np.empty((vectors.shape[0], entries.shape[0]), dtype=np.result_type(vectors, entries))
    step = max(1, 2**17 // max(1, entries.size))
    for start in range(0, vectors.shape[0], step):
        # ``** 2`` can square the difference temporary in place, where ``diff * diff``
        # allocates again for the same bits (seeding 512 of 2,200 x 64 rows: 0.20 s vs 0.27 s)
        out[start:start + step] = np.sum((vectors[start:start + step, None, :] - entries[None]) ** 2, axis=-1)
    return out


def _gemm_bound(x: np.ndarray, x_sq: np.ndarray, wide: np.ndarray, wide_sq: np.ndarray,
                dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, float]:
    """The GEMM distances ``approx = |x|^2 + |e|^2 - 2 x.e`` [n, K] of float64 rows
    ``x`` to float64 entries ``wide`` (squared norms ``x_sq``, ``wide_sq``), and
    the ``margin`` [n] and ``widen`` that bound :func:`pairwise_sq_dists` in ``dtype``.

    ``approx`` is within ``err = g64 * (|x| + max|e|)^2`` of the true distance D,
    and the difference form within ``g * D + slack`` (d + 2 roundings, plus an
    underflow term).  With ``margin = 2 * err + 2 * slack``, every exact value is
    at least ``(approx - margin) / widen``, and only an entry whose ``approx`` is
    at most ``(min approx + margin) * widen`` can hold a row's smallest.  Terms
    that overflow or turn NaN come back as they are, for the caller to scan.
    """
    info = np.finfo(dtype)
    d = x.shape[1]
    # g and g64 are twice the d + 2 roundings' bound in the input dtype and in
    # float64; past g = 1/3 the widened limit stops covering the bound, so
    # every row takes the full scan
    g = (d + 2) * float(info.eps)
    widen = 1 + 4 * g if g < 1 / 3 else np.inf
    g64 = (d + 2) * 2.0**-52
    slack = 2 * (d + 2) * float(info.tiny)
    approx = x @ wide.T
    approx *= -2.0
    approx += wide_sq
    approx += x_sq[:, None]
    margin = 2 * g64 * (np.sqrt(x_sq) + np.sqrt(wide_sq.max())) ** 2 + 2 * slack
    return approx, margin, widen


def nearest_entries(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of each row's nearest entry, bit-identical to
    ``np.argmin(pairwise_sq_dists(vectors, entries), axis=1)``.

    Rows go through in blocks of ``max(1, 2**16 // K)``, so each block's
    float64 [rows, K] temporaries hold about 2**16 values (0.5 MB).  Only
    entries whose :func:`_gemm_bound` lower bound is at or below the row's
    smallest upper bound can hold the difference form's minimum, so a row that
    shortlists exactly one entry takes it.  Every other row (several
    candidates, or bounds that are not finite) is settled by the reference
    itself, the argmin of :func:`pairwise_sq_dists`.
    """
    vectors = np.asarray(vectors)
    dtype = np.result_type(vectors, entries)
    wide = entries.astype(np.float64)
    wide_sq = np.einsum("kd,kd->k", wide, wide)
    out = np.empty(vectors.shape[0], dtype=np.intp)
    step = max(1, 2**16 // entries.shape[0])
    for start in range(0, vectors.shape[0], step):
        block = vectors[start:start + step]
        x = block.astype(np.float64)
        # a bound that overflows or turns NaN sends its row to the full scan
        with np.errstate(over="ignore", invalid="ignore"):
            approx, margin, widen = _gemm_bound(x, np.einsum("nd,nd->n", x, x), wide, wide_sq, dtype)
            limit = (approx.min(axis=1) + margin) * widen
        hits = approx <= limit[:, None]
        best = out[start:start + step]
        best[:] = hits.argmax(axis=1)
        scan = ~(limit < float(np.finfo(dtype).max)) | (np.count_nonzero(hits, axis=1) != 1)
        if scan.any():
            best[scan] = np.argmin(pairwise_sq_dists(block[scan], entries), axis=1)
    return out


def quantize_kmeans(embeddings: np.ndarray, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Map each row to its nearest entry (L2); ties resolve to the lowest index."""
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2:
        raise ShapeError(f"quantize_kmeans: expected [L, I], got shape {embeddings.shape}")
    if embeddings.shape[1] != codebook.dim:
        raise ShapeError(f"quantize_kmeans: embedding width {embeddings.shape[1]} != codebook width {codebook.dim}")
    if not np.issubdtype(embeddings.dtype, np.floating):
        raise ContractError(f"quantize_kmeans: expected floating-point embeddings, got {embeddings.dtype}")
    entries = codebook.entries.astype(embeddings.dtype, copy=False)
    indices = nearest_entries(embeddings, entries)
    return indices, entries[indices]


def quantize_gumbel(scores: np.ndarray, codebook: Codebook, tau: float,
                    rng: np.random.Generator,
                    noise: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sample entry indices by perturbing log-scores with Gumbel noise.

    ``scores`` are positive per-entry weights [L, K].  The temperature
    rescales the perturbed scores but never changes the argmax; passing a
    fixed ``noise`` array makes that invariance directly observable.
    """
    if not tau > 0.0:  # NaN fails too
        raise ContractError(f"gumbel temperature must be positive, got {tau}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != codebook.size:
        raise ShapeError(f"quantize_gumbel: expected [L, {codebook.size}] scores, got {scores.shape}")
    if not (scores > 0.0).all():
        raise ContractError("quantize_gumbel: scores must be strictly positive")
    if noise is None:
        u = rng.random(scores.shape)
        noise = -np.log(-np.log(u))
    perturbed = (np.log(scores) + noise) / tau
    indices = np.argmax(perturbed, axis=1)
    return indices, codebook.entries[indices].copy()


def straight_through(encoder_out: Tensor, quantized: np.ndarray) -> Tensor:
    """Realize ``encoder_out + sg(quantized - encoder_out)``.

    Forward equals the quantized values exactly; the backward Jacobian with
    respect to the encoder output is exactly the identity.
    """
    return ad.substitute_forward(encoder_out, quantized)


def vq_loss(encoder_out: Tensor, quantized: np.ndarray, reconstruction_ce: Tensor,
            beta: float, reduction: str = "sum") -> Tensor:
    """Two-term objective: reconstruction + beta * commitment ``||E - sg(z_q)||^2``.

    The VQ-VAE codebook term ``||sg(E) - z_q||^2`` is left out: moving-average
    updates move the entries, so it would carry no gradient.  ``reduction``
    chooses between the plain summed squared norm and its elementwise mean,
    which trainers prefer for scale balance.
    """
    if reduction not in ("sum", "mean"):
        raise ContractError(f"vq_loss: unknown reduction {reduction!r}")
    zq = np.asarray(quantized, dtype=encoder_out.data.dtype)
    if zq.shape != encoder_out.shape:
        raise ShapeError(f"vq_loss: shapes {encoder_out.shape} and {zq.shape} disagree")
    diff = ad.sub(encoder_out, zq)
    commitment = ad.sum_(ad.mul(diff, diff))
    if reduction == "mean":
        commitment = ad.mul(commitment, 1.0 / diff.size)
    return ad.add(reconstruction_ce, ad.mul(commitment, float(beta)))


def ema_update(codebook: Codebook, embeddings: np.ndarray, indices: np.ndarray) -> None:
    """Fold one batch of assigned embeddings into the codebook.

    counts_k <- counts_k * decay + n_k * (1 - decay)
    sums_k   <- sums_k * decay + (1 - decay) * sum of assigned embeddings
    entry_k  <- sums_k / counts_k

    Entries receiving nothing decay both accumulators, which leaves their
    position unchanged.  Entries whose count underflows the dead threshold
    are reseeded to a random embedding from this batch.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    indices = np.asarray(indices)
    if embeddings.shape[0] != indices.shape[0]:
        raise ShapeError(f"ema_update: {embeddings.shape[0]} embeddings vs {indices.shape[0]} assignments")
    lam = codebook.decay
    k = codebook.size

    n = np.bincount(indices, minlength=k).astype(np.float64)
    batch_sums = np.zeros((k, codebook.dim), dtype=np.float64)
    np.add.at(batch_sums, indices, embeddings)

    codebook.counts = codebook.counts * lam + n * (1.0 - lam)
    codebook.sums = codebook.sums * lam + (1.0 - lam) * batch_sums

    dead = codebook.counts < DEAD_COUNT_THRESHOLD
    live = ~dead & (codebook.counts > 0)
    codebook.entries[live] = (codebook.sums[live] / codebook.counts[live, None]).astype(np.float32)
    if dead.any() and embeddings.shape[0] > 0:
        for idx in np.flatnonzero(dead):
            seed_row = embeddings[int(codebook._rng.integers(embeddings.shape[0]))]
            codebook.entries[idx] = seed_row.astype(np.float32)
            codebook.counts[idx] = 1.0
            codebook.sums[idx] = seed_row
    elif dead.any():
        raise ContractError("ema_update: dead entries but empty batch to reseed from")


def kl_to_uniform_prior(codebook_size: int) -> float:
    """KL divergence of a one-hot posterior against the uniform prior: log K."""
    if codebook_size < 1:
        raise ContractError(f"codebook size must be positive, got {codebook_size}")
    return math.log(codebook_size)
