"""Latent-space control and measurement.

Everything here operates on quantized latents, as rows of codebook entry
indices, and a codebook snapshot: interpolation paths with their smoothness
ratio, the exact optimal-transport cost between embedding bags, per-position
traversal, latent addition, role-content dispersion statistics, and span
substitution between premises.  All functions are pure given the codebook
snapshot; none decodes, so the control functions return the indices they build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import inference_plan
from .errors import ContractError, ShapeError
from .quantizer import Codebook, pairwise_sq_dists, quantize_kmeans

# -- interpolation --------------------------------------------------------------


def _euclidean_to_entries(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    return np.sqrt(pairwise_sq_dists(rows.astype(np.float64), entries.astype(np.float64)))


def pad_pair(source: np.ndarray, target: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Two index rows of one length: the shorter one gets ``pad`` appended."""
    length = max(len(source), len(target))
    return tuple(np.concatenate([idx, np.full(length - len(idx), pad)])
                 for idx in (source, target))


def interpolate(source: np.ndarray, target: np.ndarray, codebook: Codebook,
                step_size: float = 0.1,
                pad_index: int | None = None) -> tuple[list[float], np.ndarray]:
    """Stepwise path from source to target entry indices: the step times ``t``
    and the ``[steps, L]`` entry indices of every step, source first.

    At each step every position moves to the entry minimizing the weighted
    pair of distances ``(1-t)*d(previous, entry) + t*d(target, entry)``, so the
    final step lands exactly on the target entries.  Unequal lengths require a
    ``pad_index`` entry (:func:`pad_pair`) and are otherwise rejected.

    Positions step independently, in blocks of ``max(1, 2**15 // K)`` over one memo of
    each distinct entry's distance row, so one call can take many pairs' padded rows.
    """
    source = codebook.check_indices(source, "interpolate source")
    target = codebook.check_indices(target, "interpolate target")
    if len(source) != len(target):
        if pad_index is None:
            raise ContractError(
                f"length mismatch {len(source)} vs {len(target)} and no pad index given")
        source, target = pad_pair(source, target,
                                  codebook.check_indices(pad_index, "interpolate pad"))
    if not 0.0 < step_size <= 1.0:
        raise ContractError(f"step_size must lie in (0, 1], got {step_size}")
    memo: dict[int, np.ndarray] = {}

    def entry_dists(idx: np.ndarray) -> np.ndarray:
        new = sorted({int(i) for i in idx} - memo.keys())
        if new:
            memo.update(zip(new, _euclidean_to_entries(codebook.entries[new], codebook.entries)))
        return np.stack([memo[int(i)] for i in idx])

    n_steps = round(1.0 / step_size)
    times = [min(k * step_size, 1.0) if k < n_steps else 1.0 for k in range(n_steps + 1)]
    steps = np.tile(source.astype(np.intp), (len(times), 1))  # blocks overwrite steps 1..
    block = max(1, 2**15 // codebook.size)
    for start in range(0, len(source), block):
        cols = slice(start, start + block)
        tgt_dists = entry_dists(target[cols])
        for k, t in enumerate(times[1:], 1):
            steps[k, cols] = np.argmin((1.0 - t) * entry_dists(steps[k - 1, cols])
                                       + t * tgt_dists, axis=1)
    return times, steps


def dump_path(times: Sequence[float], steps: np.ndarray, decoded: Sequence[Sequence]) -> str:
    """One ``t<TAB>indices<TAB>decoded sentence`` line per step of an
    :func:`interpolate` path."""
    lines = []
    for t, indices, words in zip(times, steps, decoded, strict=True):
        indices = ",".join(str(int(i)) for i in indices)
        sentence = " ".join(str(tok) for tok in words)
        lines.append(f"{t:.2f}\t{indices}\t{sentence}")
    return "\n".join(lines) + "\n"


# -- word mover's distance -------------------------------------------------------


def wmd(a: np.ndarray, b: np.ndarray) -> float:
    """Exact optimal-transport cost between two uniform bags of embeddings.

    Each side distributes unit mass uniformly over its rows; ground cost is
    Euclidean distance.  Both sides are expanded to lcm-many equal atoms,
    which reduces the problem to an assignment solved exactly.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ContractError("wmd: empty sequence")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"wmd: embedding widths {a.shape[1]} and {b.shape[1]} disagree")
    from scipy.optimize import linear_sum_assignment  # on first use: scipy is slow to import

    la, lb = a.shape[0], b.shape[0]
    base_cost = _euclidean_to_entries(a, b)

    size = math.lcm(la, lb)
    rep_a, rep_b = size // la, size // lb
    expanded = np.repeat(np.repeat(base_cost, rep_a, axis=0), rep_b, axis=1)
    rows, cols = linear_sum_assignment(expanded)
    return float(expanded[rows, cols].sum() / size)


def interpolation_smoothness(decoded: Sequence[Sequence],
                             embeddings: Mapping[tuple, np.ndarray]) -> float:
    """Direct source-to-target cost over the summed stepwise costs of a path's
    decoded sentences, one per step.

    ``embeddings`` maps each sentence, as a tuple of tokens, to its ``[L, d]``
    rows.  Consecutive duplicate sentences are collapsed first; a degenerate
    all-identical path is 1.0 by convention.
    """
    if len(decoded) < 2:
        raise ContractError("interpolation_smoothness: need at least two steps")
    unique: list[tuple] = []
    for sentence in decoded:
        if not unique or tuple(sentence) != unique[-1]:
            unique.append(tuple(sentence))
    if len(unique) < 2:
        return 1.0
    embeddings = [embeddings[sentence] for sentence in unique]
    denom = sum(wmd(embeddings[i], embeddings[i + 1]) for i in range(len(embeddings) - 1))
    if denom <= 1e-12:
        return 1.0
    return wmd(embeddings[0], embeddings[-1]) / denom


# -- traversal and arithmetic ------------------------------------------------------


def traverse_position(indices: np.ndarray, position: int, codebook: Codebook,
                      n_variants: int) -> np.ndarray:
    """Variants ``[n_variants, L]`` of an index row that swap the entry at one
    position for its nearest neighbours.

    The first variant keeps the entry itself (its own nearest entry); the rest
    use the next-nearest entries in distance order.
    """
    indices = codebook.check_indices(indices, "traverse indices")
    if not 0 <= position < len(indices):
        raise ContractError(f"position {position} outside sequence of {len(indices)} rows")
    if not 1 <= n_variants <= codebook.size:
        raise ContractError(f"n_variants must lie in [1, {codebook.size}], got {n_variants}")
    dists = _euclidean_to_entries(codebook.entries[indices[position:position + 1]],
                                  codebook.entries)[0]
    variants = np.repeat(indices[None], n_variants, axis=0)
    variants[:, position] = np.argsort(dists, kind="stable")[:n_variants]
    return variants


def latent_arithmetic_add(a: np.ndarray, b: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Entry indices of the position-wise sum of two index rows' entries over
    their shared prefix, re-quantized."""
    a = codebook.check_indices(a, "arithmetic operand a")
    b = codebook.check_indices(b, "arithmetic operand b")
    rows = min(len(a), len(b))
    return quantize_kmeans(codebook.entries[a[:rows]] + codebook.entries[b[:rows]], codebook)[0]


# -- disentanglement statistics ------------------------------------------------------


@dataclass
class SentenceLatents:
    """A sentence's tokens, role labels and entry indices, aligned position by position."""
    tokens: list[str]
    roles: list[str]
    indices: np.ndarray

    def __post_init__(self):
        if not len(self.tokens) == len(self.roles) == len(self.indices):
            raise ContractError("tokens, roles, and entry indices must align")


@dataclass
class RoleContentStats:
    label: str
    num_centers: int
    avg_dis: float
    max_dis: float
    min_dis: float


def disentanglement_stats(sentences: Sequence[SentenceLatents],
                          codebook: Codebook) -> list[RoleContentStats]:
    """Dispersion of each role-content pair over the codebook.

    For every role-content label the distinct entries its tokens are assigned
    are collected; distances are pairwise Euclidean among those entries, zero
    when a single center is used.
    """
    centers: dict[str, set[int]] = {}
    for sentence in sentences:
        for tok, role, idx in zip(sentence.tokens, sentence.roles, sentence.indices):
            if role == "O":
                continue
            centers.setdefault(f"{role}-{tok}", set()).add(int(idx))

    stats = []
    for label in sorted(centers):
        idxs = sorted(centers[label])
        if len(idxs) == 1:
            stats.append(RoleContentStats(label, 1, 0.0, 0.0, 0.0))
            continue
        entries = codebook.entries[idxs]
        dists = _euclidean_to_entries(entries, entries)[np.triu_indices(len(idxs), k=1)]
        stats.append(RoleContentStats(label, len(idxs), float(dists.mean()),
                                      float(dists.max()), float(dists.min())))
    return stats


# -- substitution inference ------------------------------------------------------------


def substitute(p1: SentenceLatents, p2: SentenceLatents, op: str, codebook: Codebook,
               and_index: int | None = None) -> np.ndarray:
    """Latent-space inference over two premises; returns the conclusion's
    hybrid entry indices ``[L]``.

    The hybrid concatenates the index slices of :func:`inference_plan`, with
    ``and_index`` as the connective's entry.
    """
    if op == "conjunction" and and_index is None:
        raise ContractError("conjunction requires the connective's codebook index")
    rows = (codebook.check_indices(p1.indices, "first premise"),
            codebook.check_indices(p2.indices, "second premise"))
    hybrid = [codebook.check_indices([and_index], "connective index") if piece is None
              else rows[piece[0]][piece[1]:piece[2]] for piece in inference_plan(p1, p2, op)]
    return np.concatenate(hybrid)
