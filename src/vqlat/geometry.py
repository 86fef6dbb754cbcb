"""Latent-space control and measurement.

Everything here operates on quantized latent rows and a codebook snapshot:
interpolation paths with their smoothness ratio, exact optimal-transport
alignment between embedding bags, per-position traversal, latent addition,
role-content dispersion statistics, and span substitution between premises.
All functions are pure given the codebook snapshot; none decodes, so the
control functions return the latent rows they build.
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


@dataclass
class PathStep:
    t: float
    latents: np.ndarray
    indices: np.ndarray


@dataclass
class InterpolationPath:
    steps: list[PathStep]
    step_size: float


def _euclidean_to_entries(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    return np.sqrt(pairwise_sq_dists(rows.astype(np.float64), entries.astype(np.float64)))


def interpolate(source: np.ndarray, target: np.ndarray, codebook: Codebook,
                step_size: float = 0.1,
                pad_latent: np.ndarray | None = None) -> InterpolationPath:
    """Stepwise path from source to target latent rows.

    At each step every row moves to the entry minimizing the weighted pair of
    distances ``(1-t)*d(previous, entry) + t*d(target, entry)``, so the final
    step lands exactly on the target entries.  Unequal lengths require a
    ``pad_latent`` row (appended to the shorter sequence) and are otherwise
    rejected.
    """
    source = np.asarray(source, dtype=np.float32)
    target = np.asarray(target, dtype=np.float32)
    if source.shape[0] != target.shape[0]:
        if pad_latent is None:
            raise ContractError(
                f"length mismatch {source.shape[0]} vs {target.shape[0]} and no pad latent given")
        pad = np.asarray(pad_latent, dtype=np.float32).reshape(1, -1)
        while source.shape[0] < target.shape[0]:
            source = np.concatenate([source, pad])
        while target.shape[0] < source.shape[0]:
            target = np.concatenate([target, pad])
    entries = codebook.entries
    # Every row on the path is an entry, so each distinct entry's exact row of
    # distances to the codebook is computed once and gathered by index.
    memo: dict[int, np.ndarray] = {}

    def endpoint_indices(rows: np.ndarray, name: str) -> np.ndarray:
        # each row must equal an entry exactly; its distance row seeds the memo
        if rows.ndim != 2 or rows.shape[1] != codebook.dim:
            raise ShapeError(f"{name}: expected [L, {codebook.dim}] latents, got {rows.shape}")
        dists = _euclidean_to_entries(rows, entries)
        idx = np.argmin(dists, axis=1)
        if dists.min(axis=1).any():
            raise ContractError(f"{name}: latent rows must be codebook entries")
        memo.update(zip(idx.tolist(), dists))
        return idx

    def entry_dists(idx: np.ndarray) -> np.ndarray:
        new = sorted({int(i) for i in idx} - memo.keys())
        if new:
            memo.update(zip(new, _euclidean_to_entries(entries[new], entries)))
        return np.stack([memo[int(i)] for i in idx])

    src_idx = endpoint_indices(source, "interpolate source")
    tgt_idx = endpoint_indices(target, "interpolate target")
    if not 0.0 < step_size <= 1.0:
        raise ContractError(f"step_size must lie in (0, 1], got {step_size}")
    tgt_dists = entry_dists(tgt_idx)
    n_steps = round(1.0 / step_size)
    points = [(0.0, source.copy(), src_idx.copy())]
    idx = src_idx
    for k in range(1, n_steps + 1):
        t = min(k * step_size, 1.0) if k < n_steps else 1.0
        cost = (1.0 - t) * entry_dists(idx) + t * tgt_dists
        idx = np.argmin(cost, axis=1)
        points.append((t, entries[idx], idx))
    return InterpolationPath([PathStep(*p) for p in points], step_size)


def dump_path(path: InterpolationPath, decoded: Sequence[Sequence]) -> str:
    """One ``t<TAB>indices<TAB>decoded sentence`` line per step."""
    lines = []
    for step, words in zip(path.steps, decoded, strict=True):
        indices = ",".join(str(int(i)) for i in step.indices)
        sentence = " ".join(str(tok) for tok in words)
        lines.append(f"{step.t:.2f}\t{indices}\t{sentence}")
    return "\n".join(lines) + "\n"


# -- word mover's distance -------------------------------------------------------


@dataclass
class AlignmentResult:
    cost: float
    plan: np.ndarray  # [len(a), len(b)] transported mass


def wmd(a: np.ndarray, b: np.ndarray) -> AlignmentResult:
    """Exact optimal transport between two uniform bags of embeddings.

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

    plan = np.zeros((la, lb))
    for r, c in zip(rows, cols):
        plan[r // rep_a, c // rep_b] += 1.0 / size
    cost = float(expanded[rows, cols].sum() / size)
    return AlignmentResult(cost, plan)


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
    denom = sum(wmd(embeddings[i], embeddings[i + 1]).cost for i in range(len(embeddings) - 1))
    if denom <= 1e-12:
        return 1.0
    return wmd(embeddings[0], embeddings[-1]).cost / denom


# -- traversal and arithmetic ------------------------------------------------------


def traverse_position(latents: np.ndarray, position: int, codebook: Codebook,
                      n_variants: int) -> np.ndarray:
    """Variants ``[n_variants, L, d]`` that swap one latent row for its nearest
    neighbours.

    The first variant keeps the row itself (its nearest entry); the rest use
    the next-nearest entries in distance order.
    """
    latents = np.asarray(latents, dtype=np.float32)
    if not 0 <= position < latents.shape[0]:
        raise ContractError(f"position {position} outside sequence of {latents.shape[0]} rows")
    if not 1 <= n_variants <= codebook.size:
        raise ContractError(f"n_variants must lie in [1, {codebook.size}], got {n_variants}")
    dists = _euclidean_to_entries(latents[position:position + 1], codebook.entries)[0]
    order = np.argsort(dists, kind="stable")[:n_variants]
    variants = np.repeat(latents[None], n_variants, axis=0)
    variants[:, position] = codebook.entries[order]
    return variants


def latent_arithmetic_add(a: np.ndarray, b: np.ndarray,
                          codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Position-wise sum over the shared prefix, re-quantized: its entry indices
    and quantized rows."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    rows = min(a.shape[0], b.shape[0])
    total = a[:rows] + b[:rows]
    return quantize_kmeans(total, codebook)


# -- disentanglement statistics ------------------------------------------------------


@dataclass
class RoleContentStats:
    label: str
    num_centers: int
    avg_dis: float
    max_dis: float
    min_dis: float


def disentanglement_stats(occurrences: Sequence[tuple[list[str], list[str], np.ndarray]],
                          codebook: Codebook) -> list[RoleContentStats]:
    """Dispersion of each role-content pair over the codebook.

    ``occurrences`` holds (tokens, roles, entry indices) per sentence.  For
    every role-content label the distinct assigned entries are collected;
    distances are pairwise Euclidean among those entries, zero when a single
    center is used.
    """
    centers: dict[str, set[int]] = {}
    for tokens, roles, indices in occurrences:
        if not (len(tokens) == len(roles) == len(indices)):
            raise ContractError("tokens, roles, and indices must align")
        for tok, role, idx in zip(tokens, roles, indices):
            if role == "O":
                continue
            centers.setdefault(f"{role}-{tok}", set()).add(int(idx))

    stats = []
    for label in sorted(centers):
        idxs = sorted(centers[label])
        if len(idxs) == 1:
            stats.append(RoleContentStats(label, 1, 0.0, 0.0, 0.0))
            continue
        entries = codebook.entries[idxs].astype(np.float64)
        dists = [float(np.linalg.norm(entries[i] - entries[j]))
                 for i in range(len(idxs)) for j in range(i + 1, len(idxs))]
        stats.append(RoleContentStats(label, len(idxs),
                                      float(np.mean(dists)), max(dists), min(dists)))
    return stats


# -- substitution inference ------------------------------------------------------------


@dataclass
class SentenceLatents:
    tokens: list[str]
    roles: list[str]
    latents: np.ndarray

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=np.float32)
        if len(self.tokens) != len(self.roles) or self.latents.shape[0] != len(self.tokens):
            raise ContractError("tokens, roles, and latent rows must align")


def substitute(p1: SentenceLatents, p2: SentenceLatents, op: str,
               and_latent: np.ndarray | None = None) -> np.ndarray:
    """Latent-space inference over two premises; returns the conclusion's
    hybrid latent rows ``[L, d]``.

    The hybrid concatenates the latent rows of :func:`inference_plan`'s
    slices, with ``and_latent`` as the connective's row.
    """
    if op == "conjunction" and and_latent is None:
        raise ContractError("conjunction requires the connective's codebook latent")
    rows = (p1.latents, p2.latents)
    hybrid = [np.asarray(and_latent, dtype=np.float32).reshape(1, -1) if piece is None
              else rows[piece[0]][piece[1]:piece[2]] for piece in inference_plan(p1, p2, op)]
    return np.concatenate(hybrid)
