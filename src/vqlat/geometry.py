"""Latent-space control and measurement.

Everything here operates on quantized latent rows and a codebook snapshot:
interpolation paths with their smoothness ratio, exact optimal-transport
alignment between embedding bags, per-position traversal, latent addition,
role-content dispersion statistics, and span substitution between premises.
All functions are pure given the model/codebook snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .corpus import inference_plan
from .errors import ContractError, ShapeError
from .quantizer import Codebook, pairwise_sq_dists, quantize_kmeans

# Decodes a stack of same-length latent sequences [B, L, d]: one decode per row.
DecodeFn = Callable[[np.ndarray], list]
EmbedFn = Callable[[list], np.ndarray]


# -- interpolation --------------------------------------------------------------


@dataclass
class PathStep:
    t: float
    latents: np.ndarray
    indices: np.ndarray
    decoded: list


@dataclass
class InterpolationPath:
    steps: list[PathStep]
    step_size: float


def _require_quantized(latents: np.ndarray, codebook: Codebook, name: str) -> np.ndarray:
    latents = np.asarray(latents, dtype=np.float32)
    if latents.ndim != 2 or latents.shape[1] != codebook.dim:
        raise ShapeError(f"{name}: expected [L, {codebook.dim}] latents, got {latents.shape}")
    indices, snapped = quantize_kmeans(latents, codebook)
    if not np.array_equal(snapped, latents):
        raise ContractError(f"{name}: latent rows must be codebook entries")
    return indices


def _euclidean_to_entries(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    return np.sqrt(pairwise_sq_dists(rows.astype(np.float64), entries.astype(np.float64)))


def interpolate(source: np.ndarray, target: np.ndarray, codebook: Codebook,
                decode_fn: DecodeFn, step_size: float = 0.1,
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
    src_idx = _require_quantized(source, codebook, "interpolate source")
    tgt_idx = _require_quantized(target, codebook, "interpolate target")
    if not 0.0 < step_size <= 1.0:
        raise ContractError(f"step_size must lie in (0, 1], got {step_size}")

    entries = codebook.entries
    tgt_dists = _euclidean_to_entries(target, entries)
    n_steps = round(1.0 / step_size)
    points = [(0.0, source.copy(), src_idx.copy())]
    current = source
    for k in range(1, n_steps + 1):
        t = min(k * step_size, 1.0) if k < n_steps else 1.0
        cost = (1.0 - t) * _euclidean_to_entries(current, entries) + t * tgt_dists
        idx = np.argmin(cost, axis=1)
        current = entries[idx].copy()
        points.append((t, current, idx))
    decoded = decode_fn(np.stack([latents for _, latents, _ in points]))
    return InterpolationPath([PathStep(*p, d) for p, d in zip(points, decoded)], step_size)


def dump_path(path: InterpolationPath) -> str:
    lines = []
    for step in path.steps:
        indices = ",".join(str(int(i)) for i in step.indices)
        sentence = " ".join(str(tok) for tok in step.decoded)
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


def interpolation_smoothness(path: InterpolationPath, embed_fn: EmbedFn) -> float:
    """Direct source-to-target cost over the summed stepwise costs.

    Consecutive duplicate decoded sentences are collapsed first; a degenerate
    all-identical path is 1.0 by convention.
    """
    if len(path.steps) < 2:
        raise ContractError("interpolation_smoothness: need at least two steps")
    unique: list[list] = []
    for step in path.steps:
        if not unique or list(step.decoded) != unique[-1]:
            unique.append(list(step.decoded))
    if len(unique) < 2:
        return 1.0
    embeddings = [embed_fn(sentence) for sentence in unique]
    denom = sum(wmd(embeddings[i], embeddings[i + 1]).cost for i in range(len(embeddings) - 1))
    if denom <= 1e-12:
        return 1.0
    return wmd(embeddings[0], embeddings[-1]).cost / denom


# -- traversal and arithmetic ------------------------------------------------------


def traverse_position(latents: np.ndarray, position: int, codebook: Codebook,
                      n_variants: int, decode_fn: DecodeFn) -> list[list]:
    """Decode variants that swap one latent row for its nearest neighbours.

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
    return decode_fn(variants)


@dataclass
class ArithmeticResult:
    indices: np.ndarray
    quantized: np.ndarray
    decoded: list


def latent_arithmetic_add(a: np.ndarray, b: np.ndarray, codebook: Codebook,
                          decode_fn: DecodeFn) -> ArithmeticResult:
    """Position-wise sum over the shared prefix, re-quantized and decoded."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    rows = min(a.shape[0], b.shape[0])
    total = a[:rows] + b[:rows]
    indices, quantized = quantize_kmeans(total, codebook)
    return ArithmeticResult(indices, quantized, decode_fn(quantized[None])[0])


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


def substitute_and_decode(p1: SentenceLatents, p2: SentenceLatents, op: str,
                          decode_fn: DecodeFn,
                          and_latent: np.ndarray | None = None) -> list:
    """Latent-space inference over two premises; returns the decoded conclusion.

    The hybrid concatenates the latent rows of :func:`inference_plan`'s
    slices, with ``and_latent`` as the connective's row.
    """
    if op == "conjunction" and and_latent is None:
        raise ContractError("conjunction requires the connective's codebook latent")
    rows = (p1.latents, p2.latents)
    hybrid = [np.asarray(and_latent, dtype=np.float32).reshape(1, -1) if piece is None
              else rows[piece[0]][piece[1]:piece[2]] for piece in inference_plan(p1, p2, op)]
    return decode_fn(np.concatenate(hybrid)[None])[0]
