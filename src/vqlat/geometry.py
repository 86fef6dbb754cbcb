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


def transport_plan(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost integer plan ``[la, lb]`` for a finite ground ``cost``:
    every row ships ``lcm(la, lb) / la`` units and every column receives
    ``lcm(la, lb) / lb``.

    Successive shortest paths with node potentials (Ahuja, Magnanti & Orlin
    1993, ch. 9).  The potentials start at the column minima, less each row's
    least remainder, and the edges of zero reduced cost get the first units.
    Each augmentation then runs Dijkstra on reduced costs from every row with
    units left to the nearest column still short of units: rows reach columns
    over any edge, columns reach rows over the edges that carry units.  Every
    augmentation moves at least one unit, so at most ``lcm(la, lb)`` of them
    run.  Bags are a few dozen rows, so this works on python lists, which beat
    numpy's per-call cost at that size.
    """
    if not np.isfinite(cost).all():  # a NaN would leave Dijkstra without a path
        raise ContractError("transport costs must be finite: a bag holds NaN or inf, "
                            "or its distances overflow")
    la, lb = cost.shape
    size = math.lcm(la, lb)
    rows = cost.tolist()
    excess, deficit = [size // la] * la, [size // lb] * lb
    plan = [[0] * lb for _ in range(la)]
    col_pot, row_pot = [min(col) for col in zip(*rows)], []  # cost + row - col >= 0
    for i, costs in enumerate(rows):
        reduced = [c - pot for c, pot in zip(costs, col_pot)]
        least = min(reduced)
        row_pot.append(-least)
        for j, r in enumerate(reduced):
            if r == least:
                plan[i][j] = amount = min(excess[i], deficit[j])
                excess[i] -= amount
                deficit[j] -= amount
    while any(excess):
        row_dist = [0.0 if units else math.inf for units in excess]
        row_from = [-1] * la  # the column whose shipped units reached each row
        col_dist, col_from = [math.inf] * lb, [-1] * lb  # and the row reaching each column
        unsettled = list(range(lb))
        scan = [i for i in range(la) if excess[i]]
        while True:
            for i in scan:
                base, costs = row_dist[i] + row_pot[i], rows[i]
                for j in unsettled:
                    dist = base + costs[j] - col_pot[j]
                    if dist < col_dist[j]:
                        col_dist[j], col_from[j] = dist, i
            j = min(unsettled, key=col_dist.__getitem__)
            if deficit[j]:
                break
            unsettled.remove(j)
            scan = [i for i in range(la) if plan[i][j] and row_dist[i] == math.inf]
            for i in scan:
                row_dist[i], row_from[i] = col_dist[j], j
        reach = col_dist[j]
        row_pot = [pot + min(dist, reach) for pot, dist in zip(row_pot, row_dist)]
        col_pot = [pot + min(dist, reach) for pot, dist in zip(col_pot, col_dist)]

        amount, col, path = deficit[j], j, []
        while True:  # back from column j to a row with units left
            i = col_from[col]
            path.append((i, col, 1))
            col = row_from[i]
            if col < 0:
                break
            path.append((i, col, -1))
            amount = min(amount, plan[i][col])
        amount = min(amount, excess[i])
        for r, c, sign in path:
            plan[r][c] += sign * amount
        excess[i] -= amount
        deficit[j] -= amount
    return np.array(plan, dtype=np.int64)


def wmd(a: np.ndarray, b: np.ndarray) -> float:
    """Exact optimal-transport cost between two uniform bags of embeddings.

    Each side distributes unit mass uniformly over its rows; ground cost is
    Euclidean distance.  :func:`transport_plan` solves the ``[la, lb]``
    transport problem in integer units of ``1 / lcm(la, lb)``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ContractError("wmd: empty sequence")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"wmd: embedding widths {a.shape[1]} and {b.shape[1]} disagree")
    with np.errstate(over="ignore", invalid="ignore"):  # transport_plan refuses what overflows
        cost = _euclidean_to_entries(a, b)
    return float(np.repeat(cost.ravel(), transport_plan(cost).ravel()).mean())


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
