"""Axis-aligned decision-tree control over pooled latents.

A binary CART with Gini impurity separates two latent regions; extracted
root-to-leaf paths define threshold edits that move a sentence's pooled
latent into the target region, one dimension at a time.

A tree is its ``tree.json`` document, plain JSON values throughout:
``{"labels", "max_depth", "min_leaf", "root", "training_accuracy"}``, where
a split node is ``{"dim", "threshold", "left", "right"}`` and a leaf is
``{"counts": {label text: count}, "label": label}``.  A fitted tree and a
loaded one are the same kind of value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .quantizer import Codebook, quantize_kmeans
from .reports import atomic_write_text, canonical_json, read_json


def _gini(counts: np.ndarray, totals) -> np.ndarray:
    """Gini impurity over the last (class) axis.  The squares are summed class
    by class in code order with ``float_power`` (libm ``pow``, as Python's
    ``**``), so every impurity is a reproducible float and ties are exact."""
    squares = 0.0
    for c in range(counts.shape[-1]):
        squares = squares + np.float_power(counts[..., c] / totals, 2)
    return 1.0 - squares


def _best_split(points: np.ndarray, codes: np.ndarray, total: np.ndarray, min_leaf: int):
    """Lowest weighted-impurity ``(dim, threshold)``, or None if no split beats
    the parent, whose class counts are ``total``.  Candidates are midpoints of
    consecutive distinct sorted values; one cumulative class-count table
    ``[n-1, dims, C]`` over the stably sorted columns counts both sides of all
    of them, and the first minimum in dim-major order wins, so the lowest dim,
    then the lowest threshold, breaks ties."""
    n = len(codes)
    order = np.argsort(points, axis=0, kind="stable")
    values = np.take_along_axis(points, order, axis=0)
    left = np.cumsum(codes[order][..., None] == np.arange(len(total)), axis=0)[:-1]
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    weighted = (n_left * _gini(left, n_left) + n_right * _gini(total - left, n_right)) / n
    valid = ((values[:-1] != values[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
             & (weighted < _gini(total, n)))
    if not valid.any():
        return None
    dim, pos = divmod(int(np.argmin(np.where(valid, weighted, np.inf).T)), n - 1)
    return dim, (float(values[pos, dim]) + float(values[pos + 1, dim])) / 2.0


def _grow(points: np.ndarray, codes: np.ndarray, distinct: list, max_depth: int,
          min_leaf: int, depth: int) -> dict:
    counts = np.bincount(codes, minlength=len(distinct))
    leaf = {"counts": {str(distinct[c]): int(k) for c, k in enumerate(counts) if k},
            "label": distinct[int(np.argmax(counts))]}
    if depth >= max_depth or len(leaf["counts"]) == 1 or len(codes) < 2 * min_leaf:
        return leaf
    best = _best_split(points, codes, counts, min_leaf)
    if best is None:
        return leaf
    dim, threshold = best
    mask = points[:, dim] <= threshold
    left, right = (_grow(points[m], codes[m], distinct, max_depth, min_leaf, depth + 1)
                   for m in (mask, ~mask))
    return {"dim": dim, "threshold": threshold, "left": left, "right": right}


def _finite_points(points) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if not np.isfinite(points).all():
        raise ContractError("pooled latents must be finite")
    return points


def fit_tree(points, labels, max_depth: int = 6, min_leaf: int = 5) -> dict:
    """Grow a CART over ``points`` and return its ``tree.json`` document:
    ``labels`` (the distinct labels in string order), ``max_depth``,
    ``min_leaf``, ``root`` (nested split nodes ``{dim, threshold, left,
    right}`` down to leaves ``{counts, label}``, ``counts`` keyed by label
    text) and ``training_accuracy``.  Labels must differ as text."""
    points = _finite_points(points)
    labels = list(labels)
    if points.ndim != 2 or points.shape[0] != len(labels):
        raise ContractError(f"{points.shape} points do not align with {len(labels)} labels")
    distinct = sorted(set(labels), key=str)
    if len(distinct) < 2:
        raise ContractError("need samples from two regions")
    if len({str(label) for label in distinct}) < len(distinct):
        raise ContractError(f"labels {distinct!r} are not distinct as text")
    if min_leaf < 1 or max_depth < 1:
        raise ContractError(f"min_leaf {min_leaf} and max_depth {max_depth} must be at least 1")
    if len(labels) < 2 * min_leaf:
        raise ContractError(f"need at least {2 * min_leaf} samples, got {len(labels)}")
    code_of = {label: c for c, label in enumerate(distinct)}
    codes = np.array([code_of[y] for y in labels], dtype=np.intp)
    tree = {"labels": distinct, "max_depth": max_depth, "min_leaf": min_leaf,
            "root": _grow(points, codes, distinct, max_depth, min_leaf, 0)}
    predictions = predict(tree, points)
    tree["training_accuracy"] = sum(p == y for p, y in zip(predictions, labels)) / len(labels)
    return tree


def predict(tree: dict, points) -> list:
    """The leaf label each point reaches."""
    out = []
    for point in np.asarray(points, dtype=np.float64):
        node = tree["root"]
        while "counts" not in node:
            node = node["left"] if point[node["dim"]] <= node["threshold"] else node["right"]
        out.append(node["label"])
    return out


def tree_metrics(tree: dict, points, labels, positive_label) -> dict:
    """Held-out accuracy (separability), precision/recall (density), and f1."""
    predictions = predict(tree, _finite_points(points))
    labels = list(labels)
    tp = sum(1 for p, y in zip(predictions, labels) if p == positive_label and y == positive_label)
    fp = sum(1 for p, y in zip(predictions, labels) if p == positive_label and y != positive_label)
    fn = sum(1 for p, y in zip(predictions, labels) if p != positive_label and y == positive_label)
    accuracy = sum(p == y for p, y in zip(predictions, labels)) / len(labels)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"separability": accuracy, "density_precision": precision,
            "density_recall": recall, "f1": f1}


# -- path extraction and guided movement -------------------------------------------


@dataclass
class PathConstraint:
    dim: int
    threshold: float
    branch: str  # "<=" or ">"


def extract_path(tree: dict, target_label) -> list[PathConstraint]:
    """Root-to-leaf constraints of the purest leaf labelled ``target_label``,
    ties broken by larger sample count, then by the leftmost leaf."""
    best = None  # ((purity, count, -order), constraints)
    order = 0

    def visit(node: dict, steps: list[PathConstraint]):
        nonlocal best, order
        if "counts" in node:
            if node["label"] == target_label:
                total = sum(node["counts"].values())
                purity = node["counts"].get(str(target_label), 0) / total
                key = (purity, total, -order)
                if best is None or key > best[0]:
                    best = (key, steps)
            order += 1
            return
        visit(node["left"], steps + [PathConstraint(node["dim"], node["threshold"], "<=")])
        visit(node["right"], steps + [PathConstraint(node["dim"], node["threshold"], ">")])

    visit(tree["root"], [])
    if best is None:
        raise ContractError(f"tree has no leaf labelled {target_label!r}")
    return best[1]


def format_path(path: list[PathConstraint]) -> str:
    return ", ".join(f"dim {c.dim} {c.branch} {c.threshold:.3f}" for c in path)


def default_margins(train_points) -> np.ndarray:
    """Per-dimension edit margin: 5% of the feature range, floored at 1e-3."""
    pts = np.asarray(train_points, dtype=np.float64)
    spread = pts.max(axis=0) - pts.min(axis=0)
    return np.maximum(0.05 * spread, 1e-3)


def guided_move(sentence_rows: np.ndarray, path: list[PathConstraint], margin,
                codebook: Codebook) -> np.ndarray:
    """Walk the sentence across region boundaries one dimension at a time.

    Each unsatisfied constraint sets the pooled dimension just inside the
    required side of its threshold; the pooled delta is broadcast onto every
    token row.  All edits are re-quantized in one call.  Returns the entry
    indices of every edit, cumulative, as one ``[edits, L]`` stack; a sentence
    already satisfying the whole path yields only its own indices.
    """
    rows = np.asarray(sentence_rows, dtype=np.float64).copy()
    pooled = rows.mean(axis=0)
    margin = np.broadcast_to(np.asarray(margin, dtype=np.float64), pooled.shape)
    if not (np.isfinite(margin) & (margin > 0)).all():
        raise ContractError("margin must be finite and positive")
    moved = []
    for constraint in path:
        eps = float(margin[constraint.dim])
        value = pooled[constraint.dim]
        if constraint.branch == "<=":
            satisfied = value <= constraint.threshold
            target = constraint.threshold - eps
        else:
            satisfied = value > constraint.threshold
            target = constraint.threshold + eps
        if satisfied:
            continue
        delta = target - value
        rows[:, constraint.dim] += delta
        pooled[constraint.dim] = target
        moved.append(rows.astype(np.float32))
    moved = moved or [rows.astype(np.float32)]
    indices, _ = quantize_kmeans(np.concatenate(moved), codebook)
    return indices.reshape(len(moved), rows.shape[0])


def cross_region_consistency(decoded_sentences: list, extractor, target) -> float:
    """Fraction of decoded outputs whose extracted feature equals the target."""
    if not decoded_sentences:
        raise ContractError("no sentences to score")
    hits = sum(1 for s in decoded_sentences if extractor(s) == target)
    return hits / len(decoded_sentences)


# -- serialization ---------------------------------------------------------------


def save_tree(path, tree: dict) -> None:
    atomic_write_text(path, canonical_json(tree) + "\n")


def load_tree(path) -> dict:
    return read_json(path, "tree")
