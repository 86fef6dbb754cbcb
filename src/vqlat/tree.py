"""Axis-aligned decision-tree control over pooled latents.

A binary CART with Gini impurity separates two latent regions; extracted
root-to-leaf paths define threshold edits that move a sentence's pooled
latent into the target region, one dimension at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .quantizer import Codebook, quantize_kmeans
from .reports import atomic_write_text


@dataclass
class PooledLatent:
    """Sentence-level vector (mean of pre-quantization encoder rows) plus its region."""

    vector: np.ndarray
    cluster_label: object

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1 or not np.isfinite(self.vector).all():
            raise ContractError("pooled latent must be a finite 1-d vector")


def split_pooled(samples: list[PooledLatent]) -> tuple[np.ndarray, list]:
    """Feature matrix and label list from pooled-latent samples."""
    if not samples:
        raise ContractError("no pooled samples")
    return np.stack([s.vector for s in samples]), [s.cluster_label for s in samples]


@dataclass
class TreeNode:
    dim: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: dict | None = None
    label: object = None

    @property
    def is_leaf(self) -> bool:
        return self.dim is None


@dataclass
class DecisionTree:
    root: TreeNode
    max_depth: int
    min_leaf: int
    labels: list
    training_accuracy: float

    def predict_one(self, point) -> object:
        node = self.root
        while not node.is_leaf:
            node = node.left if point[node.dim] <= node.threshold else node.right
        return node.label

    def predict(self, points) -> list:
        return [self.predict_one(p) for p in np.asarray(points, dtype=np.float64)]


def _gini_from_counts(counts: dict, total: int) -> float:
    # summation in sorted-label order keeps the float result deterministic
    return 1.0 - sum((counts[k] / total) ** 2 for k in sorted(counts, key=str))


def _majority(counts: dict) -> object:
    return sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[0][0]


def _best_split(points: np.ndarray, labels: list, min_leaf: int):
    """Lowest weighted-impurity (dim, threshold); candidates are midpoints of
    consecutive sorted values, enumerated dim-ascending then threshold-ascending
    with strict improvement, so the lowest dim and threshold win ties."""
    n, n_dims = points.shape
    total_counts: dict = {}
    for y in labels:
        total_counts[y] = total_counts.get(y, 0) + 1
    parent = _gini_from_counts(total_counts, n)
    best = None
    for dim in range(n_dims):
        order = np.argsort(points[:, dim], kind="stable")
        sorted_vals = points[order, dim]
        left_counts: dict = {}
        n_left = 0
        for pos in range(n - 1):
            y = labels[order[pos]]
            left_counts[y] = left_counts.get(y, 0) + 1
            n_left += 1
            if sorted_vals[pos] == sorted_vals[pos + 1]:
                continue
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            threshold = (float(sorted_vals[pos]) + float(sorted_vals[pos + 1])) / 2.0
            right_counts = {k: total_counts[k] - left_counts.get(k, 0) for k in total_counts}
            right_counts = {k: v for k, v in right_counts.items() if v > 0}
            weighted = (n_left * _gini_from_counts(left_counts, n_left)
                        + n_right * _gini_from_counts(right_counts, n_right)) / n
            if weighted >= parent:
                continue
            if best is None or weighted < best[0]:
                best = (weighted, dim, threshold)
    return best


def _grow(points: np.ndarray, labels: list, max_depth: int, min_leaf: int, depth: int) -> TreeNode:
    counts: dict = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    if depth >= max_depth or len(counts) == 1 or len(labels) < 2 * min_leaf:
        return TreeNode(counts=counts, label=_majority(counts))
    best = _best_split(points, labels, min_leaf)
    if best is None:
        return TreeNode(counts=counts, label=_majority(counts))
    _, dim, threshold = best
    mask = points[:, dim] <= threshold
    left = _grow(points[mask], [y for y, m in zip(labels, mask) if m],
                 max_depth, min_leaf, depth + 1)
    right = _grow(points[~mask], [y for y, m in zip(labels, mask) if not m],
                  max_depth, min_leaf, depth + 1)
    return TreeNode(dim=dim, threshold=threshold, left=left, right=right)


def fit_tree(points, labels, max_depth: int = 6, min_leaf: int = 5) -> DecisionTree:
    points = np.asarray(points, dtype=np.float64)
    labels = list(labels)
    if points.ndim != 2 or points.shape[0] != len(labels):
        raise ContractError(f"{points.shape} points do not align with {len(labels)} labels")
    distinct = sorted(set(labels), key=str)
    if len(distinct) < 2:
        raise ContractError("need samples from two regions")
    if len(labels) < 2 * min_leaf:
        raise ContractError(f"need at least {2 * min_leaf} samples, got {len(labels)}")
    root = _grow(points, labels, max_depth, min_leaf, 0)
    tree = DecisionTree(root, max_depth, min_leaf, distinct, 0.0)
    predictions = tree.predict(points)
    tree.training_accuracy = sum(p == y for p, y in zip(predictions, labels)) / len(labels)
    return tree


def tree_metrics(tree: DecisionTree, points, labels, positive_label) -> dict:
    """Held-out accuracy (separability), precision/recall (density), and f1."""
    predictions = tree.predict(points)
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


@dataclass
class TreePath:
    steps: list[PathConstraint]
    leaf_counts: dict
    leaf_label: object


def extract_path(tree: DecisionTree, target_label) -> TreePath:
    """Path to the purest target leaf, ties broken by larger sample count."""
    best = None  # (purity, count, order, steps, counts)
    order = 0

    def visit(node: TreeNode, steps: list[PathConstraint]):
        nonlocal best, order
        if node.is_leaf:
            if node.label == target_label:
                total = sum(node.counts.values())
                purity = node.counts.get(target_label, 0) / total
                key = (purity, total, -order)
                if best is None or key > best[0]:
                    best = (key, list(steps), node.counts)
            order += 1
            return
        visit(node.left, steps + [PathConstraint(node.dim, node.threshold, "<=")])
        visit(node.right, steps + [PathConstraint(node.dim, node.threshold, ">")])

    visit(tree.root, [])
    if best is None:
        raise ContractError(f"tree has no leaf labelled {target_label!r}")
    return TreePath(best[1], dict(best[2]), target_label)


def format_path(path: TreePath) -> str:
    return ", ".join(f"dim {c.dim} {c.branch} {c.threshold:.3f}" for c in path.steps)


def default_margins(train_points) -> np.ndarray:
    """Per-dimension edit margin: 5% of the feature range, floored at 1e-3."""
    pts = np.asarray(train_points, dtype=np.float64)
    spread = pts.max(axis=0) - pts.min(axis=0)
    return np.maximum(0.05 * spread, 1e-3)


def _margin_for(margin, dim: int) -> float:
    if np.isscalar(margin):
        return float(margin)
    return float(np.asarray(margin)[dim])


def guided_move(sentence_rows: np.ndarray, path: TreePath, margin,
                codebook: Codebook, decode_fn) -> list:
    """Walk the sentence across region boundaries one dimension at a time.

    Each unsatisfied constraint sets the pooled dimension just inside the
    required side of its threshold; the pooled delta is broadcast onto every
    token row and re-quantized, and all edits are decoded in one ``decode_fn``
    call.  Returns one decoded sentence per edit, cumulative; a sentence
    already satisfying the whole path yields only its original decoding.
    """
    rows = np.asarray(sentence_rows, dtype=np.float64).copy()
    pooled = rows.mean(axis=0)
    moved = []
    for constraint in path.steps:
        eps = _margin_for(margin, constraint.dim)
        if eps <= 0:
            raise ContractError("margin must be positive")
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
    quantized = [quantize_kmeans(m, codebook)[1] for m in moved or [rows.astype(np.float32)]]
    return decode_fn(np.stack(quantized))


def cross_region_consistency(decoded_sentences: list, extractor, target) -> float:
    """Fraction of decoded outputs whose extracted feature equals the target."""
    if not decoded_sentences:
        raise ContractError("no sentences to score")
    hits = sum(1 for s in decoded_sentences if extractor(s) == target)
    return hits / len(decoded_sentences)


# -- serialization ---------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"counts": {str(k): v for k, v in sorted(node.counts.items(), key=lambda kv: str(kv[0]))},
                "label": node.label}
    return {"dim": node.dim, "threshold": node.threshold,
            "left": _node_to_dict(node.left), "right": _node_to_dict(node.right)}


def _node_from_dict(d: dict, labels: list) -> TreeNode:
    if "counts" in d:
        by_str = {str(l): l for l in labels}
        counts = {by_str.get(k, k): v for k, v in d["counts"].items()}
        return TreeNode(counts=counts, label=d["label"])
    return TreeNode(dim=d["dim"], threshold=d["threshold"],
                    left=_node_from_dict(d["left"], labels),
                    right=_node_from_dict(d["right"], labels))


def tree_to_json(tree: DecisionTree) -> str:
    blob = {"max_depth": tree.max_depth, "min_leaf": tree.min_leaf,
            "labels": tree.labels, "training_accuracy": tree.training_accuracy,
            "root": _node_to_dict(tree.root)}
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


def tree_from_json(text: str) -> DecisionTree:
    blob = json.loads(text)
    labels = blob["labels"]
    return DecisionTree(_node_from_dict(blob["root"], labels), blob["max_depth"],
                        blob["min_leaf"], labels, blob["training_accuracy"])


def save_tree(path, tree: DecisionTree) -> None:
    atomic_write_text(path, tree_to_json(tree) + "\n")


def load_tree(path) -> DecisionTree:
    with open(path, encoding="utf-8") as fh:
        return tree_from_json(fh.read())
