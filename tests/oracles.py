"""Independent reference implementations used to verify the library.

Everything here is deliberately written the slow, obvious way (loops,
enumeration, central differences) so that it shares no code path with the
implementations under test.
"""

from __future__ import annotations

import itertools

import numpy as np

from vqlat import model as md
from vqlat.autodiff import Tensor


def finite_difference(f, tensors, h: float = 1e-5):
    """Central-difference gradients of the scalar ``f()`` for each tensor.

    ``f`` must re-run the forward pass from the tensors' current data and
    return a python float.  Tensors should hold float64 data.
    """
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f()
            flat[i] = saved - h
            f_minus = f()
            flat[i] = saved
            g[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g.reshape(t.shape))
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Infinity-norm relative discrepancy, stable near zero."""
    num = np.max(np.abs(a - b)) if a.size else 0.0
    den = max(np.max(np.abs(a)) if a.size else 0.0,
              np.max(np.abs(b)) if b.size else 0.0,
              1e-12)
    return float(num / den)


def assert_grads_close(f, leaves: list[Tensor], rel_tol: float = 1e-4, h: float = 1e-5):
    """Backward already ran; compare each leaf's grad against central differences."""
    numeric = finite_difference(f, leaves, h=h)
    for leaf, ref in zip(leaves, numeric):
        assert leaf.grad is not None, "leaf missing gradient"
        err = relative_error(leaf.grad, ref)
        assert err < rel_tol, f"gradient mismatch: rel err {err:.3e} for shape {leaf.shape}"


def nearest_entry_scan(vector: np.ndarray, entries: np.ndarray) -> int:
    """Linear scan for the closest codebook row, lowest index on ties."""
    best_idx = 0
    best_dist = None
    for j in range(entries.shape[0]):
        diff = vector - entries[j]
        dist = np.sum(diff * diff)
        if best_dist is None or dist < best_dist:
            best_dist = dist
            best_idx = j
    return best_idx


def min_permutation_cost(a: np.ndarray, b: np.ndarray) -> float:
    """Exact matching cost between equal-length embedding bags.

    Enumerates every permutation; each token carries mass 1/L and moves the
    Euclidean distance to its partner.
    """
    n = a.shape[0]
    assert b.shape[0] == n
    best = None
    for perm in itertools.permutations(range(n)):
        cost = sum(float(np.linalg.norm(a[i] - b[perm[i]])) for i in range(n))
        if best is None or cost < best:
            best = cost
    return best / n


class OracleTreeNode:
    def __init__(self, dim=None, threshold=None, left=None, right=None, label=None):
        self.dim = dim
        self.threshold = threshold
        self.left = left
        self.right = right
        self.label = label


def _gini(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    counts = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    # sum in sorted-label order: candidate impurities must be reproducible
    # floats so tie handling is well defined
    return 1.0 - sum((counts[k] / n) ** 2 for k in sorted(counts, key=str))


def fit_tree_bruteforce(points, labels, max_depth, min_leaf, depth=0):
    """Plain-python CART over every (dim, midpoint) candidate.

    Strict improvement required; candidates enumerated dim-ascending then
    threshold-ascending so the first best wins, matching the lowest-dim /
    lowest-threshold tie rule.
    """
    points = [list(map(float, p)) for p in points]
    labels = list(labels)
    n = len(labels)
    counts = {}
    for y in labels:
        counts[y] = counts.get(y, 0) + 1
    majority = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[0][0]
    if depth >= max_depth or len(counts) == 1 or n < 2 * min_leaf:
        return OracleTreeNode(label=majority)

    parent_impurity = _gini(labels)
    best = None  # (weighted_impurity, dim, threshold)
    n_dims = len(points[0])
    for dim in range(n_dims):
        values = sorted(set(p[dim] for p in points))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [y for p, y in zip(points, labels) if p[dim] <= thr]
            right = [y for p, y in zip(points, labels) if p[dim] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            weighted = (len(left) * _gini(left) + len(right) * _gini(right)) / n
            if weighted >= parent_impurity:
                continue
            if best is None or weighted < best[0]:
                best = (weighted, dim, thr)
    if best is None:
        return OracleTreeNode(label=majority)

    _, dim, thr = best
    left_pts = [(p, y) for p, y in zip(points, labels) if p[dim] <= thr]
    right_pts = [(p, y) for p, y in zip(points, labels) if p[dim] > thr]
    return OracleTreeNode(
        dim=dim, threshold=thr,
        left=fit_tree_bruteforce([p for p, _ in left_pts], [y for _, y in left_pts],
                                 max_depth, min_leaf, depth + 1),
        right=fit_tree_bruteforce([p for p, _ in right_pts], [y for _, y in right_pts],
                                  max_depth, min_leaf, depth + 1),
    )


def predict_tree_bruteforce(node: OracleTreeNode, point) -> object:
    while node.label is None:
        node = node.left if point[node.dim] <= node.threshold else node.right
    return node.label


def greedy_generate_one(latents: np.ndarray, params, config, max_len: int,
                        start_id: int = 1, end_id: int = 2) -> list[int]:
    """Greedy decoding of one latent sequence [L, d], re-decoding the whole prefix
    for every token.  It shares ``decode_batch`` with the library, so what it
    checks is the batched loop's stepping, stopping and cutting."""
    generated: list[int] = []
    for _ in range(max_len):
        prefix = np.asarray([[start_id] + generated], dtype=np.int64)
        logits = md.decode_batch(Tensor(np.asarray(latents)[None]), prefix, params, config)
        next_id = int(np.argmax(logits.data[0, -1]))
        if next_id == end_id:
            break
        generated.append(next_id)
    return generated
