"""Independent reference implementations used to verify the library.

Everything here is deliberately written the slow, obvious way (loops,
enumeration, central differences) so that it shares no code path with the
implementations under test.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from vqlat import autodiff as ad
from vqlat import corpus as cg
from vqlat import model as md
from vqlat.autodiff import Tensor
from vqlat.quantizer import Codebook
from vqlat.training import by_length, length_batches, sentences_to_ids, teacher_forced


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


def linear_chain(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``ad.linear`` as a batched matmul node plus a broadcast add node."""
    return ad.add(ad.matmul(x, w), b)


def attention_chain(q: Tensor, k, v, heads: int, mask=None) -> Tensor:
    """``ad.attention`` as a chain of nodes over [B, L, d] streams: reshape and
    transpose into [B, heads, L, dh] stacks, then transpose, matmul, scale, mask,
    softmax and matmul, then transpose and reshape back to [B, Lq, d]."""
    def split(t):
        t = t if isinstance(t, Tensor) else Tensor(t)
        return ad.transpose(ad.reshape(t, (t.shape[0], t.shape[1], heads, -1)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = ad.add(scores, Tensor(mask.astype(scores.data.dtype)))
    ctx = ad.transpose(ad.matmul(ad.softmax(scores, axis=-1), v), (0, 2, 1, 3))
    return ad.reshape(ctx, (ctx.shape[0], ctx.shape[1], -1))


def adam_reference(params: list[np.ndarray], grad_steps, lr: float):
    """Adam with bias correction, one parameter at a time: the parameters and
    the first and second moments after applying each list of gradients in
    ``grad_steps`` in turn."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t, grads in enumerate(grad_steps, start=1):
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * (g * g)
            m_hat = m[i] / (1 - b1 ** t)
            v_hat = v[i] / (1 - b2 ** t)
            p -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype)
    return params, m, v


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


def sq_dists_scan(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Squared distances [N, K] by the difference form, one row at a time."""
    out = np.empty((vectors.shape[0], entries.shape[0]), dtype=np.result_type(vectors, entries))
    for i in range(vectors.shape[0]):
        diff = vectors[i] - entries
        out[i] = np.sum(diff * diff, axis=-1)
    return out


def farthest_point_reference(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point seeding with every row's distance to each new pick
    computed in full: ``k`` float32 entries, drawing from ``rng`` as
    :meth:`Codebook.init_from_data` does."""
    data = np.asarray(data, dtype=np.float64)
    chosen = [int(rng.integers(data.shape[0]))]
    diff = data - data[chosen[0]]
    d2 = np.sum(diff * diff, axis=1)
    while len(chosen) < k:
        if d2.max() <= 0.0:
            chosen.append(int(rng.integers(data.shape[0])))
        else:
            chosen.append(int(np.argmax(d2)))
        diff = data - data[chosen[-1]]
        d2 = np.minimum(d2, np.sum(diff * diff, axis=1))
    return data[chosen].astype(np.float32)


def interpolate_per_step(source: np.ndarray, target: np.ndarray, entries: np.ndarray,
                         pad_index: int | None = None):
    """Interpolation path between entry-index rows as ``(t, indices)`` pairs at
    ``t = 0, 0.1, ..., 1``, gathering every step's entry rows and recomputing
    their float64 distances to all entries."""
    source, target = list(source), list(target)
    while len(source) < len(target):
        source.append(pad_index)
    while len(target) < len(source):
        target.append(pad_index)
    wide = entries.astype(np.float64)

    def euclidean(idx):
        return np.sqrt(sq_dists_scan(wide[idx], wide))

    tgt_dists = euclidean(np.asarray(target))
    points = [(0.0, np.asarray(source))]
    for k in range(1, 11):
        t = 1.0 if k == 10 else k * 0.1
        points.append((t, np.argmin((1.0 - t) * euclidean(points[-1][1]) + t * tgt_dists, axis=1)))
    return points


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


def wmd_by_assignment(a: np.ndarray, b: np.ndarray) -> float:
    """Optimal-transport cost between uniform embedding bags as an assignment:
    both sides expanded to ``lcm(la, lb)`` equal atoms, solved by scipy's
    ``linear_sum_assignment``.  The expanded matrix holds ``lcm(la, lb)**2``
    floats, so keep the bags small."""
    from scipy.optimize import linear_sum_assignment

    la, lb = a.shape[0], b.shape[0]
    base_cost = np.sqrt(sq_dists_scan(a.astype(np.float64), b.astype(np.float64)))
    size = math.lcm(la, lb)
    expanded = np.repeat(np.repeat(base_cost, size // la, axis=0), size // lb, axis=1)
    rows, cols = linear_sum_assignment(expanded)
    return float(expanded[rows, cols].sum() / size)


def transport_cost_lp(a: np.ndarray, b: np.ndarray) -> float:
    """Optimal-transport cost between uniform embedding bags of any lengths.

    Solves the ``[la, lb]`` transportation linear program directly: row sums
    ``1/la``, column sums ``1/lb``, Euclidean ground cost.
    """
    from scipy.optimize import linprog

    la, lb = a.shape[0], b.shape[0]
    ground = [float(np.linalg.norm(a[i] - b[j])) for i in range(la) for j in range(lb)]
    rows = [[1.0 if k // lb == i else 0.0 for k in range(la * lb)] for i in range(la)]
    cols = [[1.0 if k % lb == j else 0.0 for k in range(la * lb)] for j in range(lb)]
    result = linprog(ground, A_eq=rows + cols, b_eq=[1.0 / la] * la + [1.0 / lb] * lb,
                     bounds=(0, None), method="highs")
    assert result.status == 0, result.message
    return float(result.fun)


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


def reconstruct_greedy_all(bundle, ids: list[np.ndarray]) -> tuple[list[list[int]], float]:
    """Reconstructions as ``training.reconstruct`` made them before it trusted its
    teacher-forced pass: each length's token accuracy, and a greedy decode of
    every row."""
    hits = total = 0

    def decode(rows: np.ndarray) -> list[list[int]]:
        nonlocal hits, total
        _, indices, _, logits, targets = teacher_forced(bundle, rows)
        hits += int((logits.data.argmax(axis=-1) == targets).sum())
        total += targets.size
        return bundle.decode_ids(indices.reshape(rows.shape), max_len=rows.shape[1] + 2)

    return by_length(decode, ids), hits / total


def warmup_codebook_tracked(ids: list[np.ndarray], params, config, k: int, decay: float,
                            rng: np.random.Generator):
    """``training.warmup_codebook`` as it ran before it froze the params: each length
    encoded through the trainable tensors, recording a tape no backward reads."""
    data = np.concatenate([md.encode_batch(rows, params, config).data.reshape(-1, config.d_model)
                           for rows in length_batches(ids)], axis=0)
    return Codebook.init_from_data(data, k, rng, decay=decay, seed=int(rng.integers(2**31)))


def token_accuracy_per_length(bundle, token_lists: list[list[str]]) -> float:
    """Teacher-forced next-token accuracy counted one length batch at a time, on
    its own encode and quantize, apart from any greedy decode."""
    total = correct = 0
    for rows in length_batches(sentences_to_ids(token_lists, bundle.vocab)):
        *_, logits, targets = teacher_forced(bundle, rows)
        total += targets.size
        correct += int((logits.data.argmax(axis=-1) == targets).sum())
    return correct / total


def corpus_bleu_counting(candidates: list[list], references: list[list]) -> dict[int, float]:
    """BLEU-1..4 counting and clipping every sentence's n-grams, a copy of its
    reference included."""
    matched = {n: 0 for n in range(1, 5)}
    total = {n: 0 for n in range(1, 5)}
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            cand_counts = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            ref_counts = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            matched[n] += sum(min(c, ref_counts.get(g, 0)) for g, c in cand_counts.items())
            total[n] += max(len(cand) - n + 1, 0)
    if cand_len == 0:
        return {n: 0.0 for n in range(1, 5)}
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = {}
    for n in range(1, 5):
        precisions = [matched[k] / total[k] if total[k] else 0.0 for k in range(1, n + 1)]
        scores[n] = bp * math.exp(sum(math.log(p) for p in precisions) / n) if all(precisions) else 0.0
    return scores


# -- corpus: sentences assembled by hand ------------------------------------------
#
# The template builders as parallel token and role lists with a fixed topic,
# the math generator tracking each expression's variables as it samples them,
# and the inference pools built one block per operation.


def make_is_a_by_hand(subject, obj, negated=False):
    obj_tokens = [obj] if isinstance(obj, str) else list(obj)
    tokens = ["a", subject, "is"] + (["not"] if negated else []) + ["a", "kind", "of"] + obj_tokens
    roles = (["O", "ARG1", "PRED"] + (["NEG"] if negated else []) + ["O", "O", "O"]
             + ["ARG2"] * len(obj_tokens))
    return cg.AnnotatedSentence(tokens, roles, "is_a_neg" if negated else "is_a", cg.TOPIC_IS_A)


def make_requires_by_hand(subject, resource, purpose):
    return cg.AnnotatedSentence(["a", subject, "requires", resource, "to", purpose],
                                ["O", "ARG1", "PRED", "ARG2", "O", "MOD"], "requires",
                                cg.TOPIC_REQUIRES)


def make_causes_by_hand(subject, effect):
    return cg.AnnotatedSentence(["a", subject, "causes", effect], ["O", "ARG1", "PRED", "ARG2"],
                                "causes", cg.TOPIC_CAUSE)


def make_means_nn_by_hand(subject, obj):
    return cg.AnnotatedSentence(["a", subject, "means", obj], ["O", "ARG1", "PRED", "ARG2"],
                                "means_nn", cg.TOPIC_MEAN)


def make_means_vv_by_hand(verb, synonym):
    return cg.AnnotatedSentence([verb, "means", synonym], ["ARG1", "PRED", "ARG2"], "means_vv",
                                cg.TOPIC_MEAN)


def make_if_then_by_hand(event1, verb1, event2, verb2):
    return cg.AnnotatedSentence(["if", "a", event1, verb1, "then", "a", event2, verb2],
                                ["O", "O", "ARG1", "PRED", "O", "O", "ARG2", "MOD"], "if_then",
                                cg.TOPIC_IF_THEN)


def make_can_by_hand(subject, verb):
    return cg.AnnotatedSentence(["a", subject, "can", verb], ["O", "ARG1", "MOD", "PRED"], "can",
                                cg.TOPIC_CAN)


def make_can_conj_by_hand(subject, verb1, verb2):
    return cg.AnnotatedSentence(["a", subject, "can", verb1, "and", verb2],
                                ["O", "ARG1", "MOD", "PRED", "O", "PRED"], "can_conj", cg.TOPIC_CAN)


BUILDERS_BY_HAND = {
    "make_is_a": make_is_a_by_hand, "make_requires": make_requires_by_hand,
    "make_causes": make_causes_by_hand, "make_means_nn": make_means_nn_by_hand,
    "make_means_vv": make_means_vv_by_hand, "make_if_then": make_if_then_by_hand,
    "make_can": make_can_by_hand, "make_can_conj": make_can_conj_by_hand,
}


def inference_instances_by_hand(seed: int, count: int, ops) -> list:
    """Instance pools built one block per operation from the hand-assembled builders."""
    rng = np.random.default_rng(seed)
    pools = {}
    if "arg_sub" in ops:
        specifics = ["shark"] + [s for s in cg.SPECIFIC_NOUNS if s != "shark"]
        pools["arg_sub"] = []
        for s in specifics:
            middle = cg.SPECIFIC_TO_MIDDLE[s]
            general = cg.MIDDLE_TO_GENERAL[middle]
            pools["arg_sub"].append(cg.InferenceInstance(
                make_is_a_by_hand(s, middle), make_is_a_by_hand(middle, general), "arg_sub",
                make_is_a_by_hand(s, general)))
    if "verb_sub" in ops:
        combos = [(pair, noun) for pair in cg.VERB_SYNONYMS for noun in cg.SPECIFIC_NOUNS]
        order = rng.permutation(len(combos))
        pools["verb_sub"] = [cg.InferenceInstance(
            make_means_vv_by_hand(verb, synonym), make_can_by_hand(noun, verb), "verb_sub",
            make_can_by_hand(noun, synonym)) for (verb, synonym), noun in (combos[i] for i in order)]
    if "further_spec" in ops:
        combos = [(s, r, p, v) for s in cg.SPECIFIC_NOUNS[:8] for r in cg.RESOURCES[:4]
                  for p in cg.PURPOSES[:3] for v in cg.ABILITY_VERBS[:3]]
        order = rng.permutation(len(combos))
        pools["further_spec"] = []
        for s, r, p, v in (combos[i] for i in order):
            p2 = make_can_by_hand(s, v)
            conclusion = cg.AnnotatedSentence(p2.tokens + ["to", p], p2.roles + ["O", "MOD"],
                                              "can_spec", cg.TOPIC_CAN)
            pools["further_spec"].append(cg.InferenceInstance(
                make_requires_by_hand(s, r, p), p2, "further_spec", conclusion))
    if "conjunction" in ops:
        combos = [(s, v1, v2) for s in cg.SPECIFIC_NOUNS for v1 in cg.ABILITY_VERBS[:5]
                  for v2 in cg.ABILITY_VERBS[5:]]
        order = rng.permutation(len(combos))
        pools["conjunction"] = [cg.InferenceInstance(
            make_can_by_hand(s, v1), make_can_by_hand(s, v2), "conjunction",
            make_can_conj_by_hand(s, v2, v1)) for s, v1, v2 in (combos[i] for i in order)]
    rounds = itertools.zip_longest(*pools.values())
    return [inst for round_ in rounds for inst in round_ if inst is not None][:count]


def _sample_expression_tracked(rng, variables, n_vars):
    order = rng.permutation(len(variables))[:n_vars]
    tokens, used = [], set()
    for i, vi in enumerate(order):
        var = variables[int(vi)]
        used.add(var)
        if i > 0:
            tokens.append(cg.MATH_OPERATORS[int(rng.integers(len(cg.MATH_OPERATORS)))])
        if rng.random() < 0.5:
            fn = cg.MATH_FUNCTIONS[int(rng.integers(len(cg.MATH_FUNCTIONS)))]
            tokens.extend([fn, "(", var, ")"])
        else:
            tokens.append(var)
    return tokens, used


def generate_math_tracked(seed: int, count: int, split: str) -> list[tuple[list[str], str, set]]:
    """``(tokens, split, variables)`` of each expression, its variables collected
    as they are sampled rather than read back from the tokens."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if split == "EASY":
            tokens, used = _sample_expression_tracked(rng, cg.TRAIN_VARIABLES, 1)
        elif split == "LEN":
            n = int(rng.integers(cg.TRAIN_MAX_VARS + 1, cg.TRAIN_MAX_VARS + 4))
            tokens, used = _sample_expression_tracked(rng, cg.TRAIN_VARIABLES, n)
        elif split == "VAR":
            n = int(rng.integers(cg.TRAIN_MIN_VARS, cg.TRAIN_MAX_VARS + 1))
            tokens, used = _sample_expression_tracked(rng, cg.NOVEL_VARIABLES, n)
        else:
            n = int(rng.integers(cg.TRAIN_MIN_VARS, cg.TRAIN_MAX_VARS + 1))
            tokens, used = _sample_expression_tracked(rng, cg.TRAIN_VARIABLES, n)
            if split == "EQ":
                lhs = cg.TRAIN_VARIABLES[int(rng.integers(len(cg.TRAIN_VARIABLES)))]
                tokens = [lhs, "="] + tokens
                used = used | {lhs}
        out.append((tokens, split, used))
    return out
