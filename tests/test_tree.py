"""Decision-tree control: CART equivalence with a brute-force oracle, metrics,
path extraction, and guided movement across a synthetic latent boundary.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqlat import tree as tc
from vqlat.errors import ContractError
from vqlat.quantizer import Codebook
from vqlat.reports import canonical_json

from tests.oracles import fit_tree_bruteforce, predict_tree_bruteforce

# 10 sorts before 9 as a string: the tie rules follow string order, not numeric order.
LABEL_SETS = (("A", "B"), ("A", "B", "C"), (0, 1), (10, 9), (10, 9, 100))


def assert_same_nodes(node, oracle):
    """Node-by-node equality: split dims, exact thresholds, leaf labels."""
    if "counts" in node:
        assert oracle.label is not None and node["label"] == oracle.label
        return
    assert oracle.label is None
    assert (node["dim"], node["threshold"]) == (oracle.dim, oracle.threshold)
    assert_same_nodes(node["left"], oracle.left)
    assert_same_nodes(node["right"], oracle.right)


def leaf_at(tree, path):
    """The leaf a path's constraints lead to, asserting on the way that each
    constraint is exactly the split of the node it passes."""
    node = tree["root"]
    for constraint in path:
        assert "counts" not in node
        assert (constraint.dim, constraint.threshold) == (node["dim"], node["threshold"])
        node = node["left"] if constraint.branch == "<=" else node["right"]
    assert "counts" in node
    return node


class TestFitTree:
    def test_one_dim_forced_midpoint(self):
        points = np.array([[-1.0], [1.0]])
        tree = tc.fit_tree(points, ["A", "B"], max_depth=3, min_leaf=1)
        assert tree["root"]["dim"] == 0
        assert tree["root"]["threshold"] == 0.0
        assert tree["training_accuracy"] == 1.0

    def test_identical_features_single_leaf(self):
        points = np.zeros((6, 2))
        labels = ["A", "A", "A", "A", "B", "B"]
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=1)
        assert tree["root"] == {"counts": {"A": 4, "B": 2}, "label": "A"}
        assert tree["training_accuracy"] == pytest.approx(4 / 6)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            tc.fit_tree(np.zeros((4, 2)), ["A"] * 4, max_depth=2, min_leaf=1)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractError):
            tc.fit_tree(np.zeros((3, 2)), ["A", "B", "A"], max_depth=2, min_leaf=2)

    def test_labels_equal_as_text_rejected(self):
        # tree.json keys leaf counts by label text: 1 and "1" would share a key
        with pytest.raises(ContractError, match="distinct as text"):
            tc.fit_tree(np.zeros((4, 1)), [1, "1", 1, "1"], max_depth=2, min_leaf=1)

    @pytest.mark.parametrize("max_depth,min_leaf", [(3, 0), (3, -4), (0, 1), (-1, 1)])
    def test_meaningless_sizes_rejected(self, max_depth, min_leaf):
        with pytest.raises(ContractError, match="at least 1"):
            tc.fit_tree(np.array([[0.0], [1.0]]), ["A", "B"], max_depth=max_depth,
                        min_leaf=min_leaf)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((40, 3))
        labels = ["A" if p[0] > 0 else "B" for p in points]
        tree = tc.fit_tree(points, labels, max_depth=4, min_leaf=5)

        def check(node, pts):
            if "counts" in node:
                assert sum(node["counts"].values()) >= 5
                return
            mask = pts[:, node["dim"]] <= node["threshold"]
            check(node["left"], pts[mask])
            check(node["right"], pts[~mask])

        check(tree["root"], points)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        points = rng.standard_normal((200, 8))
        labels = [int(p[0] + 0.5 * p[3] - 0.2 * p[5] > 0) for p in points]
        rng.shuffle(points[:10])  # a few label-feature mismatches for impurity
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=1)
        oracle = fit_tree_bruteforce(points.tolist(), labels, max_depth=3, min_leaf=1)
        probes = np.concatenate([points, rng.standard_normal((100, 8))])
        got = tc.predict(tree, probes)
        want = [predict_tree_bruteforce(oracle, p) for p in probes.tolist()]
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(grid=st.booleans(), classes=st.sampled_from(LABEL_SETS), n=st.integers(6, 40),
           dims=st.integers(1, 4), min_leaf=st.integers(1, 3), max_depth=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_bruteforce_oracle_node_by_node(self, grid, classes, n, dims, min_leaf,
                                                    max_depth, seed):
        """Small-integer grids give tied values and tied candidate impurities."""
        rng = np.random.default_rng(seed)
        points = (rng.integers(0, 4, (n, dims)).astype(np.float64) if grid
                  else rng.standard_normal((n, dims)))
        labels = [classes[i] for i in rng.integers(0, len(classes), n)]
        labels[:2] = classes[:2]  # both regions present
        tree = tc.fit_tree(points, labels, max_depth=max_depth, min_leaf=min_leaf)
        assert_same_nodes(tree["root"],
                          fit_tree_bruteforce(points.tolist(), labels, max_depth, min_leaf))
        assert json.loads(canonical_json(tree)) == tree  # JSON values only

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((60, 4))
        labels = [int(p[1] > 0.2) for p in points]
        t1 = tc.fit_tree(points, labels, max_depth=4, min_leaf=2)
        t2 = tc.fit_tree(points.copy(), list(labels), max_depth=4, min_leaf=2)
        assert canonical_json(t1) == canonical_json(t2)

    def test_training_accuracy_one_when_separable_unbounded(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((50, 3))
        labels = [int(p[2] > 0) for p in points]
        tree = tc.fit_tree(points, labels, max_depth=50, min_leaf=1)
        assert tree["training_accuracy"] == 1.0


class TestTreeMetrics:
    def test_perfect_tree_all_ones(self):
        points = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        labels = [0, 0, 1, 1]
        tree = tc.fit_tree(points, labels, max_depth=2, min_leaf=1)
        metrics = tc.tree_metrics(tree, points, labels, positive_label=1)
        assert metrics == {"separability": 1.0, "density_precision": 1.0,
                           "density_recall": 1.0, "f1": 1.0}

    def test_constant_positive_predictor(self):
        # unsplittable features force a single majority leaf; with the tie
        # resolved to the positive class everything is predicted positive
        points = np.zeros((8, 1))
        labels = [1, 1, 1, 1, 1, 0, 0, 0]
        tree = tc.fit_tree(points, labels, max_depth=2, min_leaf=1)
        balanced = np.zeros((10, 1))
        balanced_labels = [1] * 5 + [0] * 5
        metrics = tc.tree_metrics(tree, balanced, balanced_labels, positive_label=1)
        assert metrics["separability"] == pytest.approx(0.5)
        assert metrics["density_recall"] == 1.0

    def test_zero_denominators_give_zero(self):
        # constant-negative predictor: no positive predictions
        pts = np.zeros((4, 1))
        lab = [0, 0, 0, 1]
        t = tc.fit_tree(pts, lab, max_depth=1, min_leaf=1)
        m = tc.tree_metrics(t, pts, lab, positive_label=1)
        assert m["density_precision"] == 0.0
        assert m["f1"] == 0.0


class TestExtractPath:
    def test_depth_one_single_constraint(self):
        points = np.array([[-1.0], [1.0]])
        tree = tc.fit_tree(points, ["A", "B"], max_depth=1, min_leaf=1)
        [step] = tc.extract_path(tree, "B")
        assert (step.dim, step.threshold, step.branch) == (0, 0.0, ">")

    def test_leaf_samples_satisfy_constraints(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((80, 4))
        labels = [int(p[0] > 0) for p in points]
        tree = tc.fit_tree(points, labels, max_depth=4, min_leaf=3)
        path = tc.extract_path(tree, 1)
        satisfying = []
        for p, y in zip(points, labels):
            ok = all(p[c.dim] <= c.threshold if c.branch == "<=" else p[c.dim] > c.threshold
                     for c in path)
            if ok:
                satisfying.append(y)
        assert satisfying
        purity = sum(1 for y in satisfying if y == 1) / len(satisfying)
        counts = leaf_at(tree, path)["counts"]
        assert purity == counts.get("1", 0) / sum(counts.values())

    def test_picks_purest_then_largest(self):
        oracle = fit_tree_bruteforce
        rng = np.random.default_rng(4)
        points = rng.standard_normal((200, 8))
        labels = [int(p[0] + 0.5 * p[3] > 0) for p in points]
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=1)
        path = tc.extract_path(tree, 1)

        leaves = []

        def visit(node, steps):
            if "counts" in node:
                total = sum(node["counts"].values())
                leaves.append((node["counts"].get("1", 0) / total, total, node["label"]))
                return
            visit(node["left"], None)
            visit(node["right"], None)

        visit(tree["root"], None)
        best = max((p, t) for p, t, lab in leaves if lab == 1)
        counts = leaf_at(tree, path)["counts"]
        assert (counts.get("1", 0) / sum(counts.values()), sum(counts.values())) == best

    def test_paths_walk_the_tree_to_a_target_leaf(self):
        rng = np.random.default_rng(8)
        constraints = 0
        for trial in range(30):
            dims = int(rng.integers(1, 5))
            points = rng.standard_normal((int(rng.integers(10, 60)), dims))
            labels = rng.integers(0, 3, size=len(points)).tolist()
            if len(set(labels)) < 2:
                continue
            tree = tc.fit_tree(points, labels, max_depth=int(rng.integers(1, 5)),
                               min_leaf=int(rng.integers(1, 4)))
            leaf_labels = set()

            def visit(node):
                if "counts" in node:
                    leaf_labels.add(node["label"])
                else:
                    visit(node["left"])
                    visit(node["right"])

            visit(tree["root"])
            for label in leaf_labels:
                path = tc.extract_path(tree, label)
                assert leaf_at(tree, path)["label"] == label, trial
                constraints += len(path)
        assert constraints > 30  # most trees split: the walks are not all trivial

    def test_missing_target_label_raises(self):
        points = np.array([[-1.0], [1.0]])
        tree = tc.fit_tree(points, ["A", "B"], max_depth=1, min_leaf=1)
        with pytest.raises(ContractError):
            tc.extract_path(tree, "C")

    def test_format_matches_figure_style(self):
        path = [tc.PathConstraint(27, -0.493, "<="), tc.PathConstraint(21, -0.891, "<=")]
        assert tc.format_path(path) == "dim 27 <= -0.493, dim 21 <= -0.891"


class TestGuidedMove:
    @pytest.fixture()
    def codebook(self):
        # entries laid out so a +1 shift on dim 0 flips row assignments
        entries = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        return Codebook(entries)

    def test_already_in_target_leaf_one_output_no_edits(self, codebook):
        path = [tc.PathConstraint(0, 0.5, ">")]
        rows = np.array([[0.9, 0.0], [0.9, 1.0]])
        outputs = tc.guided_move(rows, path, 0.05, codebook)
        assert outputs.tolist() == [[2, 3]]

    def test_edit_crosses_threshold_and_flips_decoding(self, codebook):
        path = [tc.PathConstraint(0, 0.5, ">")]
        rows = np.array([[0.0, 0.0], [0.0, 1.0]])  # pooled dim0 = 0.0
        outputs = tc.guided_move(rows, path, 0.45, codebook)
        assert outputs.tolist() == [[2, 3]]

    def test_each_edit_changes_one_pooled_dimension(self, codebook):
        path = [tc.PathConstraint(0, 0.5, ">"), tc.PathConstraint(1, 0.4, "<=")]
        rows = np.array([[0.0, 0.9], [0.0, 0.9]])
        edits = tc.guided_move(rows, path, 0.1, codebook)
        assert edits.shape == (2, 2)  # every edit rides in the one returned stack
        # quantized pooled rows: dim 0 crosses first, then dim 1
        assert [codebook.entries[e].mean(axis=0).tolist() for e in edits] == [[1.0, 1.0], [1.0, 0.0]]

    def test_final_pooled_latent_classified_as_target(self, codebook):
        rng = np.random.default_rng(5)
        pos = rng.normal([1.5, 0.0], 0.2, size=(30, 2))
        neg = rng.normal([-1.5, 0.0], 0.2, size=(30, 2))
        points = np.concatenate([pos, neg])
        labels = [1] * 30 + [0] * 30
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=2)
        path = tc.extract_path(tree, 1)
        rows = np.array([[-1.5, 0.3], [-1.5, -0.3]])
        margins = tc.default_margins(points)
        tc.guided_move(rows, path, margins, codebook)
        edited = rows.mean(axis=0).copy()
        for c in path:
            eps = margins[c.dim]
            if c.branch == "<=" and not edited[c.dim] <= c.threshold:
                edited[c.dim] = c.threshold - eps
            elif c.branch == ">" and not edited[c.dim] > c.threshold:
                edited[c.dim] = c.threshold + eps
        assert tc.predict(tree, [edited]) == [1]

    def test_margin_must_be_positive(self, codebook):
        path = [tc.PathConstraint(0, 0.5, ">")]
        with pytest.raises(ContractError):
            tc.guided_move(np.zeros((2, 2)), path, 0.0, codebook)


class TestConsistency:
    def test_all_hold(self):
        assert tc.cross_region_consistency([["a"], ["a"]], lambda s: s[0], "a") == 1.0

    def test_none_hold(self):
        assert tc.cross_region_consistency([["b"], ["c"]], lambda s: s[0], "a") == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            tc.cross_region_consistency([], lambda s: None, "a")


class TestDefaultMargins:
    def test_five_percent_of_range_with_floor(self):
        pts = np.array([[0.0, 5.0], [10.0, 5.0]])
        margins = tc.default_margins(pts)
        assert margins[0] == pytest.approx(0.5)
        assert margins[1] == pytest.approx(1e-3)


class TestPooledLatent:
    def test_rejects_non_finite(self):
        points = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
        labels = ["A", "A", "B", "B"]
        bad = points.copy()
        bad[2, 0] = np.nan
        with pytest.raises(ContractError):
            tc.fit_tree(bad, labels, min_leaf=1)
        tree = tc.fit_tree(points, labels, min_leaf=1)
        with pytest.raises(ContractError):
            tc.tree_metrics(tree, bad, labels, positive_label="B")


class TestTreeSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((100, 5))
        labels = [int(p[0] - p[2] > 0.1) for p in points]
        tree = tc.fit_tree(points, labels, max_depth=4, min_leaf=2)
        path = tmp_path / "tree.json"
        tc.save_tree(path, tree)
        raw = path.read_bytes()
        loaded = tc.load_tree(path)
        tc.save_tree(path, loaded)
        assert path.read_bytes() == raw
        probes = rng.standard_normal((50, 5))
        assert loaded == tree
        assert tc.predict(loaded, probes) == tc.predict(tree, probes)

    def test_json_is_nested_objects(self):
        points = np.array([[-1.0], [1.0]])
        tree = tc.fit_tree(points, ["A", "B"], max_depth=1, min_leaf=1)
        blob = json.loads(canonical_json(tree))
        assert set(blob["root"]) == {"dim", "threshold", "left", "right"}
        assert blob["root"]["left"]["counts"] == {"A": 1}
