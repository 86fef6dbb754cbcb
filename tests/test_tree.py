"""Decision-tree control: CART equivalence with a brute-force oracle, metrics,
path extraction, and guided movement across a synthetic latent boundary.
"""

import numpy as np
import pytest

from vqlat import tree as tc
from vqlat.errors import ContractError
from vqlat.quantizer import Codebook, quantize_kmeans

from tests.oracles import fit_tree_bruteforce, predict_tree_bruteforce


class TestFitTree:
    def test_one_dim_forced_midpoint(self):
        points = np.array([[-1.0], [1.0]])
        tree = tc.fit_tree(points, ["A", "B"], max_depth=3, min_leaf=1)
        assert tree.root.dim == 0
        assert tree.root.threshold == 0.0
        assert tree.training_accuracy == 1.0

    def test_identical_features_single_leaf(self):
        points = np.zeros((6, 2))
        labels = ["A", "A", "A", "A", "B", "B"]
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=1)
        assert tree.root.is_leaf
        assert tree.root.label == "A"
        assert tree.training_accuracy == pytest.approx(4 / 6)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            tc.fit_tree(np.zeros((4, 2)), ["A"] * 4, max_depth=2, min_leaf=1)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractError):
            tc.fit_tree(np.zeros((3, 2)), ["A", "B", "A"], max_depth=2, min_leaf=2)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((40, 3))
        labels = ["A" if p[0] > 0 else "B" for p in points]
        tree = tc.fit_tree(points, labels, max_depth=4, min_leaf=5)

        def check(node, pts):
            if node.is_leaf:
                assert sum(node.counts.values()) >= 5
                return
            mask = pts[:, node.dim] <= node.threshold
            check(node.left, pts[mask])
            check(node.right, pts[~mask])

        check(tree.root, points)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        points = rng.standard_normal((200, 8))
        labels = [int(p[0] + 0.5 * p[3] - 0.2 * p[5] > 0) for p in points]
        rng.shuffle(points[:10])  # a few label-feature mismatches for impurity
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=1)
        oracle = fit_tree_bruteforce(points.tolist(), labels, max_depth=3, min_leaf=1)
        probes = np.concatenate([points, rng.standard_normal((100, 8))])
        got = tree.predict(probes)
        want = [predict_tree_bruteforce(oracle, p) for p in probes.tolist()]
        assert got == want

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((60, 4))
        labels = [int(p[1] > 0.2) for p in points]
        t1 = tc.fit_tree(points, labels, max_depth=4, min_leaf=2)
        t2 = tc.fit_tree(points.copy(), list(labels), max_depth=4, min_leaf=2)
        assert tc.tree_to_json(t1) == tc.tree_to_json(t2)

    def test_training_accuracy_one_when_separable_unbounded(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((50, 3))
        labels = [int(p[2] > 0) for p in points]
        tree = tc.fit_tree(points, labels, max_depth=50, min_leaf=1)
        assert tree.training_accuracy == 1.0


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
        path = tc.extract_path(tree, "B")
        assert len(path.steps) == 1
        step = path.steps[0]
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
                     for c in path.steps)
            if ok:
                satisfying.append(y)
        assert satisfying
        purity = sum(1 for y in satisfying if y == 1) / len(satisfying)
        assert purity == path.leaf_counts.get(1, 0) / sum(path.leaf_counts.values())

    def test_picks_purest_then_largest(self):
        oracle = fit_tree_bruteforce
        rng = np.random.default_rng(4)
        points = rng.standard_normal((200, 8))
        labels = [int(p[0] + 0.5 * p[3] > 0) for p in points]
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=1)
        path = tc.extract_path(tree, 1)

        leaves = []

        def visit(node, steps):
            if node.is_leaf:
                total = sum(node.counts.values())
                leaves.append((node.counts.get(1, 0) / total, total, node.label))
                return
            visit(node.left, None)
            visit(node.right, None)

        visit(tree.root, None)
        best = max((p, t) for p, t, lab in leaves if lab == 1)
        got = (path.leaf_counts.get(1, 0) / sum(path.leaf_counts.values()),
               sum(path.leaf_counts.values()))
        assert got == best

    def test_missing_target_label_raises(self):
        points = np.array([[-1.0], [1.0]])
        tree = tc.fit_tree(points, ["A", "B"], max_depth=1, min_leaf=1)
        with pytest.raises(ContractError):
            tc.extract_path(tree, "C")

    def test_format_matches_figure_style(self):
        path = tc.TreePath([tc.PathConstraint(27, -0.493, "<="),
                            tc.PathConstraint(21, -0.891, "<=")], {"A": 3}, "A")
        assert tc.format_path(path) == "dim 27 <= -0.493, dim 21 <= -0.891"


class TestGuidedMove:
    @pytest.fixture()
    def setup(self):
        # entries laid out so a +1 shift on dim 0 flips row assignments
        entries = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
        codebook = Codebook(entries)

        def decode(quantized):
            return [[int(i) for i in quantize_kmeans(rows, codebook)[0]]
                    for rows in np.asarray(quantized, dtype=np.float32)]

        return codebook, decode

    def test_already_in_target_leaf_one_output_no_edits(self, setup):
        codebook, decode = setup
        path = tc.TreePath([tc.PathConstraint(0, 0.5, ">")], {}, 1)
        rows = np.array([[0.9, 0.0], [0.9, 1.0]])
        outputs = tc.guided_move(rows, path, 0.05, codebook, decode)
        assert outputs == decode(codebook.entries[[2, 3]][None])

    def test_edit_crosses_threshold_and_flips_decoding(self, setup):
        codebook, decode = setup
        path = tc.TreePath([tc.PathConstraint(0, 0.5, ">")], {}, 1)
        rows = np.array([[0.0, 0.0], [0.0, 1.0]])  # pooled dim0 = 0.0
        outputs = tc.guided_move(rows, path, 0.45, codebook, decode)
        assert len(outputs) == 1
        assert outputs[0] == [2, 3]

    def test_each_edit_changes_one_pooled_dimension(self, setup):
        codebook, decode = setup
        path = tc.TreePath([tc.PathConstraint(0, 0.5, ">"),
                            tc.PathConstraint(1, 0.4, "<=")], {}, 1)
        rows = np.array([[0.0, 0.9], [0.0, 0.9]])
        calls = []

        def capture(quantized):
            calls.append([np.asarray(q) for q in quantized])
            return decode(quantized)

        outputs = tc.guided_move(rows, path, 0.1, codebook, capture)
        assert len(outputs) == 2
        [edits] = calls  # every edit rides in one decode call
        # quantized pooled rows: dim 0 crosses first, then dim 1
        assert [e.mean(axis=0).tolist() for e in edits] == [[1.0, 1.0], [1.0, 0.0]]

    def test_final_pooled_latent_classified_as_target(self, setup):
        codebook, decode = setup
        rng = np.random.default_rng(5)
        pos = rng.normal([1.5, 0.0], 0.2, size=(30, 2))
        neg = rng.normal([-1.5, 0.0], 0.2, size=(30, 2))
        points = np.concatenate([pos, neg])
        labels = [1] * 30 + [0] * 30
        tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=2)
        path = tc.extract_path(tree, 1)
        rows = np.array([[-1.5, 0.3], [-1.5, -0.3]])
        margins = tc.default_margins(points)
        tc.guided_move(rows, path, margins, codebook, decode)
        edited = rows.mean(axis=0).copy()
        for c in path.steps:
            eps = margins[c.dim]
            if c.branch == "<=" and not edited[c.dim] <= c.threshold:
                edited[c.dim] = c.threshold - eps
            elif c.branch == ">" and not edited[c.dim] > c.threshold:
                edited[c.dim] = c.threshold + eps
        assert tree.predict_one(edited) == 1

    def test_margin_must_be_positive(self, setup):
        codebook, decode = setup
        path = tc.TreePath([tc.PathConstraint(0, 0.5, ">")], {}, 1)
        with pytest.raises(ContractError):
            tc.guided_move(np.zeros((2, 2)), path, 0.0, codebook, decode)


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
    def test_split_recovers_matrix_and_labels(self):
        samples = [tc.PooledLatent([0.0, 1.0], "A"), tc.PooledLatent([2.0, 3.0], "B")]
        points, labels = tc.split_pooled(samples)
        np.testing.assert_array_equal(points, [[0.0, 1.0], [2.0, 3.0]])
        assert labels == ["A", "B"]

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            tc.PooledLatent([np.nan, 0.0], "A")

    def test_rejects_matrix(self):
        with pytest.raises(ContractError):
            tc.PooledLatent(np.zeros((2, 2)), "A")


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
        assert loaded.predict(probes) == tree.predict(probes)

    def test_json_is_nested_objects(self):
        points = np.array([[-1.0], [1.0]])
        tree = tc.fit_tree(points, ["A", "B"], max_depth=1, min_leaf=1)
        import json
        blob = json.loads(tc.tree_to_json(tree))
        assert set(blob["root"]) == {"dim", "threshold", "left", "right"}
        assert blob["root"]["left"]["counts"] == {"A": 1}
