"""Latent-geometry contracts checked against brute-force oracles.

Model-dependent behaviour (trained fixtures) lives in the training and
acceptance suites; here the codebooks and latents are synthetic.
"""

import numpy as np
import pytest

from vqlat import corpus as cg
from vqlat import geometry as geo
from vqlat.errors import ContractError, NoAnchorError
from vqlat.quantizer import Codebook, quantize_kmeans

from tests.oracles import interpolate_per_step, min_permutation_cost


def make_codebook(entries):
    return Codebook(np.asarray(entries, dtype=np.float32))


@pytest.fixture()
def cb():
    rng = np.random.default_rng(0)
    return make_codebook(rng.standard_normal((6, 4)))


class TestInterpolate:
    def test_source_equals_target_is_constant(self, cb):
        src = cb.entries[[0, 3]].copy()
        path = geo.interpolate(src, src.copy(), cb)
        assert len(path.steps) == 11
        for step in path.steps:
            np.testing.assert_array_equal(step.latents, src)

    def test_final_step_matches_target_indices(self, cb):
        src = cb.entries[[0, 1]].copy()
        tgt = cb.entries[[4, 5]].copy()
        path = geo.interpolate(src, tgt, cb)
        assert path.steps[0].indices.tolist() == [0, 1]
        assert path.steps[-1].t == 1.0
        assert path.steps[-1].indices.tolist() == [4, 5]

    def test_all_rows_are_codebook_entries(self, cb):
        path = geo.interpolate(cb.entries[[2, 0]].copy(), cb.entries[[5, 3]].copy(), cb)
        for step in path.steps:
            for row in step.latents:
                assert any(np.array_equal(row, e) for e in cb.entries)

    def test_matches_exhaustive_argmin_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            cb = make_codebook(rng.standard_normal((4, 3)))
            src = cb.entries[rng.integers(0, 4, size=2)].copy()
            tgt = cb.entries[rng.integers(0, 4, size=2)].copy()
            path = geo.interpolate(src, tgt, cb)
            prev = src
            for k in range(1, 11):
                t = 1.0 if k == 10 else k * 0.1
                expected = []
                for i in range(2):
                    costs = [(1 - t) * np.linalg.norm(prev[i].astype(np.float64) - e)
                             + t * np.linalg.norm(tgt[i].astype(np.float64) - e)
                             for e in cb.entries.astype(np.float64)]
                    expected.append(int(np.argmin(costs)))
                assert path.steps[k].indices.tolist() == expected, (trial, k)
                prev = cb.entries[expected]

    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicate-entries"])
    def test_memo_matches_per_step_oracle(self, duplicates):
        rng = np.random.default_rng(7)
        for trial in range(40):
            k, dim = int(rng.integers(2, 40)), int(rng.integers(1, 9))
            entries = rng.standard_normal((k, dim))
            if duplicates:
                entries = entries[rng.integers(0, k, size=k)]
            cb = make_codebook(entries)
            src = cb.entries[rng.integers(0, k, size=int(rng.integers(1, 7)))]
            tgt = cb.entries[rng.integers(0, k, size=int(rng.integers(1, 7)))]
            pad = cb.entries[int(rng.integers(0, k))]
            step_size = (0.1, 0.25, 0.3, 1.0)[trial % 4]
            path = geo.interpolate(src, tgt, cb, step_size=step_size, pad_latent=pad)
            want = interpolate_per_step(src, tgt, cb.entries, step_size, pad)
            assert len(path.steps) == len(want)
            for got, (t, latents, indices) in zip(path.steps, want):
                assert got.t == t
                assert got.indices.tolist() == indices.tolist(), (trial, t)
                assert got.latents.tobytes() == latents.tobytes()

    def test_length_mismatch_without_padding(self, cb):
        with pytest.raises(ContractError):
            geo.interpolate(cb.entries[[0]].copy(), cb.entries[[1, 2]].copy(), cb)

    def test_padding_extends_shorter_side(self, cb):
        path = geo.interpolate(cb.entries[[0]].copy(), cb.entries[[1, 2]].copy(), cb,
                               pad_latent=cb.entries[5])
        assert path.steps[0].indices.tolist() == [0, 5]
        assert path.steps[-1].indices.tolist() == [1, 2]

    def test_unquantized_input_rejected(self, cb):
        bad = cb.entries[[0, 1]] + 0.25
        with pytest.raises(ContractError):
            geo.interpolate(bad, cb.entries[[0, 1]].copy(), cb)

    def test_dump_format(self, cb):
        path = geo.interpolate(cb.entries[[0]].copy(), cb.entries[[1]].copy(), cb)
        decoded = [[f"w{i}" for i in step.indices] for step in path.steps]
        lines = geo.dump_path(path, decoded).strip().split("\n")
        assert len(lines) == 11
        t, indices, sentence = lines[0].split("\t")
        assert t == "0.00" and indices == "0" and sentence == "w0"
        assert lines[-1].split("\t") == ["1.00", "1", "w1"]


def test_interpolate_reads_endpoint_indices_without_quantizing(cb, monkeypatch):
    calls = []
    monkeypatch.setattr(geo, "quantize_kmeans", lambda *a: calls.append(a) or quantize_kmeans(*a))
    path = geo.interpolate(cb.entries[[2, 0]].copy(), cb.entries[[5, 3]].copy(), cb)
    assert calls == []
    assert path.steps[0].indices.tolist() == [2, 0]
    assert path.steps[-1].indices.tolist() == [5, 3]


class TestWmd:
    def test_identical_sequences_cost_zero(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 5))
        assert geo.wmd(a, a.copy()).cost == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3))
        b = a[[3, 1, 4, 0, 2]]
        assert geo.wmd(a, b).cost == pytest.approx(0.0, abs=1e-12)

    def test_matches_permutation_oracle_equal_lengths(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, 3))
            b = rng.standard_normal((n, 3))
            assert geo.wmd(a, b).cost == pytest.approx(min_permutation_cost(a, b), abs=1e-9)

    def test_unequal_lengths_split_mass(self):
        a = np.array([[0.0]])
        b = np.array([[0.0], [2.0]])
        result = geo.wmd(a, b)
        assert result.cost == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(result.plan, [[0.5, 0.5]])

    def test_plan_marginals_are_uniform(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 4))
        plan = geo.wmd(a, b).plan
        np.testing.assert_allclose(plan.sum(axis=1), 1 / 3, atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), 1 / 4, atol=1e-12)

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.standard_normal((int(rng.integers(1, 5)), 3))
            b = rng.standard_normal((int(rng.integers(1, 5)), 3))
            c = rng.standard_normal((int(rng.integers(1, 5)), 3))
            ab, ba = geo.wmd(a, b).cost, geo.wmd(b, a).cost
            assert ab >= 0
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab <= geo.wmd(a, c).cost + geo.wmd(c, b).cost + 1e-7

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            geo.wmd(np.zeros((0, 2)), np.zeros((1, 2)))


def smoothness(decoded):
    """Smoothness of a path's decoded sentences; tokens are integers here, and
    each embeds as a 1-d point."""
    embeddings = {tuple(s): np.array([[float(tok)] for tok in s]) for s in decoded}
    return geo.interpolation_smoothness(decoded, embeddings)


class TestInterpolationSmoothness:
    def test_two_step_path_is_exactly_one(self):
        assert smoothness([[0], [4]]) == 1.0

    def test_all_identical_is_one_by_convention(self):
        assert smoothness([[2], [2], [2]]) == 1.0

    def test_monotone_path_is_one(self):
        assert smoothness([[0], [1], [3], [4]]) == pytest.approx(1.0)

    def test_detour_lowers_ratio(self):
        assert smoothness([[0], [8], [4]]) < smoothness([[0], [4]])

    def test_duplicates_collapsed(self):
        assert smoothness([[0], [0], [2], [2], [4]]) == pytest.approx(smoothness([[0], [2], [4]]))

    def test_bounded_by_one_on_random_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            seqs = [[int(v) for v in rng.integers(0, 6, size=rng.integers(1, 5))]
                    for _ in range(n)]
            assert smoothness(seqs) <= 1 + 1e-9


class TestTraversePosition:
    def test_first_variant_is_original(self, cb):
        latents = cb.entries[[1, 4]].copy()
        variants = geo.traverse_position(latents, 0, cb, 1)
        np.testing.assert_array_equal(variants, latents[None])

    def test_variants_change_only_requested_row(self, cb):
        latents = cb.entries[[1, 4, 2]].copy()
        variants = geo.traverse_position(latents, 1, cb, 4)
        assert variants.shape == (4, 3, cb.dim)
        for variant in variants:
            np.testing.assert_array_equal(variant[0], latents[0])
            np.testing.assert_array_equal(variant[2], latents[2])

    def test_variants_in_distance_order(self, cb):
        latents = cb.entries[[0, 2]].copy()
        variants = geo.traverse_position(latents, 1, cb, cb.size)
        dists = [np.linalg.norm(v[1] - latents[1]) for v in variants]
        assert dists == sorted(dists)
        assert dists[0] == 0.0

    def test_position_out_of_range(self, cb):
        with pytest.raises(ContractError):
            geo.traverse_position(cb.entries[[0]].copy(), 1, cb, 1)

    def test_too_many_variants(self, cb):
        with pytest.raises(ContractError):
            geo.traverse_position(cb.entries[[0]].copy(), 0, cb, cb.size + 1)


class TestLatentArithmetic:
    def test_zero_operand_is_identity(self, cb):
        a = cb.entries[[2, 5]].copy()
        indices, quantized = geo.latent_arithmetic_add(a, np.zeros_like(a), cb)
        np.testing.assert_array_equal(quantized, a)
        assert indices.tolist() == [2, 5]

    def test_commutative(self, cb):
        a, b = cb.entries[[0, 1]].copy(), cb.entries[[4, 2]].copy()
        for want, got in zip(geo.latent_arithmetic_add(a, b, cb), geo.latent_arithmetic_add(b, a, cb)):
            np.testing.assert_array_equal(want, got)

    def test_forced_two_dim_case(self):
        cb = make_codebook([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        indices, quantized = geo.latent_arithmetic_add(np.array([[1.0, 0.0]], dtype=np.float32),
                                                       np.array([[0.0, 1.0]], dtype=np.float32), cb)
        assert indices.tolist() == [3]
        np.testing.assert_array_equal(quantized, [[1.0, 1.0]])

    def test_truncates_to_shorter_operand(self, cb):
        a, b = cb.entries[[0, 1, 2]].copy(), cb.entries[[3]].copy()
        assert geo.latent_arithmetic_add(a, b, cb)[1].shape[0] == 1


class TestDisentanglementStats:
    def test_single_center_zero_distances(self, cb):
        occ = [(["a", "shark", "is"], ["O", "ARG1", "PRED"], np.array([0, 1, 2])),
               (["a", "crab", "is"], ["O", "ARG1", "PRED"], np.array([0, 3, 2]))]
        stats = {s.label: s for s in geo.disentanglement_stats(occ, cb)}
        assert stats["PRED-is"].num_centers == 1
        assert stats["PRED-is"].avg_dis == 0.0

    def test_two_centers_distance(self, cb):
        occ = [(["is"], ["PRED"], np.array([0])), (["is"], ["PRED"], np.array([4]))]
        stats = geo.disentanglement_stats(occ, cb)[0]
        d = float(np.linalg.norm(cb.entries[0].astype(np.float64) - cb.entries[4]))
        assert stats.num_centers == 2
        assert stats.avg_dis == pytest.approx(d)
        assert stats.max_dis == pytest.approx(d)
        assert stats.min_dis == pytest.approx(d)

    def test_ordering_invariant(self, cb):
        occ = [(["is"], ["PRED"], np.array([0])),
               (["is"], ["PRED"], np.array([3])),
               (["is"], ["PRED"], np.array([5]))]
        s = geo.disentanglement_stats(occ, cb)[0]
        assert s.min_dis <= s.avg_dis <= s.max_dis

    def test_o_role_excluded(self, cb):
        occ = [(["a"], ["O"], np.array([0]))]
        assert geo.disentanglement_stats(occ, cb) == []


class TestSubstitution:
    @pytest.fixture()
    def premises(self):
        rng = np.random.default_rng(8)
        p1_sent = cg.make_is_a("shark", "fish")
        p2_sent = cg.make_is_a("fish", ("aquatic", "animal"))
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((7, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((8, 4)).astype(np.float32))
        return p1, p2

    def test_arg_sub_assembles_expected_rows(self, premises):
        p1, p2 = premises
        out = geo.substitute(p1, p2, "arg_sub")
        expected = np.concatenate([p2.latents[:1], p1.latents[1:2], p2.latents[2:]])
        np.testing.assert_array_equal(out, expected)

    def test_arg_sub_identical_premises_unchanged(self, premises):
        p1, _ = premises
        np.testing.assert_array_equal(geo.substitute(p1, p1, "arg_sub"), p1.latents)

    def test_rows_outside_span_untouched(self, premises):
        p1, p2 = premises
        hybrid = geo.substitute(p1, p2, "arg_sub")
        np.testing.assert_array_equal(hybrid[0], p2.latents[0])
        np.testing.assert_array_equal(hybrid[2:], p2.latents[2:])

    def test_verb_sub_replaces_predicate_span(self):
        rng = np.random.default_rng(9)
        p1_sent = cg.make_means_vv("run", "move")
        p2_sent = cg.make_can("wolf", "run")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((3, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((4, 4)).astype(np.float32))
        out = geo.substitute(p1, p2, "verb_sub")
        expected = np.concatenate([p2.latents[:3], p1.latents[2:3]])
        np.testing.assert_array_equal(out, expected)

    def test_no_shared_span_raises(self):
        rng = np.random.default_rng(10)
        p1_sent = cg.make_is_a("shark", "fish")
        p2_sent = cg.make_is_a("oak", "tree")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((7, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((7, 4)).astype(np.float32))
        with pytest.raises(NoAnchorError):
            geo.substitute(p1, p2, "arg_sub")

    def test_further_spec_appends_purpose_span(self):
        rng = np.random.default_rng(11)
        p1_sent = cg.make_requires("deer", "food", "survive")
        p2_sent = cg.make_can("deer", "run")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((6, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((4, 4)).astype(np.float32))
        out = geo.substitute(p1, p2, "further_spec")
        expected = np.concatenate([p2.latents, p1.latents[4:6]])
        np.testing.assert_array_equal(out, expected)

    def test_conjunction_joins_differing_spans(self):
        rng = np.random.default_rng(12)
        p1_sent = cg.make_can("wolf", "run")
        p2_sent = cg.make_can("wolf", "hide")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((4, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((4, 4)).astype(np.float32))
        and_latent = rng.standard_normal(4).astype(np.float32)
        out = geo.substitute(p1, p2, "conjunction", and_latent=and_latent)
        expected = np.concatenate([p2.latents, and_latent[None, :], p1.latents[3:4]])
        np.testing.assert_array_equal(out, expected)

    def test_conjunction_requires_connective(self, premises):
        p1, p2 = premises
        with pytest.raises(ContractError):
            geo.substitute(p1, p2, "conjunction")

    def test_unknown_op(self, premises):
        p1, p2 = premises
        with pytest.raises(ContractError):
            geo.substitute(p1, p2, "negate")
