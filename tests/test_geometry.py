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


def index_decode(codebook):
    """Stand-in decoder: each sentence of the stack is its sequence of entry indices."""
    def decode(latents):
        return [[int(i) for i in quantize_kmeans(rows, codebook)[0]]
                for rows in np.asarray(latents, dtype=np.float32)]
    return decode


def capture_decode(captured):
    """Stand-in decoder that records every latent sequence of the stack it gets."""
    def decode(latents):
        captured.extend(np.asarray(latents))
        return [None] * len(latents)
    return decode


@pytest.fixture()
def toy():
    rng = np.random.default_rng(0)
    cb = make_codebook(rng.standard_normal((6, 4)))
    return cb, index_decode(cb)


class TestInterpolate:
    def test_source_equals_target_is_constant(self, toy):
        cb, decode = toy
        src = cb.entries[[0, 3]].copy()
        path = geo.interpolate(src, src.copy(), cb, decode)
        assert len(path.steps) == 11
        for step in path.steps:
            np.testing.assert_array_equal(step.latents, src)

    def test_final_step_matches_target_indices(self, toy):
        cb, decode = toy
        src = cb.entries[[0, 1]].copy()
        tgt = cb.entries[[4, 5]].copy()
        path = geo.interpolate(src, tgt, cb, decode)
        assert path.steps[0].indices.tolist() == [0, 1]
        assert path.steps[-1].t == 1.0
        assert path.steps[-1].indices.tolist() == [4, 5]

    def test_all_rows_are_codebook_entries(self, toy):
        cb, decode = toy
        path = geo.interpolate(cb.entries[[2, 0]].copy(), cb.entries[[5, 3]].copy(), cb, decode)
        for step in path.steps:
            for row in step.latents:
                assert any(np.array_equal(row, e) for e in cb.entries)

    def test_matches_exhaustive_argmin_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            cb = make_codebook(rng.standard_normal((4, 3)))
            decode = index_decode(cb)
            src = cb.entries[rng.integers(0, 4, size=2)].copy()
            tgt = cb.entries[rng.integers(0, 4, size=2)].copy()
            path = geo.interpolate(src, tgt, cb, decode)
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
            decode = index_decode(cb)
            path = geo.interpolate(src, tgt, cb, decode, step_size=step_size, pad_latent=pad)
            want = interpolate_per_step(src, tgt, cb.entries, step_size, pad)
            assert len(path.steps) == len(want)
            for got, (t, latents, indices) in zip(path.steps, want):
                assert got.t == t
                assert got.indices.tolist() == indices.tolist(), (trial, t)
                assert got.latents.tobytes() == latents.tobytes()
                assert got.decoded == decode(latents[None])[0]

    def test_length_mismatch_without_padding(self, toy):
        cb, decode = toy
        with pytest.raises(ContractError):
            geo.interpolate(cb.entries[[0]].copy(), cb.entries[[1, 2]].copy(), cb, decode)

    def test_padding_extends_shorter_side(self, toy):
        cb, decode = toy
        path = geo.interpolate(cb.entries[[0]].copy(), cb.entries[[1, 2]].copy(), cb, decode,
                               pad_latent=cb.entries[5])
        assert path.steps[0].indices.tolist() == [0, 5]
        assert path.steps[-1].indices.tolist() == [1, 2]

    def test_unquantized_input_rejected(self, toy):
        cb, decode = toy
        bad = cb.entries[[0, 1]] + 0.25
        with pytest.raises(ContractError):
            geo.interpolate(bad, cb.entries[[0, 1]].copy(), cb, decode)

    def test_dump_format(self, toy):
        cb, decode = toy
        path = geo.interpolate(cb.entries[[0]].copy(), cb.entries[[1]].copy(), cb, decode)
        lines = geo.dump_path(path).strip().split("\n")
        assert len(lines) == 11
        t, indices, sentence = lines[0].split("\t")
        assert t == "0.00" and indices == "0"


def test_interpolate_reads_endpoint_indices_without_quantizing(toy, monkeypatch):
    cb, decode = toy
    calls = []
    monkeypatch.setattr(geo, "quantize_kmeans", lambda *a: calls.append(a) or quantize_kmeans(*a))
    path = geo.interpolate(cb.entries[[2, 0]].copy(), cb.entries[[5, 3]].copy(), cb, decode)
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


class TestInterpolationSmoothness:
    def embed(self, sentences):
        # tokens are integers here; embed each as a 1-d point
        return [np.array([[float(tok)] for tok in sentence]) for sentence in sentences]

    def make_path(self, decoded_seqs):
        steps = [geo.PathStep(i * 0.1, np.zeros((1, 1)), np.zeros(1, dtype=int), d)
                 for i, d in enumerate(decoded_seqs)]
        return geo.InterpolationPath(steps, 0.1)

    def test_two_step_path_is_exactly_one(self):
        path = self.make_path([[0], [4]])
        assert geo.interpolation_smoothness(path, self.embed) == 1.0

    def test_all_identical_is_one_by_convention(self):
        path = self.make_path([[2], [2], [2]])
        assert geo.interpolation_smoothness(path, self.embed) == 1.0

    def test_monotone_path_is_one(self):
        path = self.make_path([[0], [1], [3], [4]])
        assert geo.interpolation_smoothness(path, self.embed) == pytest.approx(1.0)

    def test_detour_lowers_ratio(self):
        straight = self.make_path([[0], [4]])
        detour = self.make_path([[0], [8], [4]])
        assert geo.interpolation_smoothness(detour, self.embed) < \
            geo.interpolation_smoothness(straight, self.embed)

    def test_duplicates_collapsed(self):
        path_dup = self.make_path([[0], [0], [2], [2], [4]])
        path_clean = self.make_path([[0], [2], [4]])
        assert geo.interpolation_smoothness(path_dup, self.embed) == \
            pytest.approx(geo.interpolation_smoothness(path_clean, self.embed))

    def test_bounded_by_one_on_random_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            seqs = [[int(v) for v in rng.integers(0, 6, size=rng.integers(1, 5))]
                    for _ in range(n)]
            path = self.make_path(seqs)
            assert geo.interpolation_smoothness(path, self.embed) <= 1 + 1e-9


class TestTraversePosition:
    def test_first_variant_is_original(self, toy):
        cb, decode = toy
        latents = cb.entries[[1, 4]].copy()
        variants = geo.traverse_position(latents, 0, cb, 1, decode)
        assert variants == decode(latents[None])

    def test_variants_change_only_requested_row(self, toy):
        cb, _ = toy
        captured = []
        latents = cb.entries[[1, 4, 2]].copy()
        geo.traverse_position(latents, 1, cb, 4, capture_decode(captured))
        assert len(captured) == 4
        for variant in captured:
            np.testing.assert_array_equal(variant[0], latents[0])
            np.testing.assert_array_equal(variant[2], latents[2])

    def test_variants_in_distance_order(self, toy):
        cb, _ = toy
        captured = []
        latents = cb.entries[[0, 2]].copy()
        geo.traverse_position(latents, 1, cb, cb.size, capture_decode(captured))
        dists = [np.linalg.norm(v[1] - latents[1]) for v in captured]
        assert dists == sorted(dists)
        assert dists[0] == 0.0

    def test_position_out_of_range(self, toy):
        cb, decode = toy
        with pytest.raises(ContractError):
            geo.traverse_position(cb.entries[[0]].copy(), 1, cb, 1, decode)

    def test_too_many_variants(self, toy):
        cb, decode = toy
        with pytest.raises(ContractError):
            geo.traverse_position(cb.entries[[0]].copy(), 0, cb, cb.size + 1, decode)


class TestLatentArithmetic:
    def test_zero_operand_is_identity(self, toy):
        cb, decode = toy
        a = cb.entries[[2, 5]].copy()
        result = geo.latent_arithmetic_add(a, np.zeros_like(a), cb, decode)
        np.testing.assert_array_equal(result.quantized, a)
        assert result.decoded == decode(a[None])[0]

    def test_commutative(self, toy):
        cb, decode = toy
        a, b = cb.entries[[0, 1]].copy(), cb.entries[[4, 2]].copy()
        r1 = geo.latent_arithmetic_add(a, b, cb, decode)
        r2 = geo.latent_arithmetic_add(b, a, cb, decode)
        assert r1.decoded == r2.decoded
        np.testing.assert_array_equal(r1.quantized, r2.quantized)

    def test_forced_two_dim_case(self):
        cb = make_codebook([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        decode = index_decode(cb)
        result = geo.latent_arithmetic_add(np.array([[1.0, 0.0]], dtype=np.float32),
                                           np.array([[0.0, 1.0]], dtype=np.float32),
                                           cb, decode)
        assert result.indices.tolist() == [3]
        np.testing.assert_array_equal(result.quantized, [[1.0, 1.0]])

    def test_truncates_to_shorter_operand(self, toy):
        cb, decode = toy
        a, b = cb.entries[[0, 1, 2]].copy(), cb.entries[[3]].copy()
        assert geo.latent_arithmetic_add(a, b, cb, decode).quantized.shape[0] == 1


class TestDisentanglementStats:
    def test_single_center_zero_distances(self, toy):
        cb, _ = toy
        occ = [(["a", "shark", "is"], ["O", "ARG1", "PRED"], np.array([0, 1, 2])),
               (["a", "crab", "is"], ["O", "ARG1", "PRED"], np.array([0, 3, 2]))]
        stats = {s.label: s for s in geo.disentanglement_stats(occ, cb)}
        assert stats["PRED-is"].num_centers == 1
        assert stats["PRED-is"].avg_dis == 0.0

    def test_two_centers_distance(self, toy):
        cb, _ = toy
        occ = [(["is"], ["PRED"], np.array([0])), (["is"], ["PRED"], np.array([4]))]
        stats = geo.disentanglement_stats(occ, cb)[0]
        d = float(np.linalg.norm(cb.entries[0].astype(np.float64) - cb.entries[4]))
        assert stats.num_centers == 2
        assert stats.avg_dis == pytest.approx(d)
        assert stats.max_dis == pytest.approx(d)
        assert stats.min_dis == pytest.approx(d)

    def test_ordering_invariant(self, toy):
        cb, _ = toy
        occ = [(["is"], ["PRED"], np.array([0])),
               (["is"], ["PRED"], np.array([3])),
               (["is"], ["PRED"], np.array([5]))]
        s = geo.disentanglement_stats(occ, cb)[0]
        assert s.min_dis <= s.avg_dis <= s.max_dis

    def test_o_role_excluded(self, toy):
        cb, _ = toy
        occ = [(["a"], ["O"], np.array([0]))]
        assert geo.disentanglement_stats(occ, cb) == []


def fingerprint_decode(latents):
    """Stand-in decoder: each sentence of the stack is its rounded latent rows."""
    return [[tuple(np.round(row, 5)) for row in rows] for rows in np.asarray(latents)]


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
        out = geo.substitute_and_decode(p1, p2, "arg_sub", fingerprint_decode)
        expected = np.concatenate([p2.latents[:1], p1.latents[1:2], p2.latents[2:]])
        assert out == fingerprint_decode(expected[None])[0]

    def test_arg_sub_identical_premises_unchanged(self, premises):
        p1, _ = premises
        out = geo.substitute_and_decode(p1, p1, "arg_sub", fingerprint_decode)
        assert out == fingerprint_decode(p1.latents[None])[0]

    def test_rows_outside_span_untouched(self, premises):
        p1, p2 = premises
        captured = []
        geo.substitute_and_decode(p1, p2, "arg_sub", capture_decode(captured))
        [hybrid] = captured
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
        out = geo.substitute_and_decode(p1, p2, "verb_sub", fingerprint_decode)
        expected = np.concatenate([p2.latents[:3], p1.latents[2:3]])
        assert out == fingerprint_decode(expected[None])[0]

    def test_no_shared_span_raises(self):
        rng = np.random.default_rng(10)
        p1_sent = cg.make_is_a("shark", "fish")
        p2_sent = cg.make_is_a("oak", "tree")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((7, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((7, 4)).astype(np.float32))
        with pytest.raises(NoAnchorError):
            geo.substitute_and_decode(p1, p2, "arg_sub", fingerprint_decode)

    def test_further_spec_appends_purpose_span(self):
        rng = np.random.default_rng(11)
        p1_sent = cg.make_requires("deer", "food", "survive")
        p2_sent = cg.make_can("deer", "run")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((6, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((4, 4)).astype(np.float32))
        out = geo.substitute_and_decode(p1, p2, "further_spec", fingerprint_decode)
        expected = np.concatenate([p2.latents, p1.latents[4:6]])
        assert out == fingerprint_decode(expected[None])[0]

    def test_conjunction_joins_differing_spans(self):
        rng = np.random.default_rng(12)
        p1_sent = cg.make_can("wolf", "run")
        p2_sent = cg.make_can("wolf", "hide")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles,
                                 rng.standard_normal((4, 4)).astype(np.float32))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles,
                                 rng.standard_normal((4, 4)).astype(np.float32))
        and_latent = rng.standard_normal(4).astype(np.float32)
        out = geo.substitute_and_decode(p1, p2, "conjunction", fingerprint_decode,
                                        and_latent=and_latent)
        expected = np.concatenate([p2.latents, and_latent[None, :], p1.latents[3:4]])
        assert out == fingerprint_decode(expected[None])[0]

    def test_conjunction_requires_connective(self, premises):
        p1, p2 = premises
        with pytest.raises(ContractError):
            geo.substitute_and_decode(p1, p2, "conjunction", fingerprint_decode)

    def test_unknown_op(self, premises):
        p1, p2 = premises
        with pytest.raises(ContractError):
            geo.substitute_and_decode(p1, p2, "negate", fingerprint_decode)
