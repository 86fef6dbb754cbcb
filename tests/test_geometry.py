"""Latent-geometry contracts checked against brute-force oracles.

Model-dependent behaviour (trained fixtures) lives in the training and
acceptance suites; here the codebooks and latents are synthetic.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqlat import corpus as cg
from vqlat import geometry as geo
from vqlat import model as md
from vqlat.errors import ContractError, NoAnchorError
from vqlat.quantizer import Codebook, QuantizerConfig, ema_update, quantize_kmeans
from vqlat.training import ModelBundle

from tests.oracles import (interpolate_per_step, min_permutation_cost, sq_dists_scan,
                           transport_cost_lp, wmd_by_assignment)


def make_codebook(entries):
    return Codebook(np.asarray(entries, dtype=np.float32))


@pytest.fixture()
def cb():
    rng = np.random.default_rng(0)
    return make_codebook(rng.standard_normal((6, 4)))


def padded_end_to_end(rows, lengths, pad):
    """``rows`` padded with ``pad`` to ``lengths``, end to end."""
    return np.concatenate([list(row) + [pad] * (n - len(row)) for row, n in zip(rows, lengths)])


class TestInterpolate:
    def test_source_equals_target_is_constant(self, cb):
        src = np.array([0, 3])
        [steps] = geo.interpolate([(src, src.copy())], cb, 5)
        assert len(geo.TIMES) == len(steps) == 11
        for row in steps:
            np.testing.assert_array_equal(row, src)

    def test_final_step_matches_target_indices(self, cb):
        [steps] = geo.interpolate([(np.array([0, 1]), np.array([4, 5]))], cb, 5)
        assert steps[0].tolist() == [0, 1]
        assert geo.TIMES[0] == 0.0 and geo.TIMES[-1] == 1.0
        assert steps[-1].tolist() == [4, 5]

    def test_all_rows_are_codebook_entries(self, cb):
        [steps] = geo.interpolate([(np.array([2, 0]), np.array([5, 3]))], cb, 5)
        assert steps.shape == (11, 2)
        assert np.issubdtype(steps.dtype, np.integer)
        assert ((0 <= steps) & (steps < cb.size)).all()

    def test_matches_exhaustive_argmin_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            cb = make_codebook(rng.standard_normal((4, 3)))
            src = rng.integers(0, 4, size=2)
            tgt = rng.integers(0, 4, size=2)
            [steps] = geo.interpolate([(src, tgt)], cb, 0)
            prev = cb.entries[src]
            for k in range(1, 11):
                t = 1.0 if k == 10 else k * 0.1
                expected = []
                for i in range(2):
                    costs = [(1 - t) * np.linalg.norm(prev[i].astype(np.float64) - e)
                             + t * np.linalg.norm(cb.entries[tgt[i]].astype(np.float64) - e)
                             for e in cb.entries.astype(np.float64)]
                    expected.append(int(np.argmin(costs)))
                assert steps[k].tolist() == expected, (trial, k)
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
            src = rng.integers(0, k, size=int(rng.integers(1, 7)))
            tgt = rng.integers(0, k, size=int(rng.integers(1, 7)))
            pad = int(rng.integers(0, k))
            [steps] = geo.interpolate([(src, tgt)], cb, pad)
            want = interpolate_per_step(src, tgt, cb.entries, pad)
            assert geo.TIMES == [t for t, _ in want]
            assert len(steps) == len(want)
            for got, (t, indices) in zip(steps, want):
                assert got.tolist() == indices.tolist(), (trial, t)

    @settings(max_examples=150, deadline=None)
    @given(case=st.sampled_from(["distinct", "duplicates", "few_distinct"]),
           k=st.one_of(st.integers(1, 40), st.integers(2**12, 2**13)), dim=st.integers(1, 6),
           n_pairs=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_one_call_over_concatenated_pairs_equals_each_pair(self, case, k, dim, n_pairs, seed):
        # k of 4096-8192 makes blocks of 4-8 positions, so the pairs cross block boundaries
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal((k, dim))
        if case == "duplicates":
            entries = entries[rng.integers(0, k, size=k)]
        elif case == "few_distinct":  # argmin ties at nearly every step
            entries = entries[rng.integers(0, min(k, 3), size=k)]
        cb = make_codebook(entries)
        pad = int(rng.integers(0, k))
        pairs = [(rng.integers(0, k, size=int(rng.integers(1, 8))),
                  rng.integers(0, k, size=int(rng.integers(1, 8)))) for _ in range(n_pairs)]
        rows = []
        exact = geo._euclidean_to_entries
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geo, "_euclidean_to_entries",
                          lambda r, e: rows.append(len(r)) or exact(r, e))
            paths = geo.interpolate(pairs, cb, pad)
        # the rows read are the padded targets' and every step's but the last (nothing
        # steps from it), over all pairs at once
        target = padded_end_to_end([tgt for _, tgt in pairs],
                                   [max(len(src), len(tgt)) for src, tgt in pairs], pad)
        stepped = {int(i) for steps in paths for i in steps[:-1].ravel()}
        assert sum(rows) == len(set(target.tolist()) | stepped)
        assert len(paths) == n_pairs
        for (src, tgt), steps in zip(pairs, paths):
            want = interpolate_per_step(src, tgt, cb.entries, pad)
            np.testing.assert_array_equal(steps, np.stack([indices for _, indices in want]))

    def test_memory_grows_with_distinct_entries_not_positions(self, monkeypatch):
        rng = np.random.default_rng(3)
        k, dim, positions = 512, 64, 400
        cb = make_codebook(rng.standard_normal((k, dim)))
        source, target = (rng.integers(0, 64, size=positions) for _ in range(2))
        geo.interpolate([(source[:2], target[:2])], cb, 0)  # numpy's lazy imports stay out of the peak
        rows = []
        exact = geo._euclidean_to_entries
        monkeypatch.setattr(geo, "_euclidean_to_entries",
                            lambda r, e: rows.append(len(r)) or exact(r, e))
        tracemalloc.start()
        try:
            geo.interpolate([(source, target)], cb, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        memo = sum(rows) * k * 8  # the float64 distance rows of the distinct entries
        # the float64 codebook, one 2**17-value difference block of pairwise_sq_dists,
        # and six float64 [2**15 // K, K] temporaries of a block; one [positions, K]
        # array of the same temporaries would be 1.6 MB each
        budget = k * dim * 8 + 2**17 * 8 + 6 * 2**15 * 8
        assert peak <= memo + budget, (peak, memo, budget)

    def test_padding_extends_shorter_side(self, cb):
        [steps] = geo.interpolate([(np.array([0]), np.array([1, 2]))], cb, 5)
        assert steps[0].tolist() == [0, 5]
        assert steps[-1].tolist() == [1, 2]

    def test_no_pairs_refused(self, cb):
        with pytest.raises(ContractError):
            geo.interpolate([], cb, 5)

    @pytest.mark.parametrize("empty", [[], (), np.empty(0)], ids=["list", "tuple", "float-array"])
    def test_empty_source_pads_like_an_empty_int_array(self, cb, empty):
        [want] = geo.interpolate([(np.empty(0, np.intp), [1, 2])], cb, 5)
        [steps] = geo.interpolate([(empty, [1, 2])], cb, 5)
        assert steps[0].tolist() == [5, 5] and steps[-1].tolist() == [1, 2]
        np.testing.assert_array_equal(steps, want)
        assert [path.shape for path in geo.interpolate([([], []), ([0], [])], cb, 5)] == [(11, 0), (11, 1)]

    def test_pairs_of_lists_match_the_per_pair_oracle(self, cb):
        pairs = [([0, 3], [4]), ([2], [1, 5, 0]), ([5, 5], [0, 1])]
        paths = geo.interpolate(pairs, cb, 5)
        for (src, tgt), steps in zip(pairs, paths, strict=True):
            want = interpolate_per_step(src, tgt, cb.entries, 5)
            assert steps.tolist() == [indices.tolist() for _, indices in want]

    def test_dump_format(self, cb):
        [steps] = geo.interpolate([(np.array([0]), np.array([1]))], cb, 5)
        decoded = [[f"w{i}" for i in row] for row in steps]
        lines = geo.dump_path(steps, decoded).strip().split("\n")
        assert len(lines) == 11
        t, indices, sentence = lines[0].split("\t")
        assert t == "0.00" and indices == "0" and sentence == "w0"
        assert lines[-1].split("\t") == ["1.00", "1", "w1"]


def test_interpolate_reads_endpoint_indices_without_quantizing(cb, monkeypatch):
    calls = []
    monkeypatch.setattr(geo, "quantize_kmeans", lambda *a: calls.append(a) or quantize_kmeans(*a))
    [steps] = geo.interpolate([(np.array([2, 0]), np.array([5, 3]))], cb, 5)
    assert calls == []
    assert steps[0].tolist() == [2, 0]
    assert steps[-1].tolist() == [5, 3]


@pytest.mark.parametrize("bad", [-1, 6, 1.0], ids=["negative", "K", "float"])
@pytest.mark.parametrize("call", [
    "interpolate-source", "interpolate-target", "interpolate-pad", "traverse", "arith",
    "substitute-premise", "substitute-and", "decode", "disentangle", "ema_update"])
def test_index_inputs_outside_the_codebook_are_refused(cb, call, bad):
    """Every function taking entry indices refuses -1, K and a float index with a
    ContractError instead of wrapping or truncating it."""
    assert cb.size == 6
    row = np.array([1, bad, 2])  # a float anywhere makes the whole row float
    conj = cg.make_can("wolf", "run"), cg.make_can("wolf", "hide")
    good = geo.SentenceLatents(conj[0].tokens, conj[0].roles, np.array([0, 1, 2, 3]))
    vocab = cg.Vocabulary(["wolf"])
    config = md.ModelConfig(vocab_size=len(vocab), d_model=cb.dim, n_heads=1, max_len=4)
    calls = {
        "interpolate-source": lambda: geo.interpolate([(row, np.array([0, 1, 2]))], cb, 0),
        "interpolate-target": lambda: geo.interpolate([(np.array([0, 1, 2]), row)], cb, 0),
        "interpolate-pad": lambda: geo.interpolate([(np.array([0]), np.array([1, 2]))], cb, bad),
        "traverse": lambda: geo.traverse_position(row, 0, cb, 2),
        "arith": lambda: geo.latent_arithmetic_add(np.array([0, 1, 2]), row, cb),
        "substitute-premise": lambda: geo.substitute(
            good, geo.SentenceLatents(conj[1].tokens, conj[1].roles, np.append(row, 0)),
            "conjunction", cb, and_index=4),
        "substitute-and": lambda: geo.substitute(
            good, geo.SentenceLatents(conj[1].tokens, conj[1].roles, np.array([0, 1, 2, 4])),
            "conjunction", cb, and_index=bad),
        "decode": lambda: ModelBundle(config, md.init_params(config, np.random.default_rng(0)), cb,
                                      QuantizerConfig(), vocab).decode_ids([np.array([0]), row]),
        "disentangle": lambda: geo.disentanglement_stats(
            [geo.SentenceLatents(["wolf", "can", "run"], ["ARG1", "MOD", "PRED"], row)], cb),
        "ema_update": lambda: ema_update(cb, np.zeros((3, cb.dim)), row),
    }
    with pytest.raises(ContractError):
        calls[call]()


class TestWmd:
    def test_identical_sequences_cost_zero(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 5))
        assert geo.wmd(a, a.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3))
        b = a[[3, 1, 4, 0, 2]]
        assert geo.wmd(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_permutation_oracle_equal_lengths(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, 3))
            b = rng.standard_normal((n, 3))
            assert geo.wmd(a, b) == pytest.approx(min_permutation_cost(a, b), abs=1e-9)

    def test_unequal_lengths_split_mass(self):
        a = np.array([[0.0]])
        b = np.array([[0.0], [2.0]])
        assert geo.wmd(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_transport_lp_oracle(self):
        """Lengths 1-5 on each side, unequal ones included, against the
        ``[la, lb]`` transportation LP solved without the lcm expansion."""
        rng = np.random.default_rng(5)
        lengths = set()
        for _ in range(60):
            la, lb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            lengths.add((la, lb))
            a, b = rng.standard_normal((la, 3)), rng.standard_normal((lb, 3))
            assert geo.wmd(a, b) == pytest.approx(transport_cost_lp(a, b), abs=1e-9), (la, lb)
        assert any(la != lb for la, lb in lengths)

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.standard_normal((int(rng.integers(1, 5)), 3))
            b = rng.standard_normal((int(rng.integers(1, 5)), 3))
            c = rng.standard_normal((int(rng.integers(1, 5)), 3))
            ab, ba = geo.wmd(a, b), geo.wmd(b, a)
            assert ab >= 0
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab <= geo.wmd(a, c) + geo.wmd(c, b) + 1e-7

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            geo.wmd(np.zeros((0, 2)), np.zeros((1, 2)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_bag_rejected(self, bad, side):
        """A NaN or infinite row, or one whose distances overflow, is a contract
        error before any shortest path runs on it, and numpy warns of nothing."""
        a, b = np.zeros((3, 2)), np.ones((4, 2))
        (a if side == "a" else b)[1, 0] = bad
        with pytest.raises(ContractError, match="finite"):
            geo.wmd(a, b)


@st.composite
def bag_pairs(draw):
    """Two embedding bags of 1-12 rows: free, with duplicate rows planted, sharing
    rows (exact-zero distances), or identical.  Half use integer coordinates, so
    equal distances and tied plans are common."""
    la, lb, width = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a, b = (rng.integers(-2, 3, size=(n, width)).astype(np.float64) for n in (la, lb))
    else:
        a, b = rng.standard_normal((la, width)), rng.standard_normal((lb, width))
    kind = draw(st.sampled_from(["free", "duplicates", "shared", "identical"]))
    if kind == "duplicates":
        a, b = a[rng.integers(la, size=la)], b[rng.integers(lb, size=lb)]
    elif kind == "shared":
        shared = min(la, lb) // 2 + 1
        b[rng.permutation(lb)[:shared]] = a[rng.permutation(la)[:shared]]
    elif kind == "identical":
        b = a[rng.permutation(la)]
    return a, b


class TestTransportPlan:
    """``wmd``'s in-package solver against the assignment on the lcm expansion and
    the transportation LP, and the plan it returns."""

    def check(self, a, b):
        want = wmd_by_assignment(a, b)
        got = geo.wmd(a, b)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
        assert got == pytest.approx(transport_cost_lp(a, b), abs=1e-9)
        cost = np.sqrt(sq_dists_scan(a, b))
        plan = geo.transport_plan(cost)
        size = math.lcm(len(a), len(b))
        assert plan.dtype.kind == "i" and (plan >= 0).all()
        assert (plan.sum(axis=1) == size // len(a)).all()
        assert (plan.sum(axis=0) == size // len(b)).all()
        assert float((plan * cost).sum()) / size == pytest.approx(got, rel=1e-12, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(bag_pairs())
    def test_matches_oracles(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_matches_oracles_at_16_by_15(self, seed, duplicates):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((16, 8)), rng.standard_normal((15, 8))
        if duplicates:
            a, b = a[rng.integers(4, size=16)], b[rng.integers(5, size=15)]
        self.check(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, bad):
        cost = np.ones((2, 3))
        cost[1, 2] = bad
        with pytest.raises(ContractError, match="finite"):
            geo.transport_plan(cost)

    def test_97_by_100_rows_in_small_memory(self):
        """Rows drawn from twelve points on a line, as sentences draw from a small
        vocabulary.  In one dimension the monotone coupling is optimal, which gives
        the exact cost.  The lcm expansion would be a 9,700 x 9,700 float64 matrix
        (~750 MB); the solver's peak stays under 4 MB."""
        rng = np.random.default_rng(8)
        points = rng.standard_normal(12)
        a, b = points[rng.integers(12, size=(97, 1))], points[rng.integers(12, size=(100, 1))]
        tracemalloc.start()
        try:
            got = geo.wmd(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        monotone = np.abs(np.repeat(np.sort(a[:, 0]), 100) - np.repeat(np.sort(b[:, 0]), 97))
        assert got == pytest.approx(monotone.mean(), rel=1e-12)


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
        indices = np.array([1, 4])
        variants = geo.traverse_position(indices, 0, cb, 1)
        np.testing.assert_array_equal(variants, indices[None])

    def test_variants_change_only_requested_row(self, cb):
        indices = np.array([1, 4, 2])
        variants = geo.traverse_position(indices, 1, cb, 4)
        assert variants.shape == (4, 3)
        for variant in variants:
            assert variant[0] == indices[0]
            assert variant[2] == indices[2]

    def test_variants_in_distance_order(self, cb):
        indices = np.array([0, 2])
        variants = geo.traverse_position(indices, 1, cb, cb.size)
        dists = [np.linalg.norm(cb.entries[v[1]] - cb.entries[indices[1]]) for v in variants]
        assert dists == sorted(dists)
        assert dists[0] == 0.0

    def test_position_out_of_range(self, cb):
        with pytest.raises(ContractError):
            geo.traverse_position(np.array([0]), 1, cb, 1)

    def test_empty_row_is_refused_for_its_position(self, cb):
        with pytest.raises(ContractError, match="position 0 outside sequence of 0 rows"):
            geo.traverse_position([], 0, cb, 1)

    def test_too_many_variants(self, cb):
        with pytest.raises(ContractError):
            geo.traverse_position(np.array([0]), 0, cb, cb.size + 1)


class TestLatentArithmetic:
    def test_zero_operand_is_identity(self, cb):
        with_zero = make_codebook(np.vstack([cb.entries, np.zeros(cb.dim)]))
        zero = with_zero.size - 1
        indices = geo.latent_arithmetic_add(np.array([2, 5]), np.array([zero, zero]), with_zero)
        assert indices.tolist() == [2, 5]

    def test_commutative(self, cb):
        a, b = np.array([0, 1]), np.array([4, 2])
        np.testing.assert_array_equal(geo.latent_arithmetic_add(a, b, cb),
                                      geo.latent_arithmetic_add(b, a, cb))

    def test_forced_two_dim_case(self):
        cb = make_codebook([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        indices = geo.latent_arithmetic_add(np.array([1]), np.array([2]), cb)
        assert indices.tolist() == [3]
        np.testing.assert_array_equal(cb.entries[indices], [[1.0, 1.0]])

    def test_truncates_to_shorter_operand(self, cb):
        assert geo.latent_arithmetic_add(np.array([0, 1, 2]), np.array([3]), cb).shape == (1,)


class TestDisentanglementStats:
    def test_single_center_zero_distances(self, cb):
        occ = [geo.SentenceLatents(["a", "shark", "is"], ["O", "ARG1", "PRED"], np.array([0, 1, 2])),
               geo.SentenceLatents(["a", "crab", "is"], ["O", "ARG1", "PRED"], np.array([0, 3, 2]))]
        stats = {s.label: s for s in geo.disentanglement_stats(occ, cb)}
        assert stats["PRED-is"].num_centers == 1
        assert stats["PRED-is"].avg_dis == 0.0

    def test_two_centers_distance(self, cb):
        occ = [geo.SentenceLatents(["is"], ["PRED"], np.array([0])),
               geo.SentenceLatents(["is"], ["PRED"], np.array([4]))]
        stats = geo.disentanglement_stats(occ, cb)[0]
        d = float(np.linalg.norm(cb.entries[0].astype(np.float64) - cb.entries[4]))
        assert stats.num_centers == 2
        assert stats.avg_dis == pytest.approx(d)
        assert stats.max_dis == pytest.approx(d)
        assert stats.min_dis == pytest.approx(d)

    def test_ordering_invariant(self, cb):
        occ = [geo.SentenceLatents(["is"], ["PRED"], np.array([0])),
               geo.SentenceLatents(["is"], ["PRED"], np.array([3])),
               geo.SentenceLatents(["is"], ["PRED"], np.array([5]))]
        s = geo.disentanglement_stats(occ, cb)[0]
        assert s.min_dis <= s.avg_dis <= s.max_dis

    def test_o_role_excluded(self, cb):
        occ = [geo.SentenceLatents(["a"], ["O"], np.array([0]))]
        assert geo.disentanglement_stats(occ, cb) == []


class TestSubstitution:
    @pytest.fixture()
    def premises(self):
        rng = np.random.default_rng(8)
        p1_sent = cg.make_is_a("shark", "fish")
        p2_sent = cg.make_is_a("fish", ("aquatic", "animal"))
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles, rng.integers(0, 6, size=7))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles, rng.integers(0, 6, size=8))
        return p1, p2

    def test_arg_sub_assembles_expected_rows(self, premises, cb):
        p1, p2 = premises
        out = geo.substitute(p1, p2, "arg_sub", cb)
        expected = np.concatenate([p2.indices[:1], p1.indices[1:2], p2.indices[2:]])
        np.testing.assert_array_equal(out, expected)

    def test_arg_sub_identical_premises_unchanged(self, premises, cb):
        p1, _ = premises
        np.testing.assert_array_equal(geo.substitute(p1, p1, "arg_sub", cb), p1.indices)

    def test_rows_outside_span_untouched(self, premises, cb):
        p1, p2 = premises
        hybrid = geo.substitute(p1, p2, "arg_sub", cb)
        assert hybrid[0] == p2.indices[0]
        np.testing.assert_array_equal(hybrid[2:], p2.indices[2:])

    def test_verb_sub_replaces_predicate_span(self, cb):
        rng = np.random.default_rng(9)
        p1_sent = cg.make_means_vv("run", "move")
        p2_sent = cg.make_can("wolf", "run")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles, rng.integers(0, 6, size=3))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles, rng.integers(0, 6, size=4))
        out = geo.substitute(p1, p2, "verb_sub", cb)
        expected = np.concatenate([p2.indices[:3], p1.indices[2:3]])
        np.testing.assert_array_equal(out, expected)

    def test_no_shared_span_raises(self, cb):
        rng = np.random.default_rng(10)
        p1_sent = cg.make_is_a("shark", "fish")
        p2_sent = cg.make_is_a("oak", "tree")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles, rng.integers(0, 6, size=7))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles, rng.integers(0, 6, size=7))
        with pytest.raises(NoAnchorError):
            geo.substitute(p1, p2, "arg_sub", cb)

    def test_further_spec_appends_purpose_span(self, cb):
        rng = np.random.default_rng(11)
        p1_sent = cg.make_requires("deer", "food", "survive")
        p2_sent = cg.make_can("deer", "run")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles, rng.integers(0, 6, size=6))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles, rng.integers(0, 6, size=4))
        out = geo.substitute(p1, p2, "further_spec", cb)
        expected = np.concatenate([p2.indices, p1.indices[4:6]])
        np.testing.assert_array_equal(out, expected)

    def test_conjunction_joins_differing_spans(self, cb):
        rng = np.random.default_rng(12)
        p1_sent = cg.make_can("wolf", "run")
        p2_sent = cg.make_can("wolf", "hide")
        p1 = geo.SentenceLatents(p1_sent.tokens, p1_sent.roles, rng.integers(0, 6, size=4))
        p2 = geo.SentenceLatents(p2_sent.tokens, p2_sent.roles, rng.integers(0, 6, size=4))
        and_index = int(rng.integers(0, 6))
        out = geo.substitute(p1, p2, "conjunction", cb, and_index=and_index)
        expected = np.concatenate([p2.indices, [and_index], p1.indices[3:4]])
        np.testing.assert_array_equal(out, expected)

    def test_conjunction_requires_connective(self, premises, cb):
        p1, p2 = premises
        with pytest.raises(ContractError):
            geo.substitute(p1, p2, "conjunction", cb)

    def test_unknown_op(self, premises, cb):
        p1, p2 = premises
        with pytest.raises(ContractError):
            geo.substitute(p1, p2, "negate", cb)
