"""Quantizer contracts: nearest-entry selection, Gumbel sampling, the
three-term loss with straight-through gradients, and moving-average updates.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqlat import autodiff as ad
from vqlat import quantizer
from vqlat.autodiff import Tensor
from vqlat.errors import ContractError, ShapeError
from vqlat.quantizer import (
    Codebook,
    QuantizerConfig,
    ema_update,
    kl_to_uniform_prior,
    nearest_entries,
    pairwise_sq_dists,
    quantize_gumbel,
    quantize_kmeans,
    straight_through,
    vq_loss,
)

from tests.oracles import assert_grads_close, farthest_point_reference, nearest_entry_scan, sq_dists_scan


def make_codebook(entries, decay=0.99):
    return Codebook(np.asarray(entries, dtype=np.float32), decay=decay)


class TestQuantizeKmeans:
    def test_nearer_entry_wins(self):
        cb = make_codebook([[0.0, 0.0], [1.0, 1.0]])
        idx, q = quantize_kmeans(np.array([[0.9, 0.8]]), cb)
        assert idx.tolist() == [1]
        np.testing.assert_array_equal(q, [[1.0, 1.0]])

    def test_exact_entry_is_fixed_point(self):
        rng = np.random.default_rng(0)
        cb = make_codebook(rng.standard_normal((6, 4)))
        idx, q = quantize_kmeans(cb.entries[3:4].copy(), cb)
        assert idx.tolist() == [3]
        np.testing.assert_array_equal(q[0], cb.entries[3])

    def test_matches_linear_scan_on_random_cases(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k, dim, rows = rng.integers(1, 12), rng.integers(1, 6), rng.integers(1, 5)
            cb = make_codebook(rng.standard_normal((k, dim)))
            vecs = rng.standard_normal((rows, dim)).astype(np.float32)
            idx, q = quantize_kmeans(vecs, cb)
            for r in range(rows):
                expect = nearest_entry_scan(vecs[r], cb.entries)
                assert idx[r] == expect
                np.testing.assert_array_equal(q[r], cb.entries[expect])

    def test_duplicate_entries_pick_lowest_index(self):
        row = np.array([0.5, -0.25], dtype=np.float32)
        cb = make_codebook([[3.0, 3.0], row, row, [-2.0, 1.0]])
        idx, _ = quantize_kmeans(np.array([[0.51, -0.26]]), cb)
        assert idx.tolist() == [1]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        cb = make_codebook(rng.standard_normal((8, 3)))
        vecs = rng.standard_normal((5, 3)).astype(np.float32)
        idx1, q1 = quantize_kmeans(vecs, cb)
        idx2, q2 = quantize_kmeans(q1, cb)
        np.testing.assert_array_equal(q1, q2)

    def test_integer_embeddings_rejected(self):
        cb = make_codebook(np.zeros((2, 3)))
        with pytest.raises(ContractError):
            quantize_kmeans(np.zeros((1, 3), dtype=np.int64), cb)

    def test_width_mismatch(self):
        cb = make_codebook(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            quantize_kmeans(np.zeros((1, 4)), cb)

    def test_empty_codebook_rejected(self):
        with pytest.raises(ContractError):
            Codebook(np.zeros((0, 3)))


class TestPairwiseSqDists:
    # 512 x 64 entries give 4-row blocks; 2,100 x 64 exceed one block's 2**17
    # values, so every block holds a single row
    @pytest.mark.parametrize("k,dim", [(512, 64), (2100, 64)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_row_scan(self, k, dim, dtype):
        rng = np.random.default_rng(k)
        entries = rng.standard_normal((k, dim)).astype(dtype)
        block = max(1, 2**17 // (k * dim))
        for n in sorted({0, 1, block - 1, block, block + 1, 3 * block + 2}):
            vectors = rng.standard_normal((n, dim)).astype(dtype)
            got = pairwise_sq_dists(vectors, entries)
            want = sq_dists_scan(vectors, entries)
            assert got.dtype == want.dtype == dtype
            assert got.shape == (n, k) and got.tobytes() == want.tobytes(), n


# Inputs built to sit at the edges of the shortlist's error band.
NEAREST_CASES = ("random", "duplicates", "ulp_apart", "midpoints", "large_norm", "non_finite")


class TestNearestEntries:
    @settings(max_examples=400, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), case=st.sampled_from(NEAREST_CASES),
           k=st.integers(1, 24), dim=st.integers(1, 40), n=st.integers(0, 12),
           scale_exp=st.integers(-30, 30), seed=st.integers(0, 2**32 - 1))
    def test_equals_difference_form_argmin(self, dtype, case, k, dim, n, scale_exp, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** scale_exp
        entries = rng.standard_normal((k, dim)) * scale
        vectors = rng.standard_normal((n, dim)) * scale
        if case == "duplicates":
            entries = entries[rng.integers(0, k, size=k)]
        elif case == "midpoints":
            vectors = (entries[rng.integers(0, k, size=n)] + entries[rng.integers(0, k, size=n)]) / 2
        elif case == "large_norm":  # far from the origin, close to the entries
            shift = rng.standard_normal(dim) * scale * 1e4
            entries += shift
            vectors = entries[rng.integers(0, k, size=n)] + vectors * 1e-3
        entries, vectors = entries.astype(dtype), vectors.astype(dtype)
        if case == "ulp_apart":
            entries[1::2] = np.nextafter(entries[0::2][:k // 2], dtype(np.inf))
            vectors[: n // 2] = entries[rng.integers(0, k, size=n // 2)]
        elif case == "non_finite":
            vectors.flat[rng.integers(0, vectors.size, size=min(3, vectors.size))] = \
                rng.choice([np.nan, np.inf, -np.inf], size=min(3, vectors.size))
            if rng.random() < 0.3:
                entries[rng.integers(0, k), rng.integers(0, dim)] = np.nan
        with np.errstate(all="ignore"):
            want = np.argmin(sq_dists_scan(vectors, entries), axis=1)
            got = nearest_entries(vectors, entries)
        assert got.tolist() == want.tolist()

    def test_first_nan_index_for_non_finite_rows(self):
        entries = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0], [np.nan, 0.0]], dtype=np.float32)
        vectors = np.array([[1.9, 2.1], [np.nan, 0.0]], dtype=np.float32)
        assert nearest_entries(vectors, entries).tolist() == [1, 0]
        assert nearest_entries(vectors[1:], entries[[0, 2]]).tolist() == [0]

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_bound_decides_every_row_with_one_candidate(self, monkeypatch, duplicate):
        # rows sit close to their own entry of a well-separated codebook, so the
        # GEMM bound leaves a row undecided only when its entry has an exact twin
        rng = np.random.default_rng(18)
        entries = rng.standard_normal((512, 64)).astype(np.float32)
        if duplicate:
            entries[400] = entries[3]
        vectors = (entries[rng.integers(0, 512, size=1000)]
                   + 0.1 * rng.standard_normal((1000, 64))).astype(np.float32)
        calls = []

        def counting(rows, table):
            calls.append(rows)
            return pairwise_sq_dists(rows, table)

        monkeypatch.setattr(quantizer, "pairwise_sq_dists", counting)
        got = nearest_entries(vectors, entries)
        want = np.argmin(sq_dists_scan(vectors, entries), axis=1)
        assert got.tolist() == want.tolist()
        assert (want == 3).any()
        scanned = b"".join(rows.tobytes() for rows in calls)
        assert scanned == (vectors[want == 3].tobytes() if duplicate else b"")

    def test_memory_is_bounded_at_ten_thousand_entries(self):
        # the [N, K] float32 distance matrix alone would be 4096 * 10,000 * 4 = 164 MB
        rng = np.random.default_rng(10)
        codebook = make_codebook(rng.standard_normal((10_000, 64)))
        vectors = rng.standard_normal((4096, 64)).astype(np.float32)
        tracemalloc.start()
        try:
            indices, _ = quantize_kmeans(vectors, codebook)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak
        sample = rng.choice(4096, size=32, replace=False)
        want = np.argmin(sq_dists_scan(vectors[sample], codebook.entries), axis=1)
        assert indices[sample].tolist() == want.tolist()


# Inputs for seeding: repeated rows, a single repeated row (every d2 reaches 0),
# fewer distinct rows than entries, tight clusters far from the origin, and
# rows holding inf or NaN.
SEEDING_CASES = ("random", "duplicates", "identical", "few_distinct", "large_norm", "non_finite")


class TestInitFromData:
    @settings(max_examples=300, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), case=st.sampled_from(SEEDING_CASES),
           n=st.integers(1, 60), dim=st.integers(1, 24), k=st.integers(1, 80),
           scale_exp=st.integers(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_equals_full_scan_traversal(self, dtype, case, n, dim, k, scale_exp, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, dim)) * 10.0 ** scale_exp
        if case == "duplicates":
            data = data[rng.integers(0, n, size=n)]
        elif case == "identical":
            data[:] = data[0]
        elif case == "few_distinct":
            data = data[rng.integers(0, min(n, 3), size=n)]
        elif case == "large_norm":
            data = data * 1e-3 + rng.standard_normal(dim) * 10.0 ** scale_exp * 1e4
        data = data.astype(dtype)
        if case == "non_finite":
            data.flat[rng.integers(0, data.size, size=min(2, data.size))] = \
                rng.choice([np.nan, np.inf, -np.inf], size=min(2, data.size))
        with np.errstate(all="ignore"):
            want = farthest_point_reference(data, k, np.random.default_rng(seed))
            got = Codebook.init_from_data(data, k, np.random.default_rng(seed)).entries
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_full_scan_traversal_where_the_gemm_form_cancels(self, seed):
        # rows 1e-3 apart at 1e6 from the origin: the GEMM distances carry errors
        # far above the distances themselves, so only the bound's margin keeps
        # the rows whose d2 falls
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((60, 16)) * 1e-3 + rng.standard_normal(16) * 1e6
        want = farthest_point_reference(data, 40, np.random.default_rng(seed))
        np.testing.assert_array_equal(Codebook.init_from_data(data, 40, np.random.default_rng(seed)).entries,
                                      want)

    def test_well_separated_clusters_reach_the_exact_kernel_rarely(self, monkeypatch):
        rng = np.random.default_rng(19)
        means = rng.standard_normal((64, 32)) * 10
        data = means[rng.integers(0, 64, size=2000)] + 0.1 * rng.standard_normal((2000, 32))
        rows = []

        def counting(vectors, entries):
            rows.append(vectors.shape[0] * entries.shape[0])
            return pairwise_sq_dists(vectors, entries)

        monkeypatch.setattr(quantizer, "pairwise_sq_dists", counting)
        got = Codebook.init_from_data(data, 128, np.random.default_rng(2)).entries
        np.testing.assert_array_equal(got, farthest_point_reference(data, 128, np.random.default_rng(2)))
        assert 0 < sum(rows) < 0.1 * 2000 * 128

    @pytest.mark.parametrize("k", [0, -3])
    def test_fewer_than_one_entry_rejected(self, k):
        with pytest.raises(ContractError):
            Codebook.init_from_data(np.ones((4, 2)), k, np.random.default_rng(0))


class TestQuantizeGumbel:
    def test_near_one_hot_selects_mode(self):
        rng = np.random.default_rng(3)
        cb = make_codebook(np.eye(5, dtype=np.float32))
        scores = np.full((10_000, 5), 1e-9)
        scores[:, 0] = 1.0
        idx, _ = quantize_gumbel(scores, cb, tau=1.0, rng=rng)
        assert (idx == 0).mean() >= 0.999

    def test_temperature_does_not_change_argmax(self):
        rng = np.random.default_rng(4)
        cb = make_codebook(np.eye(6, dtype=np.float32))
        scores = rng.random((40, 6)) + 0.05
        noise = -np.log(-np.log(rng.random(scores.shape)))
        idx_a, _ = quantize_gumbel(scores, cb, tau=0.5, rng=rng, noise=noise)
        idx_b, _ = quantize_gumbel(scores, cb, tau=2.0, rng=rng, noise=noise)
        np.testing.assert_array_equal(idx_a, idx_b)

    def test_constant_score_rescale_does_not_change_argmax(self):
        rng = np.random.default_rng(5)
        cb = make_codebook(np.eye(4, dtype=np.float32))
        scores = rng.random((30, 4)) + 0.1
        noise = -np.log(-np.log(rng.random(scores.shape)))
        idx_a, _ = quantize_gumbel(scores, cb, tau=1.0, rng=rng, noise=noise)
        idx_b, _ = quantize_gumbel(scores * 7.5, cb, tau=1.0, rng=rng, noise=noise)
        np.testing.assert_array_equal(idx_a, idx_b)

    def test_uniform_scores_select_uniformly(self):
        rng = np.random.default_rng(6)
        cb = make_codebook(np.eye(4, dtype=np.float32))
        idx, _ = quantize_gumbel(np.ones((100_000, 4)), cb, tau=1.0, rng=rng)
        freqs = np.bincount(idx, minlength=4) / idx.size
        np.testing.assert_allclose(freqs, 0.25, atol=0.02)

    def test_invalid_temperature(self):
        cb = make_codebook(np.eye(2, dtype=np.float32))
        with pytest.raises(ContractError):
            quantize_gumbel(np.ones((1, 2)), cb, tau=0.0, rng=np.random.default_rng(0))

    def test_nonpositive_scores_rejected(self):
        cb = make_codebook(np.eye(2, dtype=np.float32))
        with pytest.raises(ContractError):
            quantize_gumbel(np.array([[1.0, 0.0]]), cb, tau=1.0, rng=np.random.default_rng(0))

    def test_nan_temperature_rejected(self):
        cb = make_codebook(np.eye(2, dtype=np.float32))
        with pytest.raises(ContractError, match="temperature"):
            quantize_gumbel(np.ones((1, 2)), cb, tau=float("nan"), rng=np.random.default_rng(0))

    def test_nan_scores_rejected(self):
        cb = make_codebook(np.eye(2, dtype=np.float32))
        with pytest.raises(ContractError, match="positive"):
            quantize_gumbel(np.array([[1.0, np.nan]]), cb, tau=1.0, rng=np.random.default_rng(0))


class TestVqLoss:
    def test_zero_residual_reduces_to_reconstruction(self):
        e = Tensor(np.ones((3, 2)), dtype=np.float64)
        ce = Tensor(np.asarray(1.25), dtype=np.float64)
        loss = vq_loss(e, e.data.copy(), ce, beta=0.25)
        assert loss.item() == pytest.approx(1.25)

    def test_arithmetic_with_ema_enabled(self):
        # ||E - z_q||^2 = 4, CE = 1, beta = 0.25 -> 1 + 0.25 * 4 = 2
        e = Tensor(np.array([[2.0, 0.0]]), dtype=np.float64)
        zq = np.array([[0.0, 0.0]])
        ce = Tensor(np.asarray(1.0), dtype=np.float64)
        loss = vq_loss(e, zq, ce, beta=0.25)
        assert loss.item() == pytest.approx(2.0)

    def test_straight_through_forward_equals_quantized(self):
        rng = np.random.default_rng(7)
        e = Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
        zq = rng.standard_normal((4, 3))
        st_out = straight_through(e, zq)
        np.testing.assert_array_equal(st_out.data, zq)

    def test_straight_through_backward_is_identity(self):
        rng = np.random.default_rng(8)
        e = Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
        zq = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 3))
        ad.backward(ad.sum_(ad.mul(straight_through(e, zq), Tensor(w, dtype=np.float64))))
        np.testing.assert_array_equal(e.grad, w)

    def test_composed_gradient_matches_finite_differences(self):
        # loss = f(straight_through(E)) + beta * ||E - sg(z_q)||^2, with f a
        # fixed quadratic standing in for the reconstruction term.  For the
        # finite-difference reference the stop-gradient captures are frozen
        # at their original values, which is exactly the function the
        # straight-through estimator differentiates.
        rng = np.random.default_rng(9)
        e = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=np.float64)
        zq = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))
        frozen_offset = zq - e.data.copy()

        st_out = straight_through(e, zq)
        recon = ad.sum_(ad.mul(ad.mul(st_out, st_out), Tensor(w, dtype=np.float64)))
        ad.backward(vq_loss(e, zq, recon, beta=0.25))

        def f():
            st_val = e.data + frozen_offset
            return float((st_val * st_val * w).sum() + 0.25 * ((e.data - zq) ** 2).sum())

        assert_grads_close(f, [e])
        # analytic form: dCE/dz passed through identity, plus 2*beta*(E - z_q)
        expected = 2.0 * w * zq + 2.0 * 0.25 * (e.data - zq)
        np.testing.assert_allclose(e.grad, expected, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_composed_gradient_random_shapes(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows, dim = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        e = Tensor(rng.standard_normal((rows, dim)), requires_grad=True, dtype=np.float64)
        zq = rng.standard_normal((rows, dim))
        w = rng.standard_normal((rows, dim))
        beta = float(rng.uniform(0.05, 0.9))
        frozen_offset = zq - e.data.copy()

        recon = ad.sum_(ad.mul(straight_through(e, zq), Tensor(w, dtype=np.float64)))
        ad.backward(vq_loss(e, zq, recon, beta=beta))

        def f():
            return float(((e.data + frozen_offset) * w).sum() + beta * ((e.data - zq) ** 2).sum())

        assert_grads_close(f, [e])


class TestEmaUpdate:
    def test_zero_decay_reduces_to_batch_mean(self):
        cb = Codebook(np.zeros((1, 2), dtype=np.float32), decay=0.0)
        ema_update(cb, np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0, 0]))
        assert cb.counts[0] == pytest.approx(2.0)
        np.testing.assert_allclose(cb.sums[0], [2.0, 2.0])
        np.testing.assert_allclose(cb.entries[0], [1.0, 1.0])

    def test_single_step_update_values(self):
        cb = Codebook(np.array([[1.0, 0.0]], dtype=np.float32), decay=0.99,
                      counts=np.array([10.0]), sums=np.array([[10.0, 0.0]]))
        ema_update(cb, np.array([[1.0, 1.0]]), np.array([0]))
        assert cb.counts[0] == pytest.approx(9.91)
        np.testing.assert_allclose(cb.sums[0], [9.91, 0.01])
        np.testing.assert_allclose(cb.entries[0], np.array([9.91, 0.01]) / 9.91, rtol=1e-6)

    def test_unassigned_entries_keep_position(self):
        cb = Codebook(np.array([[1.0, 2.0], [5.0, 5.0]], dtype=np.float32), decay=0.9)
        before = cb.entries[1].copy()
        ema_update(cb, np.array([[1.0, 2.0]]), np.array([0]))
        np.testing.assert_allclose(cb.entries[1], before, rtol=1e-6)
        assert cb.counts[1] == pytest.approx(0.9)

    def test_ratio_invariant_after_updates(self):
        rng = np.random.default_rng(10)
        cb = Codebook(rng.standard_normal((6, 3)).astype(np.float32), decay=0.95)
        for _ in range(20):
            batch = rng.standard_normal((32, 3))
            idx, _ = quantize_kmeans(batch.astype(np.float32), cb)
            ema_update(cb, batch, idx)
        live = cb.counts >= 1e-3
        np.testing.assert_allclose(cb.entries[live],
                                   (cb.sums[live] / cb.counts[live, None]).astype(np.float32),
                                   rtol=1e-5)

    def test_planted_clusters_recovered_bijectively(self):
        rng = np.random.default_rng(11)
        dim, k = 16, 8
        means = rng.standard_normal((k, dim))
        means *= 2.0 / np.linalg.norm(means[0] - means[1])  # enforce generous separation
        sep = min(np.linalg.norm(means[i] - means[j]) for i in range(k) for j in range(i + 1, k))
        assert sep >= 1.0
        first = means[rng.integers(0, k, size=256)] + 0.05 * rng.standard_normal((256, dim))
        cb = Codebook.init_from_data(first, k, rng, decay=0.99)
        for _ in range(200):
            batch = means[rng.integers(0, k, size=256)] + 0.05 * rng.standard_normal((256, dim))
            idx, _ = quantize_kmeans(batch.astype(np.float32), cb)
            ema_update(cb, batch, idx)
        matched = set()
        for entry in cb.entries:
            dists = np.linalg.norm(means - entry, axis=1)
            j = int(np.argmin(dists))
            assert dists[j] < 0.05
            matched.add(j)
        assert matched == set(range(k))

    def test_dead_entry_reseeded_from_batch(self):
        cb = Codebook(np.array([[0.0, 0.0], [100.0, 100.0]], dtype=np.float32), decay=0.5,
                      counts=np.array([1.0, 1e-3]), sums=np.array([[0.0, 0.0], [0.1, 0.1]]))
        batch = np.array([[1.0, 1.0], [2.0, 2.0]])
        ema_update(cb, batch, np.array([0, 0]))
        assert cb.counts[1] == pytest.approx(1.0)
        assert any(np.allclose(cb.entries[1], row) for row in batch)


class TestKlConstant:
    def test_matches_log_k(self):
        assert kl_to_uniform_prior(10_000) == pytest.approx(9.2103, abs=1e-4)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_always_log_k(self, k):
        assert kl_to_uniform_prior(k) == pytest.approx(math.log(k), rel=1e-12)


class TestQuantizerConfig:
    def test_rejects_large_beta(self):
        with pytest.raises(ContractError):
            QuantizerConfig(commitment_beta=1.0)

    def test_rejects_bad_scheme(self):
        for scheme in ("argmax", "gumbel"):
            with pytest.raises(ContractError):
                QuantizerConfig(scheme=scheme)

    def test_round_trips_through_dict(self):
        cfg = QuantizerConfig(commitment_beta=0.5)
        assert QuantizerConfig.from_dict(cfg.to_dict()) == cfg
