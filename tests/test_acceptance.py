"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria are quantitative fixtures at toy scale plus property checks; every
tolerance is pinned here.  Trained fixtures are session-scoped (see
conftest) so training cost is paid once.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vqlat import autodiff as ad
from vqlat import corpus as cg
from vqlat import geometry as geo
from vqlat import tree as tc
from vqlat.autodiff import Tensor
from vqlat.cli import main
from vqlat.quantizer import (
    Codebook,
    ema_update,
    kl_to_uniform_prior,
    quantize_gumbel,
    quantize_kmeans,
    straight_through,
    vq_loss,
)
from vqlat.training import (
    exact_match_rate,
    load_bundle,
    save_bundle,
    sentences_to_ids,
    token_accuracy,
)

from tests.oracles import (
    assert_grads_close,
    fit_tree_bruteforce,
    min_permutation_cost,
    nearest_entry_scan,
    predict_tree_bruteforce,
    relative_error,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


# -- 1: gradient suite ---------------------------------------------------------


def _gradient_sweeps():
    """(name, builder) pairs; builder(rng) returns (loss_fn, leaves).

    loss_fn rebuilds the forward pass from current leaf data and returns a
    float, with any stop-gradient captures frozen once at build time.
    """

    def leaf(rng, *shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)

    def elementwise(op, npop):
        def build(rng):
            shape = tuple(rng.integers(1, 5, size=int(rng.integers(1, 4))))
            a, b = leaf(rng, *shape), leaf(rng, *shape)
            return lambda: float(npop(a.data, b.data).sum()), [a, b], lambda: ad.sum_(op(a, b))
        return build

    def matmul_build(rng):
        m, k, n = (int(v) for v in rng.integers(1, 6, size=3))
        a, b = leaf(rng, m, k), leaf(rng, k, n)
        return lambda: float((a.data @ b.data).sum()), [a, b], lambda: ad.sum_(ad.matmul(a, b))

    def softmax_build(rng):
        r, c = (int(v) for v in rng.integers(1, 6, size=2))
        x = leaf(rng, r, c)
        w = rng.standard_normal((r, c))

        def ref():
            e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
            return float(((e / e.sum(axis=-1, keepdims=True)) * w).sum())

        return ref, [x], lambda: ad.sum_(ad.mul(ad.softmax(x), Tensor(w, dtype=np.float64)))

    def layer_norm_build(rng):
        r, d = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        x, g, b = leaf(rng, r, d), leaf(rng, d), leaf(rng, d)
        w = rng.standard_normal((r, d))

        def ref():
            mu = x.data.mean(-1, keepdims=True)
            xc = x.data - mu
            inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + 1e-5)
            return float(((xc * inv) * g.data * w + b.data * w).sum())

        return ref, [x, g, b], lambda: ad.sum_(ad.mul(ad.layer_norm(x, g, b),
                                                      Tensor(w, dtype=np.float64)))

    def embedding_build(rng):
        v, d = int(rng.integers(3, 8)), int(rng.integers(2, 5))
        ids = rng.integers(0, v, size=int(rng.integers(1, 6)))
        table = leaf(rng, v, d)
        return (lambda: float(table.data[ids].sum()), [table],
                lambda: ad.sum_(ad.embedding_lookup(table, ids)))

    def ce_build(rng):
        n, v = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        logits = leaf(rng, n, v)
        targets = rng.integers(0, v, size=n)

        def ref():
            m = logits.data.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(logits.data - m).sum(axis=1))
            return float(np.mean(lse - logits.data[np.arange(n), targets]))

        return ref, [logits], lambda: ad.cross_entropy_with_logits(logits, targets)

    def relu_build(rng):
        shape = tuple(rng.integers(1, 6, size=2))
        x = leaf(rng, *shape)
        x.data[np.abs(x.data) < 1e-3] += 0.1
        return (lambda: float(np.maximum(x.data, 0).sum()), [x],
                lambda: ad.sum_(ad.relu(x)))

    def reshape_transpose_build(rng):
        a, b = (int(v) for v in rng.integers(1, 5, size=2))
        x = leaf(rng, a, b)
        w = rng.standard_normal((b, a))
        return (lambda: float((x.data.T * w).sum()), [x],
                lambda: ad.sum_(ad.mul(ad.transpose(ad.reshape(x, (a, b)), (1, 0)),
                                       Tensor(w, dtype=np.float64))))

    def mean_build(rng):
        shape = tuple(rng.integers(1, 5, size=2))
        axis = int(rng.integers(0, 2))
        x = leaf(rng, *shape)
        w = rng.standard_normal(np.mean(np.zeros(shape), axis=axis).shape)
        return (lambda: float((x.data.mean(axis=axis) * w).sum()), [x],
                lambda: ad.sum_(ad.mul(ad.mean_(x, axis=axis), Tensor(w, dtype=np.float64))))

    def dropout_build(rng):
        shape = tuple(rng.integers(2, 6, size=2))
        x = leaf(rng, *shape)
        mask_rng = np.random.default_rng(int(rng.integers(2**31)))
        out = ad.dropout(x, 0.3, mask_rng, training=True)
        keep = (out.data != 0) | (x.data == 0)
        scale = np.where(keep, 1.0 / 0.7, 0.0)
        return (lambda: float((x.data * scale).sum()), [x], None, out)

    def straight_through_build(rng):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        e = Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)
        zq = rng.standard_normal(shape)
        w = rng.standard_normal(shape)
        frozen = zq - e.data.copy()
        return (lambda: float(((e.data + frozen) * w).sum()), [e],
                lambda: ad.sum_(ad.mul(straight_through(e, zq), Tensor(w, dtype=np.float64))))

    def vq_loss_build(rng):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        e = Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)
        zq = rng.standard_normal(shape)
        w = rng.standard_normal(shape)
        beta = float(rng.uniform(0.05, 0.9))
        frozen = zq - e.data.copy()

        def ref():
            return float(((e.data + frozen) * w).sum() + beta * ((e.data - zq) ** 2).sum())

        def build_loss():
            recon = ad.sum_(ad.mul(straight_through(e, zq), Tensor(w, dtype=np.float64)))
            return vq_loss(e, zq, recon, beta)

        return ref, [e], build_loss

    def mlp_build(rng):
        x = rng.standard_normal((3, 4))
        w1, b1 = leaf(rng, 4, 6), leaf(rng, 6)
        w2, b2 = leaf(rng, 6, 3), leaf(rng, 3)
        targets = rng.integers(0, 3, size=3)

        def build_loss():
            h = ad.relu(ad.add(ad.matmul(Tensor(x, dtype=np.float64), w1), b1))
            return ad.cross_entropy_with_logits(ad.add(ad.matmul(h, w2), b2), targets)

        def ref():
            h = np.maximum(x @ w1.data + b1.data, 0)
            logits = h @ w2.data + b2.data
            m = logits.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
            return float(np.mean(lse - logits[np.arange(3), targets]))

        return ref, [w1, b1, w2, b2], build_loss

    return [
        ("add", elementwise(ad.add, np.add)),
        ("sub", elementwise(ad.sub, np.subtract)),
        ("mul", elementwise(ad.mul, np.multiply)),
        ("matmul", matmul_build),
        ("softmax", softmax_build),
        ("layer_norm", layer_norm_build),
        ("embedding_lookup", embedding_build),
        ("cross_entropy", ce_build),
        ("relu", relu_build),
        ("reshape_transpose", reshape_transpose_build),
        ("mean", mean_build),
        ("dropout", dropout_build),
        ("straight_through", straight_through_build),
        ("vq_loss_composed", vq_loss_build),
        ("mlp_composed", mlp_build),
    ]


def test_criterion_01_gradient_suite():
    with criterion(1, "gradient suite matches finite differences (rel err < 1e-4, < 2 min)"):
        start = time.monotonic()
        for name, builder in _gradient_sweeps():
            for shape_seed in range(20):
                rng = np.random.default_rng(hash((name, shape_seed)) % 2**31)
                built = builder(rng)
                if len(built) == 4:  # pre-built graph (fixed dropout mask)
                    ref, leaves, _, out = built
                    ad.backward(ad.sum_(out))
                else:
                    ref, leaves, build_loss = built
                    ad.backward(build_loss())
                assert_grads_close(ref, leaves, rel_tol=1e-4, h=1e-5)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


# -- 2: quantizer oracle ---------------------------------------------------------


def test_criterion_02_quantizer_oracle():
    with criterion(2, "kmeans quantization equals brute-force scan on 1000 cases"):
        rng = np.random.default_rng(2024)
        for case in range(1000):
            k = int(rng.integers(1, 16))
            dim = int(rng.integers(1, 8))
            entries = rng.standard_normal((k, dim)).astype(np.float32)
            if case % 5 == 0 and k >= 2:
                dup_from, dup_to = rng.integers(0, k, size=2)
                entries[dup_to] = entries[dup_from]  # exact tie pair
            codebook = Codebook(entries)
            vectors = rng.standard_normal((int(rng.integers(1, 5)), dim)).astype(np.float32)
            if case % 7 == 0:
                vectors[0] = entries[int(rng.integers(k))]  # zero-distance case
            indices, quantized = quantize_kmeans(vectors, codebook)
            for row in range(vectors.shape[0]):
                expect = nearest_entry_scan(vectors[row], entries)
                assert indices[row] == expect, f"case {case} row {row}"
                assert np.array_equal(quantized[row], entries[expect])


# -- 3: EMA convergence ------------------------------------------------------------


def test_criterion_03_ema_planted_clusters():
    with criterion(3, "EMA recovers 8 planted clusters bijectively within 0.05 (< 30 s)"):
        start = time.monotonic()
        rng = np.random.default_rng(7)
        dim, k = 16, 8
        while True:
            means = rng.standard_normal((k, dim))
            sep = min(np.linalg.norm(means[i] - means[j])
                      for i in range(k) for j in range(i + 1, k))
            if sep >= 1.0:
                break
        batch = means[rng.integers(0, k, size=256)] + 0.05 * rng.standard_normal((256, dim))
        codebook = Codebook.init_from_data(batch, k, rng, decay=0.99)
        for _ in range(200):
            batch = means[rng.integers(0, k, size=256)] + 0.05 * rng.standard_normal((256, dim))
            indices, _ = quantize_kmeans(batch.astype(np.float32), codebook)
            ema_update(codebook, batch, indices)
        matched = set()
        for entry in codebook.entries:
            dists = np.linalg.norm(means - entry, axis=1)
            nearest = int(np.argmin(dists))
            assert dists[nearest] < 0.05
            matched.add(nearest)
        assert matched == set(range(k))
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"EMA test took {elapsed:.1f}s"


# -- 4: KL constant ---------------------------------------------------------------


def test_criterion_04_kl_constant():
    with criterion(4, "posterior/uniform-prior KL equals log K (9.2103 at K=10000)"):
        assert kl_to_uniform_prior(10_000) == pytest.approx(9.2103, abs=1e-4)
        for k in (1, 2, 512, 10_000):
            assert kl_to_uniform_prior(k) == pytest.approx(np.log(k), rel=1e-12)


# -- 5: Gumbel properties ------------------------------------------------------------


def test_criterion_05_gumbel_properties():
    with criterion(5, "gumbel selection: tau-invariant argmax, calibrated frequencies"):
        rng = np.random.default_rng(11)
        codebook = Codebook(np.eye(4, dtype=np.float32))
        scores = rng.random((64, 4)) + 0.05
        noise = -np.log(-np.log(rng.random(scores.shape)))
        for tau in (0.1, 0.5, 2.0, 10.0):
            idx, _ = quantize_gumbel(scores, codebook, tau, rng, noise=noise)
            base, _ = quantize_gumbel(scores, codebook, 1.0, rng, noise=noise)
            np.testing.assert_array_equal(idx, base)

        idx, _ = quantize_gumbel(np.ones((100_000, 4)), codebook, 1.0,
                                 np.random.default_rng(12))
        freqs = np.bincount(idx, minlength=4) / idx.size
        assert np.abs(freqs - 0.25).max() < 0.02

        hot = np.full((10_000, 4), 1e-9)
        hot[:, 2] = 1.0
        idx, _ = quantize_gumbel(hot, codebook, 1.0, np.random.default_rng(13))
        assert (idx == 2).mean() >= 0.999


# -- 6: training fixtures -------------------------------------------------------------


def test_criterion_06_training_fixture(trained_fixture, memorization_fixture, tmp_path):
    with criterion(6, "500-sentence fixture: token acc >= 0.95, exact >= 0.80, <= 50 epochs; "
                      "memorization exact = 1.0 (< 2 min)"):
        bundle = trained_fixture["bundle"]
        assert len(trained_fixture["log"]) <= 50
        assert trained_fixture["seconds"] < 1800.0
        assert bundle.config.d_model == 64
        assert bundle.codebook.size == 512
        acc = token_accuracy(bundle, trained_fixture["tokens"])
        assert acc >= 0.95, f"token accuracy {acc:.4f}"
        ids = sentences_to_ids(trained_fixture["tokens"], bundle.vocab)
        exact = exact_match_rate(bundle, ids)
        assert exact >= 0.80, f"exact match {exact:.4f}"

        assert memorization_fixture["seconds"] < 120.0
        mem_bundle = memorization_fixture["bundle"]
        mem_ids = sentences_to_ids(memorization_fixture["tokens"], mem_bundle.vocab)
        assert exact_match_rate(mem_bundle, mem_ids) == 1.0

        # the reconstruction command on the memorization checkpoint reports 1.0
        ckpt = tmp_path / "memo.ckpt"
        corpus_path = tmp_path / "memo.txt"
        save_bundle(ckpt, mem_bundle)
        cg.save_corpus(corpus_path, memorization_fixture["sentences"])
        out = tmp_path / "report"
        assert main(["reconstruct", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                     "--out", str(out)]) == 0
        report = (out / "reconstruct.txt").read_text()
        assert "exact_match\t1.000000" in report


# -- 7: interpolation suite ------------------------------------------------------------


def test_criterion_07_interpolation_suite(trained_fixture):
    with criterion(7, "interpolation: entries exact, endpoints match, IS <= 1 + 1e-9; "
                      "wmd equals permutation oracle"):
        bundle = trained_fixture["bundle"]
        tokens = trained_fixture["tokens"]
        codebook = bundle.codebook
        pad = bundle.end_token_index()
        rng = np.random.default_rng(77)

        def smoothness(steps):
            decoded = bundle.decode_words(steps)
            distinct = list(dict.fromkeys(tuple(words) for words in decoded))
            embeddings = dict(zip(distinct, bundle.wmd_embeddings(distinct)))
            return geo.interpolation_smoothness(decoded, embeddings)

        scores = []
        for _ in range(100):
            i, j = int(rng.integers(len(tokens))), int(rng.integers(len(tokens)))
            src_idx, _ = bundle.quantize_words(tokens[i])
            tgt_idx, _ = bundle.quantize_words(tokens[j])
            [steps] = geo.interpolate([(src_idx, tgt_idx)], codebook, pad)
            for indices in steps:
                assert np.issubdtype(indices.dtype, np.integer)
                assert ((0 <= indices) & (indices < codebook.size)).all()
            length = max(len(tokens[i]), len(tokens[j]))
            assert steps[0].shape[0] == length
            np.testing.assert_array_equal(steps[0][:len(tokens[i])], src_idx)
            np.testing.assert_array_equal(steps[-1][:len(tokens[j])], tgt_idx)
            score = smoothness(steps)
            assert score <= 1 + 1e-9
            scores.append(score)
        print(f"    interpolation smoothness over 100 pairs: "
              f"avg {np.mean(scores):.3f} max {np.max(scores):.3f} min {np.min(scores):.3f}")

        # source == target collapses to the degenerate path
        src_idx, _ = bundle.quantize_words(tokens[0])
        [steps] = geo.interpolate([(src_idx, src_idx.copy())], codebook, pad)
        assert smoothness(steps) == 1.0

        for case in range(30):
            case_rng = np.random.default_rng(1000 + case)
            n = int(case_rng.integers(1, 5))
            a = case_rng.standard_normal((n, 6))
            b = case_rng.standard_normal((n, 6))
            assert geo.wmd(a, b) == pytest.approx(min_permutation_cost(a, b), abs=1e-9)


# -- 8: tree suite ------------------------------------------------------------------


def test_criterion_08_tree_suite(region_fixture):
    with criterion(8, "CART oracle equivalence; separability >= 0.95; "
                      "cause->mean consistency >= 0.60"):
        for seed in range(3):
            rng = np.random.default_rng(3000 + seed)
            points = rng.standard_normal((200, 8))
            labels = [int(p[0] + 0.5 * p[3] - 0.2 * p[5] > 0) for p in points]
            tree = tc.fit_tree(points, labels, max_depth=3, min_leaf=1)
            oracle = fit_tree_bruteforce(points.tolist(), labels, max_depth=3, min_leaf=1)
            probes = np.concatenate([points, rng.standard_normal((100, 8))])
            assert tc.predict(tree, probes) == \
                [predict_tree_bruteforce(oracle, p) for p in probes.tolist()]

        rng = np.random.default_rng(3100)
        centers = np.zeros((2, 16))
        centers[1, :4] = 1.0  # separation 2.0 against sigma 0.25
        train_pts = np.concatenate([centers[0] + 0.25 * rng.standard_normal((100, 16)),
                                    centers[1] + 0.25 * rng.standard_normal((100, 16))])
        train_labels = [0] * 100 + [1] * 100
        held_pts = np.concatenate([centers[0] + 0.25 * rng.standard_normal((100, 16)),
                                   centers[1] + 0.25 * rng.standard_normal((100, 16))])
        held_labels = [0] * 100 + [1] * 100
        tree = tc.fit_tree(train_pts, train_labels, max_depth=6, min_leaf=5)
        metrics = tc.tree_metrics(tree, held_pts, held_labels, positive_label=1)
        assert metrics["separability"] >= 0.95, metrics

        bundle = region_fixture["bundle"]
        cause, mean = region_fixture["cause"], region_fixture["mean"]
        pooled, labels, cache = [], [], {}
        for sentence, label in [(s, "causes") for s in cause] + [(s, "means") for s in mean]:
            rows = bundle.encode_words(sentence.tokens)
            cache[sentence.text()] = rows
            pooled.append(rows.mean(axis=0))
            labels.append(label)
        pooled = np.stack(pooled)
        tree = tc.fit_tree(pooled, labels, max_depth=6, min_leaf=5)
        path = tc.extract_path(tree, "means")
        margins = tc.default_margins(pooled) * 64.0
        assert len(cause) == 100
        finals = bundle.decode_words([tc.guided_move(cache[s.text()], path, margins,
                                                     bundle.codebook)[-1] for s in cause])
        consistency = tc.cross_region_consistency(finals, cg.extract_relation, "means")
        print(f"    cause->mean cross-region consistency: {consistency:.2f}")
        assert consistency >= 0.60, f"consistency {consistency:.3f}"


# -- 9: substitution suite -----------------------------------------------------------


def test_criterion_09_substitution_suite(inference_fixture):
    with criterion(9, "arg/verb substitution exact-match >= 0.8 over 100 instances; "
                      "shark chain verbatim"):
        bundle = inference_fixture["bundle"]
        instances = inference_fixture["instances"]
        assert len(instances) == 100

        def run(inst):
            p1 = geo.SentenceLatents(inst.premise1.tokens, inst.premise1.roles,
                                     bundle.quantize_words(inst.premise1.tokens)[0])
            p2 = geo.SentenceLatents(inst.premise2.tokens, inst.premise2.roles,
                                     bundle.quantize_words(inst.premise2.tokens)[0])
            return bundle.decode_words([geo.substitute(p1, p2, inst.op, bundle.codebook)])[0]

        hits = sum(run(inst) == inst.conclusion.tokens for inst in instances)
        rate = hits / len(instances)
        print(f"    substitution exact-match: {rate:.2f}")
        assert rate >= 0.8, f"substitution exact-match {rate:.3f}"

        shark = instances[0]
        assert shark.premise1.tokens == ["a", "shark", "is", "a", "kind", "of", "fish"]
        assert run(shark) == ["a", "shark", "is", "a", "kind", "of", "aquatic", "animal"]


# -- 10: persistence ------------------------------------------------------------------


def test_criterion_10_persistence(memorization_fixture, tmp_path):
    with criterion(10, "bit-exact checkpoint and tree round-trips; "
                       "byte-identical reports under one seed"):
        bundle = memorization_fixture["bundle"]
        ckpt = tmp_path / "model.ckpt"
        save_bundle(ckpt, bundle)
        raw = ckpt.read_bytes()
        save_bundle(ckpt, load_bundle(ckpt))
        assert ckpt.read_bytes() == raw

        rng = np.random.default_rng(42)
        points = rng.standard_normal((60, 4))
        labels = [int(p[0] > 0) for p in points]
        tree = tc.fit_tree(points, labels, max_depth=4, min_leaf=2)
        tree_path = tmp_path / "tree.json"
        tc.save_tree(tree_path, tree)
        tree_raw = tree_path.read_bytes()
        tc.save_tree(tree_path, tc.load_tree(tree_path))
        assert tree_path.read_bytes() == tree_raw

        corpus_path = tmp_path / "corpus.txt"
        cg.save_corpus(corpus_path, memorization_fixture["sentences"])
        config = {"seed": 5, "corpus": str(corpus_path), "out_dir": "",
                  "model": {"d_model": 16, "n_heads": 2, "max_len": 16},
                  "schedule": {"epochs": 2, "batch_size": 8, "lr": 0.002,
                               "codebook_size": 16, "codebook_decay": 0.9}}
        for name in ("runA", "runB"):
            config["out_dir"] = str(tmp_path / name)
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(config))
            assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "runA" / "checkpoint.ckpt").read_bytes() == \
            (tmp_path / "runB" / "checkpoint.ckpt").read_bytes()
        assert (tmp_path / "runA" / "loss_log.csv").read_bytes() == \
            (tmp_path / "runB" / "loss_log.csv").read_bytes()

        for name in ("repA", "repB"):
            assert main(["reconstruct", "--checkpoint", str(ckpt),
                         "--corpus", str(corpus_path), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "repA" / "reconstruct.txt").read_bytes() == \
            (tmp_path / "repB" / "reconstruct.txt").read_bytes()
