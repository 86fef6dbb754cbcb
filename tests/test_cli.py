"""End-to-end command tests: file outputs, determinism, and exit codes."""

import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vqlat import autodiff as ad
from vqlat import corpus as cg
from vqlat import geometry as geo
from vqlat import quantizer
from vqlat import tree as tc
from vqlat.cli import load_run_config, main
from vqlat.errors import ContractError
from vqlat.reports import fmt
from vqlat.training import (ModelBundle, load_bundle, read_checkpoint_bytes, save_bundle,
                            sentences_to_ids, write_checkpoint_bytes)

from tests.commands import PREMISES, generator_commands, latent_commands, run_each
from tests.conftest import train_bundle
from tests.identity import differences
from tests.oracles import (BUILDERS_BY_HAND, attention_chain, greedy_generate_one,
                           inference_instances_by_hand, interpolate_per_step, linear_chain,
                           reconstruct_greedy_all, sq_dists_scan, wmd_by_assignment)


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    sentences = cg.generate_sentences(5, 20)
    # guarantee both predicate regions are populated for the tree command
    for event in cg.EVENTS[:4]:
        for effect in cg.EFFECTS[:3]:
            sentences.append(cg.make_causes(event, effect))
            sentences.append(cg.make_means_nn(event, effect))
    bundle, _ = train_bundle([s.tokens for s in sentences], seed=1, epochs=40,
                             codebook_size=64, d_model=32)
    ckpt = root / "model.ckpt"
    save_bundle(ckpt, bundle)
    corpus_path = root / "corpus.txt"
    cg.save_corpus(corpus_path, sentences)
    return {"ckpt": str(ckpt), "corpus": str(corpus_path), "sentences": sentences}


class TestGenCorpus:
    def test_grammar_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["gen-corpus", "--kind", "grammar", "--seed", "3",
                     "--count", "50", "--out", str(out1)]) == 0
        assert main(["gen-corpus", "--kind", "grammar", "--seed", "3",
                     "--count", "50", "--out", str(out2)]) == 0
        assert (out1 / "sentences.txt").read_bytes() == (out2 / "sentences.txt").read_bytes()
        assert sorted(p.name for p in out1.iterdir()) == ["sentences.txt"]
        assert len(cg.load_corpus(out1 / "sentences.txt")) == 50

    def test_math_outputs_all_splits(self, tmp_path):
        assert main(["gen-corpus", "--kind", "math", "--seed", "1",
                     "--count", "20", "--out", str(tmp_path)]) == 0
        for split in cg.MATH_SPLITS:
            assert (tmp_path / f"math_{split}.txt").exists()


class TestTrain:
    def write_config(self, tmp_path, corpus, epochs=2, out_name="run"):
        config = {
            "seed": 7,
            "corpus": str(corpus),
            "out_dir": str(tmp_path / out_name),
            "model": {"d_model": 16, "n_heads": 2, "max_len": 16},
            "quantizer": {},
            "schedule": {"epochs": epochs, "batch_size": 8, "lr": 0.002,
                         "codebook_size": 16, "codebook_decay": 0.9},
        }
        path = tmp_path / f"{out_name}.json"
        path.write_text(json.dumps(config))
        return path

    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path, tiny_ckpt):
        cfg = self.write_config(tmp_path, tiny_ckpt["corpus"], epochs=0)
        assert main(["train", "--config", str(cfg)]) == 0
        log = (tmp_path / "run" / "loss_log.csv").read_text()
        assert log == "epoch,ce,commit,token_acc\n"
        cfg2 = self.write_config(tmp_path, tiny_ckpt["corpus"], epochs=0, out_name="run2")
        assert main(["train", "--config", str(cfg2)]) == 0
        assert (tmp_path / "run" / "checkpoint.ckpt").read_bytes() == \
            (tmp_path / "run2" / "checkpoint.ckpt").read_bytes()

    def test_training_writes_log_rows(self, tmp_path, tiny_ckpt):
        cfg = self.write_config(tmp_path, tiny_ckpt["corpus"], epochs=3)
        assert main(["train", "--config", str(cfg)]) == 0
        lines = (tmp_path / "run" / "loss_log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,ce,commit,token_acc"
        assert len(lines) == 4

    def test_env_override_changes_seed(self, tmp_path, tiny_ckpt, monkeypatch):
        cfg = self.write_config(tmp_path, tiny_ckpt["corpus"], epochs=1)
        monkeypatch.setenv("VQL_SEED", "99")
        assert main(["train", "--config", str(cfg)]) == 0
        monkeypatch.delenv("VQL_SEED")
        cfg2 = self.write_config(tmp_path, tiny_ckpt["corpus"], epochs=1, out_name="run2")
        assert main(["train", "--config", str(cfg2)]) == 0
        assert (tmp_path / "run" / "checkpoint.ckpt").read_bytes() != \
            (tmp_path / "run2" / "checkpoint.ckpt").read_bytes()

    def test_flag_overrides_env(self, tmp_path, tiny_ckpt, monkeypatch):
        monkeypatch.setenv("VQL_EPOCHS", "5")
        cfg = self.write_config(tmp_path, tiny_ckpt["corpus"], epochs=2)
        assert main(["train", "--config", str(cfg), "--epochs", "1"]) == 0
        lines = (tmp_path / "run" / "loss_log.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_leading_blank_lines_keep_the_grammar_format(self, tmp_path, tiny_ckpt):
        padded = tmp_path / "padded.txt"
        padded.write_bytes(b"\n  \n" + Path(tiny_ckpt["corpus"]).read_bytes())
        for name, corpus in (("plain", tiny_ckpt["corpus"]), ("padded", padded)):
            cfg = self.write_config(tmp_path, corpus, epochs=1, out_name=name)
            assert main(["train", "--config", str(cfg)]) == 0
            assert main(["reconstruct", "--checkpoint", tiny_ckpt["ckpt"], "--corpus", str(corpus),
                         "--out", str(tmp_path / name)]) == 0
        for output in ("checkpoint.ckpt", "loss_log.csv", "reconstruct.txt"):
            assert (tmp_path / "padded" / output).read_bytes() == \
                (tmp_path / "plain" / output).read_bytes(), output

    def test_missing_corpus_is_contract_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"corpus": str(tmp_path / "nope.txt"),
                                   "out_dir": str(tmp_path)}))
        assert main(["train", "--config", str(cfg)]) == 3


# Each edit turns a valid run config into one `vqlat train` must refuse.
BAD_RUN_CONFIGS = [
    ("unknown_key", lambda c: {**c, "epoch": 2}),
    ("unknown_section_key", lambda c: {**c, "model": {**c["model"], "dmodel": 16}}),
    ("missing_epochs", lambda c: {**c, "schedule": {k: v for k, v in c["schedule"].items()
                                                    if k != "epochs"}}),
    ("non_object_section", lambda c: {**c, "quantizer": ["kmeans"]}),
    ("non_object_config", lambda c: [c]),
    ("mistyped_value", lambda c: {**c, "schedule": {**c["schedule"], "epochs": "2"}}),
    ("not_json", lambda c: json.dumps(c)[:-1]),
    ("gumbel_scheme", lambda c: {**c, "quantizer": {"scheme": "gumbel"}}),
    ("ema_off", lambda c: {**c, "quantizer": {"use_ema": False}}),
    ("non_finite_loss", lambda c: {**c, "schedule": {**c["schedule"], "lr": 1e9}}),
    ("zero_batch_size", lambda c: {**c, "schedule": {**c["schedule"], "batch_size": 0}}),
    ("negative_batch_size", lambda c: {**c, "schedule": {**c["schedule"], "batch_size": -2}}),
    ("zero_check_every", lambda c: {**c, "schedule": {**c["schedule"], "check_every": 0,
                                                      "target_exact_match": 0.5}}),
    ("target_above_one", lambda c: {**c, "schedule": {**c["schedule"], "target_exact_match": 5}}),
    ("negative_target", lambda c: {**c, "schedule": {**c["schedule"], "target_exact_match": -1}}),
    ("nan_target", lambda c: {**c, "schedule": {**c["schedule"],
                                                "target_exact_match": float("nan")}}),
    ("odd_d_model", lambda c: {**c, "model": {**c["model"], "d_model": 5, "n_heads": 1}}),
    ("zero_d_model", lambda c: {**c, "model": {**c["model"], "d_model": 0}}),
    ("zero_codebook_size", lambda c: {**c, "schedule": {**c["schedule"], "codebook_size": 0}}),
    ("negative_epochs", lambda c: {**c, "schedule": {**c["schedule"], "epochs": -2}}),
    ("negative_ffn_mult", lambda c: {**c, "model": {**c["model"], "ffn_mult": -1}}),
    ("zero_ffn_mult", lambda c: {**c, "model": {**c["model"], "ffn_mult": 0}}),
    ("negative_enc_layers", lambda c: {**c, "model": {**c["model"], "n_layers_enc": -1}}),
    ("negative_dec_layers", lambda c: {**c, "model": {**c["model"], "n_layers_dec": -3}}),
    ("zero_dec_layers", lambda c: {**c, "model": {**c["model"], "n_layers_dec": 0}}),
    ("zero_lr", lambda c: {**c, "schedule": {**c["schedule"], "lr": 0}}),
    ("negative_lr", lambda c: {**c, "schedule": {**c["schedule"], "lr": -0.002}}),
    ("negative_beta", lambda c: {**c, "quantizer": {"commitment_beta": -5}}),
    ("schedule_seed", lambda c: {**c, "schedule": {**c["schedule"], "seed": 1}}),
    ("negative_seed", lambda c: {**c, "seed": -1}),
    ("dropout_rate", lambda c: {**c, "model": {**c["model"], "dropout_rate": 0.0}}),
    ("gumbel_tau", lambda c: {**c, "quantizer": {"gumbel_tau": 1.0}}),
    ("include_codebook_term", lambda c: {**c, "quantizer": {"include_codebook_term": False}}),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edit", [e for _, e in BAD_RUN_CONFIGS],
                         ids=[name for name, _ in BAD_RUN_CONFIGS])
def test_bad_run_config_exits_three_and_writes_nothing(tmp_path, capsys, edit):
    corpus = tmp_path / "corpus.txt"
    cg.save_corpus(corpus, cg.generate_sentences(5, 12))
    config = {"seed": 7, "corpus": str(corpus), "out_dir": str(tmp_path / "run"),
              "model": {"d_model": 8, "n_heads": 2, "max_len": 16},
              "quantizer": {},
              "schedule": {"epochs": 2, "batch_size": 8, "lr": 0.002,
                           "codebook_size": 8, "codebook_decay": 0.9}}
    edited = edit(config)
    path = tmp_path / "run.json"
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    assert main(["train", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "run").exists()


def test_non_utf8_run_config_exits_three_and_names_it(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    cg.save_corpus(corpus, cg.generate_sentences(5, 12))
    config = {"seed": 7, "corpus": str(corpus), "out_dir": str(tmp_path / "run"),
              "schedule": {"epochs": 1}}
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(config).encode("utf-8").replace(b'"seed"', b'"s\xe9ed"'))
    assert main(["train", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "latin1.json" in err and "UTF-8" in err
    assert not (tmp_path / "run").exists()


def test_cli_import_leaves_scipy_unloaded(tiny_ckpt, tmp_path):
    """The runtime is numpy only: no source file imports scipy, and a fresh
    interpreter that runs every latent-space command has not loaded it."""
    src = Path(cg.__file__).parents[1]
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "import scipy" not in text and "from scipy" not in text, path
    ckpt, corpus = tiny_ckpt["ckpt"], tiny_ckpt["corpus"]
    sentence = tiny_ckpt["sentences"][0].text()
    commands = [
        ["interpolate", "--corpus", corpus, "--random", "3", "--out", str(tmp_path / "interpolate")],
        ["traverse", "--sentence", sentence, "--position", "1", "--n", "3"],
        ["arith", "--a", sentence, "--b", sentence],
        ["disentangle", "--corpus", corpus],
        ["tree", "--corpus", corpus, "--region", "pred:causes,means", "--min-leaf", "2",
         "--out", str(tmp_path / "tree")],
        ["infer", "--op", "arg_sub", "--generate", "4"],
        ["reconstruct", "--corpus", corpus],
    ]
    probe = ("import json, sys\n"
             "from vqlat.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    argv = json.dumps([command + ["--checkpoint", ckpt] for command in commands])
    done = subprocess.run([sys.executable, "-c", probe, argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=120)
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert loaded == []


@pytest.mark.parametrize("name,value", [("VQL_EPOCHS", "two"), ("VQL_LR", "fast"),
                                        ("VQL_SEED", "1.5")])
def test_bad_env_override_exits_three_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                         name, value):
    corpus = tmp_path / "corpus.txt"
    cg.save_corpus(corpus, cg.generate_sentences(5, 12))
    config = {"seed": 7, "corpus": str(corpus), "out_dir": str(tmp_path / "run"),
              "model": {"d_model": 8, "n_heads": 2, "max_len": 16},
              "schedule": {"epochs": 1, "codebook_size": 8}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    monkeypatch.setenv(name, value)
    assert main(["train", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not (tmp_path / "run").exists()


# Each edit turns a trained checkpoint's header into one every reader must refuse.
BAD_CHECKPOINT_HEADERS = [
    ("decay_string", lambda h: {**h, "codebook_decay": "x"}),
    ("decay_null", lambda h: {**h, "codebook_decay": None}),
    ("vocab_number", lambda h: {**h, "vocab": 5}),
    ("vocab_nested", lambda h: {**h, "vocab": [["a"]]}),
    ("vocab_not_words", lambda h: {**h, "vocab": list(range(len(h["vocab"])))}),
    ("missing_vocab", lambda h: {k: v for k, v in h.items() if k != "vocab"}),
    ("header_list", lambda h: [h]),
]


def record(name: bytes, dims: list[int], data: bytes = b"") -> bytes:
    """One VQL1 tensor record, its fields written as given."""
    return (struct.pack("<I", len(name)) + name
            + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims) + data)


U32_MAX = 2**32 - 1

# Each turns a trained checkpoint's header into bytes the reader must refuse before
# reading or allocating past their end, with a word its one error line holds.
CORRUPT_CHECKPOINTS = [
    ("bad_magic", lambda h: b"VQL0" + write_checkpoint_bytes(h, {})[4:], "magic"),
    ("dims_u32_max", lambda h: write_checkpoint_bytes(h, {}) + record(b"w", [U32_MAX] * 2),
     "truncated"),
    ("rank_u32_max", lambda h: (write_checkpoint_bytes(h, {}) + struct.pack("<I", 1) + b"w"
                                + struct.pack("<I", U32_MAX)), "truncated"),
    ("rank_65", lambda h: write_checkpoint_bytes(h, {}) + record(b"w", [1] * 65, bytes(4)),
     "shape"),
    ("zero_dim_beside_u32_max", lambda h: (write_checkpoint_bytes(h, {})
                                           + record(b"w", [0] + [U32_MAX] * 3)), "shape"),
    ("name_not_utf8", lambda h: write_checkpoint_bytes(h, {}) + record(b"\xff", [1], bytes(4)),
     "UTF-8"),
]


def assert_checkpoint_refused(ckpt: Path, corpus: str, out: Path, capsys, word: str | None = None) -> None:
    """Loading ``ckpt`` is a ContractError whose peak allocation stays near the
    file's size, and ``reconstruct`` on it exits 3 with one error line and no output."""
    tracemalloc.start()
    try:
        with pytest.raises(ContractError, match=word):
            load_bundle(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ckpt.stat().st_size + 2**21
    assert main(["reconstruct", "--checkpoint", str(ckpt), "--corpus", corpus,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


class TestReports:
    def test_reconstruct_report(self, tmp_path, tiny_ckpt):
        assert main(["reconstruct", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--out", str(tmp_path)]) == 0
        report = (tmp_path / "reconstruct.txt").read_text()
        assert report.startswith("sentences\t44\n")
        assert "bleu_4\t" in report

    def test_reconstruct_byte_identical_across_runs(self, tmp_path, tiny_ckpt):
        for name in ("r1", "r2"):
            assert main(["reconstruct", "--checkpoint", tiny_ckpt["ckpt"],
                         "--corpus", tiny_ckpt["corpus"], "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "r1" / "reconstruct.txt").read_bytes() == \
            (tmp_path / "r2" / "reconstruct.txt").read_bytes()

    @pytest.mark.parametrize("epochs", [None, 3])  # the tiny checkpoint; one that misses all
    def test_reconstruct_equals_greedy_decoding_every_row(self, tmp_path, tiny_ckpt, epochs,
                                                          monkeypatch, capsys):
        ckpt = tiny_ckpt["ckpt"]
        if epochs is not None:
            weak, _ = train_bundle([s.tokens for s in tiny_ckpt["sentences"]], seed=1,
                                   epochs=epochs, codebook_size=64, d_model=32, target=None)
            ckpt = str(tmp_path / "weak.ckpt")
            save_bundle(ckpt, weak)
        outputs = []
        for name in ("verified", "greedy"):
            if name == "greedy":
                monkeypatch.setattr("vqlat.cli.reconstruct", reconstruct_greedy_all)
            assert main(["reconstruct", "--checkpoint", ckpt, "--corpus", tiny_ckpt["corpus"],
                         "--out", str(tmp_path / name)]) == 0
            outputs.append(((tmp_path / name / "reconstruct.txt").read_bytes(),
                            capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert b"\tMISS\t" in outputs[0][0]

    def test_reconstruct_budget_stops_at_model_max_len(self, tmp_path):
        """A sentence whose greedy budget, its length plus two, would run past the
        model's max_len comes back as a MISS cut at max_len tokens."""
        (tmp_path / "train.txt").write_text("a/O shark/ARG1 causes/PRED damage/ARG2\n"
                                            "a/O shark/ARG1 can/MOD swim/PRED\n")
        (tmp_path / "long.txt").write_text("a/O shark/ARG1 causes/PRED damage/ARG2 can/MOD\n")
        (tmp_path / "run.json").write_text(json.dumps({
            "seed": 3, "corpus": str(tmp_path / "train.txt"), "out_dir": str(tmp_path / "run"),
            "model": {"d_model": 8, "n_heads": 2, "max_len": 6},
            "schedule": {"epochs": 0, "codebook_size": 8}}))
        assert main(["train", "--config", str(tmp_path / "run.json")]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.ckpt")
        assert main(["reconstruct", "--checkpoint", ckpt, "--corpus", str(tmp_path / "long.txt"),
                     "--out", str(tmp_path)]) == 0
        bundle = load_bundle(ckpt)
        indices, _ = bundle.quantize_words(["a", "shark", "causes", "damage", "can"])
        want = greedy_generate_one(bundle.codebook.entries[indices], bundle.params, bundle.config,
                                   bundle.config.max_len, bundle.vocab.START, bundle.vocab.END)
        line = (tmp_path / "reconstruct.txt").read_text().splitlines()[-1]
        assert line == "0\tMISS\t" + " ".join(bundle.vocab.word_of(i) for i in want)

    def test_interpolate_source_equals_target_all_ones(self, tmp_path, tiny_ckpt):
        assert main(["interpolate", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--source", "0", "--target", "0",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "interpolation.txt").read_text()
        assert "avg IS\t1.000000" in report
        assert "min IS\t1.000000" in report
        assert (tmp_path / "path_0_0.txt").exists()

    def test_interpolate_random_pairs_deterministic(self, tmp_path, tiny_ckpt):
        for name in ("i1", "i2"):
            assert main(["interpolate", "--checkpoint", tiny_ckpt["ckpt"],
                         "--corpus", tiny_ckpt["corpus"], "--random", "3", "--seed", "4",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "i1" / "interpolation.txt").read_bytes() == \
            (tmp_path / "i2" / "interpolation.txt").read_bytes()

    def test_interpolate_steps_every_pair_in_one_call(self, tmp_path, tiny_ckpt, monkeypatch):
        calls = []
        interpolate = geo.interpolate
        monkeypatch.setattr(geo, "interpolate",
                            lambda *a, **kw: calls.append(a) or interpolate(*a, **kw))
        assert main(["interpolate", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--random", "12", "--seed", "4",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        bundle = load_bundle(tiny_ckpt["ckpt"])
        pad = bundle.end_token_index()
        tokens = [s.tokens for s in tiny_ckpt["sentences"]]
        paths = sorted(tmp_path.glob("path_*.txt"))
        assert len(paths) == 12  # seed 4 draws 12 distinct pairs
        for path in paths:
            i, j = (int(k) for k in path.stem.split("_")[1:])
            src, tgt = bundle.quantize_ids(sentences_to_ids([tokens[i], tokens[j]], bundle.vocab))
            want = [",".join(str(int(k)) for k in indices)
                    for _, indices in interpolate_per_step(src, tgt, bundle.codebook.entries,
                                                           pad_index=pad)]
            assert [line.split("\t")[1] for line in path.read_text().splitlines()] == want, path
        # the one call holds all 12 pairs, of unequal and of different padded lengths
        pairs, _, call_pad = calls[0]
        assert len(pairs) == 12 and call_pad == pad
        lengths = [(len(src), len(tgt)) for src, tgt in pairs]
        assert any(a != b for a, b in lengths)
        assert len({max(pair) for pair in lengths}) > 1

    def test_traverse_and_arith_run(self, tiny_ckpt, capsys):
        sentence = tiny_ckpt["sentences"][0].text()
        assert main(["traverse", "--checkpoint", tiny_ckpt["ckpt"],
                     "--sentence", sentence, "--position", "0", "--n", "3"]) == 0
        assert "variant 0:" in capsys.readouterr().out
        assert main(["arith", "--checkpoint", tiny_ckpt["ckpt"],
                     "--a", sentence, "--b", sentence]) == 0

    def test_disentangle_table(self, tmp_path, tiny_ckpt):
        assert main(["disentangle", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--out", str(tmp_path)]) == 0
        table = (tmp_path / "disentangle.txt").read_text()
        assert table.startswith("role_content\tnum_centers\tavg_dis\tmax_dis\tmin_dis")

    def test_infer_reports_rate(self, tmp_path, tiny_ckpt):
        assert main(["infer", "--checkpoint", tiny_ckpt["ckpt"], "--op", "arg_sub",
                     "--generate", "4", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "infer.txt").read_text()
        assert report.startswith("op\targ_sub\ninstances\t4\n")

    def test_tree_region_report(self, tmp_path, tiny_ckpt):
        assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--region", "pred:causes,means",
                     "--min-leaf", "2", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "tree_report.txt").read_text()
        assert report.startswith("region\tpred:causes,means\n")
        assert "separability\t" in report
        assert "cross_region_consistency\t" in report
        assert "path\tdim " in report
        assert (tmp_path / "tree.json").exists()

    @pytest.mark.parametrize("region,in_a,in_b", [
        ("topic:cause,mean", lambda t: cg.infer_topic(t) == "cause",
         lambda t: cg.infer_topic(t) == "mean"),
        ("arg:storm,fire", lambda t: "storm" in t, lambda t: "fire" in t),
    ], ids=["topic", "arg"])
    def test_tree_region_kinds(self, tmp_path, tiny_ckpt, region, in_a, in_b):
        assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--region", region,
                     "--min-leaf", "2", "--moves", "1000", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "tree_report.txt").read_text().splitlines()
        assert lines[0] == f"region\t{region}"
        finals = []  # every region-A sentence's last guided-move decode
        for line in lines:
            if line.startswith("move "):
                finals.append(None)
            elif line.startswith("  -> "):
                finals[-1] = line[len("  -> "):].split()
        assert len(finals) == sum(in_a(s.tokens) for s in tiny_ckpt["sentences"]) > 0
        consistency = sum(in_b(tokens) for tokens in finals) / len(finals)
        assert f"cross_region_consistency\t{fmt(consistency)}" in lines

    def test_tree_deterministic(self, tmp_path, tiny_ckpt):
        for name in ("t1", "t2"):
            assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"],
                         "--corpus", tiny_ckpt["corpus"], "--region", "pred:causes,means",
                         "--min-leaf", "2", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "t1" / "tree_report.txt").read_bytes() == \
            (tmp_path / "t2" / "tree_report.txt").read_bytes()
        assert (tmp_path / "t1" / "tree.json").read_bytes() == \
            (tmp_path / "t2" / "tree.json").read_bytes()


def run_every_command(ckpt: str, corpus: str, root: Path):
    """Exit code, stdout and stderr of both corpus generators and each latent-space
    command, and the bytes of every file they write under ``root``."""
    streams = run_each(generator_commands(str(root)) + latent_commands(ckpt, corpus, str(root)))
    files = {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    return streams, files


def assert_outputs_unchanged(tiny_ckpt, root: Path, patch):
    """Every command's exit code, streams and file bytes are the same before and
    after ``patch()`` swaps in a reference implementation."""
    args = (tiny_ckpt["ckpt"], tiny_ckpt["corpus"], root)
    shipped = run_every_command(*args)
    shutil.rmtree(root)
    patch()
    reference = run_every_command(*args)
    assert differences(shipped, reference) == []
    assert len(shipped[1]) >= 10
    assert all(code == 0 for _, code, _, _ in shipped[0])


def test_outputs_equal_difference_form_argmin(tiny_ckpt, tmp_path, monkeypatch):
    """The shortlisted nearest-entry search changes no output of any command."""
    assert_outputs_unchanged(tiny_ckpt, tmp_path / "out", lambda: monkeypatch.setattr(
        quantizer, "nearest_entries",
        lambda vectors, entries: np.argmin(sq_dists_scan(vectors, entries), axis=1)))


def test_outputs_equal_one_sequence_decodes(tiny_ckpt, tmp_path, monkeypatch):
    """Pooling every command's index rows into one deduplicated decode call
    changes no output: each row's entries decoded alone by the oracle give the
    same bytes."""
    def one_at_a_time(bundle, indices, max_len=None):
        return [greedy_generate_one(bundle.codebook.entries[row], bundle.params, bundle.config,
                                    max_len or bundle.config.max_len,
                                    bundle.vocab.START, bundle.vocab.END) for row in indices]

    assert_outputs_unchanged(tiny_ckpt, tmp_path / "out",
                             lambda: monkeypatch.setattr(ModelBundle, "decode_ids", one_at_a_time))


def test_outputs_equal_hand_assembled_sentences(tiny_ckpt, tmp_path, monkeypatch):
    """Templates written as corpus lines change no output: the hand-assembled
    token and role lists, and one instance-pool block per operation, give the
    same bytes."""
    def by_hand():
        for name, build in BUILDERS_BY_HAND.items():
            monkeypatch.setattr(cg, name, build)
        monkeypatch.setattr(cg, "generate_inference_instances", inference_instances_by_hand)

    assert_outputs_unchanged(tiny_ckpt, tmp_path / "out", by_hand)


def test_outputs_equal_assignment_transport(tiny_ckpt, tmp_path, monkeypatch):
    """The in-package transport solver changes no output: scipy's assignment over
    the lcm expansion, which it replaces, gives the same bytes."""
    assert_outputs_unchanged(tiny_ckpt, tmp_path / "out",
                             lambda: monkeypatch.setattr(geo, "wmd", wmd_by_assignment))


def test_malformed_json_is_contract_error_naming_the_file(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"seed": 1,')
    for load in (tc.load_tree, lambda path: load_run_config(str(path), {})):
        with pytest.raises(ContractError, match=r"broken\.json' is not JSON"):
            load(broken)


def test_outputs_equal_chained_linear_and_attention(tiny_ckpt, tmp_path, monkeypatch):
    """The fused linear and attention nodes change no output: the matmul, add,
    scale, mask and softmax chains they replace give the same bytes."""
    def chains():
        monkeypatch.setattr(ad, "linear", linear_chain)
        monkeypatch.setattr(ad, "attention", attention_chain)

    assert_outputs_unchanged(tiny_ckpt, tmp_path / "out", chains)


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["interpolate"])  # missing required flags
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,seed", [("gen-corpus", "-1"), ("interpolate", "-3"),
                                              ("infer", "-3"), ("train", "-2")])
    def test_negative_seed_is_two(self, tiny_ckpt, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 7, "corpus": tiny_ckpt["corpus"], "out_dir": str(out),
                                      "model": {"d_model": 8, "n_heads": 2, "max_len": 16},
                                      "schedule": {"epochs": 1, "codebook_size": 8}}))
        rest = {"gen-corpus": ["--out", str(out)],
                "interpolate": ["--checkpoint", tiny_ckpt["ckpt"], "--corpus", tiny_ckpt["corpus"],
                                "--out", str(out)],
                "infer": ["--checkpoint", tiny_ckpt["ckpt"], "--out", str(out)],
                "train": ["--config", str(config)]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", seed] + rest)
        assert exc.value.code == 2
        assert f"--seed: must be non-negative, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_contract_error_is_three(self, tiny_ckpt, tmp_path):
        assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--region", "bogus",
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("section,key,value", [
        ("model", "dropout_rate", 0.0), ("quantizer", "gumbel_tau", 1.0),
        ("quantizer", "use_ema", True), ("quantizer", "include_codebook_term", False)])
    def test_retired_header_key_is_three(self, tiny_ckpt, tmp_path, capsys, section, key, value):
        header, tensors = read_checkpoint_bytes(Path(tiny_ckpt["ckpt"]).read_bytes())
        header[section] = {**header[section], key: value}
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_bytes(write_checkpoint_bytes(header, tensors))
        out = tmp_path / "out"
        assert main(["reconstruct", "--checkpoint", str(ckpt), "--corpus", tiny_ckpt["corpus"],
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_tree_bad_margin_scale_is_three(self, tiny_ckpt, tmp_path, capsys, scale):
        assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"], "--corpus", tiny_ckpt["corpus"],
                     "--region", "pred:causes,means", "--min-leaf", "2",
                     "--margin-scale", scale, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "tree.json").exists()
        assert not (tmp_path / "tree_report.txt").exists()

    @pytest.mark.parametrize("region,size", [
        ("pred:means,causes", ["--min-leaf", "0"]),
        ("pred:means,causes", ["--min-leaf", "-4"]),
        # a depth-0 tree here is one 'cause' leaf: an empty path and moves that change nothing
        ("topic:is-a,cause", ["--max-depth", "0"]),
    ], ids=["min_leaf_0", "min_leaf_negative", "max_depth_0"])
    def test_tree_meaningless_size_is_three(self, tiny_ckpt, tmp_path, capsys, region, size):
        out = tmp_path / "out"
        assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"], "--corpus", tiny_ckpt["corpus"],
                     "--region", region, *size, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "at least 1" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("moves", ["-1", "-30"])
    def test_tree_negative_moves_is_three(self, tiny_ckpt, tmp_path, capsys, moves):
        out = tmp_path / "out"
        assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"], "--corpus", tiny_ckpt["corpus"],
                     "--region", "pred:causes,means", "--min-leaf", "2", "--moves", moves,
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: --moves must be non-negative, got {moves}\n"
        assert captured.out == "" and not out.exists()

    def test_truncated_checkpoint_is_three(self, tmp_path, capsys):
        sentences = cg.generate_sentences(5, 12)
        bundle, _ = train_bundle([s.tokens for s in sentences], epochs=0, codebook_size=8,
                                 d_model=8, n_heads=2)
        save_bundle(tmp_path / "full.ckpt", bundle)
        raw = (tmp_path / "full.ckpt").read_bytes()
        blob, tensors = read_checkpoint_bytes(raw)
        names = list(tensors)
        # every record boundary, plus a stride through headers and tensor data
        cuts = {len(write_checkpoint_bytes(blob, {n: tensors[n] for n in names[:k]}))
                for k in range(len(names))}
        cuts |= set(range(0, len(raw), 13))
        ckpt = tmp_path / "cut.ckpt"
        # main maps a ContractError to exit 3, so the loader alone judges each cut
        for cut in sorted(cuts):
            ckpt.write_bytes(raw[:cut])
            with pytest.raises(ContractError):
                load_bundle(ckpt)
        corpus = tmp_path / "corpus.txt"
        cg.save_corpus(corpus, sentences)
        ckpt.write_bytes(raw[:len(raw) // 2])
        assert_checkpoint_refused(ckpt, str(corpus), tmp_path / "out", capsys, "truncated")

    @pytest.mark.parametrize("edit", [e for _, e in BAD_CHECKPOINT_HEADERS],
                             ids=[name for name, _ in BAD_CHECKPOINT_HEADERS])
    def test_bad_checkpoint_header_is_three(self, tiny_ckpt, tmp_path, capsys, edit):
        header, tensors = read_checkpoint_bytes(Path(tiny_ckpt["ckpt"]).read_bytes())
        ckpt = tmp_path / "edited.ckpt"
        ckpt.write_bytes(write_checkpoint_bytes(edit(header), tensors))
        assert_checkpoint_refused(ckpt, tiny_ckpt["corpus"], tmp_path / "out", capsys)

    @pytest.mark.parametrize("build,word", [(b, w) for _, b, w in CORRUPT_CHECKPOINTS],
                             ids=[name for name, _, _ in CORRUPT_CHECKPOINTS])
    def test_corrupt_checkpoint_is_three(self, tiny_ckpt, tmp_path, capsys, build, word):
        header, _ = read_checkpoint_bytes(Path(tiny_ckpt["ckpt"]).read_bytes())
        ckpt = tmp_path / "corrupt.ckpt"
        ckpt.write_bytes(build(header))
        assert_checkpoint_refused(ckpt, tiny_ckpt["corpus"], tmp_path / "out", capsys, word)

    @pytest.mark.parametrize("op,line", [
        ("arg_sub", "a/O birch/ARG1 is/PRED a/O kind/O of/O tree/ARG2 ||| "
                    "a/O crow/ARG1 is/PRED a/O kind/O of/O bird/ARG2"),
        ("further_spec", "a/O crow/ARG1 is/PRED a/O kind/O of/O bird/ARG2 ||| "
                         "a/O crow/ARG1 is/PRED a/O kind/O of/O bird/ARG2"),
        ("conjunction", "a/O salmon/ARG0 can/O fly/PRED ||| a/O salmon/ARG0 can/O fly/PRED"),
    ], ids=["arg_sub", "further_spec", "conjunction"])
    def test_unanchored_premises_are_three(self, tiny_ckpt, tmp_path, capsys, op, line):
        premises = tmp_path / "premises.txt"
        premises.write_text(line + "\n")
        out = tmp_path / "out"
        assert main(["infer", "--checkpoint", tiny_ckpt["ckpt"], "--op", op,
                     "--premises", str(premises), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "infer.txt").exists()

    @pytest.mark.parametrize("source", ["generate", "premises"])
    def test_conjunction_without_and_in_vocabulary_is_three(self, tmp_path, capsys, source):
        sentences = [s for s in cg.generate_sentences(5, 20) if "and" not in s.tokens]
        bundle, _ = train_bundle([s.tokens for s in sentences], epochs=0, codebook_size=8,
                                 d_model=8, n_heads=2)
        save_bundle(tmp_path / "model.ckpt", bundle)
        premises = tmp_path / "premises.txt"
        premises.write_text(PREMISES["conjunction"] + "\n")
        argv = ["--generate", "4"] if source == "generate" else ["--premises", str(premises)]
        out = tmp_path / "out"
        assert main(["infer", "--checkpoint", str(tmp_path / "model.ckpt"), "--op", "conjunction",
                     "--out", str(out)] + argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'and'" in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_interpolate_random_below_one_is_three(self, tiny_ckpt, tmp_path, capsys, count):
        out = tmp_path / "out"
        assert main(["interpolate", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--random", count,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "interpolate"])
    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_corpus_without_sentences_is_three(self, tiny_ckpt, tmp_path, capsys, command, text):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--checkpoint", tiny_ckpt["ckpt"], "--corpus", str(corpus),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--generate", "0"), ("--generate", "-3"),
                                            ("--premises", "")])
    def test_infer_without_instances_is_three(self, tiny_ckpt, tmp_path, capsys, flag, value):
        if flag == "--premises":  # an empty premises file
            value = str(tmp_path / "premises.txt")
            (tmp_path / "premises.txt").write_text("")
        out = tmp_path / "out"
        assert main(["infer", "--checkpoint", tiny_ckpt["ckpt"], flag, value,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("pair", [("0", "999"), ("-1", "0")])
    def test_interpolate_pair_outside_corpus_is_three(self, tiny_ckpt, tmp_path, capsys, pair):
        out = tmp_path / "out"
        assert main(["interpolate", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--source", pair[0], "--target", pair[1],
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["traverse", "arith"])
    def test_out_of_vocabulary_word_is_three(self, tiny_ckpt, capsys, command):
        known = tiny_ckpt["sentences"][0].tokens
        sentence = " ".join(known[:1] + ["zebra"] + known[1:] + ["quokka"])
        if command == "traverse":
            argv = ["traverse", "--sentence", sentence, "--position", "0"]
        else:
            argv = ["arith", "--a", " ".join(known), "--b", sentence]
        assert main(argv + ["--checkpoint", tiny_ckpt["ckpt"]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'zebra'" in err and "quokka" not in err

    def test_reconstruct_maps_unknown_words_to_unk(self, tiny_ckpt, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a/O zebra/ARG1 is/PRED a/O kind/O of/O fish/ARG2\n")
        assert main(["reconstruct", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", str(corpus)]) == 0
        assert "sentences\t1" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["reconstruct", "interpolate", "disentangle", "tree",
                                         "infer"])
    def test_non_utf8_input_is_three(self, tiny_ckpt, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        out = tmp_path / "out"
        if command == "infer":
            bad.write_bytes(b"\xff\n")
            argv = ["infer", "--premises", str(bad)]
        else:
            bad.write_bytes(b"a/O \xff\xfe/ARG1 is/PRED\n")
            argv = [command, "--corpus", str(bad)]
            if command == "tree":
                argv += ["--region", "pred:causes,means"]
        assert main(argv + ["--checkpoint", tiny_ckpt["ckpt"], "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert not out.exists()

    def test_io_error_is_four(self, tiny_ckpt, tmp_path):
        assert main(["reconstruct", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", str(tmp_path / "missing.txt")]) == 4
