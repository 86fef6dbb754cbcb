"""End-to-end command tests: file outputs, determinism, and exit codes."""

import json

import pytest

from vqlat import corpus as cg
from vqlat import model as md
from vqlat.cli import main
from vqlat.training import save_bundle

from tests.conftest import train_bundle


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
        assert (out1 / "vocab.txt").exists()
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
]


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
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


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

    def test_tree_deterministic(self, tmp_path, tiny_ckpt):
        for name in ("t1", "t2"):
            assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"],
                         "--corpus", tiny_ckpt["corpus"], "--region", "pred:causes,means",
                         "--min-leaf", "2", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "t1" / "tree_report.txt").read_bytes() == \
            (tmp_path / "t2" / "tree_report.txt").read_bytes()
        assert (tmp_path / "t1" / "tree.json").read_bytes() == \
            (tmp_path / "t2" / "tree.json").read_bytes()


class TestRunConfig:
    def test_round_trip_is_canonical(self):
        from vqlat.cli import RunConfig
        cfg = RunConfig(seed=3, corpus="c.txt", out_dir="o",
                        model={"d_model": 16}, schedule={"epochs": 2, "lr": 0.002})
        text = cfg.to_json()
        assert RunConfig.from_json(text) == cfg
        assert RunConfig.from_json(text).to_json() == text


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["interpolate"])  # missing required flags
        assert exc.value.code == 2

    def test_contract_error_is_three(self, tiny_ckpt, tmp_path):
        assert main(["tree", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--region", "bogus",
                     "--out", str(tmp_path)]) == 3

    def test_truncated_checkpoint_is_three(self, tmp_path, capsys):
        sentences = cg.generate_sentences(5, 12)
        bundle, _ = train_bundle([s.tokens for s in sentences], epochs=0, codebook_size=8,
                                 d_model=8, n_heads=2)
        save_bundle(tmp_path / "full.ckpt", bundle)
        raw = (tmp_path / "full.ckpt").read_bytes()
        blob, tensors = md.read_checkpoint_bytes(raw)
        names = list(tensors)
        # every record boundary, plus a stride through headers and tensor data
        cuts = {len(md.write_checkpoint_bytes(blob, {n: tensors[n] for n in names[:k]}))
                for k in range(len(names))}
        cuts |= set(range(0, len(raw), 13))
        corpus = tmp_path / "corpus.txt"
        cg.save_corpus(corpus, sentences)
        ckpt = tmp_path / "cut.ckpt"
        for cut in sorted(cuts):
            ckpt.write_bytes(raw[:cut])
            assert main(["reconstruct", "--checkpoint", str(ckpt),
                         "--corpus", str(corpus)]) == 3, cut
            assert capsys.readouterr().err.startswith("error: "), cut

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_interpolate_random_below_one_is_three(self, tiny_ckpt, tmp_path, capsys, count):
        out = tmp_path / "out"
        assert main(["interpolate", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", tiny_ckpt["corpus"], "--random", count,
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

    def test_io_error_is_four(self, tiny_ckpt, tmp_path):
        assert main(["reconstruct", "--checkpoint", tiny_ckpt["ckpt"],
                     "--corpus", str(tmp_path / "missing.txt")]) == 4
