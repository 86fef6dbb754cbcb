"""``tests/identity.py`` finds no difference between a tree and its copy, and names
what one planted byte changes."""

import shutil

import numpy as np

from vqlat.training import write_checkpoint_bytes

from tests.identity import ROOT, checkpoint_differences, differences, run_trees


def copy_of_src(dest):
    return shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))


def test_copy_of_the_working_tree_is_identical(tmp_path):
    runs = run_trees([ROOT / "src", copy_of_src(tmp_path / "src")], tmp_path / "work")
    assert differences(*runs) == []
    (streams, files), _ = runs
    assert [code for _, code, _, _ in streams] == [0] * len(streams) and len(streams) >= 15
    assert "train/checkpoint.ckpt" in files and len(files) >= 20


def test_planted_byte_is_named(tmp_path):
    planted = copy_of_src(tmp_path / "src")
    reports = planted / "vqlat" / "reports.py"
    text = reports.read_text(encoding="utf-8")
    assert text.count(':.6f}"') == 1
    reports.write_text(text.replace(':.6f}"', ':.5f}"'), encoding="utf-8")
    lines = differences(*run_trees([ROOT / "src", planted], tmp_path / "work"))
    assert "train/loss_log.csv: bytes differ" in lines
    assert "out/reconstruct/reconstruct.txt: bytes differ" in lines
    assert not any(line.startswith("train/checkpoint.ckpt") for line in lines)


def test_checkpoint_differences_name_header_keys_and_tensors():
    header = {"model": {"d_model": 2}, "vocab": ["a"]}
    tensors = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
    base = write_checkpoint_bytes(header, tensors)
    edited = write_checkpoint_bytes({**header, "vocab": ["b"]},
                                    {"w": np.eye(2), "b": np.zeros(3), "c": np.zeros(1)})
    assert checkpoint_differences("m.ckpt", base, edited) == [
        "m.ckpt: header key 'vocab' differs",
        "m.ckpt: tensor 'w' differs",
        "m.ckpt: tensor 'b' has shapes (2,) and (3,)",
        "m.ckpt: tensor 'c' is in one checkpoint only",
    ]
    reordered = write_checkpoint_bytes(header, {"b": tensors["b"], "w": tensors["w"]})
    assert checkpoint_differences("m.ckpt", base, reordered) == ["m.ckpt: record order differs"]
