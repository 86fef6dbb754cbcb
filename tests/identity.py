"""Compare every command's outputs between the working tree and a git revision.

    python tests/identity.py --against REV [--recipe perfbench]

``git archive REV src`` is unpacked into a temporary directory, so no worktree
is made.  Each tree then runs in its own interpreter, from its own empty
directory and under the same relative paths: ``gen-corpus`` for both kinds,
``train``, and the latent-space commands of :mod:`tests.commands` on the
checkpoint it trained.  ``train`` reads the generated grammar corpus with a
small config.  ``--recipe perfbench`` trains instead on the benchmark's
500-sentence corpus with its checkpoint recipe (50-epoch cap, early stop at
exact match 0.9), which also reaches training's early-stop check.

Every differing file, stdout, stderr and exit code is printed, one per line; a
differing checkpoint is reported by header key and by tensor record.  The exit
status is 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMALL_CONFIG = {"seed": 7, "model": {"d_model": 16, "n_heads": 2, "max_len": 16}, "quantizer": {},
                "schedule": {"epochs": 2, "batch_size": 8, "lr": 0.002, "codebook_size": 16,
                             "codebook_decay": 0.9}}

# Runs in each tree's interpreter, from its work directory; prints the streams as JSON.
CHILD = """
import json, sys
from tests.commands import generator_commands, latent_commands, run_each
streams = run_each(generator_commands("out") + [["train", "--config", "run.json"]])
streams += run_each(latent_commands("train/checkpoint.ckpt", sys.argv[1], "out"))
print(json.dumps(streams))
"""


def start_tree(src: Path, work: Path, config: dict, corpus: Path | None) -> subprocess.Popen:
    """Start the commands of the tree whose package lies under ``src`` in ``work``."""
    work.mkdir(parents=True)
    if corpus is not None:
        shutil.copyfile(corpus, work / "corpus.txt")
    corpus_path = "corpus.txt" if corpus is not None else "out/gen_grammar/sentences.txt"
    (work / "run.json").write_text(json.dumps({**config, "corpus": corpus_path,
                                               "out_dir": "train"}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src.resolve()), str(ROOT)])}
    return subprocess.Popen([sys.executable, "-c", CHILD, corpus_path], cwd=work, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_tree(proc: subprocess.Popen, work: Path) -> tuple[list, dict[str, bytes]]:
    """The streams of each command and the bytes of each file under ``work``."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"commands in {work} failed:\n{err}")
    files = {p.relative_to(work).as_posix(): p.read_bytes()
             for p in sorted(work.rglob("*")) if p.is_file()}
    return json.loads(out.splitlines()[-1]), files


def run_trees(srcs: list[Path], work: Path, config: dict = SMALL_CONFIG,
              corpus: Path | None = None) -> list[tuple[list, dict[str, bytes]]]:
    """The streams and files of each tree, run side by side under ``work/<index>``."""
    procs = [start_tree(src, work / str(i), config, corpus) for i, src in enumerate(srcs)]
    return [finish_tree(proc, work / str(i)) for i, proc in enumerate(procs)]


def checkpoint_differences(name: str, a: bytes, b: bytes) -> list[str]:
    """Which header keys and tensor records of two VQL1 checkpoints differ."""
    from vqlat.training import read_checkpoint_bytes

    (header_a, tensors_a), (header_b, tensors_b) = read_checkpoint_bytes(a), read_checkpoint_bytes(b)
    lines = [f"{name}: header key {key!r} differs"
             for key in sorted(set(header_a) | set(header_b)) if header_a.get(key) != header_b.get(key)]
    for tensor in dict.fromkeys([*tensors_a, *tensors_b]):
        if tensor not in tensors_a or tensor not in tensors_b:
            lines.append(f"{name}: tensor {tensor!r} is in one checkpoint only")
        elif tensors_a[tensor].shape != tensors_b[tensor].shape:
            lines.append(f"{name}: tensor {tensor!r} has shapes {tensors_a[tensor].shape} "
                         f"and {tensors_b[tensor].shape}")
        elif tensors_a[tensor].tobytes() != tensors_b[tensor].tobytes():
            lines.append(f"{name}: tensor {tensor!r} differs")
    return lines or [f"{name}: record order differs"]


def differences(a: tuple[list, dict[str, bytes]], b: tuple[list, dict[str, bytes]]) -> list[str]:
    """One line per differing exit code, stdout, stderr or file of two runs."""
    (streams_a, files_a), (streams_b, files_b) = a, b
    lines = []
    if len(streams_a) != len(streams_b):
        lines.append(f"command counts differ: {len(streams_a)} and {len(streams_b)}")
    for got, want in zip(streams_a, streams_b):
        for field, x, y in zip(("command", "exit code", "stdout", "stderr"), got, want):
            if field in ("stdout", "stderr") and x != y:
                x, y = next((p, q) for p, q in zip_longest(x.splitlines(True), y.splitlines(True)) if p != q)
            if x != y:
                lines.append(f"{got[0]}: {field} differs: {x!r} != {y!r}")
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            lines.append(f"{name}: written by one tree only")
        elif files_a[name] != files_b[name]:
            lines += (checkpoint_differences(name, files_a[name], files_b[name])
                      if name.endswith(".ckpt") else [f"{name}: bytes differ"])
    return lines


def perfbench_recipe(tmp: Path) -> tuple[dict, Path]:
    """The benchmark's run config and its corpus, written under ``tmp``."""
    from perfbench.workloads import FULL, corpus, run_config
    from vqlat.corpus import save_corpus

    path = tmp / "bench_corpus.txt"
    save_corpus(path, corpus(FULL))
    return run_config(0, path, "train", FULL, 50, 0.9), path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--recipe", choices=["perfbench"],
                        help="train on the benchmark's corpus with its checkpoint recipe")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="vqlat-identity-") as tmp:
        config, corpus = perfbench_recipe(Path(tmp)) if args.recipe else (SMALL_CONFIG, None)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        runs = run_trees([ROOT / "src", Path(tmp) / "src"], Path(tmp) / "work", config, corpus)
    lines = differences(*runs)
    for line in lines:
        print(line)
    (streams, files), _ = runs
    digest = hashlib.sha256(files.get("train/checkpoint.ckpt", b"")).hexdigest()
    print(f"{len(lines)} differences over {len(streams)} commands and {len(files)} files; "
          f"working-tree checkpoint sha256 {digest}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
