"""Inputs, the trained checkpoint, and the one operation of each workload.

Every workload repeats one ``vqlat`` subcommand, called in-process through
``vqlat.cli.main``.  Inputs come from the run's seed; the reconstruct and
interpolate checkpoint comes from a fixed recipe and is trained once per
source tree, in a child process, then reused from a cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vqlat import corpus as cg

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

# Every workload reads the acceptance suite's trained-fixture corpus, and the
# checkpoint is trained on it with the fixture's training seed.
CORPUS_SEED = 42
CHECKPOINT_TRAIN_SEED = 0


@dataclass(frozen=True)
class Size:
    """Corpus, model and per-operation sizes of one benchmark scale."""

    sampled: int             # sentences sampled from the grammar
    grid: bool               # add every cause/mean frame of the event-by-effect grid
    d_model: int
    codebook_size: int
    train_epochs: int        # epochs of one `train` operation (no early stop)
    checkpoint_epochs: int   # epoch cap of the checkpoint recipe
    checkpoint_target: float  # exact-match rate at which checkpoint training stops
    pairs: int               # source/target pairs of one `interpolate` operation
    setup_repeats: int


FULL = Size(sampled=300, grid=True, d_model=64, codebook_size=512, train_epochs=4,
            checkpoint_epochs=50, checkpoint_target=0.9, pairs=40, setup_repeats=5)
# For the benchmark's own tests: a 10-sentence memorisation model.
TINY = Size(sampled=10, grid=False, d_model=32, codebook_size=64, train_epochs=2,
            checkpoint_epochs=300, checkpoint_target=1.0, pairs=4, setup_repeats=2)


def corpus(size: Size) -> list[cg.AnnotatedSentence]:
    """Sampled grammar sentences, plus the full cause/mean grid at full size."""
    sentences = cg.generate_sentences(CORPUS_SEED, size.sampled)
    if size.grid:
        for event in cg.EVENTS:
            for effect in cg.EFFECTS:
                sentences.append(cg.make_causes(event, effect))
                sentences.append(cg.make_means_nn(event, effect))
    return sentences


def run_config(seed: int, corpus_path, out_dir, size: Size, epochs: int,
               early_stop: float | None = None) -> dict:
    """The acceptance suite's trained-fixture recipe as a `vqlat train` config."""
    schedule = {"epochs": epochs, "batch_size": 16, "lr": 0.002,
                "codebook_size": size.codebook_size, "codebook_decay": 0.9}
    if early_stop is not None:
        schedule.update(target_exact_match=early_stop, check_every=5)
    return {"seed": seed, "corpus": str(corpus_path), "out_dir": str(out_dir),
            "model": {"d_model": size.d_model, "n_heads": 4, "n_layers_enc": 2,
                      "n_layers_dec": 2, "max_len": 16},
            "quantizer": {"scheme": "kmeans", "commitment_beta": 0.25},
            "schedule": schedule}


def _write_json(path, blob: dict) -> None:
    Path(path).write_text(json.dumps(blob, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _source_digest(size: Size) -> str:
    digest = hashlib.sha256(repr(size).encode())
    for path in sorted((ROOT / "src" / "vqlat").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def provision_checkpoint(size: Size, cache_dir: Path = WORK / "cache") -> Path:
    """Path of the cached checkpoint for this source tree, training it if absent.

    Training runs `vqlat train` in a child process, so none of its memory
    shows in the benchmark process's peak.  A `.sha256` file beside the
    checkpoint records its digest for :func:`fetch_checkpoint`.
    """
    cached = cache_dir / f"checkpoint-{_source_digest(size)}.ckpt"
    if cached.exists():
        return cached
    stage = cache_dir / f"stage-{os.getpid()}"
    shutil.rmtree(stage, ignore_errors=True)
    stage.mkdir(parents=True)
    try:
        cg.save_corpus(stage / "sentences.txt", corpus(size))
        _write_json(stage / "run.json",
                    run_config(CHECKPOINT_TRAIN_SEED, stage / "sentences.txt", stage / "out",
                               size, size.checkpoint_epochs, size.checkpoint_target))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-m", "vqlat.cli", "train", "--config",
                        str(stage / "run.json")], env=env, check=True, timeout=900,
                       stdout=subprocess.DEVNULL)
        blob = (stage / "out" / "checkpoint.ckpt").read_bytes()
        (stage / "checkpoint.sha256").write_text(hashlib.sha256(blob).hexdigest())
        os.replace(stage / "checkpoint.sha256", cached.with_suffix(".sha256"))
        os.replace(stage / "out" / "checkpoint.ckpt", cached)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return cached


def time_import() -> float:
    """Wall seconds for a fresh interpreter to import the ``vqlat`` command line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vqlat.cli"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def fetch_checkpoint(cached: Path, dest: Path) -> None:
    """Copy the cached checkpoint into a run's directory, verifying its digest."""
    blob = cached.read_bytes()
    if hashlib.sha256(blob).hexdigest() != cached.with_suffix(".sha256").read_text().strip():
        raise RuntimeError(f"cached checkpoint {cached} does not match its digest")
    dest.write_bytes(blob)


@dataclass
class Operation:
    """One workload's repeated subcommand and what it reads."""

    workload: str
    argv: list[str]
    out_dir: Path
    items: int               # items one call processes (target tokens, sentences or pairs)
    tokens: list[list[str]]  # the corpus the subcommand reads, as token lists
    checkpoint: Path | None = None  # the checkpoint it reads
    seed_base: int | None = None    # if set, call k passes --seed seed_base + k

    def argv_of(self, call: int) -> list[str]:
        if self.seed_base is None:
            return self.argv
        return self.argv + ["--seed", str(self.seed_base + call)]


def _permuted(sentences: list, seed: int) -> list:
    order = np.random.default_rng(seed).permutation(len(sentences))
    return [sentences[i] for i in order]


def set_up(workload: str, seed: int, size: Size, work: Path,
           checkpoint: Path | None) -> Operation:
    """Write the run's inputs into ``work``; the same work on every run of a workload.

    All three workloads read the checkpoint recipe's corpus.  `train` takes
    it in seed order and trains with the seed; `reconstruct` takes each
    distinct sentence once (the sampled part repeats grid sentences), in seed
    order; `interpolate` gives each call its own pair seed, so a run covers
    many pairs instead of repeating one set.
    """
    work.mkdir(parents=True, exist_ok=True)
    out_dir = work / "out"
    corpus_path = work / "sentences.txt"
    sentences = corpus(size)
    if workload == "train":
        sentences = _permuted(sentences, seed)
        cg.save_corpus(corpus_path, sentences)
        _write_json(work / "run.json", run_config(seed, corpus_path, out_dir, size,
                                                  size.train_epochs))
        tokens = [s.tokens for s in sentences]
        return Operation(workload, ["train", "--config", str(work / "run.json")], out_dir,
                         sum(len(t) + 1 for t in tokens) * size.train_epochs, tokens)

    if workload == "reconstruct":
        unique: dict[tuple, cg.AnnotatedSentence] = {}
        for sentence in sentences:
            unique.setdefault(tuple(sentence.tokens), sentence)
        sentences = _permuted(list(unique.values()), seed)
    cg.save_corpus(corpus_path, sentences)
    local = work / "checkpoint.ckpt"
    fetch_checkpoint(checkpoint, local)
    common = ["--checkpoint", str(local), "--corpus", str(corpus_path), "--out", str(out_dir)]
    tokens = [s.tokens for s in sentences]
    if workload == "reconstruct":
        return Operation(workload, ["reconstruct"] + common, out_dir, len(tokens), tokens, local)
    if workload == "interpolate":
        return Operation(workload, ["interpolate"] + common + ["--random", str(size.pairs)],
                         out_dir, size.pairs, tokens, local, seed_base=seed * 1000)
    raise ValueError(f"unknown workload {workload!r}")


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    """Every file an operation left in its output directory."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
