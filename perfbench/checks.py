"""Output checks a correct implementation must pass, whatever it prints today.

Each check returns a list of problems; an empty list means the output passed.
The references here (token comparison, the teacher-forced greedy check, the
float64 brute force over the codebook) are written in the benchmark, so they
do not share the code paths they check.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from vqlat import model as md
from vqlat.autodiff import Tensor
from vqlat.corpus import Vocabulary
from vqlat.quantizer import DEAD_COUNT_THRESHOLD
from vqlat.training import ModelBundle, load_bundle
from workloads import Operation, Size, read_outputs

LOSS_HEADER = "epoch,ce,commit,token_acc"
EXACT_MATCH_BAR = 0.80       # acceptance criterion 6
# Teacher-forced logits come from a batched pass, greedy ones from a
# one-sequence pass; float32 rounding can reorder near-ties by this much.
LOGIT_TOLERANCE = 1e-4
PATH_COST_RTOL = 1e-9
IS_CEILING = 1.0 + 1e-9
SPECIAL_IDS = {word: i for i, word in enumerate(Vocabulary.SPECIALS)}


def _word_id(vocab: Vocabulary, word: str) -> int:
    return SPECIAL_IDS[word] if word in SPECIAL_IDS else vocab.id_of(word)


# -- train ------------------------------------------------------------------------


def check_loss_log(text: str, epochs: int) -> list[str]:
    """One finite row per epoch, numbered in order, with the last CE below the first."""
    lines = text.splitlines()
    if not lines or lines[0] != LOSS_HEADER:
        return [f"loss log header is not {LOSS_HEADER!r}"]
    rows = []
    for n, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            return [f"loss log row {n} is not numeric: {line!r}"]
        if len(values) != 4 or not all(math.isfinite(v) for v in values):
            return [f"loss log row {n} is not four finite numbers: {line!r}"]
        if values[0] != n:
            return [f"loss log row {n} is numbered {fields[0]}"]
        rows.append(values)
    if len(rows) != epochs:
        return [f"loss log has {len(rows)} rows for {epochs} epochs"]
    if not rows[-1][1] < rows[0][1]:
        return [f"last epoch CE {rows[-1][1]} is not below the first {rows[0][1]}"]
    return []


def check_trained_bundle(bundle: ModelBundle, codebook_size: int) -> list[str]:
    """Finite tensors shaped as the config implies, and the codebook's EMA invariant."""
    problems = []
    expected = md.init_params(bundle.config, np.random.default_rng(0)).arrays()
    for name, array in bundle.params.arrays().items():
        if array.shape != expected[name].shape:
            problems.append(f"tensor {name} has shape {array.shape}, "
                            f"config implies {expected[name].shape}")
        if not np.isfinite(array).all():
            problems.append(f"tensor {name} holds non-finite values")
    book = bundle.codebook
    shape = (codebook_size, bundle.config.d_model)
    if book.entries.shape != shape or book.sums.shape != shape or book.counts.shape != shape[:1]:
        problems.append(f"codebook shapes {book.entries.shape}/{book.counts.shape}/"
                        f"{book.sums.shape} do not match K={codebook_size}, d={shape[1]}")
        return problems
    for name, array in (("entries", book.entries), ("counts", book.counts), ("sums", book.sums)):
        if not np.isfinite(array).all():
            problems.append(f"codebook {name} hold non-finite values")
    live = book.counts >= DEAD_COUNT_THRESHOLD
    # entries, counts and sums are each stored as float32, so the quotient
    # carries up to three float32 roundings
    ratio = book.sums[live] / book.counts[live, None]
    if not np.allclose(book.entries[live], ratio, rtol=4 * 2.0 ** -24, atol=0.0):
        worst = int(np.argmax(np.abs(book.entries[live] - ratio).max(axis=1)))
        problems.append(f"live codebook entry {int(np.flatnonzero(live)[worst])} "
                        f"differs from sums / counts")
    return problems


def check_trained_tokens(counted: int, tokens: list[list[str]], epochs: int) -> list[str]:
    """The loss covered every sentence token plus END, once per epoch."""
    want = sum(len(t) + 1 for t in tokens) * epochs
    return [] if counted == want else [f"trained {counted} target tokens, corpus x epochs is {want}"]


# -- greedy decoding -------------------------------------------------------------------


def check_greedy(bundle: ModelBundle, cases) -> list[str]:
    """Each emitted token, and the closing END, is the argmax of its position.

    ``cases`` holds ``(label, latents [L, d], decoded words, max_len)``.  A
    decode shorter than ``max_len`` must have stopped on END.  One
    teacher-forced ``decode_batch`` pass runs per (latent length, prefix
    length) bucket.
    """
    vocab = bundle.vocab
    buckets = defaultdict(list)
    for label, latents, words, max_len in cases:
        targets = [_word_id(vocab, w) for w in words]
        if len(targets) < max_len:
            targets.append(vocab.END)
        prefix = [vocab.START] + targets[:-1]
        buckets[(latents.shape[0], len(prefix))].append((label, latents, prefix, targets))
    problems = []
    for group in buckets.values():
        latents = Tensor(np.stack([g[1] for g in group]).astype(np.float32))
        prefixes = np.asarray([g[2] for g in group], dtype=np.int64)
        logits = md.decode_batch(latents, prefixes, bundle.params, bundle.config).data
        for (label, _, _, targets), row in zip(group, logits):
            best = row.max(axis=-1)
            chosen = row[np.arange(len(targets)), targets]
            slack = LOGIT_TOLERANCE * np.maximum(1.0, np.abs(best))
            wrong = np.flatnonzero(chosen < best - slack)
            if wrong.size:
                problems.append(f"{label}: token {int(wrong[0])} is not the greedy choice")
    return problems


# -- reconstruct ------------------------------------------------------------------------


def check_reconstruct(report: str, tokens: list[list[str]], bundle: ModelBundle) -> list[str]:
    """Exact matches recounted from the decoded lines, the bar, and greedy decoding."""
    lines = report.splitlines()
    head = dict(line.split("\t", 1) for line in lines[:7] if "\t" in line)
    body = lines[7:]
    if head.get("sentences") != str(len(tokens)) or len(body) != len(tokens):
        return [f"report covers {head.get('sentences')} sentences / {len(body)} lines, "
                f"corpus has {len(tokens)}"]
    problems = []
    decoded = []
    for i, (line, want) in enumerate(zip(body, tokens)):
        index, flag, text = (line.split("\t") + ["", ""])[:3]
        got = text.split()
        decoded.append(got)
        if index != str(i) or flag != ("OK" if got == want else "MISS"):
            problems.append(f"report line {i} is mislabelled: {line!r}")
    exact = sum(got == want for got, want in zip(decoded, tokens))
    rate = exact / len(tokens)
    if head.get("exact_match") != f"{rate:.6f}":
        problems.append(f"report exact_match {head.get('exact_match')} != recount {rate:.6f}")
    if rate < EXACT_MATCH_BAR:
        problems.append(f"exact match {rate:.4f} is below {EXACT_MATCH_BAR}")
    cases = [(f"sentence {i}", bundle.quantize_words(want)[1], got, len(want) + 2)
             for i, (want, got) in enumerate(zip(tokens, decoded))]
    return problems + check_greedy(bundle, cases)


# -- interpolate ------------------------------------------------------------------------


def parse_path(text: str) -> list[tuple[float, np.ndarray, list[str]]]:
    steps = []
    for line in text.splitlines():
        t, indices, sentence = line.split("\t")
        steps.append((float(t), np.asarray([int(i) for i in indices.split(",")]),
                      sentence.split()))
    return steps


def _distances(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    out = np.empty((rows.shape[0], entries.shape[0]))
    for r, row in enumerate(rows.astype(np.float64)):
        out[r] = np.sqrt(((entries - row) ** 2).sum(axis=1))
    return out


def check_path(steps, source: np.ndarray, target: np.ndarray, entries: np.ndarray,
               label: str) -> list[str]:
    """Endpoints are the source and target rows; every step is cost-optimal.

    ``source``/``target`` are entry indices, already padded to one length.
    Entries are compared by value, since duplicate rows share a position.
    """
    entries64 = entries.astype(np.float64)
    if len(steps) < 2 or steps[0][0] != 0.0 or steps[-1][0] != 1.0:
        return [f"{label}: path does not run from t=0 to t=1"]
    if any(len(idx) != len(source) for _, idx, _ in steps):
        return [f"{label}: path rows do not match the padded length {len(source)}"]
    problems = []
    if not np.array_equal(entries[steps[0][1]], entries[source]):
        problems.append(f"{label}: path does not start at the source's entries")
    if not np.array_equal(entries[steps[-1][1]], entries[target]):
        problems.append(f"{label}: path does not end at the target's entries")
    tgt_dists = _distances(entries64[target], entries64)
    for (_, prev, _), (t, idx, _) in zip(steps, steps[1:]):
        cost = (1.0 - t) * _distances(entries64[prev], entries64) + t * tgt_dists
        chosen = cost[np.arange(len(idx)), idx]
        best = cost.min(axis=1)
        if (chosen > best * (1.0 + PATH_COST_RTOL) + 1e-12).any():
            problems.append(f"{label}: step t={t:.2f} is not the cheapest entry")
    return problems


def path_is_zero(steps) -> bool:
    """True when smoothness is 0: several distinct decodes, same first and last."""
    unique = []
    for _, _, words in steps:
        if not unique or words != unique[-1]:
            unique.append(words)
    return len(unique) >= 2 and unique[0] == unique[-1]


def check_interpolate(outputs: dict[str, bytes], tokens: list[list[str]], pairs: int,
                      bundle: ModelBundle) -> list[str]:
    """Paths, their decodes, and 0 < min IS <= avg IS <= max IS <= 1 + 1e-9.

    IS is 0 only for a path whose first and last distinct decodes are the
    same sentence (then its WMD numerator is 0), so min IS must be 0 exactly
    when such a path was dumped.
    """
    report = dict(line.split("\t") for line in outputs["interpolation.txt"].decode().splitlines())
    if report.get("pairs") != str(pairs):
        return [f"interpolation report covers {report.get('pairs')} pairs, asked for {pairs}"]
    paths = {name: parse_path(blob.decode()) for name, blob in outputs.items()
             if name.startswith("path_")}
    if not 1 <= len(paths) <= pairs:
        return [f"{len(paths)} path files for {pairs} pairs"]
    entries = bundle.codebook.entries
    pad_row = bundle.end_token_latent()
    pad = int(np.flatnonzero((entries == pad_row).all(axis=1))[0])
    max_len = bundle.config.max_len
    problems = []
    cases = []
    for name, steps in sorted(paths.items()):
        i, j = (int(x) for x in name[len("path_"):-len(".txt")].split("_"))
        src = bundle.quantize_words(tokens[i])[0].tolist()
        tgt = bundle.quantize_words(tokens[j])[0].tolist()
        length = max(len(src), len(tgt))
        src += [pad] * (length - len(src))
        tgt += [pad] * (length - len(tgt))
        problems += check_path(steps, np.asarray(src), np.asarray(tgt), entries, name)
        cases += [(f"{name} t={t:.2f}", entries[idx], words, max_len) for t, idx, words in steps]
    low, avg, high = (float(report[k]) for k in ("min IS", "avg IS", "max IS"))
    if not 0.0 <= low <= avg <= high <= IS_CEILING:
        problems.append(f"IS out of order: min {low} avg {avg} max {high}")
    if (low == 0.0) != any(path_is_zero(steps) for steps in paths.values()):
        problems.append(f"min IS {low} disagrees with the paths' first and last decodes")
    return problems + check_greedy(bundle, cases)


def check_operation(op: Operation, size: Size, checked: Path,
                    counted_tokens: int | None = None) -> list[str]:
    """Run the workload's checks on one call's outputs, kept in ``checked``."""
    outputs = read_outputs(checked)
    if op.workload == "train":
        problems = check_loss_log(outputs["loss_log.csv"].decode(), size.train_epochs)
        problems += check_trained_bundle(load_bundle(checked / "checkpoint.ckpt"),
                                         size.codebook_size)
        return problems + check_trained_tokens(counted_tokens, op.tokens, size.train_epochs)
    bundle = load_bundle(op.checkpoint)
    if op.workload == "reconstruct":
        return check_reconstruct(outputs["reconstruct.txt"].decode(), op.tokens, bundle)
    return check_interpolate(outputs, op.tokens, size.pairs, bundle)
