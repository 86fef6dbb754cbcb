"""The benchmark's own tests, at a tiny size (a 10-sentence memorisation model).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
import vqlat.cli
import vqlat.model
from vqlat.training import load_bundle
from run import WORKLOADS
from workloads import TINY, read_outputs

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A directory whose cache holds the tiny checkpoint, trained once."""
    path = tmp_path_factory.mktemp("bench")
    workloads.provision_checkpoint(TINY, path / "cache")
    return path


@pytest.fixture(scope="module")
def clean(base):
    """One untraced tiny run per workload, with the warm-up call's checked outputs."""
    results = {}
    for workload in WORKLOADS:
        work = base / f"clean-{workload}"
        results[workload] = (run.run(workload, 3, 0.2, False, TINY, work), work / "checked-0")
    return results


def _operation(workload, base, work):
    cached = workloads.provision_checkpoint(TINY, base / "cache") if workload != "train" else None
    return workloads.set_up(workload, 3, TINY, work, cached)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_passes_and_reports_end_to_end_metrics(clean, workload):
    result, _ = clean[workload]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(base, workload):
    result = run.run(workload, 4, 0.2, True, TINY, base / f"traced-{workload}")
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.items_per_s"]["value"] > 0
    assert (base / "traces" / f"{workload}-seed4.json").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_operation_leaves_byte_identical_outputs(base, tmp_path, workload):
    op = _operation(workload, base, tmp_path)
    runner = run.Runner(op, vqlat.cli.main)
    assert runner.call() is not None
    plain = read_outputs(op.out_dir)
    original = vqlat.model.decode_batch
    tracer = tracing.Tracer()
    runner.attempted = 0  # repeat call 0's arguments (interpolate seeds each call)
    with tracer.installed():
        assert vqlat.model.decode_batch is not original
        assert runner.call(lambda argv: tracer.run_operation("cli", vqlat.cli.main, argv))
    assert vqlat.model.decode_batch is original
    assert tracer.spans and tracer.operation == 0
    assert read_outputs(op.out_dir) == plain
    want = {"train": {"checkpoint.ckpt", "loss_log.csv"}, "reconstruct": {"reconstruct.txt"},
            "interpolate": {"interpolation.txt"}}[workload]
    assert want <= set(plain)


def test_span_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0],
                    ["inner", 6.0, 7.0, 0, 0], ["leaf", 2.5, 3.0, 1, 0]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.5, "leaf": 0.5}


# -- each check fails on a corrupted output -----------------------------------------


def test_loss_check_flags_a_nan_row(clean):
    text = (clean["train"][1] / "loss_log.csv").read_text()
    assert checks.check_loss_log(text, TINY.train_epochs) == []
    lines = text.splitlines()
    epoch, _, commit, acc = lines[1].split(",")
    lines[1] = ",".join([epoch, "nan", commit, acc])
    assert checks.check_loss_log("\n".join(lines) + "\n", TINY.train_epochs)


def test_loss_check_flags_a_missing_epoch(clean):
    text = (clean["train"][1] / "loss_log.csv").read_text()
    assert checks.check_loss_log(text, TINY.train_epochs + 1)


def test_bundle_check_flags_a_broken_ema_invariant_and_nan_weights(clean):
    bundle = load_bundle(clean["train"][1] / "checkpoint.ckpt")
    assert checks.check_trained_bundle(bundle, TINY.codebook_size) == []
    bundle.codebook.entries[0, 0] += 1e-3
    assert any("sums / counts" in p for p in checks.check_trained_bundle(bundle, TINY.codebook_size))
    bundle.codebook.entries[0, 0] -= 1e-3
    bundle.params["out.b"].data[0] = np.nan
    assert any("non-finite" in p for p in checks.check_trained_bundle(bundle, TINY.codebook_size))


def test_token_count_check_flags_a_skipped_batch():
    tokens = [["a", "b"], ["c"]]
    assert checks.check_trained_tokens(10, tokens, 2) == []
    assert checks.check_trained_tokens(8, tokens, 2)


def _swap_first_decoded_pair(report: str) -> tuple[str, int]:
    lines = report.splitlines()
    for n, line in enumerate(lines[7:], start=7):
        index, flag, text = line.split("\t")
        words = text.split()
        if len(words) >= 2 and words[0] != words[1]:
            words[0], words[1] = words[1], words[0]
            lines[n] = "\t".join([index, flag, " ".join(words)])
            return "\n".join(lines) + "\n", int(index)
    raise AssertionError("no decoded line with two distinct leading words")


def test_reconstruct_check_flags_a_swapped_token(base, clean):
    report = (clean["reconstruct"][1] / "reconstruct.txt").read_text()
    op = _operation("reconstruct", base, base / "swap")
    bundle = load_bundle(op.checkpoint)
    assert checks.check_reconstruct(report, op.tokens, bundle) == []
    corrupted, index = _swap_first_decoded_pair(report)
    assert checks.check_reconstruct(corrupted, op.tokens, bundle)
    # the greedy check alone catches it, whatever the report's labels say
    decoded = corrupted.splitlines()[7 + index].split("\t")[2].split()
    latents = bundle.quantize_words(op.tokens[index])[1]
    case = ("swapped", latents, decoded, len(op.tokens[index]) + 2)
    assert checks.check_greedy(bundle, [case])


def test_interpolate_check_flags_a_non_optimal_step(base, clean):
    outputs = read_outputs(clean["interpolate"][1])
    op = _operation("interpolate", base, base / "nonoptimal")
    bundle = load_bundle(op.checkpoint)
    assert checks.check_interpolate(outputs, op.tokens, TINY.pairs, bundle) == []

    name = next(n for n in sorted(outputs) if n.startswith("path_"))
    steps = checks.parse_path(outputs[name].decode())
    source, target = steps[0][1], steps[-1][1]
    assert checks.check_path(steps, source, target, bundle.codebook.entries, name) == []
    entries = bundle.codebook.entries.astype(np.float64)
    t, idx, words = steps[5]
    worst = np.linalg.norm(entries - entries[target[0]], axis=1).argmax()
    bad = idx.copy()
    bad[0] = worst
    corrupted = steps[:5] + [(t, bad, words)] + steps[6:]
    assert any("t=0.50" in p for p in
               checks.check_path(corrupted, source, target, bundle.codebook.entries, name))


def test_interpolate_check_flags_smoothness_out_of_order(base, clean):
    outputs = read_outputs(clean["interpolate"][1])
    op = _operation("interpolate", base, base / "order")
    bundle = load_bundle(op.checkpoint)
    report = dict(line.split("\t") for line in outputs["interpolation.txt"].decode().splitlines())
    report["max IS"] = "1.000100"
    outputs["interpolation.txt"] = "".join(f"{k}\t{v}\n" for k, v in report.items()).encode()
    assert any("IS out of order" in p
               for p in checks.check_interpolate(outputs, op.tokens, TINY.pairs, bundle))


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
