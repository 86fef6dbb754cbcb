"""Spans around calls into vqlat's public functions, installed from outside the package.

A :class:`Tracer` replaces each function in :data:`TRACED` (and every alias
another vqlat module imported by name) with a wrapper that records a span:
name, start, end, the enclosing traced span and the operation it belongs to.
Spans stay in memory; :meth:`Tracer.summary` turns them into the per-layer
metrics and :meth:`Tracer.dump` writes them as JSON.  Nothing in ``src/`` is
edited, so the untraced program is exactly the program under test.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (owner, attribute, span name); an owner containing a class name is resolved
# attribute by attribute below the module.
TRACED = (
    ("vqlat.training", "train_model", "training.train_model"),
    ("vqlat.training", "warmup_codebook", "training.warmup_codebook"),
    ("vqlat.training", "token_accuracy", "training.token_accuracy"),
    ("vqlat.training", "load_bundle", "training.load_bundle"),
    ("vqlat.model", "encode_batch", "model.encode_batch"),
    ("vqlat.model", "decode_batch", "model.decode_batch"),
    ("vqlat.model", "greedy_generate", "model.greedy_generate"),
    ("vqlat.quantizer", "quantize_kmeans", "quantizer.quantize_kmeans"),
    ("vqlat.quantizer", "ema_update", "quantizer.ema_update"),
    ("vqlat.autodiff", "backward", "autodiff.backward"),
    ("vqlat.autodiff:Adam", "step", "autodiff.Adam.step"),
    ("vqlat.geometry", "interpolate", "geometry.interpolate"),
    ("vqlat.geometry", "interpolation_smoothness", "geometry.interpolation_smoothness"),
    ("vqlat.geometry", "wmd", "geometry.wmd"),
    ("vqlat.metrics", "corpus_bleu", "metrics.corpus_bleu"),
    ("vqlat.reports", "atomic_write_text", "reports.atomic_write_text"),
)

# The quantizer's difference-form kernel works on blocks of this many rows and
# materialises one [block, K, d] array per block (vqlat.quantizer._pairwise_sq_dists).
DISTANCE_BLOCK_ROWS = 1024

# Per-layer metrics reported for every workload, in BENCHMARK.json order.
CALLS_AND_BUSY = ("model.greedy_generate", "model.decode_batch", "model.encode_batch",
                  "quantizer.quantize_kmeans", "quantizer.ema_update", "autodiff.backward",
                  "autodiff.Adam.step", "geometry.wmd", "reports.atomic_write_text")
BUSY_ONLY = ("training.warmup_codebook", "training.token_accuracy", "metrics.corpus_bleu",
             "training.load_bundle")
SELF_ONLY = ("geometry.interpolate", "geometry.interpolation_smoothness")


def _resolve(owner: str):
    module_name, _, class_path = owner.partition(":")
    obj = importlib.import_module(module_name)
    for part in filter(None, class_path.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory span recorder with the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, operation]
        self.operation = -1  # index of the current operation
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.temp_bytes = 0
        self._latent_keys: set[tuple[int, bytes]] = set()

    def run_operation(self, name: str, fn, *args):
        """Call ``fn(*args)`` as the root span of a new operation."""
        self.operation += 1
        return self._record(name, fn, args, {})

    def _record(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.operation]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, kwargs, result)
        return result

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "model.encode_batch":
            self.counts["encode_rows"] += np.asarray(args[0]).size
        elif name == "model.decode_batch":
            self.counts["decode_positions"] += np.asarray(args[1]).size
        elif name == "model.greedy_generate":
            self.counts["generated_tokens"] += len(result)
            self._latent_keys.add((self.operation, np.asarray(args[0]).tobytes()))
        elif name == "quantizer.quantize_kmeans":
            embeddings = np.asarray(args[0])
            codebook = args[1] if len(args) > 1 else kwargs["codebook"]
            rows, dim = embeddings.shape
            self.counts["quantize_rows"] += rows
            self.counts["distance_evals"] += rows * codebook.size
            block = min(rows, DISTANCE_BLOCK_ROWS) * codebook.size * dim * embeddings.itemsize
            self.temp_bytes = max(self.temp_bytes, block)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every traced function, and each alias of it, through a span."""
        patched = []
        try:
            for owner_name, attr, span_name in TRACED:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
                wrapper = self.wrap(span_name, original)
                owners = [owner] + [m for n, m in list(sys.modules.items())
                                    if n.startswith("vqlat") and m is not owner]
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                            patched.append((target, key, original))
            yield self
        finally:
            for target, key, original in reversed(patched):
                setattr(target, key, original)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics, each averaged over the traced operations."""
        ops = max(self.operation + 1, 1)
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
        own = defaultdict(float, self.self_times())
        greedy = calls["model.greedy_generate"]
        decodes_in_greedy = sum(1 for name, _, _, parent, _ in self.spans
                                if name == "model.decode_batch" and parent >= 0
                                and self.spans[parent][0] == "model.greedy_generate")
        out: dict[str, float] = {}
        for name in CALLS_AND_BUSY:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.busy_s"] = busy[name] / ops
        for name in BUSY_ONLY:
            out[f"{name}.busy_s"] = busy[name] / ops
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = own[name] / ops
        out["model.greedy_generate.tokens"] = self.counts["generated_tokens"] / ops
        out["model.decode_batch.positions"] = self.counts["decode_positions"] / ops
        out["model.encode_batch.rows"] = self.counts["encode_rows"] / ops
        out["model.decode_calls_per_sentence"] = decodes_in_greedy / greedy if greedy else 0.0
        out["geometry.decode.distinct_share"] = len(self._latent_keys) / greedy if greedy else 0.0
        out["quantizer.quantize_kmeans.rows"] = self.counts["quantize_rows"] / ops
        out["quantizer.quantize_kmeans.distance_evals"] = self.counts["distance_evals"] / ops
        out["quantizer.quantize_kmeans.temp_mb"] = self.temp_bytes / 1e6
        return out

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over every traced operation."""
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def dump(self, path, meta: dict) -> None:
        """Write the spans (ids are list positions; parent -1 is a root) as JSON."""
        spans = [{"id": i, "name": name, "start": start, "end": end,
                  "parent": parent, "operation": op}
                 for i, (name, start, end, parent, op) in enumerate(self.spans)]
        blob = dict(meta, self_s=self.self_times(), spans=spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
