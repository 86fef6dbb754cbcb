"""Corpus BLEU with modified n-gram precision and brevity penalty."""

from __future__ import annotations

import math
from collections import Counter

from .errors import ContractError

ORDERS = range(1, 5)  # BLEU-1..4


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(candidates: list[list], references: list[list]) -> dict[int, float]:
    """BLEU-1..4 over aligned candidate/reference token lists.

    Counts are clipped per sentence by the reference's n-gram multiplicity;
    the brevity penalty uses total lengths.  An order with zero matches
    anywhere yields 0 for that order and above (no smoothing).
    """
    if len(candidates) != len(references):
        raise ContractError(f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise ContractError("empty corpus")
    matched = {n: 0 for n in ORDERS}
    total = {n: 0 for n in ORDERS}
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in ORDERS:
            grams = max(len(cand) - n + 1, 0)
            total[n] += grams
            if cand == ref:  # a copy clips each of its n-grams at its own count
                matched[n] += grams
            else:
                ref_counts = _ngrams(ref, n)
                matched[n] += sum(min(c, ref_counts.get(g, 0)) for g, c in _ngrams(cand, n).items())

    if cand_len == 0:
        return {n: 0.0 for n in ORDERS}
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = {}
    for n in ORDERS:
        precisions = [matched[k] / total[k] if total[k] else 0.0 for k in range(1, n + 1)]
        scores[n] = bp * math.exp(sum(math.log(p) for p in precisions) / n) if all(precisions) else 0.0
    return scores
