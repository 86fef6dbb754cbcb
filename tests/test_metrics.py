"""BLEU scoring checks against hand-computed values and a counting oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqlat.errors import ContractError
from vqlat.metrics import corpus_bleu

from tests.oracles import corpus_bleu_counting

# short sentences over few words: repeats, sentences shorter than 4, empty ones
SENTENCE = st.lists(st.sampled_from("abc"), max_size=6)


class TestCorpusBleu:
    def test_perfect_match_is_one(self):
        refs = [["a", "b", "c", "d"], ["x", "y", "z", "w", "v"]]
        scores = corpus_bleu([list(r) for r in refs], refs)
        for n in range(1, 5):
            assert scores[n] == pytest.approx(1.0)

    def test_no_overlap_is_zero(self):
        scores = corpus_bleu([["q", "q", "q"]], [["a", "b", "c"]])
        assert scores[1] == 0.0
        assert scores[4] == 0.0

    def test_unigram_precision_hand_computed(self):
        # candidate: 3 of 4 unigrams match; lengths equal so bp = 1
        scores = corpus_bleu([["a", "b", "c", "x"]], [["a", "b", "c", "d"]])
        assert scores[1] == pytest.approx(3 / 4)

    def test_clipping_limits_repeats(self):
        # "the" appears twice in the reference; candidate of seven "the"
        # gets credit for two
        scores = corpus_bleu([["the"] * 7], [["the", "cat", "the", "mat"]])
        assert scores[1] == pytest.approx((2 / 7) * 1.0)  # bp = 1, candidate longer

    def test_brevity_penalty(self):
        # candidate half the reference length: bp = exp(1 - 2)
        scores = corpus_bleu([["a", "b"]], [["a", "b", "c", "d"]])
        assert scores[1] == pytest.approx(math.exp(1 - 4 / 2) * 1.0)

    def test_bigram_combination(self):
        cand = [["a", "b", "c", "d"]]
        ref = [["a", "b", "x", "d"]]
        # p1 = 3/4, p2 = 1/3, equal lengths
        scores = corpus_bleu(cand, ref)
        assert scores[2] == pytest.approx(math.exp((math.log(3 / 4) + math.log(1 / 3)) / 2))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ContractError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            corpus_bleu([], [])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(SENTENCE, SENTENCE, st.booleans()), min_size=1, max_size=6))
    def test_equals_counting_oracle(self, pairs):
        # a drawn flag makes the candidate an equal copy of its reference
        candidates = [list(ref) if copy else cand for cand, ref, copy in pairs]
        references = [ref for _, ref, _ in pairs]
        assert corpus_bleu(candidates, references) == corpus_bleu_counting(candidates, references)
