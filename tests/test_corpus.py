"""Grammar, math-split, and vocabulary contracts."""

import itertools

import pytest

from vqlat import corpus as cg
from vqlat.errors import ContractError, InputError

from tests.conftest import inference_fixture_corpus
from tests.oracles import BUILDERS_BY_HAND, generate_math_tracked, inference_instances_by_hand


class TestGrammar:
    def test_is_a_example_tokens_and_roles(self):
        s = cg.make_is_a("shark", "fish")
        assert s.tokens == ["a", "shark", "is", "a", "kind", "of", "fish"]
        assert s.roles == ["O", "ARG1", "PRED", "O", "O", "O", "ARG2"]

    def test_same_seed_same_corpus(self):
        a = cg.generate_sentences(7, 200)
        b = cg.generate_sentences(7, 200)
        assert [s.tokens for s in a] == [s.tokens for s in b]
        assert [s.roles for s in a] == [s.roles for s in b]

    def test_different_seeds_differ(self):
        a = cg.generate_sentences(1, 100)
        b = cg.generate_sentences(2, 100)
        assert [s.tokens for s in a] != [s.tokens for s in b]

    def test_family_coverage_over_1000(self):
        sentences = cg.generate_sentences(3, 1000)
        counts = {}
        for s in sentences:
            counts[s.topic_tag] = counts.get(s.topic_tag, 0) + 1
        for family in cg.TOPICS:
            assert counts.get(family, 0) >= 50, f"{family}: {counts}"

    def test_every_sentence_has_pred_and_aligned_roles(self):
        for s in cg.generate_sentences(4, 500):
            assert len(s.tokens) == len(s.roles)
            assert "PRED" in s.roles

    def test_role_pattern_fixed_per_template(self):
        # exact span extraction relies on every template emitting one fixed
        # role layout (keyed by length, since multiword objects stretch it)
        patterns: dict[tuple[str, int], tuple[str, ...]] = {}
        for s in cg.generate_sentences(5, 1000):
            key = (s.template_id, len(s.tokens))
            assert patterns.setdefault(key, tuple(s.roles)) == tuple(s.roles), key

    def test_vocabulary_bounded(self):
        words = {t for s in cg.generate_sentences(6, 5000) for t in s.tokens}
        assert len(words) <= 300

    def test_count_must_be_positive(self):
        with pytest.raises(ContractError):
            cg.generate_sentences(0, 0)

    def test_topic_inference_matches_generated_tags(self):
        for s in cg.generate_sentences(8, 300):
            assert cg.infer_topic(s.tokens) == s.topic_tag

    def test_relation_extraction(self):
        assert cg.extract_relation(["a", "storm", "causes", "damage"]) == "causes"
        assert cg.extract_relation(["a", "storm", "means", "damage"]) == "means"
        assert cg.extract_relation(["blue", "damage"]) is None


class TestRoleSpans:
    def test_contiguous_runs(self):
        roles = ["O", "ARG1", "PRED", "O", "O", "O", "ARG2", "ARG2"]
        assert cg.role_spans(roles, {"ARG1", "ARG2"}) == [(1, 2), (6, 8)]

    def test_empty_when_absent(self):
        assert cg.role_spans(["O", "PRED"], {"ARG1"}) == []


class TestInferenceInstances:
    def test_shark_chain_is_first(self):
        inst = cg.generate_inference_instances(0, 4)[0]
        assert inst.premise1.tokens == ["a", "shark", "is", "a", "kind", "of", "fish"]
        assert inst.premise2.tokens == ["a", "fish", "is", "a", "kind", "of", "aquatic", "animal"]
        assert inst.conclusion.tokens == ["a", "shark", "is", "a", "kind", "of", "aquatic", "animal"]

    def test_mix_of_ops_and_determinism(self):
        a = cg.generate_inference_instances(1, 100)
        b = cg.generate_inference_instances(1, 100)
        assert [i.conclusion.tokens for i in a] == [i.conclusion.tokens for i in b]
        ops = {i.op for i in a}
        assert ops == {"arg_sub", "verb_sub"}

    def test_verb_sub_conclusion_applies_synonym(self):
        insts = [i for i in cg.generate_inference_instances(2, 60) if i.op == "verb_sub"]
        for inst in insts:
            verb, synonym = inst.premise1.tokens[0], inst.premise1.tokens[2]
            assert inst.premise2.tokens[-1] == verb
            assert inst.conclusion.tokens[-1] == synonym

    def test_derive_conclusion_matches_every_instance(self):
        # 1440 exhausts every op's pool: 32 + 320 + 288 + 800 instances
        instances = cg.generate_inference_instances(0, 1440, ops=cg.INFERENCE_OPS)
        assert {i.op for i in instances} == set(cg.INFERENCE_OPS)
        for inst in instances:
            assert cg.derive_conclusion(inst.premise1, inst.premise2, inst.op) == inst.conclusion.tokens

    def test_derive_conclusion_none_without_anchor(self):
        shark = cg.make_is_a("shark", "fish")
        assert cg.derive_conclusion(shark, cg.make_is_a("oak", "tree"), "arg_sub") is None
        assert cg.derive_conclusion(shark, cg.make_can("shark", "swim"), "further_spec") is None
        with pytest.raises(ContractError):
            cg.derive_conclusion(shark, shark, "negate")

    def test_fixture_corpus_dedupes(self):
        insts = cg.generate_inference_instances(3, 50)
        corpus = inference_fixture_corpus(insts)
        texts = [s.text() for s in corpus]
        assert len(texts) == len(set(texts))
        everything = {s.text() for i in insts for s in (i.premise1, i.premise2, i.conclusion)}
        assert set(texts) == everything


class TestMathSplits:
    def test_eq_has_single_equals_at_position_one(self):
        for e in cg.generate_math(0, 200, "EQ"):
            assert e.tokens.count("=") == 1
            assert e.tokens[1] == "="

    def test_var_split_disjoint_from_training_alphabet(self):
        for e in cg.generate_math(1, 200, "VAR"):
            assert e.variables & set(cg.TRAIN_VARIABLES) == set()
            assert e.variables <= set(cg.NOVEL_VARIABLES)

    def test_easy_below_training_minimum(self):
        eval_counts = [len(e.variables) for e in cg.generate_math(2, 1000, "EVAL")]
        easy_counts = [len(e.variables) for e in cg.generate_math(3, 1000, "EASY")]
        assert max(easy_counts) < min(eval_counts)

    def test_len_above_training_maximum(self):
        eval_counts = [len(e.variables) for e in cg.generate_math(4, 1000, "EVAL")]
        len_counts = [len(e.variables) for e in cg.generate_math(5, 1000, "LEN")]
        assert min(len_counts) > max(eval_counts)

    def test_balanced_delimiters(self):
        for split in cg.MATH_SPLITS:
            for e in cg.generate_math(6, 100, split):
                assert e.tokens.count("(") == e.tokens.count(")")

    def test_deterministic(self):
        a = cg.generate_math(7, 100, "EVAL")
        b = cg.generate_math(7, 100, "EVAL")
        assert [e.tokens for e in a] == [e.tokens for e in b]

    def test_unknown_split_rejected(self):
        with pytest.raises(ContractError):
            cg.generate_math(0, 10, "SWAP")


# Every argument each template builder takes anywhere in the grammar, and more.
VERBS = cg.ABILITY_VERBS + tuple(w for pair in cg.VERB_SYNONYMS for w in pair)
BUILDER_ARGS = {
    "make_is_a": list(itertools.product(
        cg.SPECIFIC_NOUNS + cg.MIDDLE_NOUNS,
        cg.MIDDLE_NOUNS + tuple(cg.MIDDLE_TO_GENERAL.values()), (False, True))),
    "make_requires": list(itertools.product(cg.SPECIFIC_NOUNS, cg.RESOURCES, cg.PURPOSES)),
    "make_causes": list(itertools.product(cg.EVENTS, cg.EFFECTS)),
    "make_means_nn": list(itertools.product(cg.EVENTS, cg.EFFECTS)),
    "make_means_vv": [p for pair in cg.VERB_SYNONYMS for p in (pair, pair[::-1])],
    "make_if_then": list(itertools.product(cg.EVENTS, cg.INTRANSITIVES, cg.EVENTS,
                                           cg.INTRANSITIVES)),
    "make_can": list(itertools.product(cg.SPECIFIC_NOUNS, VERBS)),
    "make_can_conj": list(itertools.product(cg.SPECIFIC_NOUNS, cg.ABILITY_VERBS, cg.ABILITY_VERBS)),
}
OP_SUBSETS = [ops for r in range(1, len(cg.INFERENCE_OPS) + 1)
              for ops in itertools.combinations(cg.INFERENCE_OPS, r)]


class TestOneDefinition:
    """Templates parsed from corpus lines, the one variable rule and the one
    instance-pool loop equal the hand-assembled code they replace, field for field."""

    @pytest.mark.parametrize("name", sorted(BUILDERS_BY_HAND))
    def test_builder_equals_hand_assembled(self, name):
        build, by_hand = getattr(cg, name), BUILDERS_BY_HAND[name]
        for args in BUILDER_ARGS[name]:
            assert build(*args) == by_hand(*args), args

    @pytest.mark.parametrize("seed", range(5))
    def test_generate_sentences_equals_hand_assembled(self, seed, monkeypatch):
        shipped = cg.generate_sentences(seed, 600)
        for name, by_hand in BUILDERS_BY_HAND.items():
            monkeypatch.setattr(cg, name, by_hand)
        assert shipped == cg.generate_sentences(seed, 600)

    @pytest.mark.parametrize("split", cg.MATH_SPLITS)
    def test_math_variables_equal_tracked(self, split):
        for seed in range(4):
            shipped = [(e.tokens, e.split_tag, e.variables)
                       for e in cg.generate_math(seed, 1000, split)]
            assert shipped == generate_math_tracked(seed, 1000, split)

    @pytest.mark.parametrize("ops", OP_SUBSETS, ids="+".join)
    def test_inference_instances_equal_one_block_per_op(self, ops):
        for seed in (0, 7):
            by_hand = inference_instances_by_hand(seed, 10**6, ops)
            assert cg.generate_inference_instances(seed, len(by_hand), ops=ops) == by_hand


class TestTokenizer:
    def test_specials_reserved(self):
        vocab = cg.build_vocab([["x"]])
        assert (vocab.PAD, vocab.START, vocab.END, vocab.UNK) == (0, 1, 2, 3)
        assert vocab.id_of("x") == 4


class TestFileFormats:
    def test_corpus_round_trip(self, tmp_path):
        sentences = cg.generate_sentences(10, 50)
        path = tmp_path / "corpus.txt"
        cg.save_corpus(path, sentences)
        loaded = cg.load_corpus(path)
        assert [s.tokens for s in loaded] == [s.tokens for s in sentences]
        assert [s.roles for s in loaded] == [s.roles for s in sentences]
        assert [s.topic_tag for s in loaded] == [s.topic_tag for s in sentences]

    def test_math_round_trip(self, tmp_path):
        exprs = cg.generate_math(11, 40, "EQ")
        path = tmp_path / "math.txt"
        cg.save_math_corpus(path, exprs)
        loaded = cg.load_math_corpus(path)
        assert [e.tokens for e in loaded] == [e.tokens for e in exprs]
        assert all(e.split_tag == "EQ" for e in loaded)

    @pytest.mark.parametrize("load", [cg.load_corpus, cg.load_math_corpus],
                             ids=["corpus", "math"])
    def test_non_utf8_file_is_input_error_naming_it(self, tmp_path, load):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a/O \xff\xfe/ARG1 is/PRED\n")
        with pytest.raises(InputError, match="latin1.txt"):
            load(path)

    def test_load_tokens_reads_either_format(self, tmp_path):
        sentences, exprs = cg.generate_sentences(12, 30), cg.generate_math(12, 30, "EQ")
        cg.save_corpus(tmp_path / "grammar.txt", sentences)
        cg.save_math_corpus(tmp_path / "math.txt", exprs)
        (tmp_path / "bare.txt").write_text("".join(e.text() + "\n" for e in exprs))
        assert cg.load_tokens(tmp_path / "grammar.txt") == [s.tokens for s in sentences]
        assert cg.load_tokens(tmp_path / "math.txt") == [e.tokens for e in exprs]
        assert cg.load_tokens(tmp_path / "bare.txt") == [e.tokens for e in exprs]

    def test_load_tokens_of_blank_file_is_contract_error(self, tmp_path):
        (tmp_path / "blank.txt").write_text("\n  \n")
        with pytest.raises(ContractError, match="holds no sentences"):
            cg.load_tokens(tmp_path / "blank.txt")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("token_without_role\n")
        with pytest.raises(InputError):
            cg.load_corpus(path)
