"""Deterministic synthetic corpora.

A small template grammar produces role-annotated explanatory sentences over a
fixed taxonomy, and a latex-expression generator produces five evaluation
splits probing out-of-distribution behaviour.  Tokenization is word-level so
token positions align one-to-one with role labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, InputError, NoAnchorError
from .reports import atomic_write_text, read_lines

ROLES = ("ARG0", "ARG1", "ARG2", "PRED", "MOD", "NEG", "O")

TOPIC_IS_A = "is-a"
TOPIC_REQUIRES = "requires"
TOPIC_CAUSE = "cause"
TOPIC_MEAN = "mean"
TOPIC_IF_THEN = "if-then"
TOPIC_CAN = "can"
TOPICS = (TOPIC_IS_A, TOPIC_REQUIRES, TOPIC_CAUSE, TOPIC_MEAN, TOPIC_IF_THEN, TOPIC_CAN)

# Fixed taxonomy: specific noun -> class noun -> broad category.  Keeping it
# seed-independent means every corpus shares one consistent world, so derived
# conclusions never contradict sampled sentences.
SPECIFIC_TO_MIDDLE = {
    "shark": "fish", "salmon": "fish", "trout": "fish", "eel": "fish",
    "eagle": "bird", "sparrow": "bird", "owl": "bird", "crow": "bird",
    "beetle": "insect", "ant": "insect", "bee": "insect", "moth": "insect",
    "snake": "reptile", "lizard": "reptile", "turtle": "reptile", "gecko": "reptile",
    "frog": "amphibian", "toad": "amphibian", "newt": "amphibian", "salamander": "amphibian",
    "crab": "crustacean", "lobster": "crustacean", "shrimp": "crustacean", "krill": "crustacean",
    "oak": "tree", "pine": "tree", "birch": "tree", "maple": "tree",
    "rose": "flower", "daisy": "flower", "tulip": "flower", "orchid": "flower",
}
MIDDLE_TO_GENERAL = {
    "fish": ("aquatic", "animal"),
    "crustacean": ("aquatic", "animal"),
    "bird": ("animal",),
    "reptile": ("animal",),
    "insect": ("creature",),
    "amphibian": ("creature",),
    "tree": ("plant",),
    "flower": ("plant",),
}
SPECIFIC_NOUNS = tuple(SPECIFIC_TO_MIDDLE)
MIDDLE_NOUNS = tuple(MIDDLE_TO_GENERAL)

RESOURCES = ("water", "food", "energy", "oxygen", "sunlight", "warmth", "shelter", "something")
PURPOSES = ("survive", "grow", "live", "move", "breathe", "eat")
EVENTS = ("storm", "fire", "rain", "wind", "friction", "flood", "frost", "lightning",
          "earthquake", "drought")
EFFECTS = ("damage", "erosion", "motion", "heat", "growth", "decay", "change", "noise",
           "light", "pressure")
INTRANSITIVES = ("comes", "occurs", "grows", "falls", "rises", "spreads", "melts", "freezes")
ABILITY_VERBS = ("swim", "fly", "run", "jump", "climb", "dig", "hunt", "hide", "sing", "crawl")
VERB_SYNONYMS = (
    ("run", "move"), ("eat", "consume"), ("look", "see"), ("jump", "leap"),
    ("talk", "speak"), ("build", "make"), ("push", "press"), ("pull", "drag"),
    ("shine", "glow"), ("spin", "rotate"),
)

# Relation markers checked in order; used to classify arbitrary decoded output.
RELATION_MARKERS = ("causes", "means", "requires", "can", "is")
# The topic of the first marker a sentence contains, checked in order; is-a without one.
TOPIC_MARKERS = (("if", TOPIC_IF_THEN), ("causes", TOPIC_CAUSE), ("means", TOPIC_MEAN),
                 ("requires", TOPIC_REQUIRES), ("can", TOPIC_CAN))


@dataclass
class AnnotatedSentence:
    tokens: list[str]
    roles: list[str]
    template_id: str
    topic_tag: str

    def __post_init__(self):
        if len(self.tokens) != len(self.roles):
            raise ContractError(f"{len(self.tokens)} tokens but {len(self.roles)} roles")
        if "PRED" not in self.roles:
            raise ContractError(f"sentence {' '.join(self.tokens)!r} has no PRED token")
        bad = set(self.roles) - set(ROLES)
        if bad:
            raise ContractError(f"unknown roles {bad}")

    def text(self) -> str:
        return " ".join(self.tokens)


# -- template builders -------------------------------------------------------


def _template(template_id: str, line: str) -> AnnotatedSentence:
    """A template written as one corpus line, whose format gives its roles and topic."""
    return replace(parse_annotated(line), template_id=template_id)


def make_is_a(subject: str, obj: tuple[str, ...] | str, negated: bool = False) -> AnnotatedSentence:
    objs = " ".join(f"{w}/ARG2" for w in ([obj] if isinstance(obj, str) else obj))
    neg = " not/NEG" if negated else ""
    return _template("is_a_neg" if negated else "is_a",
                     f"a/O {subject}/ARG1 is/PRED{neg} a/O kind/O of/O {objs}")


def make_requires(subject: str, resource: str, purpose: str) -> AnnotatedSentence:
    return _template("requires", f"a/O {subject}/ARG1 requires/PRED {resource}/ARG2 to/O {purpose}/MOD")


def make_causes(subject: str, effect: str) -> AnnotatedSentence:
    return _template("causes", f"a/O {subject}/ARG1 causes/PRED {effect}/ARG2")


def make_means_nn(subject: str, obj: str) -> AnnotatedSentence:
    return _template("means_nn", f"a/O {subject}/ARG1 means/PRED {obj}/ARG2")


def make_means_vv(verb: str, synonym: str) -> AnnotatedSentence:
    return _template("means_vv", f"{verb}/ARG1 means/PRED {synonym}/ARG2")


def make_if_then(event1: str, verb1: str, event2: str, verb2: str) -> AnnotatedSentence:
    return _template("if_then", f"if/O a/O {event1}/ARG1 {verb1}/PRED then/O a/O {event2}/ARG2 {verb2}/MOD")


def make_can(subject: str, verb: str) -> AnnotatedSentence:
    return _template("can", f"a/O {subject}/ARG1 can/MOD {verb}/PRED")


def make_can_conj(subject: str, verb1: str, verb2: str) -> AnnotatedSentence:
    return _template("can_conj", f"a/O {subject}/ARG1 can/MOD {verb1}/PRED and/O {verb2}/PRED")


def generate_sentences(seed: int, count: int) -> list[AnnotatedSentence]:
    """Sample ``count`` sentences cycling uniformly over the six families."""
    if count <= 0:
        raise ContractError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    out: list[AnnotatedSentence] = []

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    while len(out) < count:
        family = TOPICS[len(out) % len(TOPICS)]
        if family == TOPIC_IS_A:
            subject = pick(SPECIFIC_NOUNS + MIDDLE_NOUNS)
            parent = (SPECIFIC_TO_MIDDLE.get(subject)
                      or MIDDLE_TO_GENERAL[subject])
            if rng.random() < 0.15:
                wrong = pick([m for m in MIDDLE_NOUNS if m != parent])
                out.append(make_is_a(subject, wrong, negated=True))
            else:
                out.append(make_is_a(subject, parent))
        elif family == TOPIC_REQUIRES:
            out.append(make_requires(pick(SPECIFIC_NOUNS), pick(RESOURCES), pick(PURPOSES)))
        elif family == TOPIC_CAUSE:
            out.append(make_causes(pick(EVENTS), pick(EFFECTS)))
        elif family == TOPIC_MEAN:
            if rng.random() < 0.3:
                out.append(make_means_vv(*pick(VERB_SYNONYMS)))
            else:
                out.append(make_means_nn(pick(EVENTS), pick(EFFECTS)))
        elif family == TOPIC_IF_THEN:
            out.append(make_if_then(pick(EVENTS), pick(INTRANSITIVES),
                                    pick(EVENTS), pick(INTRANSITIVES)))
        else:
            subject = pick(SPECIFIC_NOUNS)
            if rng.random() < 0.25:
                v1, v2 = pick(ABILITY_VERBS), pick(ABILITY_VERBS)
                out.append(make_can_conj(subject, v1, v2))
            else:
                out.append(make_can(subject, pick(ABILITY_VERBS)))
    return out


def infer_topic(tokens: list[str]) -> str:
    """Classify an arbitrary token sequence into a template family."""
    return next((topic for marker, topic in TOPIC_MARKERS if marker in tokens), TOPIC_IS_A)


def extract_relation(tokens: list[str]) -> str | None:
    """First relation marker in the sentence, None when no marker appears."""
    for tok in tokens:
        if tok in RELATION_MARKERS:
            return tok
    return None


def role_spans(roles: list[str], wanted: set[str]) -> list[tuple[int, int]]:
    """Maximal [start, end) runs whose role labels fall in ``wanted``."""
    spans = []
    start = None
    for i, role in enumerate(roles + ["O"]):
        if role in wanted and start is None:
            start = i
        elif role not in wanted and start is not None:
            spans.append((start, i))
            start = None
    return spans


# -- inference instances ------------------------------------------------------


@dataclass
class InferenceInstance:
    """Two premises plus the conclusion the grammar derives for an operation."""
    premise1: AnnotatedSentence
    premise2: AnnotatedSentence
    op: str
    conclusion: AnnotatedSentence


def _arg_sub_instance(specific: str) -> InferenceInstance:
    middle = SPECIFIC_TO_MIDDLE[specific]
    general = MIDDLE_TO_GENERAL[middle]
    return InferenceInstance(
        premise1=make_is_a(specific, middle),
        premise2=make_is_a(middle, general),
        op="arg_sub",
        conclusion=make_is_a(specific, general),
    )


def _verb_sub_instance(pair: tuple[str, str], subject: str) -> InferenceInstance:
    verb, synonym = pair
    return InferenceInstance(
        premise1=make_means_vv(verb, synonym),
        premise2=make_can(subject, verb),
        op="verb_sub",
        conclusion=make_can(subject, synonym),
    )


def _further_spec_instance(subject: str, resource: str, purpose: str, verb: str) -> InferenceInstance:
    conclusion = _template("can_spec", f"a/O {subject}/ARG1 can/MOD {verb}/PRED to/O {purpose}/MOD")
    return InferenceInstance(make_requires(subject, resource, purpose), make_can(subject, verb),
                             "further_spec", conclusion)


def _conjunction_instance(subject: str, verb1: str, verb2: str) -> InferenceInstance:
    return InferenceInstance(
        premise1=make_can(subject, verb1),
        premise2=make_can(subject, verb2),
        op="conjunction",
        conclusion=make_can_conj(subject, verb2, verb1),
    )


def generate_inference_instances(seed: int, count: int,
                                 ops: tuple[str, ...] = ("arg_sub", "verb_sub")) -> list[InferenceInstance]:
    """Deterministic premise/conclusion instances drawn from the taxonomy.

    The shark -> fish -> aquatic animal chain is always the first economic
    arg_sub instance so fixtures containing these instances cover it.
    """
    rng = np.random.default_rng(seed)
    pools: dict[str, list[InferenceInstance]] = {}
    if "arg_sub" in ops:
        specifics = ["shark"] + [s for s in SPECIFIC_NOUNS if s != "shark"]
        pools["arg_sub"] = [_arg_sub_instance(s) for s in specifics]
    shuffled = (
        ("verb_sub", _verb_sub_instance, itertools.product(VERB_SYNONYMS, SPECIFIC_NOUNS)),
        ("further_spec", _further_spec_instance, itertools.product(
            SPECIFIC_NOUNS[:8], RESOURCES[:4], PURPOSES[:3], ABILITY_VERBS[:3])),
        ("conjunction", _conjunction_instance, itertools.product(
            SPECIFIC_NOUNS, ABILITY_VERBS[:5], ABILITY_VERBS[5:])),
    )
    for op, build, combos in shuffled:
        if op in ops:
            pool = list(combos)
            pools[op] = [build(*pool[i]) for i in rng.permutation(len(pool))]

    rounds = itertools.zip_longest(*pools.values())
    out = [inst for round_ in rounds for inst in round_ if inst is not None]
    if len(out) < count:
        raise ContractError(f"only {len(out)} distinct instances available for ops {ops}")
    return out[:max(count, 0)]


INFERENCE_OPS = ("arg_sub", "verb_sub", "further_spec", "conjunction")


def inference_plan(p1, p2, op: str) -> list[tuple[int, int, int] | None]:
    """The premise slices, in order, that one inference operation joins.

    Each piece is ``(premise, start, end)`` with premise 0 for P1 and 1 for
    P2, or None for the connective "and".  Only ``tokens`` and ``roles`` of
    each premise are read, so the same plan assembles a token-level
    conclusion and a latent-row hybrid.

    * ``arg_sub``/``verb_sub``: P2's first argument (resp. predicate) span
      whose words also fill a P1 argument span is replaced by the first P1
      argument span absent from P2; identical premises substitute the span
      with itself.
    * ``further_spec``: P2 followed by P1's first MOD span (with its "to").
    * ``conjunction``: the premises' differing middles, P2's first, joined by
      the connective inside their shared prefix and suffix.

    Raises :class:`NoAnchorError` when the premises offer no anchor.
    """
    if op in ("arg_sub", "verb_sub"):
        args = {"ARG0", "ARG1", "ARG2"}

        def spans(sent, wanted):
            return [(a, b, tuple(sent.tokens[a:b])) for a, b in role_spans(sent.roles, wanted)]

        p1_args = spans(p1, args)
        p2_all = {w for _, _, w in spans(p2, args | {"PRED"})}
        candidates = spans(p2, args if op == "arg_sub" else {"PRED"})
        anchor = next(((a, b, (s, e)) for a, b, words in candidates
                       for s, e, w1 in p1_args if words == w1), None)
        if anchor is None:
            raise NoAnchorError("no shared span between premises")
        a, b, shared_p1 = anchor
        s, e = next(((s, e) for s, e, w in p1_args if w not in p2_all), shared_p1)
        return [(1, 0, a), (0, s, e), (1, b, len(p2.tokens))]
    if op == "further_spec":
        mods = role_spans(p1.roles, {"MOD"})
        if not mods:
            raise NoAnchorError("first premise has no MOD span to append")
        start, end = mods[0]
        if start > 0 and p1.tokens[start - 1] == "to":
            start -= 1
        return [(1, 0, len(p2.tokens)), (0, start, end)]
    if op == "conjunction":
        len1, len2 = len(p1.tokens), len(p2.tokens)
        pre = 0
        while pre < min(len1, len2) and p1.tokens[pre] == p2.tokens[pre]:
            pre += 1
        suf = 0
        while (suf < min(len1, len2) - pre
               and p1.tokens[len1 - 1 - suf] == p2.tokens[len2 - 1 - suf]):
            suf += 1
        if pre == len1 - suf and pre == len2 - suf:
            raise NoAnchorError("premises have no differing spans to conjoin")
        return [(1, 0, len2 - suf), None, (0, pre, len1 - suf), (1, len2 - suf, len2)]
    raise ContractError(f"unknown operation {op!r}; expected one of {INFERENCE_OPS}")


def derive_conclusion(p1: AnnotatedSentence, p2: AnnotatedSentence, op: str) -> list[str] | None:
    """Token-level conclusion of :func:`inference_plan`; None when no anchor exists."""
    try:
        plan = inference_plan(p1, p2, op)
    except NoAnchorError:
        return None
    premises = (p1.tokens, p2.tokens)
    return [tok for piece in plan
            for tok in (["and"] if piece is None else premises[piece[0]][piece[1]:piece[2]])]


# -- math expressions ---------------------------------------------------------

MATH_SPLITS = ("EVAL", "VAR", "EASY", "EQ", "LEN")
TRAIN_VARIABLES = ("x", "y", "z", "u", "v", "w", "n", "m")
NOVEL_VARIABLES = ("alpha", "beta", "gamma", "delta", "theta", "lambda", "phi", "omega")
MATH_FUNCTIONS = ("cos", "sin", "log", "exp")
MATH_OPERATORS = ("+", "-", "*")
TRAIN_MIN_VARS, TRAIN_MAX_VARS = 2, 4


@dataclass
class MathExpression:
    tokens: list[str]
    split_tag: str

    def __post_init__(self):
        if self.split_tag not in MATH_SPLITS:
            raise ContractError(f"unknown split {self.split_tag!r}")
        if self.tokens.count("(") != self.tokens.count(")"):
            raise ContractError("unbalanced delimiters")

    @property
    def variables(self) -> set[str]:
        """Every alphabetic token that does not name a function."""
        return {t for t in self.tokens if t.isalpha() and t not in MATH_FUNCTIONS}

    def text(self) -> str:
        return " ".join(self.tokens)


def _sample_expression(rng, variables, n_vars) -> list[str]:
    """Chain of terms, each a bare variable or unary function application."""
    tokens: list[str] = []
    for i, vi in enumerate(rng.permutation(len(variables))[:n_vars]):
        var = variables[int(vi)]
        if i > 0:
            tokens.append(MATH_OPERATORS[int(rng.integers(len(MATH_OPERATORS)))])
        if rng.random() < 0.5:
            fn = MATH_FUNCTIONS[int(rng.integers(len(MATH_FUNCTIONS)))]
            tokens.extend([fn, "(", var, ")"])
        else:
            tokens.append(var)
    return tokens


def generate_math(seed: int, count: int, split: str) -> list[MathExpression]:
    """Expressions for one evaluation split.

    EVAL matches the training distribution; VAR swaps in unseen variable
    names; EASY uses strictly fewer variables than training ever does; EQ
    prefixes a training-shaped expression with "<var> ="; LEN uses strictly
    more variables than the training maximum.
    """
    if split not in MATH_SPLITS:
        raise ContractError(f"unknown split {split!r}; expected one of {MATH_SPLITS}")
    if count <= 0:
        raise ContractError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if split == "EASY":
            tokens = _sample_expression(rng, TRAIN_VARIABLES, 1)
        elif split == "LEN":
            n = int(rng.integers(TRAIN_MAX_VARS + 1, TRAIN_MAX_VARS + 4))
            tokens = _sample_expression(rng, TRAIN_VARIABLES, n)
        elif split == "VAR":
            n = int(rng.integers(TRAIN_MIN_VARS, TRAIN_MAX_VARS + 1))
            tokens = _sample_expression(rng, NOVEL_VARIABLES, n)
        else:
            n = int(rng.integers(TRAIN_MIN_VARS, TRAIN_MAX_VARS + 1))
            tokens = _sample_expression(rng, TRAIN_VARIABLES, n)
            if split == "EQ":
                lhs = TRAIN_VARIABLES[int(rng.integers(len(TRAIN_VARIABLES)))]
                tokens = [lhs, "="] + tokens
        out.append(MathExpression(tokens, split))
    return out


# -- vocabulary -----------------------------------------------------------------


class Vocabulary:
    """Word-id bijection with four reserved specials."""

    PAD, START, END, UNK = 0, 1, 2, 3
    SPECIALS = ("<pad>", "<s>", "</s>", "<unk>")

    def __init__(self, words: list[str]):
        self.words = list(words)
        if len(set(self.words)) != len(self.words):
            raise ContractError("vocabulary words must be unique")
        if any(w in self.SPECIALS for w in self.words):
            raise ContractError("special markers cannot appear as words")
        self._word_to_id = {w: i + len(self.SPECIALS) for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words) + len(self.SPECIALS)

    def id_of(self, word: str) -> int:
        return self._word_to_id.get(word, self.UNK)

    def word_of(self, idx: int) -> str:
        if idx < len(self.SPECIALS):
            return self.SPECIALS[idx]
        return self.words[idx - len(self.SPECIALS)]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id


def build_vocab(token_lists: list[list[str]]) -> Vocabulary:
    """Sorted vocabulary over every word observed in the inputs."""
    words = sorted({tok for toks in token_lists for tok in toks})
    return Vocabulary(words)


# -- file formats ---------------------------------------------------------------


def format_annotated(sentence: AnnotatedSentence) -> str:
    return " ".join(f"{t}/{r}" for t, r in zip(sentence.tokens, sentence.roles))


def parse_annotated(line: str) -> AnnotatedSentence:
    """One ``token/ROLE ...`` line; its topic is :func:`infer_topic` of its tokens."""
    tokens, roles = [], []
    for piece in line.split():
        if "/" not in piece:
            raise InputError(f"malformed token/ROLE pair {piece!r}")
        tok, role = piece.rsplit("/", 1)
        tokens.append(tok)
        roles.append(role)
    return AnnotatedSentence(tokens, roles, "loaded", infer_topic(tokens))


def parse_math(line: str) -> MathExpression:
    """One ``expression<TAB>split`` line; a line without a tab is EVAL."""
    text, _, tag = line.rstrip("\n").partition("\t")
    return MathExpression(text.split(), tag or "EVAL")


def save_corpus(path, sentences: list[AnnotatedSentence]) -> None:
    atomic_write_text(path, "".join(format_annotated(s) + "\n" for s in sentences))


def load_corpus(path) -> list[AnnotatedSentence]:
    return [parse_annotated(line) for line in read_lines(path) if line.strip()]


def save_math_corpus(path, expressions: list[MathExpression]) -> None:
    atomic_write_text(path, "".join(f"{e.text()}\t{e.split_tag}\n" for e in expressions))


def load_math_corpus(path) -> list[MathExpression]:
    return [parse_math(line) for line in read_lines(path) if line.strip()]


def load_tokens(path) -> list[list[str]]:
    """Token lists of a corpus file; a first line with a tab or no ``/`` reads as math."""
    lines = [line for line in read_lines(path) if line.strip()]
    parse = parse_math if not lines or "\t" in lines[0] or "/" not in lines[0] else parse_annotated
    tokens = [parse(line).tokens for line in lines]
    if not tokens:
        raise ContractError(f"corpus {path!r} holds no sentences")
    return tokens
