"""Experiment driver.

Subcommands generate corpora, train the quantized autoencoder, and run the
reconstruction, interpolation, traversal, arithmetic, disentanglement,
tree-control, and inference experiments.  Identical configs and seeds give
byte-identical outputs; files are written atomically.

Exit codes: 0 success, 2 usage error, 3 contract/validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import corpus as cg
from . import geometry as geo
from . import tree as tc
from .errors import ContractError, InputError
from .metrics import corpus_bleu
from .model import ModelConfig
from .quantizer import QuantizerConfig
from .reports import DictCodec, atomic_write_text, fmt, read_json, read_lines
from .training import (
    ModelBundle,
    TrainSchedule,
    load_bundle,
    reconstruct,
    save_bundle,
    sentences_to_ids,
    train_model,
)

ENV_PREFIX = "VQL_"


# -- run configuration -------------------------------------------------------------


@dataclass
class RunConfig(DictCodec):
    """One experiment: seed, model/quantizer/schedule sections, corpus, outputs."""

    seed: int = 0
    corpus: str = ""
    out_dir: str = ""
    model: dict = field(default_factory=dict)
    quantizer: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not self.corpus:
            raise ContractError("run config is missing 'corpus'")
        if not os.path.exists(self.corpus):
            raise ContractError(f"corpus path {self.corpus!r} does not resolve")
        if not self.out_dir:
            raise ContractError("run config is missing 'out_dir'")
        if "seed" in self.schedule:
            raise ContractError("run config sets schedule.seed; set the top-level 'seed' instead")
        if self.seed < 0:
            raise ContractError(f"run config seed must be non-negative, got {self.seed}")


def load_run_config(path: str, overrides: dict) -> RunConfig:
    """File -> environment (VQL_*) -> flag overrides, in increasing precedence."""
    config = RunConfig.from_dict(read_json(path, "run config"))
    values = {}
    for key, cast in (("seed", int), ("epochs", int), ("lr", float), ("out_dir", str),
                      ("corpus", str)):
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                values[key] = cast(env)
            except ValueError:
                raise ContractError(f"environment override {ENV_PREFIX}{key.upper()}={env!r} "
                                    f"is not a valid {cast.__name__}") from None
    values.update((key, value) for key, value in overrides.items() if value is not None)
    for key, value in values.items():
        if key in ("epochs", "lr"):
            config.schedule[key] = value
        else:
            setattr(config, key, value)
    config.validate()
    return config


# -- subcommands -------------------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    if args.kind == "grammar":
        sentences = cg.generate_sentences(args.seed, args.count)
        cg.save_corpus(os.path.join(args.out, "sentences.txt"), sentences)
        print(f"wrote {len(sentences)} sentences to {args.out}")
    else:
        for split in cg.MATH_SPLITS:
            exprs = cg.generate_math(args.seed, args.count, split)
            cg.save_math_corpus(os.path.join(args.out, f"math_{split}.txt"), exprs)
        print(f"wrote {len(cg.MATH_SPLITS)} math splits of {args.count} to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config, {"seed": args.seed, "epochs": args.epochs,
                                           "out_dir": args.out})
    tokens = cg.load_tokens(config.corpus)
    vocab = cg.build_vocab(tokens)
    model_section = dict(config.model)
    model_section.setdefault("vocab_size", len(vocab))
    model_config = ModelConfig.from_dict(model_section)
    qconfig = QuantizerConfig.from_dict(config.quantizer)
    schedule = TrainSchedule.from_dict({**config.schedule, "seed": config.seed})

    log: list[dict] = []
    bundle = train_model(tokens, vocab, model_config, qconfig, schedule, log)
    out_dir = config.out_dir
    save_bundle(os.path.join(out_dir, "checkpoint.ckpt"), bundle)
    lines = ["epoch,ce,commit,token_acc"]
    lines += [f"{row['epoch']},{fmt(row['ce'])},{fmt(row['commit'])},{fmt(row['token_acc'])}"
              for row in log]
    atomic_write_text(os.path.join(out_dir, "loss_log.csv"), "\n".join(lines) + "\n")
    print(f"trained {len(log)} epochs; checkpoint in {out_dir}")
    return 0


def _reconstruct_report(bundle: ModelBundle, tokens: list[list[str]]) -> str:
    decodes, teacher_acc = reconstruct(bundle, sentences_to_ids(tokens, bundle.vocab))
    decoded = [[bundle.vocab.word_of(i) for i in row] for row in decodes]
    exact = sum(d == t for d, t in zip(decoded, tokens)) / len(tokens)
    bleu = corpus_bleu(decoded, tokens)
    lines = [f"sentences\t{len(tokens)}",
             f"exact_match\t{fmt(exact)}",
             f"token_acc\t{fmt(teacher_acc)}"]
    lines += [f"bleu_{n}\t{fmt(bleu[n])}" for n in sorted(bleu)]
    for i, (want, got) in enumerate(zip(tokens, decoded)):
        flag = "OK" if want == got else "MISS"
        lines.append(f"{i}\t{flag}\t{' '.join(got)}")
    return "\n".join(lines) + "\n"


def cmd_reconstruct(args) -> int:
    bundle = load_bundle(args.checkpoint)
    tokens = cg.load_tokens(args.corpus)
    report = _reconstruct_report(bundle, tokens)
    if args.out:
        atomic_write_text(os.path.join(args.out, "reconstruct.txt"), report)
    for line in report.splitlines()[:7]:  # summary head; per-sentence lines stay in the file
        print(line)
    return 0


def _interpolation_pairs(args, count: int) -> list[tuple[int, int]]:
    if (args.source is None) != (args.target is None):
        raise ContractError("--source and --target must be given together")
    if args.source is not None:
        for flag, index in (("--source", args.source), ("--target", args.target)):
            if not 0 <= index < count:
                raise ContractError(f"{flag} {index} outside the corpus of {count} sentences")
        return [(args.source, args.target)]
    if args.random < 1:
        raise ContractError(f"--random must be at least 1, got {args.random}")
    rng = np.random.default_rng(args.seed)
    return [(int(rng.integers(count)), int(rng.integers(count))) for _ in range(args.random)]


def _decode_groups(bundle: ModelBundle, groups) -> list[list[list[str]]]:
    """Decodes of every entry-index row of every group, from one decode call,
    grouped as the rows were."""
    decoded = iter(bundle.decode_words([rows for group in groups for rows in group]))
    return [[next(decoded) for _ in group] for group in groups]


def cmd_interpolate(args) -> int:
    bundle = load_bundle(args.checkpoint)
    tokens = cg.load_tokens(args.corpus)
    pairs = _interpolation_pairs(args, len(tokens))
    pad = bundle.end_token_index()

    ends = sorted({k for pair in pairs for k in pair})
    indices = dict(zip(ends, bundle.quantize_ids(
        sentences_to_ids([tokens[k] for k in ends], bundle.vocab))))
    sources, targets = zip(*(geo.pad_pair(indices[i], indices[j], pad) for i, j in pairs))
    times, stacked = geo.interpolate(np.concatenate(sources), np.concatenate(targets),
                                     bundle.codebook)
    paths = np.split(stacked, np.cumsum([len(src) for src in sources])[:-1], axis=1)
    decodes = _decode_groups(bundle, paths)
    distinct = list(dict.fromkeys(tuple(words) for steps in decodes for words in steps))
    embeddings = dict(zip(distinct, bundle.wmd_embeddings(distinct)))
    scores = [geo.interpolation_smoothness(steps, embeddings) for steps in decodes]

    for (i, j), steps, decoded in zip(pairs, paths, decodes):
        atomic_write_text(os.path.join(args.out, f"path_{i}_{j}.txt"),
                          geo.dump_path(times, steps, decoded))
    report = (f"pairs\t{len(scores)}\n"
              f"avg IS\t{fmt(float(np.mean(scores)))}\n"
              f"max IS\t{fmt(float(np.max(scores)))}\n"
              f"min IS\t{fmt(float(np.min(scores)))}\n")
    atomic_write_text(os.path.join(args.out, "interpolation.txt"), report)
    sys.stdout.write(report)
    return 0


def _known_words(bundle: ModelBundle, sentence: str) -> list[str]:
    """Split a command-line sentence, rejecting words the checkpoint never saw."""
    words = sentence.split()
    unknown = next((w for w in words if w not in bundle.vocab), None)
    if unknown is not None:
        raise InputError(f"word {unknown!r} is not in the checkpoint vocabulary")
    return words


def cmd_traverse(args) -> int:
    bundle = load_bundle(args.checkpoint)
    indices, _ = bundle.quantize_words(_known_words(bundle, args.sentence))
    variants = bundle.decode_words(geo.traverse_position(indices, args.position,
                                                         bundle.codebook, args.n))
    for k, variant in enumerate(variants):
        print(f"variant {k}: {' '.join(variant)}")
    return 0


def cmd_arith(args) -> int:
    bundle = load_bundle(args.checkpoint)
    a, _ = bundle.quantize_words(_known_words(bundle, args.a))
    b, _ = bundle.quantize_words(_known_words(bundle, args.b))
    print(" ".join(bundle.decode_words([geo.latent_arithmetic_add(a, b, bundle.codebook)])[0]))
    return 0


def _latents(bundle: ModelBundle, sentences) -> list[geo.SentenceLatents]:
    """Each annotated sentence with the entry indices it quantizes to."""
    indices = bundle.quantize_ids(sentences_to_ids([s.tokens for s in sentences], bundle.vocab))
    return [geo.SentenceLatents(s.tokens, s.roles, row) for s, row in zip(sentences, indices)]


def cmd_disentangle(args) -> int:
    bundle = load_bundle(args.checkpoint)
    stats = geo.disentanglement_stats(_latents(bundle, cg.load_corpus(args.corpus)),
                                      bundle.codebook)
    lines = ["role_content\tnum_centers\tavg_dis\tmax_dis\tmin_dis"]
    lines += [f"{s.label}\t{s.num_centers}\t{fmt(s.avg_dis)}\t{fmt(s.max_dis)}\t{fmt(s.min_dis)}"
              for s in stats]
    report = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(os.path.join(args.out, "disentangle.txt"), report)
    sys.stdout.write(report)
    return 0


REGION_KINDS = ("topic", "pred", "arg")


def _in_region(kind: str, value: str, tokens: list[str]) -> bool:
    """Whether a sentence lies in the region ``kind:value``: its template topic,
    its first relation marker, or (``arg``) one of its words is ``value``."""
    if kind == "topic":
        return cg.infer_topic(tokens) == value
    if kind == "pred":
        return cg.extract_relation(tokens) == value
    return value in tokens


def cmd_tree(args) -> int:
    bundle = load_bundle(args.checkpoint)
    sentences = cg.load_corpus(args.corpus)
    kind, _, values = args.region.partition(":")
    if kind not in REGION_KINDS or "," not in values:
        raise ContractError(f"region must look like 'pred:causes,means', got {args.region!r}")
    label_a, label_b = values.split(",", 1)

    group_a = [s for s in sentences if _in_region(kind, label_a, s.tokens)]
    group_b = [s for s in sentences if _in_region(kind, label_b, s.tokens)]
    if not group_a or not group_b:
        raise ContractError(f"regions {label_a!r}/{label_b!r} not both present in corpus")

    rows_cache = bundle.encode_ids(sentences_to_ids([s.tokens for s in group_a + group_b],
                                                    bundle.vocab))
    pooled = np.stack([rows.mean(axis=0) for rows in rows_cache])
    labels = [label_a] * len(group_a) + [label_b] * len(group_b)

    train_idx = list(range(0, len(labels), 2))
    held_idx = list(range(1, len(labels), 2))
    tree = tc.fit_tree(pooled[train_idx], [labels[i] for i in train_idx],
                       max_depth=args.max_depth, min_leaf=args.min_leaf)
    metrics = tc.tree_metrics(tree, pooled[held_idx], [labels[i] for i in held_idx],
                              positive_label=label_b)
    path = tc.extract_path(tree, label_b)
    margins = tc.default_margins(pooled[train_idx])

    margin = margins * args.margin_scale
    moves = _decode_groups(bundle, [tc.guided_move(rows, path, margin, bundle.codebook)
                                    for rows in rows_cache[:len(group_a)]])
    finals = [outputs[-1] for outputs in moves]
    move_lines = []
    for n, (sentence, outputs) in enumerate(zip(group_a, moves)):
        if n < args.moves:
            move_lines.append(f"move {n}: {sentence.text()}")
            move_lines += [f"  -> {' '.join(step)}" for step in outputs]
    consistency = tc.cross_region_consistency(
        finals, lambda toks: _in_region(kind, label_b, toks), True)

    tc.save_tree(os.path.join(args.out, "tree.json"), tree)
    report_lines = [f"region\t{args.region}",
                    f"train_accuracy\t{fmt(tree['training_accuracy'])}",
                    f"separability\t{fmt(metrics['separability'])}",
                    f"density_precision\t{fmt(metrics['density_precision'])}",
                    f"density_recall\t{fmt(metrics['density_recall'])}",
                    f"f1\t{fmt(metrics['f1'])}",
                    f"path\t{tc.format_path(path)}",
                    f"cross_region_consistency\t{fmt(consistency)}"]
    report = "\n".join(report_lines + move_lines) + "\n"
    atomic_write_text(os.path.join(args.out, "tree_report.txt"), report)
    sys.stdout.write("\n".join(report_lines) + "\n")
    return 0


def _load_premises(path: str) -> list[tuple[cg.AnnotatedSentence, cg.AnnotatedSentence]]:
    pairs = []
    for line in read_lines(path):
        if not line.strip():
            continue
        left, sep, right = line.partition(" ||| ")
        if not sep:
            raise ContractError("premises file lines must be 'P1 ||| P2' in token/ROLE form")
        pairs.append((cg.parse_annotated(left.strip()), cg.parse_annotated(right.strip())))
    if not pairs:
        raise ContractError(f"premises file {path!r} holds no 'P1 ||| P2' lines")
    return pairs


def cmd_infer(args) -> int:
    bundle = load_bundle(args.checkpoint)
    if args.premises:
        pairs = _load_premises(args.premises)
        instances = [(p1, p2, cg.derive_conclusion(p1, p2, args.op)) for p1, p2 in pairs]
    else:
        if args.generate < 1:
            raise ContractError(f"--generate must be at least 1, got {args.generate}")
        generated = cg.generate_inference_instances(args.seed, args.generate, ops=(args.op,))
        instances = [(i.premise1, i.premise2, i.conclusion.tokens) for i in generated]

    and_index = None
    if args.op == "conjunction":
        carrier = next((p1.tokens for p1, _, _ in instances if "and" in p1.tokens), None)
        and_index = bundle.connective_index(
            carrier or cg.make_can_conj("shark", "swim", "fly").tokens)

    latents = _latents(bundle, [p for p1, p2, _ in instances for p in (p1, p2)])

    # raises NoAnchorError (exit 3) where derive_conclusion gave None
    hybrids = [geo.substitute(s1, s2, args.op, bundle.codebook, and_index=and_index)
               for s1, s2 in zip(latents[::2], latents[1::2])]
    lines = []
    hits = 0
    for n, ((_, _, want), got) in enumerate(zip(instances, bundle.decode_words(hybrids))):
        hit = got == list(want)
        hits += hit
        lines.append(f"{n}\t{'OK' if hit else 'MISS'}\t{' '.join(got)}")
    rate = hits / len(instances)
    report = f"op\t{args.op}\ninstances\t{len(instances)}\nexact_match\t{fmt(rate)}\n" \
             + "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(os.path.join(args.out, "infer.txt"), report)
    print(f"op {args.op}: exact_match {fmt(rate)} over {len(instances)} scored instances")
    return 0


# -- argument parsing -----------------------------------------------------------------


def seed(text: str) -> int:
    """The type of every ``--seed`` flag: numpy seeds are non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vqlat",
                                     description="quantized sequence autoencoder toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--kind", choices=("grammar", "math"), default="grammar")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("train", help="train from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=seed, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("reconstruct", help="reconstruction report over a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("interpolate", help="interpolation paths and smoothness")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--random", type=int, default=10)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("traverse", help="re-sample one latent position")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--position", type=int, required=True)
    p.add_argument("--n", type=int, default=5)
    p.set_defaults(fn=cmd_traverse)

    p = sub.add_parser("arith", help="decode the sum of two sentence latents")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=cmd_arith)

    p = sub.add_parser("disentangle", help="role-content dispersion table")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_disentangle)

    p = sub.add_parser("tree", help="fit a region tree and run guided moves")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--region", required=True, help="kind:labelA,labelB (topic|pred|arg)")
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--min-leaf", type=int, default=5)
    p.add_argument("--moves", type=int, default=3)
    p.add_argument("--margin-scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("infer", help="latent-space substitution inference")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--op", choices=cg.INFERENCE_OPS, default="arg_sub")
    p.add_argument("--premises", default=None)
    p.add_argument("--generate", type=int, default=20)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_infer)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
