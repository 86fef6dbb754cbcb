"""Experiment driver.

Subcommands generate corpora, train the quantized autoencoder, and run the
reconstruction, interpolation, traversal, arithmetic, disentanglement,
tree-control, and inference experiments.  Identical configs and seeds give
byte-identical outputs; files are written atomically.

Exit codes: 0 success, 2 usage error, 3 contract/validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
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
from .reports import DictCodec, atomic_write_text, fmt
from .training import (
    ModelBundle,
    TrainSchedule,
    load_bundle,
    save_bundle,
    sentences_to_ids,
    token_accuracy,
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def validate(self) -> None:
        if not self.corpus:
            raise ContractError("run config is missing 'corpus'")
        if not os.path.exists(self.corpus):
            raise ContractError(f"corpus path {self.corpus!r} does not resolve")
        if not self.out_dir:
            raise ContractError("run config is missing 'out_dir'")


def load_run_config(path: str, overrides: dict) -> RunConfig:
    """File -> environment (VQL_*) -> flag overrides, in increasing precedence."""
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ContractError(f"run config {path!r} is not UTF-8 JSON: {exc}") from exc
    config = RunConfig.from_dict(blob)
    for key, cast in (("seed", int), ("epochs", int), ("lr", float), ("out_dir", str),
                      ("corpus", str)):
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            try:
                value = cast(env)
            except ValueError:
                raise ContractError(f"environment override {ENV_PREFIX}{key.upper()}={env!r} "
                                    f"is not a valid {cast.__name__}") from None
            if key in ("epochs", "lr"):
                config.schedule[key] = value
            else:
                setattr(config, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key in ("epochs", "lr"):
            config.schedule[key] = value
        else:
            setattr(config, key, value)
    config.validate()
    return config


def _load_tokens(corpus_path: str) -> list[list[str]]:
    with open(corpus_path, encoding="utf-8") as fh:
        first = fh.readline()
    if "\t" in first or "/" not in first:
        return [e.tokens for e in cg.load_math_corpus(corpus_path)]
    return [s.tokens for s in cg.load_corpus(corpus_path)]


# -- subcommands -------------------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "grammar":
        sentences = cg.generate_sentences(args.seed, args.count)
        cg.save_corpus(os.path.join(args.out, "sentences.txt"), sentences)
        cg.save_vocab(os.path.join(args.out, "vocab.txt"),
                      cg.build_vocab([s.tokens for s in sentences]))
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
    tokens = _load_tokens(config.corpus)
    vocab = cg.build_vocab(tokens)
    model_section = dict(config.model)
    model_section.setdefault("vocab_size", len(vocab))
    model_config = ModelConfig.from_dict(model_section)
    qconfig = QuantizerConfig.from_dict(config.quantizer)
    schedule_section = dict(config.schedule)
    schedule_section.setdefault("seed", config.seed)
    schedule = TrainSchedule.from_dict(schedule_section)

    log: list[dict] = []
    bundle = train_model(tokens, vocab, model_config, qconfig, schedule, log)
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    save_bundle(os.path.join(out_dir, "checkpoint.ckpt"), bundle)
    lines = ["epoch,ce,commit,token_acc"]
    lines += [f"{row['epoch']},{fmt(row['ce'])},{fmt(row['commit'])},{fmt(row['token_acc'])}"
              for row in log]
    atomic_write_text(os.path.join(out_dir, "loss_log.csv"), "\n".join(lines) + "\n")
    print(f"trained {len(log)} epochs; checkpoint in {out_dir}")
    return 0


def _reconstruct_report(bundle: ModelBundle, tokens: list[list[str]]) -> str:
    decoded = [[bundle.vocab.word_of(i) for i in row]
               for row in bundle.autoencode_ids(sentences_to_ids(tokens, bundle.vocab))]
    exact = sum(d == t for d, t in zip(decoded, tokens)) / len(tokens)
    teacher_acc = token_accuracy(bundle, tokens)
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
    tokens = _load_tokens(args.corpus)
    report = _reconstruct_report(bundle, tokens)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
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
    pairs = []
    for _ in range(args.random):
        i, j = int(rng.integers(count)), int(rng.integers(count))
        pairs.append((i, j))
    return pairs


def cmd_interpolate(args) -> int:
    bundle = load_bundle(args.checkpoint)
    tokens = _load_tokens(args.corpus)
    pairs = _interpolation_pairs(args, len(tokens))
    pad = bundle.end_token_latent()

    paths, scores = [], []
    for i, j in pairs:
        _, src = bundle.quantize_words(tokens[i])
        _, tgt = bundle.quantize_words(tokens[j])
        path = geo.interpolate(src, tgt, bundle.codebook, bundle.decode_words,
                               pad_latent=pad)
        paths.append(path)
        scores.append(geo.interpolation_smoothness(path, bundle.wmd_embeddings))

    os.makedirs(args.out, exist_ok=True)
    for (i, j), path in zip(pairs, paths):
        atomic_write_text(os.path.join(args.out, f"path_{i}_{j}.txt"), geo.dump_path(path))
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
    _, quantized = bundle.quantize_words(_known_words(bundle, args.sentence))
    variants = geo.traverse_position(quantized, args.position, bundle.codebook,
                                     args.n, bundle.decode_words)
    for k, variant in enumerate(variants):
        print(f"variant {k}: {' '.join(variant)}")
    return 0


def cmd_arith(args) -> int:
    bundle = load_bundle(args.checkpoint)
    _, a = bundle.quantize_words(_known_words(bundle, args.a))
    _, b = bundle.quantize_words(_known_words(bundle, args.b))
    result = geo.latent_arithmetic_add(a, b, bundle.codebook, bundle.decode_words)
    print(" ".join(result.decoded))
    return 0


def cmd_disentangle(args) -> int:
    bundle = load_bundle(args.checkpoint)
    sentences = cg.load_corpus(args.corpus)
    occurrences = []
    for s in sentences:
        indices, _ = bundle.quantize_words(s.tokens)
        occurrences.append((s.tokens, s.roles, indices))
    stats = geo.disentanglement_stats(occurrences, bundle.codebook)
    lines = ["role_content\tnum_centers\tavg_dis\tmax_dis\tmin_dis"]
    lines += [f"{s.label}\t{s.num_centers}\t{fmt(s.avg_dis)}\t{fmt(s.max_dis)}\t{fmt(s.min_dis)}"
              for s in stats]
    report = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(os.path.join(args.out, "disentangle.txt"), report)
    sys.stdout.write(report)
    return 0


REGION_KINDS = ("topic", "pred", "arg")


def _region_filter(kind: str, value: str):
    if kind == "topic":
        return lambda s: s.topic_tag == value
    if kind == "pred":
        return lambda s: cg.extract_relation(s.tokens) == value
    return lambda s: value in s.tokens


def cmd_tree(args) -> int:
    bundle = load_bundle(args.checkpoint)
    sentences = cg.load_corpus(args.corpus)
    kind, _, values = args.region.partition(":")
    if kind not in REGION_KINDS or "," not in values:
        raise ContractError(f"region must look like 'pred:causes,means', got {args.region!r}")
    label_a, label_b = values.split(",", 1)

    group_a = [s for s in sentences if _region_filter(kind, label_a)(s)]
    group_b = [s for s in sentences if _region_filter(kind, label_b)(s)]
    if not group_a or not group_b:
        raise ContractError(f"regions {label_a!r}/{label_b!r} not both present in corpus")

    samples = []
    rows_cache = []
    for sentence, label in [(s, label_a) for s in group_a] + [(s, label_b) for s in group_b]:
        rows = bundle.encode_words(sentence.tokens)
        rows_cache.append(rows)
        samples.append(tc.PooledLatent(rows.mean(axis=0), label))
    pooled, labels = tc.split_pooled(samples)

    train_idx = list(range(0, len(labels), 2))
    held_idx = list(range(1, len(labels), 2))
    tree = tc.fit_tree(pooled[train_idx], [labels[i] for i in train_idx],
                       max_depth=args.max_depth, min_leaf=args.min_leaf)
    metrics = tc.tree_metrics(tree, pooled[held_idx], [labels[i] for i in held_idx],
                              positive_label=label_b)
    path = tc.extract_path(tree, label_b)
    margins = tc.default_margins(pooled[train_idx])

    if kind == "arg":
        extractor = lambda toks: label_b if label_b in toks else (label_a if label_a in toks else None)
    else:
        extractor = cg.infer_topic if kind == "topic" else cg.extract_relation

    finals = []
    move_lines = []
    for n, (sentence, rows) in enumerate(zip(group_a, rows_cache[:len(group_a)])):
        outputs = tc.guided_move(rows, path, margins * args.margin_scale,
                                 bundle.codebook, bundle.decode_words)
        finals.append(outputs[-1])
        if n < args.moves:
            move_lines.append(f"move {n}: {sentence.text()}")
            move_lines += [f"  -> {' '.join(step)}" for step in outputs]
    consistency = tc.cross_region_consistency(finals, extractor, label_b)

    os.makedirs(args.out, exist_ok=True)
    tc.save_tree(os.path.join(args.out, "tree.json"), tree)
    report_lines = [f"region\t{args.region}",
                    f"train_accuracy\t{fmt(tree.training_accuracy)}",
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
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            left, sep, right = line.partition(" ||| ")
            if not sep:
                raise ContractError("premises file lines must be 'P1 ||| P2' in token/ROLE form")
            pairs.append((cg.parse_annotated(left.strip()), cg.parse_annotated(right.strip())))
    return pairs


def cmd_infer(args) -> int:
    bundle = load_bundle(args.checkpoint)
    if args.premises:
        pairs = _load_premises(args.premises)
        instances = [(p1, p2, cg.derive_conclusion(p1, p2, args.op)) for p1, p2 in pairs]
    else:
        generated = cg.generate_inference_instances(args.seed, args.generate, ops=(args.op,))
        instances = [(i.premise1, i.premise2, i.conclusion.tokens) for i in generated]

    and_latent = None
    if args.op == "conjunction":
        carrier = next((p1.tokens for p1, _, _ in instances if "and" in p1.tokens), None)
        and_latent = bundle.connective_latent(carrier) if carrier else \
            bundle.connective_latent(["a", "shark", "can", "swim", "and", "fly"])

    lines = []
    hits = 0
    scored = 0
    for n, (p1, p2, want) in enumerate(instances):
        s1 = geo.SentenceLatents(p1.tokens, p1.roles, bundle.quantize_words(p1.tokens)[1])
        s2 = geo.SentenceLatents(p2.tokens, p2.roles, bundle.quantize_words(p2.tokens)[1])
        got = geo.substitute_and_decode(s1, s2, args.op, bundle.decode_words,
                                        and_latent=and_latent)
        if want is not None:
            scored += 1
            hits += got == list(want)
        flag = "OK" if want is not None and got == list(want) else "MISS"
        lines.append(f"{n}\t{flag}\t{' '.join(got)}")
    rate = hits / scored if scored else 0.0
    report = f"op\t{args.op}\ninstances\t{len(instances)}\nexact_match\t{fmt(rate)}\n" \
             + "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(os.path.join(args.out, "infer.txt"), report)
    print(f"op {args.op}: exact_match {fmt(rate)} over {scored} scored instances")
    return 0


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vqlat",
                                     description="quantized sequence autoencoder toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--kind", choices=("grammar", "math"), default="grammar")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_corpus)

    p = sub.add_parser("train", help="train from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
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
