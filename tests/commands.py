"""The command list of the end-to-end output checks: both corpus generators and
each latent-space command, writing under one output root.

``tests/test_cli.py`` runs it in-process to prove a reference implementation
changes no output; ``tests/identity.py`` runs it on two source trees.  Paths
are used as given, so relative ones give the same arguments on every tree.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

from vqlat import corpus as cg
from vqlat.cli import main

PREMISES = {
    "arg_sub": "a/O crow/ARG1 is/PRED a/O kind/O of/O bird/ARG2 ||| a/O bird/ARG1 can/MOD fly/PRED",
    "conjunction": "a/O salmon/ARG1 can/MOD fly/PRED and/O crawl/PRED ||| "
                   "a/O salmon/ARG1 can/MOD hunt/PRED",
}


def generator_commands(root: str) -> list[list[str]]:
    """Both corpus generators, each writing under ``root``."""
    return [["gen-corpus", "--kind", kind, "--seed", "3", "--count", "60",
             "--out", os.path.join(root, f"gen_{kind}")] for kind in ("grammar", "math")]


def latent_commands(ckpt: str, corpus: str, root: str) -> list[list[str]]:
    """Each latent-space command on ``ckpt`` and ``corpus``, writing under ``root``,
    where the premises files the infer commands read are written first.  The
    sentence is the corpus's first, and the named pair pads it to another length."""
    sentences = cg.load_corpus(corpus)
    lengths = [len(s.tokens) for s in sentences]
    other = next(k for k, n in enumerate(lengths) if n != lengths[0])
    sentence = sentences[0].text()

    def at(name: str) -> str:
        return os.path.join(root, name)

    os.makedirs(root, exist_ok=True)
    for op, line in PREMISES.items():
        with open(at(f"premises_{op}.txt"), "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    commands = [
        ["reconstruct", "--corpus", corpus, "--out", at("reconstruct")],
        ["interpolate", "--corpus", corpus, "--random", "3", "--out", at("interpolate")],
        ["interpolate", "--corpus", corpus, "--source", "0", "--target", str(other),
         "--out", at("interpolate_pair")],
        ["traverse", "--sentence", sentence, "--position", "1", "--n", "4"],
        ["arith", "--a", sentence, "--b", sentence],
        ["disentangle", "--corpus", corpus, "--out", at("disentangle")],
        ["tree", "--corpus", corpus, "--region", "pred:causes,means", "--min-leaf", "2",
         "--out", at("tree")],
    ] + [["infer", "--op", op, "--generate", "4", "--out", at(op)] for op in cg.INFERENCE_OPS]
    commands += [["infer", "--op", op, "--premises", at(f"premises_{op}.txt"),
                  "--out", at(f"premises_{op}")] for op in PREMISES]
    return [argv + ["--checkpoint", ckpt] for argv in commands]


def run_each(commands: list[list[str]]) -> list[tuple[str, int, str, str]]:
    """The argv (joined by spaces), exit code, stdout and stderr of each command,
    run in order in this process."""
    streams = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        streams.append((" ".join(argv), code, out.getvalue(), err.getvalue()))
    return streams
