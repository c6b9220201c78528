"""Command-line pipeline: one subcommand per stage, declared in build_parser.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
divergence.  All subcommands are driven by a key=value config file; a few
global flags override config entries.
"""

import argparse
import os
import sys
import types

import numpy as np

from . import als, conll, encoding, inference, model as model_io, scoring, sgd, synth
from .config import load_config
from .errors import (
    BoveError,
    ConfigError,
    ConllParseError,
    DimensionMismatch,
    DivergenceError,
    SingularSystemError,
    VocabularyError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError("config is missing required path 'paths.%s'" % name)


def _read_corpus(cfg):
    _require(cfg, "corpus")
    try:
        with open(cfg.corpus, encoding="utf-8") as f:
            return list(conll.read_conll(f, cfg.columns))
    except FileNotFoundError:
        raise ConllParseError("corpus file not found: %s" % cfg.corpus) from None


def _load_vocab(cfg):
    _require(cfg, "vocab")
    try:
        return conll.Vocabulary.load(cfg.vocab)
    except FileNotFoundError:
        raise VocabularyError("vocabulary file not found: %s" % cfg.vocab) from None


def _encoded_sentences(cfg, vocab):
    sentences = []
    for idx, tokens in enumerate(_read_corpus(cfg)):
        graph = conll.to_sentence_graph(tokens, vocab)
        w, x = encoding.encode(graph, vocab.c, vocab.d)
        sentences.append((str(idx), w, x))
    return sentences


def _training_tensors(cfg):
    """Sentence tensors for training: from a tensor dump or a CoNLL corpus."""
    if cfg.tensors is not None:
        c, d, sentences = encoding.read_tensor_file(cfg.tensors)
        return c, d, sentences, None
    vocab = _load_vocab(cfg)
    return vocab.c, vocab.d, _encoded_sentences(cfg, vocab), vocab


def cmd_build_vocab(cfg):
    corpus = _read_corpus(cfg)
    vocab = conll.build_vocabulary(
        corpus,
        word_threshold=cfg.word_threshold,
        pos_threshold=cfg.pos_threshold,
        relation_threshold=cfg.relation_threshold,
    )
    _require(cfg, "vocab")
    vocab.save(cfg.vocab)
    print("wrote %s (c=%d, d=%d)" % (cfg.vocab, vocab.c, vocab.d))
    return EXIT_OK


def cmd_encode(cfg):
    vocab = _load_vocab(cfg)
    _require(cfg, "tensors")
    sentences = _encoded_sentences(cfg, vocab)
    encoding.write_tensor_file(cfg.tensors, sentences, vocab.c, vocab.d)
    print("wrote %s (%d sentences)" % (cfg.tensors, len(sentences)))
    return EXIT_OK


def cmd_train(cfg):
    c, d, sentences, vocab = _training_tensors(cfg)
    if not sentences:
        raise BoveError("no sentences to train on")
    _require(cfg, "model")
    hyper = cfg.hyper
    ws = [w for _, w, _ in sentences]
    xs = [x for _, _, x in sentences]
    trained = model_io.init_for_training(types.SimpleNamespace(c=c, d=d), hyper, cfg.seed)
    if cfg.vectors is not None:
        if vocab is None:
            raise ConfigError("pretrained vectors require a vocabulary, not tensors")
        trained = model_io.load_pretrained(trained, cfg.vectors, vocab)
    if cfg.trainer == "als" and hyper.r > hyper.als_r_cap:
        raise DimensionMismatch(
            "r=%d exceeds the ALS cap %d; set trainer=sgd" % (hyper.r, hyper.als_r_cap)
        )

    with open(cfg.log or os.devnull, "w", encoding="utf-8") as log_file:
        def log(line):
            # flushed per line, so a run that fails keeps the rounds before it
            log_file.write(line + "\n")
            log_file.flush()

        # an overflow or an invalid operation (inf - inf) is a divergence:
        # stop at the first one, before an inf reaches a solver
        try:
            with np.errstate(over="raise", invalid="raise"):
                if cfg.trainer == "als":
                    trained = als.train(ws, xs, trained, hyper, log=log).model
                else:
                    trained, _, _ = sgd.train_sgd(ws, xs, trained, hyper, cfg.sgd,
                                                  log=log)
        except FloatingPointError as exc:
            raise DivergenceError("training diverged: %s" % exc) from None
    model_io.save_model(trained, cfg.model)
    print("wrote %s" % cfg.model)
    return EXIT_OK


def cmd_infer(cfg):
    vocab = _load_vocab(cfg)
    _require(cfg, "model", "embeddings")
    trained = model_io.load_model(cfg.model)
    if trained.c != vocab.c or trained.d != vocab.d:
        raise DimensionMismatch(
            "model (c=%d, d=%d) does not match vocabulary (c=%d, d=%d)"
            % (trained.c, trained.d, vocab.c, vocab.d)
        )
    sentences = _encoded_sentences(cfg, vocab)
    results, failures = inference.infer_corpus(
        sentences, trained, fail_fast=cfg.fail_fast
    )
    model_io.write_bags(cfg.embeddings, [(sid, e) for sid, e in results if e is not None])
    for sid, exc in failures:
        print("sentence %s failed: %s" % (sid, exc), file=sys.stderr)
    print("wrote %s (%d sentences, %d failed)"
          % (cfg.embeddings, len(results) - len(failures), len(failures)))
    return EXIT_DATA if failures else EXIT_OK


def cmd_score(cfg, mode):
    _require(cfg, "embeddings", "pairs", "scores")
    bags = dict(model_io.read_bags(cfg.embeddings))
    raw_pairs = scoring.read_pairs(cfg.pairs, mode)
    scored = []
    for pid, sid1, sid2, gold, subset in raw_pairs:
        for sid in (sid1, sid2):
            if sid not in bags:
                raise BoveError("pair %s references missing sentence id %r" % (pid, sid))
        if mode == "sts":
            value = scoring.score_similarity(bags[sid1], bags[sid2])
        else:
            value = scoring.score_entailment(bags[sid1], bags[sid2])
        scored.append(scoring.ScoredPair(id=pid, score=value, gold=gold, subset=subset))
    with open(cfg.scores, "w", encoding="utf-8") as f:
        for pair in scored:
            f.write("%s\t%.10g\t%s\t%s\n" % (pair.id, pair.score, pair.gold, pair.subset))
    if cfg.report is not None:
        _write_report(cfg, scored, mode)
    print("wrote %s (%d pairs)" % (cfg.scores, len(scored)))
    return EXIT_OK


def _write_report(cfg, scored, mode):
    if mode == "sts":
        report, mean = scoring.evaluate_sts(scored)
        text = scoring.format_report(report, mean, "pearson")
    else:
        ap = scoring.evaluate_snli(scored)
        text = scoring.format_report({"all": (ap, len(scored))}, ap, "ap")
    with open(cfg.report, "w", encoding="utf-8") as f:
        f.write(text)


def cmd_eval(cfg, mode):
    """Recompute the evaluation report from an existing scored-pairs file."""
    _require(cfg, "scores", "report")
    scored = []
    with open(cfg.scores, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                pid, score, gold, subset = line.split("\t")
                gold = float(gold) if mode == "sts" else gold
                score = float(score)
            except ValueError:
                raise BoveError(
                    "scores file line %d: expected id, score, gold, subset "
                    "separated by tabs, got %r" % (line_no, line)
                ) from None
            scored.append(
                scoring.ScoredPair(id=pid, score=score, gold=gold, subset=subset)
            )
    _write_report(cfg, scored, mode)
    print("wrote %s" % cfg.report)
    return EXIT_OK


def cmd_synth(cfg):
    _require(cfg, "tensors", "model")
    data = synth.generate(
        cfg.seed,
        n_sentences=cfg.synth_sentences,
        n_tokens=cfg.synth_tokens,
        c=cfg.synth_predicates,
        d=cfg.synth_relations,
        r=cfg.hyper.r,
        mode=cfg.synth_mode,
        threshold=cfg.synth_threshold,
        noise=cfg.synth_noise,
        hyper=cfg.hyper,
    )
    encoding.write_tensor_file(
        cfg.tensors, data.sentences, cfg.synth_predicates, cfg.synth_relations
    )
    model_io.save_model(data.model, cfg.model)
    print("wrote %s and %s" % (cfg.tensors, cfg.model))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bove",
        description="Bag-of-vector embeddings of dependency graphs",
    )
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first per-sentence error")
    sub = parser.add_subparsers(dest="command", required=True)
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=("sts", "snli"), required=True)
    for name, handler, parents in (
        ("build-vocab", cmd_build_vocab, []),
        ("encode", cmd_encode, []),
        ("train", cmd_train, []),
        ("infer", cmd_infer, []),
        ("score", cmd_score, [mode]),
        ("eval", cmd_eval, [mode]),
        ("synth", cmd_synth, []),
    ):
        sub.add_parser(name, parents=parents).set_defaults(handler=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.fail_fast:
            cfg.fail_fast = True
        if "mode" in args:
            return args.handler(cfg, args.mode)
        return args.handler(cfg)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print("error: file not found: %s" % exc.filename, file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print("error: input is not UTF-8 text: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, SingularSystemError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DIVERGED
    except BoveError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
