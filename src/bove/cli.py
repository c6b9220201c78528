"""Command-line pipeline: one subcommand per stage, declared in build_parser.

Exit codes (_EXIT_CODES, looked up by _exit_code for main's error and for
infer's first failed sentence): 0 success, 1 usage/config error, 2 data
error (an unopenable path too, and a byte that is not UTF-8 in a text
input, reported at its file and line), 3 numerical divergence.
train and infer check that their output opens for writing before the work.
All subcommands are driven by a key=value config file; the flags --seed and
--fail-fast are config lines, read after the file's.
"""

import argparse
import contextlib
import os
import sys

from . import als, conll, encoding, inference, model as model_io, scoring, sgd, synth
from .config import load_config
from .errors import (BoveError, ConfigError, DimensionMismatch, DivergenceError,
                     SingularSystemError)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError("config is missing required path 'paths.%s'" % name)


@contextlib.contextmanager
def _output(path):
    """Check that path opens for writing before the work that writes it, so
    a directory or a path under a regular file fails first, naming the path.
    Opening to append changes no byte of a file that is there; if the work
    then fails, a file the check created is removed."""
    existed = os.path.lexists(path)
    open(path, "ab").close()
    try:
        yield
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def _read_corpus(cfg):
    _require(cfg, "corpus")
    lines = (line for _, line in encoding.text_lines(cfg.corpus))
    return list(conll.read_conll(lines, cfg.columns, cfg.corpus))


def _load_vocab(cfg):
    _require(cfg, "vocab")
    return conll.Vocabulary.load(cfg.vocab)


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
    _require(cfg, "model")
    ws = [w for _, w, _ in sentences]
    xs = [x for _, _, x in sentences]
    trained = model_io.init_for_training(c, d, cfg.hyper, cfg.seed)
    if cfg.vectors is not None:
        if vocab is None:
            raise ConfigError("pretrained vectors require a vocabulary, not tensors")
        trained = model_io.load_pretrained(trained, cfg.vectors, vocab)

    with _output(cfg.model), open(cfg.log or os.devnull, "w", encoding="utf-8") as log_file:
        def log(line):
            # flushed per line, so a run that fails keeps the rounds before it
            log_file.write(line + "\n")
            log_file.flush()

        if cfg.trainer == "als":
            trained = als.train(ws, xs, trained, log=log).model
        else:
            trained, _, _ = sgd.train_sgd(ws, xs, trained, cfg.sgd, log=log)
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
    with _output(cfg.embeddings):
        results, failures = inference.infer_corpus(
            sentences, trained, fail_fast=cfg.fail_fast
        )
        model_io.write_bags(cfg.embeddings, [(sid, e) for sid, e in results if e is not None])
    for sid, exc in failures:
        print("sentence %s failed: %s" % (sid, exc), file=sys.stderr)
    print("wrote %s (%d sentences, %d failed)"
          % (cfg.embeddings, len(results) - len(failures), len(failures)))
    return _exit_code(failures[0][1]) if failures else EXIT_OK


# a bag, score or gold value too large to square is a data error, not a NaN score
_out_of_range = als.numeric_errors_as(BoveError, "scoring failed on out-of-range values")


@_out_of_range
def cmd_score(cfg, mode):
    _require(cfg, "embeddings", "pairs", "scores")
    bags = dict(model_io.read_bags(cfg.embeddings))
    score = scoring.score_similarity if mode == "sts" else scoring.score_entailment
    scored = []
    for pid, sid1, sid2, gold, subset in scoring.read_pairs(cfg.pairs, mode):
        for sid in (sid1, sid2):
            if sid not in bags:
                raise BoveError("pair %s references missing sentence id %r" % (pid, sid))
        value = score(bags[sid1], bags[sid2])
        scored.append(scoring.ScoredPair(id=pid, score=value, gold=gold, subset=subset))
    scoring.write_scores(cfg.scores, scored)
    if cfg.report is not None:  # the report eval gives from the written file
        _write_report(cfg, scoring.read_scores(cfg.scores, mode), mode)
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


@_out_of_range
def cmd_eval(cfg, mode):
    """Recompute the evaluation report from an existing scores file."""
    _require(cfg, "scores", "report")
    _write_report(cfg, scoring.read_scores(cfg.scores, mode), mode)
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
    parser.add_argument("--seed", dest="lines", action="append", default=[], metavar="N",
                        type=lambda value: "seed=" + value, help="override config seed")
    parser.add_argument("--fail-fast", dest="lines", action="append_const",
                        const="fail_fast=true", help="abort on the first per-sentence error")
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


# error type -> exit code, looked up along the raised error's MRO, so the
# most specific listed type decides (a ConfigError is a BoveError, and exits 1)
_EXIT_CODES = {ConfigError: EXIT_USAGE, DivergenceError: EXIT_DIVERGED,
               SingularSystemError: EXIT_DIVERGED, BoveError: EXIT_DATA,
               OSError: EXIT_DATA}


def _exit_code(exc):
    """exc's exit code: the entry of the most specific type along its MRO
    that _EXIT_CODES lists, or EXIT_DATA where it lists none."""
    return next((_EXIT_CODES[t] for t in type(exc).__mro__ if t in _EXIT_CODES), EXIT_DATA)


def _describe(exc):
    if isinstance(exc, OSError) and exc.filename is not None:
        return "%s: %s" % (exc.filename, exc.strerror)
    return str(exc)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config, args.lines)
        if "mode" in args:
            return args.handler(cfg, args.mode)
        return args.handler(cfg)
    except tuple(_EXIT_CODES) as exc:
        print("error: %s" % _describe(exc), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
