import os
import tempfile

import numpy as np
import pytest

from bove import als, encoding, model as model_io
from bove.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, main
from bove.errors import DivergenceError, ModelFormatError
from bove.model import load_model, read_bags, save_model


def conll_line(idx, form, pos, head, deprel):
    cols = ["_"] * 11
    cols[0] = str(idx)
    cols[1] = form
    cols[4] = pos
    cols[8] = str(head)
    cols[10] = deprel
    return "\t".join(cols)


def write_corpus(path, sentences):
    lines = []
    for sent in sentences:
        for idx, (form, pos, head, deprel) in enumerate(sent, start=1):
            lines.append(conll_line(idx, form, pos, head, deprel))
        lines.append("")
    path.write_text("\n".join(lines) + "\n")


CORPUS = [
    [("the", "DT", 2, "NMOD"), ("cat", "NN", 3, "SBJ"), ("sat", "VB", 0, "ROOT")],
    [("the", "DT", 2, "NMOD"), ("dog", "NN", 3, "SBJ"), ("sat", "VB", 0, "ROOT")],
    [("the", "DT", 2, "NMOD"), ("cat", "NN", 3, "SBJ"), ("ran", "VB", 0, "ROOT")],
    [("a", "DT", 2, "NMOD"), ("dog", "NN", 3, "SBJ"), ("ran", "VB", 0, "ROOT")],
]


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus.conll"
    write_corpus(corpus, CORPUS)
    return tmp_path


def write_config(tmp_path, name="config.txt", **overrides):
    entries = {
        "paths.corpus": str(tmp_path / "corpus.conll"),
        "paths.vocab": str(tmp_path / "vocab.txt"),
        "paths.model": str(tmp_path / "model.bin"),
        "paths.embeddings": str(tmp_path / "bags.bin"),
        "paths.pairs": str(tmp_path / "pairs.tsv"),
        "paths.scores": str(tmp_path / "scores.tsv"),
        "paths.report": str(tmp_path / "report.txt"),
        "thresholds.relation": "1",
        "hyper.r": "4",
        "hyper.max_rounds": "30",
        "seed": "0",
    }
    entries.update(overrides)
    path = tmp_path / name
    # a key set to None is left out
    path.write_text("".join("%s=%s\n" % kv for kv in entries.items() if kv[1] is not None))
    return str(path)


def run(config, *args):
    return main(["--config", config, *args])


class TestBuildVocab:
    def test_writes_vocab(self, workspace, capsys):
        config = write_config(workspace)
        assert run(config, "build-vocab") == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        assert (workspace / "vocab.txt").exists()

    def test_rerun_byte_identical(self, workspace):
        config = write_config(workspace)
        run(config, "build-vocab")
        first = (workspace / "vocab.txt").read_bytes()
        run(config, "build-vocab")
        assert (workspace / "vocab.txt").read_bytes() == first

    def test_missing_corpus(self, workspace, capsys):
        config = write_config(workspace,
                              **{"paths.corpus": str(workspace / "nope.conll")})
        assert run(config, "build-vocab") == EXIT_DATA
        assert "error" in capsys.readouterr().err


def tensors_config(workspace, **overrides):
    overrides.setdefault("paths.tensors", str(workspace / "tensors.txt"))
    return write_config(workspace, name="tensors_config.txt", **overrides)


class TestEncode:
    def test_round_trip(self, workspace):
        config = tensors_config(workspace)
        run(config, "build-vocab")
        assert run(config, "encode") == EXIT_OK
        c, d, sentences = encoding.read_tensor_file(workspace / "tensors.txt")
        assert len(sentences) == len(CORPUS)
        for _, w, x in sentences:
            assert w.c == c and x.d == d
            assert w.nnz == 2 * w.n  # one word and one PoS predicate per token

    def test_malformed_vocabulary_line(self, workspace, capsys):
        vocab = workspace / "vocab.txt"
        vocab.write_text("w\tcat\t0\t3\nw\tdog\t1\n")
        assert run(tensors_config(workspace), "encode") == EXIT_DATA
        assert "%s line 2" % vocab in capsys.readouterr().err


class TestTrain:
    def test_als_deterministic(self, workspace):
        config = write_config(workspace)
        run(config, "build-vocab")
        assert run(config, "train") == EXIT_OK
        first = (workspace / "model.bin").read_bytes()
        assert run(config, "train") == EXIT_OK
        assert (workspace / "model.bin").read_bytes() == first

    def test_sgd_trainer(self, workspace):
        config = write_config(workspace, trainer="sgd",
                              **{"sgd.epochs": "3"})
        run(config, "build-vocab")
        assert run(config, "train") == EXIT_OK
        model = load_model(str(workspace / "model.bin"))
        assert model.P.shape[1] == 4

    def test_r_over_cap_advises_sgd(self, workspace, capsys):
        config = write_config(workspace, **{"hyper.r": "101"})
        run(config, "build-vocab")
        assert run(config, "train") == EXIT_DATA
        assert "sgd" in capsys.readouterr().err

    def test_training_log(self, workspace):
        config = write_config(workspace,
                              **{"paths.log": str(workspace / "train.log")})
        run(config, "build-vocab")
        run(config, "train")
        log = (workspace / "train.log").read_text()
        assert log.startswith("round=1 objective=")

    def test_log_streamed_before_divergence(self, workspace, monkeypatch):
        line = "round=1 objective=2.5 rel_improvement=0 seconds=0.010"

        def diverging_train(ws, xs, model, hyper, log=None):
            log(line)
            raise DivergenceError("non-finite objective at round 2")

        monkeypatch.setattr(als, "train", diverging_train)
        config = write_config(workspace,
                              **{"paths.log": str(workspace / "train.log")})
        run(config, "build-vocab")
        assert run(config, "train") == EXIT_DIVERGED
        assert (workspace / "train.log").read_text() == line + "\n"

    def test_train_from_tensor_file(self, workspace):
        base = write_config(workspace)
        run(base, "build-vocab")
        config = tensors_config(workspace)
        run(config, "encode")
        assert run(config, "train") == EXIT_OK

    @pytest.mark.parametrize("trainer", ["als", "sgd"])
    def test_overflow_is_a_divergence(self, workspace, capsys, trainer):
        (workspace / "tensors.txt").write_text(
            "dims 3 2\nsentence s0 2\nW 0 0 1e308\nW 1 1 1\nX 0 0 1 1\n")
        config = tensors_config(workspace, trainer=trainer)
        assert run(config, "train") == EXIT_DIVERGED
        assert "training diverged" in capsys.readouterr().err
        assert not (workspace / "model.bin").exists()

    @pytest.mark.parametrize("trainer", ["als", "sgd"])
    def test_no_sentences_is_a_data_error(self, workspace, capsys, trainer):
        (workspace / "tensors.txt").write_text("dims 3 2\n")
        config = tensors_config(workspace, trainer=trainer)
        assert run(config, "train") == EXIT_DATA
        assert "no sentences" in capsys.readouterr().err
        assert not (workspace / "model.bin").exists()


def trained_workspace(workspace):
    config = write_config(workspace)
    run(config, "build-vocab")
    run(config, "train")
    return config


class TestInfer:
    def test_writes_all_bags(self, workspace, capsys):
        config = trained_workspace(workspace)
        assert run(config, "infer") == EXIT_OK
        bags = read_bags(str(workspace / "bags.bin"))
        assert [sid for sid, _ in bags] == [str(i) for i in range(len(CORPUS))]
        assert all(e.shape == (3, 4) for _, e in bags)

    def test_unseen_word_falls_back(self, workspace, tmp_path):
        config = trained_workspace(workspace)
        write_corpus(workspace / "corpus.conll",
                     [[("the", "DT", 2, "NMOD"), ("wombat", "NN", 3, "SBJ"),
                       ("sat", "VB", 0, "ROOT")]])
        assert run(config, "infer") == EXIT_OK
        bags = read_bags(str(workspace / "bags.bin"))
        assert len(bags) == 1 and np.all(np.isfinite(bags[0][1]))

    def test_non_finite_model_rejected(self, workspace, capsys):
        config = trained_workspace(workspace)
        model = load_model(str(workspace / "model.bin"))
        model.R[0, 0, 0] = np.nan
        save_model(model, str(workspace / "model.bin"))
        with pytest.raises(ModelFormatError):
            load_model(str(workspace / "model.bin"))
        assert run(config, "infer") == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("block", [b"r=abc", b"r=0", b"garbage"])
    def test_bad_hyperparameter_block_rejected(self, workspace, capsys,
                                               monkeypatch, block):
        config = trained_workspace(workspace)
        model = load_model(str(workspace / "model.bin"))
        monkeypatch.setattr(model_io, "_hyper_to_bytes", lambda hyper: block)
        save_model(model, str(workspace / "model.bin"))
        assert run(config, "infer") == EXIT_DATA
        assert "bad hyperparameter block" in capsys.readouterr().err

    def test_identical_sentences_identical_bags(self, workspace):
        config = trained_workspace(workspace)
        write_corpus(workspace / "corpus.conll", [CORPUS[0], CORPUS[0]])
        run(config, "infer")
        bags = dict(read_bags(str(workspace / "bags.bin")))
        np.testing.assert_array_equal(bags["0"], bags["1"])


class TestScoreAndEval:
    def infer_bags(self, workspace):
        config = trained_workspace(workspace)
        run(config, "infer")
        return config

    def test_sts_scores_and_report(self, workspace):
        config = self.infer_bags(workspace)
        (workspace / "pairs.tsv").write_text(
            "p1\t0\t1\t4.0\np2\t0\t2\t3.0\np3\t0\t3\t1.0\n")
        assert run(config, "score", "--mode", "sts") == EXIT_OK
        lines = (workspace / "scores.tsv").read_text().splitlines()
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 4 for line in lines)
        report = (workspace / "report.txt").read_text()
        assert "metric=pearson" in report and "subset=mean" in report

    def test_sts_symmetry_under_swapped_columns(self, workspace):
        config = self.infer_bags(workspace)
        (workspace / "pairs.tsv").write_text("p1\t0\t1\t4.0\np2\t2\t3\t2.0\n")
        run(config, "score", "--mode", "sts")
        forward = [line.split("\t")[1] for line in
                   (workspace / "scores.tsv").read_text().splitlines()]
        (workspace / "pairs.tsv").write_text("p1\t1\t0\t4.0\np2\t3\t2\t2.0\n")
        run(config, "score", "--mode", "sts")
        backward = [line.split("\t")[1] for line in
                    (workspace / "scores.tsv").read_text().splitlines()]
        assert forward == backward

    def test_snli_report_has_ap(self, workspace):
        config = self.infer_bags(workspace)
        (workspace / "pairs.tsv").write_text(
            "p1\t0\t1\tentailment\np2\t0\t3\tneutral\n")
        assert run(config, "score", "--mode", "snli") == EXIT_OK
        assert "metric=ap" in (workspace / "report.txt").read_text()

    def test_eval_recomputes_report(self, workspace):
        config = self.infer_bags(workspace)
        (workspace / "pairs.tsv").write_text("p1\t0\t1\t4.0\np2\t0\t2\t3.0\n")
        run(config, "score", "--mode", "sts")
        original = (workspace / "report.txt").read_text()
        (workspace / "report.txt").unlink()
        assert run(config, "eval", "--mode", "sts") == EXIT_OK
        assert (workspace / "report.txt").read_text() == original

    def test_score_report_equals_eval_of_written_scores(self, workspace):
        # cos(a, c) = 1 - 5e-15 < cos(a, b) = 1, but both are 1 to 10 digits,
        # so in the scores file the pairs tie and keep their file order
        config = write_config(workspace)
        model_io.write_bags(workspace / "bags.bin", [
            ("a", np.array([[1.0, 0.0]])), ("b", np.array([[1.0, 0.0]])),
            ("c", np.array([[1.0, 1e-7]]))])
        (workspace / "pairs.tsv").write_text(
            "p1\ta\tc\tentailment\np2\ta\tb\tcontradiction\n")
        assert run(config, "score", "--mode", "snli") == EXIT_OK
        from_score = (workspace / "report.txt").read_bytes()
        (workspace / "report.txt").unlink()
        assert run(config, "eval", "--mode", "snli") == EXIT_OK
        assert (workspace / "report.txt").read_bytes() == from_score
        assert b"subset=mean metric=ap value=1.000000 n=2" in from_score

    def test_missing_sentence_id(self, workspace, capsys):
        config = self.infer_bags(workspace)
        (workspace / "pairs.tsv").write_text("p1\t0\t99\t4.0\n")
        assert run(config, "score", "--mode", "sts") == EXIT_DATA
        assert "missing sentence id" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, gold", [("sts", "4.0"), ("snli", "entailment")])
    def test_bag_value_too_large_to_score(self, workspace, capsys, mode, gold):
        config = write_config(workspace)
        model_io.write_bags(workspace / "bags.bin", [("a", np.full((2, 2), 1e200)),
                                                     ("b", np.ones((1, 2)))])
        (workspace / "pairs.tsv").write_text("p1\ta\tb\t%s\n" % gold)
        assert run(config, "score", "--mode", mode) == EXIT_DATA
        assert "scoring failed on out-of-range values" in capsys.readouterr().err

    def test_empty_sts_pairs_file(self, workspace, capsys):
        config = write_config(workspace)
        (workspace / "bags.bin").write_bytes(b"")
        (workspace / "pairs.tsv").write_text("")
        assert run(config, "score", "--mode", "sts") == EXIT_DATA
        assert "no pairs to evaluate" in capsys.readouterr().err

    def test_non_numeric_sts_gold(self, workspace, capsys):
        config = write_config(workspace)
        (workspace / "bags.bin").write_bytes(b"")
        (workspace / "pairs.tsv").write_text("p0\t0\t1\t4.0\np1\ta\tb\thigh\n")
        assert run(config, "score", "--mode", "sts") == EXIT_DATA
        assert "pair file line 2" in capsys.readouterr().err


class TestSynth:
    def test_exact_mode_ground_truth_fits(self, workspace):
        config = tensors_config(workspace, **{"synth.sentences": "3",
                                              "synth.tokens": "4"})
        assert run(config, "synth") == EXIT_OK
        c, d, sentences = encoding.read_tensor_file(workspace / "tensors.txt")
        model = load_model(str(workspace / "model.bin"))
        # exact mode: the stored model reproduces the tensors up to the
        # text round-trip precision; we cannot recover E, so just check
        # the tensors are real-valued and dims agree
        assert c == model.c and d == model.d
        assert len(sentences) == 3

    def test_discrete_mode_indicators(self, workspace):
        config = tensors_config(workspace, **{"synth.mode": "discrete"})
        run(config, "synth")
        _, _, sentences = encoding.read_tensor_file(workspace / "tensors.txt")
        for _, w, x in sentences:
            assert set(np.unique(w.values)) <= {1.0}
            assert set(np.unique(x.values)) <= {1.0}

    def test_idempotent(self, workspace):
        config = tensors_config(workspace)
        run(config, "synth")
        first = ((workspace / "tensors.txt").read_bytes(),
                 (workspace / "model.bin").read_bytes())
        run(config, "synth")
        second = ((workspace / "tensors.txt").read_bytes(),
                  (workspace / "model.bin").read_bytes())
        assert first == second

    def test_seed_flag_changes_output(self, workspace):
        config = tensors_config(workspace)
        run(config, "synth")
        first = (workspace / "tensors.txt").read_bytes()
        main(["--config", config, "--seed", "5", "synth"])
        assert (workspace / "tensors.txt").read_bytes() != first


def model_file(model):
    """The bytes save_model writes for model, as latin-1 text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save_model(model, path)
        with open(path, "rb") as f:
            return f.read().decode("latin-1")


# train with a vocabulary, the corpus and a pretrained vector file (r=4)
VECTORS = {"paths.tensors": None, "paths.vectors": "vectors.txt"}
# name -> (input file, its latin-1 text, command, text the error must hold
# [, config keys; a paths.* value names a file in the workspace])
MALFORMED_INPUTS = {
    "tensor entry before sentence": (
        "tensors.txt", "dims 3 2\nW 0 0 1\n", ("train",), "line 2"),
    "tensor file without dims": (
        "tensors.txt", "sentence s0 1\nW 0 0 1\n", ("train",), "line 1"),
    "second tensor dims line": (
        "tensors.txt", "dims 3 2\nsentence s0 1\nW 2 0 1\ndims 5 4\n", ("train",),
        "line 4"),
    "short scores line": (
        "scores.tsv", "p1\t0.5\t4.0\n", ("eval", "--mode", "sts"), "line 1"),
    "bag header without r": (
        "bags.bin", "a b\n", ("score", "--mode", "sts"), "record 1"),
    "tensor dims line with an extra field": (
        "tensors.txt", "dims 3 2 99\nsentence s0 1\nW 2 0 1\n", ("train",), "line 1"),
    "tensor sentence line with an extra field": (
        "tensors.txt", "dims 3 2\nsentence s0 1 junk\nW 2 0 1\n", ("train",), "line 2"),
    "unknown vocabulary threshold": (
        "vocab.txt", "#thresholds\tword=2\tbogus=5\n", ("encode",),
        "vocab.txt line 1: unknown threshold 'bogus'"),
    "negative tensor dims": (
        "tensors.txt", "dims -3 2\n", ("train",), "line 1"),
    "negative sentence length": (
        "tensors.txt", "dims 3 2\nsentence s0 -1\n", ("train",), "line 2"),
    "negative bag shape": (
        "bags.bin", "a -1 -1\n", ("score", "--mode", "sts"), "record 1"),
    "negative bag r": (
        "bags.bin", "a 2 -4\n", ("score", "--mode", "sts"), "record 1"),
    "non-finite tensor value": (
        "tensors.txt", "dims 3 2\nsentence s0 1\nW 0 0 nan\n", ("train",), "line 3"),
    "tensor entry with an extra field": (
        "tensors.txt", "dims 3 2\nsentence s0 2\nX 0 0 1 1 1\n", ("train",), "line 3"),
    "tensor W index out of range": (  # sentence s1 starts on line 4
        "tensors.txt", "dims 3 2\nsentence s0 1\nW 2 0 1\nsentence s1 2\nW 3 1 1\n",
        ("train",), "tensors.txt line 4: sentence s1: predicate index out of range"),
    "tensor X index out of range": (
        "tensors.txt", "dims 3 2\nsentence s0 2\nW 0 0 1\nX 2 0 1 1\n",
        ("train",), "tensors.txt line 2: sentence s0: relation index out of range"),
    "non-finite bag value": (  # bag a = [[nan]], bag b = [[1.0]]
        "bags.bin", "a 1 1\n" + "\0" * 6 + "\xf8\x7fb 1 1\n" + "\0" * 6 + "\xf0?",
        ("score", "--mode", "sts"), "record 1"),
    "unknown tensor line tag": (
        "tensors.txt", "dims 3 2\nsentence s0 1\nw 0 0 1\n", ("train",), "line 3"),
    "non-finite pair gold": (
        "pairs.tsv", "p1\ta\tb\tnan\n", ("score", "--mode", "sts"),
        "pairs.tsv: pair file line 1"),
    "non-finite score": (
        "scores.tsv", "p1\tnan\t4.0\tall\n", ("eval", "--mode", "sts"),
        "scores.tsv: scores file line 1"),
    "non-finite scores gold": (
        "scores.tsv", "p0\t0.5\t1.0\tall\np1\t0.5\tinf\tall\n", ("eval", "--mode", "sts"),
        "scores.tsv: scores file line 2"),
    "non-finite SNLI score": (
        "scores.tsv", "p1\tinf\tentailment\tall\n", ("eval", "--mode", "snli"),
        "scores.tsv: scores file line 1"),
    "vector value not a number": (
        "vectors.txt", "2 4\ncat 1 0 0 0\ndog 0 x 0 0\n", ("train",),
        "vectors.txt line 3", VECTORS),
    "non-finite vector value": (
        "vectors.txt", "2 4\ncat 1 0 0 nan\ndog 0 1 0 0\n", ("train",),
        "vectors.txt line 2", VECTORS),
    "vector value out of range": (
        "vectors.txt", "2 4\ncat 1 0 0 0\ndog 0 1e400 0 0\n", ("train",),
        "vectors.txt line 3", VECTORS),
    "vector header not a number": (
        "vectors.txt", "two 4\ncat 1 0 0 0\n", ("train",), "vectors.txt line 1", VECTORS),
    "model r disagrees with its hyperparameters": (
        "model.bin", model_file(model_io.TypeEmbeddings(
            P=np.zeros((12, 6)), R=np.zeros((3, 6, 6)), frozen_p_rows=np.zeros(12, dtype=bool),
            hyper=model_io.Hyperparams(r=8))),
        ("infer",), "hyperparameter r=8 disagrees with the stored r=6"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_a_data_error(workspace, capsys, name):
    filename, text, command, where, *keys = MALFORMED_INPUTS[name]
    keys = {key: str(workspace / value) if key.startswith("paths.") and value else value
            for key, value in dict(*keys).items()}
    config = tensors_config(workspace, **keys)
    assert run(config, "build-vocab") == EXIT_OK
    (workspace / "pairs.tsv").write_text("p1\ta\tb\t4.0\n")
    (workspace / "bags.bin").write_bytes(b"")
    (workspace / filename).write_bytes(text.encode("latin-1"))
    assert run(config, *command) == EXIT_DATA
    assert where in capsys.readouterr().err


class TestConfigAndUsage:
    def test_unknown_key_rejected(self, workspace, capsys):
        config = write_config(workspace, **{"paths.banana": "x"})
        assert run(config, "build-vocab") == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("hyper.als_r_cap", "50"),
                                            ("sgd.adapt_eps", "1e-6")])
    def test_removed_knob_rejected(self, workspace, capsys, key, value):
        config = write_config(workspace, **{key: value})
        assert run(config, "build-vocab") == EXIT_USAGE
        assert "unknown config key %r" % key in capsys.readouterr().err

    def test_bad_hyper_rejected(self, workspace):
        config = write_config(workspace, **{"hyper.r": "0"})
        assert run(config, "build-vocab") == EXIT_USAGE

    def test_missing_config_file(self, workspace, capsys):
        assert main(["--config", str(workspace / "nope.txt"),
                     "build-vocab"]) == EXIT_DATA

    def test_missing_subcommand(self, workspace, capsys):
        config = write_config(workspace)
        assert main(["--config", config]) == EXIT_USAGE

    def test_unknown_synth_mode_rejected(self, workspace, capsys):
        config = tensors_config(workspace, **{"synth.mode": "foo"})
        assert run(config, "synth") == EXIT_USAGE
        assert "synth.mode must be 'exact' or 'discrete'" in capsys.readouterr().err
        assert not (workspace / "tensors.txt").exists()

    @pytest.mark.parametrize("regularizer", ["l1", "nuclear"])
    def test_sgd_rejects_non_l2_r_regularizer(self, workspace, capsys, regularizer):
        config = write_config(workspace, trainer="sgd",
                              **{"hyper.r_regularizer": regularizer})
        assert run(config, "train") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "trainer=sgd" in err and "hyper.r_regularizer" in err
        assert not (workspace / "model.bin").exists()

    @pytest.mark.parametrize("key", ["synth.sentences", "synth.tokens",
                                     "synth.predicates", "synth.relations"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_synth_count_below_one_rejected(self, workspace, capsys, key, value):
        config = tensors_config(workspace, **{key: value})
        assert run(config, "synth") == EXIT_USAGE
        assert "%s must be >= 1" % key.replace(".", "_") in capsys.readouterr().err
        assert not (workspace / "tensors.txt").exists()
        assert not (workspace / "model.bin").exists()

    @pytest.mark.parametrize("command, entries, flags, message", [
        ("train", {"seed": "-1"}, [], "seed must be >= 0"),
        ("synth", {"seed": "-1"}, [], "seed must be >= 0"),
        ("train", {}, ["--seed", "-3"], "seed must be >= 0"),
        ("train", {"trainer": "sgd", "sgd.seed": "-1"}, [], "seed must be >= 0"),
        ("synth", {"synth.noise": "inf"}, [], "synth_noise must be finite, got inf"),
        ("synth", {"synth.noise": "nan"}, [], "synth_noise must be finite, got nan"),
        ("synth", {"synth.noise": "-1"}, [], "synth_noise must be >= 0"),
        ("synth", {"synth.mode": "discrete", "synth.threshold": "nan"}, [],
         "synth_threshold must be finite, got nan"),
        ("synth", {"synth.mode": "discrete", "synth.threshold": "2"}, [],
         "synth_threshold must be in [0, 1]"),
    ], ids=["seed-train", "seed-synth", "seed-flag", "sgd-seed", "noise-inf", "noise-nan",
            "noise-negative", "threshold-nan", "threshold-above-one"])
    def test_seed_or_synth_value_out_of_bounds(self, workspace, capsys, command,
                                               entries, flags, message):
        if command == "train":  # valid tensors to train on
            assert run(tensors_config(workspace), "synth") == EXIT_OK
            (workspace / "model.bin").unlink()
        config = tensors_config(workspace, **entries)
        assert main(["--config", config, *flags, command]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (workspace / "model.bin").exists()

    def test_missing_required_path(self, workspace, capsys):
        config = write_config(workspace)
        # config without a vocab path: delete the entry by pointing the
        # parser at a minimal file
        (workspace / "min.txt").write_text(
            "paths.corpus=%s\n" % (workspace / "corpus.conll"))
        assert main(["--config", str(workspace / "min.txt"),
                     "build-vocab"]) == EXIT_USAGE
        assert "paths.vocab" in capsys.readouterr().err
