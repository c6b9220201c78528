"""The benchmark in perfbench/ wraps bove functions by name.

A rename or an inlined function would otherwise surface only when the
benchmark runs; this test reads the benchmark's WRAPPED list without
importing the harness and checks that every entry still resolves.  The
benchmark also splits the E solves by the module binding they go through
(als.update_E_sentence in training, inference.update_E_sentence in
inference), so each schedule must call its own module's binding.  Its
scoring spans and call count read the scoring functions that `score` looks
up on bove.scoring, one call per pair.  A function a workload expects to
call but never does leaves its per-layer metrics out of the traced result,
so each workload's steps, run here on a small corpus, must call every
function its `expect` list names; for sgd-train that pins that `sgd_step`
calls `sample_cells` and `sampled_loss_and_grads` through bove.sgd.
"""

import ast
import importlib
import pathlib

import numpy as np
import pytest

from bove import als, inference, model as model_io, scoring, synth
from bove.cli import EXIT_OK, main

from oracles import with_hyper
from test_cli import CORPUS, write_config, write_corpus

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def assigned(name):
    """The value node of run.py's top-level assignment to name."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == [name]:
            return node.value
    raise AssertionError("%s assigns no %s" % (RUN, name))


def wrapped_names():
    return ast.literal_eval(assigned("WRAPPED"))


def workload_lists():
    """{workload: {key: value}}: the expect, steps and setup_steps lists of
    run.py's WORKLOADS, and under "trainer" the trainer its config lines
    select.  Only these nodes are evaluated, since other entries (the `why`
    texts, config lines such as "hyper.r=%d" % R_ALS) are not literals."""
    workloads = assigned("WORKLOADS")
    specs = {}
    for name, spec in zip(workloads.keys, workloads.values):
        entries = {ast.literal_eval(key): value for key, value in zip(spec.keys, spec.values)}
        specs[ast.literal_eval(name)] = lists = {
            key: ast.literal_eval(entries[key])
            for key in ("expect", "steps", "setup_steps") if key in entries}
        [lists["trainer"]] = [
            line.value[len("trainer="):] for line in entries["config"].elts
            if isinstance(line, ast.Constant) and line.value.startswith("trainer=")]
    return specs


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_function_resolves(module, attr):
    target = getattr(importlib.import_module("bove." + module), attr, None)
    assert callable(target), "bove.%s.%s is not a callable" % (module, attr)


def count_wrapped(monkeypatch):
    """Calls made from now on through each function of run.py's WRAPPED,
    by "module.attr"."""
    calls = {}
    for mod, attr in wrapped_names():
        module = importlib.import_module("bove." + mod)
        name = "%s.%s" % (mod, attr)
        calls[name] = 0

        def counted(*args, _name=name, _original=getattr(module, attr), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("iters", [1, 2, 5])
def test_each_E_schedule_solves_through_its_own_module(monkeypatch, iters):
    data = synth.generate(0, n_sentences=1, n_tokens=3, c=5, d=2, hyper=model_io.Hyperparams(r=2))
    _, w, x = data.sentences[0]
    calls = count_wrapped(monkeypatch)

    def solves():
        return calls["inference.update_E_sentence"], calls["als.update_E_sentence"]
    inference.infer_bove(w, x, with_hyper(data.model, inference_iters=iters))
    assert solves() == (iters, 0)
    als.averaged_E_step(w, x, data.model, np.zeros((w.n, 2)))
    assert solves() == (iters, 1)


@pytest.mark.parametrize("mode, gold, calls", [
    ("sts", "4.0", {"score_similarity": 3, "score_entailment": 0}),
    ("snli", "entailment", {"score_similarity": 0, "score_entailment": 3}),
])
def test_score_calls_one_scoring_function_per_pair(monkeypatch, tmp_path, mode, gold,
                                                   calls):
    rng = np.random.default_rng(0)
    model_io.write_bags(tmp_path / "bags.bin",
                        [(sid, rng.normal(size=(3, 2))) for sid in "abc"])
    (tmp_path / "pairs.tsv").write_text("".join(
        "p%d\t%s\t%s\t%s\n" % (i, s1, s2, gold)
        for i, (s1, s2) in enumerate(["ab", "bc", "ca"])))
    (tmp_path / "config.txt").write_text("".join(
        "paths.%s=%s\n" % (key, tmp_path / name) for key, name in [
            ("embeddings", "bags.bin"), ("pairs", "pairs.tsv"), ("scores", "scores.tsv")]))
    made = {name: 0 for name in calls}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(scoring, name)):
            made[_name] += 1
            return _original(*args)
        monkeypatch.setattr(scoring, name, counted)
    assert main(["--config", str(tmp_path / "config.txt"), "score", "--mode", mode]) \
        == EXIT_OK
    assert made == calls


@pytest.mark.parametrize("workload", sorted(workload_lists()))
def test_each_expected_function_is_called(monkeypatch, tmp_path, workload):
    spec = workload_lists()[workload]
    write_corpus(tmp_path / "corpus.conll", CORPUS)
    write_corpus(tmp_path / "heldout.conll", CORPUS[:3])
    entries = {"paths.tensors": str(tmp_path / "tensors.txt"),
               "paths.log": str(tmp_path / "train.log"), "trainer": spec["trainer"],
               "hyper.max_rounds": "2", "hyper.rel_improvement_stop": "0",
               "sgd.epochs": "1"}
    configs = {"": write_config(tmp_path, **entries),
               "infer": write_config(tmp_path, name="heldout.txt", **entries,
                                     **{"paths.corpus": str(tmp_path / "heldout.conll")})}
    for mode, golds in (("sts", ["4.0", "1.0", "2.5", "4.0"]),
                        ("snli", ["entailment", "neutral", "contradiction", "entailment"])):
        pairs = tmp_path / ("pairs_%s.tsv" % mode)
        pairs.write_text("".join("p%d\t%s\t%s\t%s\n" % (i, s1, s2, gold) for i, (s1, s2, gold)
                                 in enumerate(zip("0120", "1201", golds))))
        configs["score-" + mode] = write_config(
            tmp_path, name="%s.txt" % mode, **{"paths.pairs": str(pairs),
                                               "paths.scores": str(tmp_path / mode)})

    def run_steps(steps):
        for step in steps:
            args = ["score", "--mode", step[6:]] if step.startswith("score-") else [step]
            assert main(["--config", configs.get(step, configs[""]), *args]) == EXIT_OK

    run_steps(spec.get("setup_steps", []))
    calls = count_wrapped(monkeypatch)
    run_steps(spec["steps"])
    assert [name for name in spec["expect"] if not calls.get(name)] == []
