"""The benchmark in perfbench/ wraps bove functions by name.

A rename or an inlined function would otherwise surface only when the
benchmark runs; this test reads the benchmark's WRAPPED list without
importing the harness and checks that every entry still resolves.  The
benchmark also splits the E solves by the module binding they go through
(als.update_E_sentence in training, inference.update_E_sentence in
inference), so each schedule must call its own module's binding.  Its
scoring spans and call count read the scoring functions that `score` looks
up on bove.scoring, one call per pair.
"""

import ast
import importlib
import pathlib

import numpy as np
import pytest

from bove import als, inference, model as model_io, scoring, synth
from bove.cli import EXIT_OK, main

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def wrapped_names():
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("%s assigns no WRAPPED list" % RUN)


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_function_resolves(module, attr):
    target = getattr(importlib.import_module("bove." + module), attr, None)
    assert callable(target), "bove.%s.%s is not a callable" % (module, attr)


def count_calls(monkeypatch, module):
    """Calls made through module.update_E_sentence from now on."""
    calls = []
    original = module.update_E_sentence

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "update_E_sentence", counted)
    return calls


@pytest.mark.parametrize("iters", [1, 2, 5])
def test_each_E_schedule_solves_through_its_own_module(monkeypatch, iters):
    data = synth.generate(0, n_sentences=1, n_tokens=3, c=5, d=2, r=2)
    _, w, x = data.sentences[0]
    via_als = count_calls(monkeypatch, als)
    via_inference = count_calls(monkeypatch, inference)
    inference.infer_bove(w, x, data.model, iters=iters)
    assert (len(via_inference), len(via_als)) == (iters, 0)
    als.averaged_E_step(w, x, data.model.P, data.model.R, np.zeros((w.n, 2)))
    assert (len(via_inference), len(via_als)) == (iters, 2)


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
