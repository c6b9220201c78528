"""Self-tests of the benchmark harness: spans, summaries, metric rules, inputs.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.run = "pass0"
    a = tracer.open("a")          # a: 0..10
    clock.now = 1.0
    b = tracer.open("b")          # b: 1..4, child of a
    clock.now = 2.0
    c = tracer.open("c")          # c: 2..3, child of b
    clock.now = 3.0
    tracer.close(c)
    clock.now = 4.0
    tracer.close(b)
    clock.now = 5.0
    d = tracer.open("d")          # d: 5..6, child of a
    clock.now = 6.0
    tracer.close(d)
    clock.now = 10.0
    tracer.close(a)
    assert [s[3] for s in tracer.spans] == [None, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0]
    summary = spans.Summary(tracer, ["pass0"])
    assert summary.self_s("a") == 6.0
    assert summary.total_s("a") == 10.0


def test_covered_merges_overlapping_intervals():
    assert spans._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_wrappers_nest_count_and_restore():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    mod = types.SimpleNamespace()

    def inner(x):
        clock.now += 1.0
        return [x] * x

    def outer(x):
        clock.now += 0.5
        return mod.inner(x)

    def stream(n):
        for i in range(n):
            clock.now += 0.25
            yield i

    mod.inner, mod.outer, mod.stream = inner, outer, stream
    tracer.wrap(mod, "inner", "m.inner", counter=len)
    tracer.wrap(mod, "outer", "m.outer")
    tracer.wrap(mod, "stream", "m.stream", generator=True)
    tracer.run = "pass0"
    assert mod.outer(3) == [3, 3, 3]
    assert list(mod.stream(4)) == [0, 1, 2, 3]
    tracer.restore()
    assert (mod.inner, mod.outer, mod.stream) == (inner, outer, stream)

    summary = spans.Summary(tracer, ["pass0"])
    assert summary.calls("m.outer") == 1 and summary.calls("m.inner") == 1
    assert summary.total_s("m.outer") == 1.5
    assert summary.self_s("m.outer") == 0.5
    assert summary.total_s("m.stream") == 1.0
    assert summary.counter("m.inner") == 3


def test_after_hook_runs_outside_the_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    mod = types.SimpleNamespace(f=lambda: None)
    seen = []

    def after():
        seen.append(tracer.spans[-1][2])  # the call's span is already closed
        clock.now += 5.0

    tracer.wrap(mod, "f", "m.f", after=after)
    tracer.run = "pass0"
    mod.f()
    mod.f()
    assert seen == [0.0, 5.0]
    assert spans.Summary(tracer, ["pass0"]).total_s("m.f") == 0.0


def test_host_clock_scales_by_probes_and_skips_probe_time():
    clock = FakeClock()
    ref = calib.REFERENCE_S["solve"]
    readings = iter([2.0 * ref, 2.0 * ref, 4.0 * ref])

    def measure(kinds):
        clock.now += 1.0  # each probe takes one second
        return {"solve": next(readings)}

    host = calib.HostClock(["solve"], interval=10.0, clock=clock, measure=measure)
    host.probe()                      # probe 0..1, slowdown 2
    clock.now = 5.0
    host.maybe_probe()                # too soon: no probe
    clock.now = 11.0
    host.maybe_probe()                # probe 11..12, slowdown 2
    clock.now = 15.0
    host.probe()                      # probe 15..16, slowdown 4
    assert len(host.probes) == 3
    # 1..11 at slowdown 2, the probe 11..12 skipped, 12..15 at slowdown 3.
    assert host.reference_seconds(1.0, 15.0, "solve") == pytest.approx(10 / 2 + 3 / 3)
    assert host.reference_seconds(3.0, 5.0, "solve") == pytest.approx(1.0)
    assert host.work_seconds(1.0, 15.0) == pytest.approx(13.0)
    assert host.slowdowns("solve") == pytest.approx([2.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        host.reference_seconds(1.0, 17.0, "solve")
    with pytest.raises(ValueError):
        host.reference_seconds(0.5, 5.0, "solve")


def test_probe_times_every_kind():
    times = calib.Probe()()
    assert sorted(times) == sorted(calib.KINDS)
    assert all(t > 0 for t in times.values())


def test_summary_is_per_run():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    for run_id, calls in (("pass0", 1), ("pass1", 3), ("other", 5)):
        tracer.run = run_id
        for _ in range(calls):
            i = tracer.open("f")
            clock.now += 1.0
            tracer.close(i)
    summary = spans.Summary(tracer, ["pass0", "pass1"])
    assert summary.calls("f") == 2
    assert summary.total_s("f") == 2.0  # median of 1.0 and 3.0
    assert len(summary.durations["f"]) == 4


@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (39, 50.0), (40, 75.0),
                                    (100, 90.0), (199, 90.0), (200, 95.0),
                                    (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_calls_beyond(n, pct):
    values = list(range(1, n + 1))
    found = spans.tail(values)
    if pct is None:
        assert found is None
        return
    value, got = found
    assert got == pct
    assert sum(v > value for v in values) >= spans.TAIL_MIN_BEYOND
    assert value == spans.nearest_rank(values, pct)


def test_throughput_units():
    assert run.throughputs("als-train", {"sentences": 8, "rounds": 2},
                           {"cli.train": 4.0}) == {
        "als_sent_rounds_per_s": (4.0, "sentence*rounds/s")}
    # SGD is timed from sgd_step spans, not from the train step.
    assert run.throughputs("sgd-train", {"sentences": 16, "epochs": 30},
                           {"cli.train": 99.0, "sgd_step_s": 4.8}) == {
        "sgd_sent_epochs_per_s": (100.0, "sentence*epochs/s")}
    assert run.throughputs("infer-score", {"heldout": 8, "pairs": 500},
                           {"cli.infer": 2.0, "cli.score-sts": 0.75,
                            "cli.score-snli": 0.25}) == {
        "infer_sent_per_s": (4.0, "sentences/s"),
        "score_pairs_per_s": (1000.0, "pairs/s")}
    for name, rate_name in run.MAIN_RATE.items():
        assert rate_name in run.throughputs(
            name, {"sentences": 1, "rounds": 1, "epochs": 1, "heldout": 1, "pairs": 1},
            {"cli.train": 1, "sgd_step_s": 1, "cli.infer": 1, "cli.score-sts": 1,
             "cli.score-snli": 1})


def _traced(names_calls):
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    tracer.run = "pass0"
    for name, calls in names_calls:
        for _ in range(calls):
            i = tracer.open(name)
            clock.now += 0.001
            tracer.close(i)
    return spans.Summary(tracer, ["pass0"])


def test_expected_function_not_called_is_missing_not_zero():
    spec = run.WORKLOADS["infer-score"]
    called = [(fn, 30) for fn in spec["expect"] if fn != "inference.update_E_sentence"]
    called += [("cli." + step, 1) for step in spec["steps"]]
    values, missing = run.layer_metrics(_traced(called), "infer-score", 0.01, 1)
    assert missing == ["inference.update_E_sentence"]
    assert "inference.update_E_sentence_calls" not in values
    assert "inference.update_E_sentence_s" not in values
    assert values["inference.infer_bove_calls"] == 30
    # Functions the workload is predicted never to call report 0.
    assert values["sgd.sample_cells_s"] == 0.0
    assert values["als.update_R_s"] == 0.0


def test_too_few_calls_for_a_tail_is_missing():
    spec = run.WORKLOADS["infer-score"]
    called = [(fn, 5 if fn == "inference.infer_bove" else 30) for fn in spec["expect"]]
    called += [("cli." + step, 1) for step in spec["steps"]]
    values, missing = run.layer_metrics(_traced(called), "infer-score", 0.01, 1)
    assert missing == ["inference.infer_bove"]
    assert "inference.infer_bove_ms_tail" not in values
    assert values["inference.infer_bove_ms_p50"] == pytest.approx(1.0)


def test_bypass_violations():
    summary = _traced([("sgd.sgd_step", 1), ("als.update_R", 1), ("scoring.read_pairs", 1)])
    assert run.bypass_violations(summary, "als-train") == ["sgd.sgd_step"]
    assert run.bypass_violations(summary, "infer-score") == ["als.update_R", "sgd.sgd_step"]
    assert run.bypass_violations(summary, "sgd-train") == ["als.update_R",
                                                           "scoring.read_pairs"]


def test_benchmark_json_matches_harness():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER]
    wrapped = {"%s.%s" % pair for pair in run.WRAPPED}
    for spec in run.WORKLOADS.values():
        assert set(spec["expect"]) <= wrapped
        assert set(spec["probe_at"]) <= wrapped
        assert {spec["kind"], *spec.get("step_kinds", {}).values()} <= set(calib.KINDS)
    for _, _, fn, _ in run.PER_LAYER:
        assert fn is None or fn in wrapped or fn.startswith("cli.")


def _read_conll(path):
    sentences, sent = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                sentences.append(sent)
                sent = []
                continue
            cols = line.split("\t")
            sent.append((cols[1], cols[4], int(cols[8]), cols[10]))
    return sentences


def test_generator_is_seeded_and_writes_trees(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for path, seed in ((a, 3), (b, 3), (c, 4)):
        path.mkdir()
        gen.generate(seed, str(path), 8, heldout_bases=2, pair_repeats=2)
    for name in ("train.conll", "heldout.conll", "pairs_sts.tsv", "pairs_snli.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "train.conll").read_bytes() != (c / "train.conll").read_bytes()

    train = _read_conll(a / "train.conll")
    assert sorted(len(s) for s in train) == sorted(
        len(s) for s in _read_conll(c / "train.conll"))
    labels = {}
    for sent in train:
        heads = [head for _, _, head, _ in sent]
        assert heads.count(0) == 1
        for i in range(1, len(sent) + 1):
            seen, node = set(), i
            while node != 0:
                assert node not in seen
                seen.add(node)
                node = heads[node - 1]
        for _, _, head, deprel in sent:
            if head:
                labels[deprel] = labels.get(deprel, 0) + 1
    assert set(labels) == set(gen.LABELS)
    assert min(labels.values()) >= gen.LABEL_MIN_COUNT


def test_pairs_plant_paraphrases(tmp_path):
    info = gen.generate(5, str(tmp_path), 8, heldout_bases=3, pair_repeats=2)
    assert info["heldout"] == 9 and info["pairs"] == 2 * 9 * 8
    assert info["positives"] == 2 * 3 * 2
    with open(tmp_path / "pairs_snli.tsv", encoding="utf-8") as f:
        for line in f:
            pid, s1, s2, label, subset = line.rstrip("\n").split("\t")
            group = {gen.GROUP[int(s1) % 3], gen.GROUP[int(s2) % 3]}
            positive = int(s1) // 3 == int(s2) // 3 and group == {"base", "paraphrase"}
            assert (label == "entailment") == positive
