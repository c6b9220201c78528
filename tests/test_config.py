"""Characterisation of parse_config: every key, its coercion and every error."""

from dataclasses import fields

import pytest

from bove.config import PipelineConfig, parse_config
from bove.conll import CONLL06_COLUMNS, CONLL09_COLUMNS, ColumnMap
from bove.errors import ConfigError
from bove.model import Hyperparams, check_bounds
from bove.sgd import SgdConfig

PATH_KEYS = ("corpus", "vectors", "vocab", "model", "embeddings", "pairs",
             "scores", "report", "tensors", "log")

# (config line, attribute path on PipelineConfig, expected value); the
# expected value's type is checked too, so "2" for a float field must give 2.0
KEY_CASES = (
    [("paths.%s=dir/%s.txt" % (name, name), name, "dir/%s.txt" % name)
     for name in PATH_KEYS]
    + [
        ("columns.id=3", "columns.id", 3),
        ("columns.form=5", "columns.form", 5),
        ("columns.pos=2", "columns.pos", 2),
        ("columns.head=7", "columns.head", 7),
        ("columns.deprel=9", "columns.deprel", 9),
        ("columns.layout=conll06", "columns", CONLL06_COLUMNS),
        ("columns.layout=conll09", "columns", CONLL09_COLUMNS),
        ("thresholds.word=5", "word_threshold", 5),
        ("thresholds.pos=0", "pos_threshold", 0),
        ("thresholds.relation=2", "relation_threshold", 2),
        ("hyper.r=20", "hyper.r", 20),
        ("hyper.alpha=2", "hyper.alpha", 2.0),
        ("hyper.lambda_p=0.5", "hyper.lambda_p", 0.5),
        ("hyper.lambda_r=1e-3", "hyper.lambda_r", 1e-3),
        ("hyper.lambda_e=0", "hyper.lambda_e", 0.0),
        ("hyper.inference_iters=4", "hyper.inference_iters", 4),
        ("hyper.rel_improvement_stop=0", "hyper.rel_improvement_stop", 0.0),
        ("hyper.max_rounds=2", "hyper.max_rounds", 2),
        ("hyper.max_rounds=0", "hyper.max_rounds", 0),
        ("sgd.batch_size=16", "sgd.batch_size", 16),
        ("sgd.learning_rate=0.1", "sgd.learning_rate", 0.1),
        ("sgd.negatives_per_positive=2", "sgd.negatives_per_positive", 2),
        ("sgd.epochs=20", "sgd.epochs", 20),
        ("sgd.seed=7", "sgd.seed", 7),
        ("synth.sentences=4", "synth_sentences", 4),
        ("synth.tokens=3", "synth_tokens", 3),
        ("synth.predicates=9", "synth_predicates", 9),
        ("synth.relations=2", "synth_relations", 2),
        ("synth.mode=discrete", "synth_mode", "discrete"),
        ("synth.threshold=1", "synth_threshold", 1.0),
        ("synth.threshold=0", "synth_threshold", 0.0),
        ("synth.noise=0.25", "synth_noise", 0.25),
        ("trainer=sgd", "trainer", "sgd"),
        ("trainer=als", "trainer", "als"),
        ("seed=3", "seed", 3),
        ("fail_fast=true", "fail_fast", True),
        ("fail_fast=Yes", "fail_fast", True),
        ("fail_fast=1", "fail_fast", True),
        ("fail_fast=FALSE", "fail_fast", False),
        ("fail_fast=no", "fail_fast", False),
        ("fail_fast=0", "fail_fast", False),
    ]
)


def attribute(cfg, dotted):
    for name in dotted.split("."):
        cfg = getattr(cfg, name)
    return cfg


@pytest.mark.parametrize("line, attr, expected", KEY_CASES,
                         ids=[case[0] for case in KEY_CASES])
def test_each_key_sets_its_field(line, attr, expected):
    cfg = parse_config([line])
    value = attribute(cfg, attr)
    assert value == expected
    assert type(value) is type(expected)
    default = PipelineConfig()
    moved = {f.name for f in fields(PipelineConfig)
             if getattr(cfg, f.name) != getattr(default, f.name)}
    assert moved <= {attr.split(".")[0]}


def test_defaults():
    cfg = parse_config([])
    assert cfg == PipelineConfig()
    assert cfg.columns == CONLL09_COLUMNS
    assert cfg.hyper == Hyperparams(r=8)
    assert cfg.sgd == SgdConfig()
    assert (cfg.trainer, cfg.seed, cfg.fail_fast) == ("als", 0, False)


@pytest.mark.parametrize("lines", [
    ["columns.layout=conll06", "columns.head=3"],
    ["columns.head=3", "columns.layout=conll06"],
])
def test_layout_with_column_override_in_either_order(lines):
    cfg = parse_config(lines)
    assert cfg.columns == ColumnMap(id=0, form=1, pos=4, head=3, deprel=7)


def test_later_line_wins():
    cfg = parse_config(["hyper.r=3", "hyper.alpha=0.5", "hyper.r=5", "seed=1", "seed=2"])
    assert cfg.hyper == Hyperparams(r=5, alpha=0.5)
    assert cfg.seed == 2


def test_whitespace_and_comments():
    cfg = parse_config([
        "# a comment line",
        "",
        "   ",
        "  # an indented comment",
        "  hyper.r = 12  \n",
        "\tpaths.corpus =  a b.conll \n",
        "paths.log=",
        "paths.vocab=v=1.txt",
    ])
    assert cfg.hyper.r == 12
    assert cfg.corpus == "a b.conll"
    assert cfg.log == ""
    assert cfg.vocab == "v=1.txt"


ERROR_CASES = [
    ("paths.banana=x", "unknown config key 'paths.banana'"),
    ("columns.banana=1", "unknown config key 'columns.banana'"),
    ("thresholds.banana=1", "unknown config key 'thresholds.banana'"),
    ("hyper.banana=1", "unknown config key 'hyper.banana'"),
    ("sgd.banana=1", "unknown config key 'sgd.banana'"),
    ("synth.banana=1", "unknown config key 'synth.banana'"),
    ("banana=1", "unknown config key 'banana'"),
    ("threads=2", "unknown config key 'threads'"),
    ("hyper.als_r_cap=50", "unknown config key 'hyper.als_r_cap'"),
    ("sgd.adapt_eps=1e-6", "unknown config key 'sgd.adapt_eps'"),
    # deleted Hyperparams fields, at values each once accepted or refused
    ("hyper.r_regularizer=l1", "unknown config key 'hyper.r_regularizer'"),
    ("hyper.r_regularizer=l2", "unknown config key 'hyper.r_regularizer'"),
    ("hyper.r_regularizer=nuclear", "unknown config key 'hyper.r_regularizer'"),
    ("hyper.r_regularizer=l3", "unknown config key 'hyper.r_regularizer'"),
    ("hyper.e_reinit_period=3", "unknown config key 'hyper.e_reinit_period'"),
    ("hyper.e_reinit_period=0", "unknown config key 'hyper.e_reinit_period'"),
    ("hyper.e_reinit_period=-1", "unknown config key 'hyper.e_reinit_period'"),
    ("hyper.e_reinit_burst=1", "unknown config key 'hyper.e_reinit_burst'"),
    ("hyper.e_reinit_burst=0", "unknown config key 'hyper.e_reinit_burst'"),
    ("hyper=1", "unknown config key 'hyper'"),
    ("columns=1", "unknown config key 'columns'"),
    ("paths.corpus", "expected key=value, got 'paths.corpus'"),
    ("hyper.r=abc", "expected int, got 'abc'"),
    ("hyper.r=1.5", "expected int, got '1.5'"),
    ("hyper.r=4 # comment", "expected int, got '4 # comment'"),
    ("columns.head=x", "expected int, got 'x'"),
    ("thresholds.word=two", "expected int, got 'two'"),
    ("synth.sentences=", "expected int, got ''"),
    ("seed=one", "expected int, got 'one'"),
    ("sgd.epochs=1e3", "expected int, got '1e3'"),
    ("hyper.alpha=big", "expected float, got 'big'"),
    ("sgd.learning_rate=fast", "expected float, got 'fast'"),
    ("synth.noise=loud", "expected float, got 'loud'"),
    ("fail_fast=maybe", "expected a boolean, got 'maybe'"),
    ("columns.layout=conll07", "unknown column layout 'conll07'"),
    ("trainer=adam", "trainer must be 'als' or 'sgd'"),
    ("hyper.r=0", "r must be >= 1"),
    ("hyper.alpha=-1", "alpha must be >= 0"),
    ("hyper.inference_iters=0", "inference_iters must be >= 1"),
    ("hyper.max_rounds=-1", "max_rounds must be >= 0"),
    ("sgd.batch_size=0", "batch_size must be >= 1"),
    ("sgd.learning_rate=0", "learning_rate must be >= 5e-324"),
    ("hyper.alpha=nan", "alpha must be finite, got nan"),
    ("hyper.lambda_e=inf", "lambda_e must be finite, got inf"),
    ("hyper.rel_improvement_stop=nan", "rel_improvement_stop must be finite, got nan"),
    ("sgd.learning_rate=nan", "learning_rate must be finite, got nan"),
    ("seed=-3", "seed must be >= 0"),
    ("sgd.seed=-1", "seed must be >= 0"),
    ("synth.sentences=0", "synth_sentences must be >= 1"),
    ("synth.relations=-1", "synth_relations must be >= 1"),
    ("synth.noise=-1", "synth_noise must be >= 0"),
    ("synth.noise=inf", "synth_noise must be finite, got inf"),
    ("synth.noise=nan", "synth_noise must be finite, got nan"),
    ("synth.threshold=nan", "synth_threshold must be finite, got nan"),
    ("synth.threshold=2", "synth_threshold must be in [0, 1]"),
    ("synth.threshold=-0.5", "synth_threshold must be in [0, 1]"),
    ("synth.threshold=1.0000001", "synth_threshold must be in [0, 1]"),
]


@pytest.mark.parametrize("line, message", ERROR_CASES,
                         ids=[case[0] for case in ERROR_CASES])
def test_each_error_is_a_config_error(line, message):
    with pytest.raises(ConfigError) as info:
        parse_config([line])
    assert str(info.value) == "line 1: " + message


@pytest.mark.parametrize("entry", [("seed",), ("seed", 0, 1, 2)])
def test_a_bounds_entry_of_another_length_raises(entry):
    with pytest.raises(ValueError, match="values to unpack"):
        check_bounds(SgdConfig(), (entry,))


def test_first_bad_line_is_reported():
    with pytest.raises(ConfigError) as info:
        parse_config(["# header", "seed=1", "trainer=adam", "hyper.r=abc"])
    assert str(info.value) == "line 3: trainer must be 'als' or 'sgd'"
    with pytest.raises(ConfigError) as info:
        parse_config(["seed=1", "", "nonsense"])
    assert str(info.value) == "line 3: expected key=value, got 'nonsense'"


def test_section_values_are_checked_after_every_line_is_read():
    with pytest.raises(ConfigError) as info:
        parse_config(["hyper.r=0", "sgd.batch_size=0", "columns.head=1"])
    assert str(info.value) == "line 1: r must be >= 1"
    with pytest.raises(ConfigError) as info:
        parse_config(["hyper.r=0", "seed=x"])
    assert str(info.value) == "line 2: expected int, got 'x'"


@pytest.mark.parametrize("lines, overrides, message", [
    (["seed=1", "", "hyper.r=0"], [], "cfg.txt line 3: r must be >= 1"),
    (["hyper.r=0", "hyper.r=-1"], [], "cfg.txt line 2: r must be >= 1"),
    (["seed=1", "sgd.seed=-1"], [], "cfg.txt line 2: seed must be >= 0"),
    (["sgd.seed=1", "seed=-1"], [], "cfg.txt line 2: seed must be >= 0"),
    (["hyper.banana=1"], [], "cfg.txt line 1: unknown config key 'hyper.banana'"),
    (["seed=1"], ["seed=x"], "expected int, got 'x'"),
    (["seed=-1"], ["seed=-2"], "seed must be >= 0"),
    (["trainer=sgd", "hyper.r_regularizer=l1"], [],
     "cfg.txt line 2: unknown config key 'hyper.r_regularizer'"),
    (["hyper.r_regularizer=l1", "trainer=sgd"], [],
     "cfg.txt line 1: unknown config key 'hyper.r_regularizer'"),
    (["trainer=sgd", "hyper.r_regularizer=l2"], [],
     "cfg.txt line 2: unknown config key 'hyper.r_regularizer'"),
    (["trainer=sgd"], ["hyper.r_regularizer=nuclear"],
     "unknown config key 'hyper.r_regularizer'"),
], ids=["bound", "bound-set-last", "section-seed", "flat-seed", "unknown-key",
        "override", "bound-override", "across-two-lines", "across-two-lines-reversed",
        "sgd-with-l2", "removed-key-override"])
def test_an_error_names_the_line_that_set_it(lines, overrides, message):
    # an override (a CLI flag's line) names no line
    with pytest.raises(ConfigError) as info:
        parse_config(lines, "cfg.txt", overrides)
    assert str(info.value) == message


# The configs perfbench/run.py writes for its three workloads at seed 1,
# verbatim but for the work directory.
W = "/work"
PERFBENCH_COMMON = [
    "paths.corpus=%s/train.conll" % W,
    "paths.vocab=%s/vocab.txt" % W,
    "paths.tensors=%s/tensors.txt" % W,
    "paths.model=%s/model.bin" % W,
    "paths.log=%s/train.log" % W,
    "paths.embeddings=%s/bags.bin" % W,
    "paths.scores=%s/scores.tsv" % W,
    "columns.layout=conll09",
    "thresholds.word=2",
    "thresholds.pos=2",
    "thresholds.relation=2",
    "seed=1",
    "sgd.seed=1",
]
PERFBENCH_CONFIGS = {
    "als-train": PERFBENCH_COMMON + [
        "hyper.r=20", "trainer=als",
        "hyper.rel_improvement_stop=0", "hyper.max_rounds=2"],
    "infer-score": PERFBENCH_COMMON + [
        "hyper.r=20", "trainer=als",
        "hyper.rel_improvement_stop=0", "hyper.max_rounds=1"],
    "sgd-train": PERFBENCH_COMMON + [
        "hyper.r=50", "trainer=sgd", "sgd.epochs=20"],
}


@pytest.mark.parametrize("workload", sorted(PERFBENCH_CONFIGS))
def test_perfbench_configs(workload):
    cfg = parse_config(line + "\n" for line in PERFBENCH_CONFIGS[workload])
    r, trainer, hyper, sgd = {
        "als-train": (20, "als", {"rel_improvement_stop": 0.0, "max_rounds": 2}, {}),
        "infer-score": (20, "als", {"rel_improvement_stop": 0.0, "max_rounds": 1}, {}),
        "sgd-train": (50, "sgd", {}, {"epochs": 20}),
    }[workload]
    expected = PipelineConfig(
        corpus=W + "/train.conll", vocab=W + "/vocab.txt", tensors=W + "/tensors.txt",
        model=W + "/model.bin", log=W + "/train.log", embeddings=W + "/bags.bin",
        scores=W + "/scores.tsv", columns=CONLL09_COLUMNS,
        word_threshold=2, pos_threshold=2, relation_threshold=2,
        hyper=Hyperparams(r=r, **hyper), sgd=SgdConfig(seed=1, **sgd),
        trainer=trainer, seed=1,
    )
    assert cfg == expected
