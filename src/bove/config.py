"""Pipeline configuration: flat key=value text with dotted section prefixes.

Unknown keys are rejected so a typo never silently falls back to a default.
Two seeds drive all randomness: the top-level ``seed`` (which ``--seed``
overrides) draws the initial P for ``train`` and the data of ``synth``, and
``sgd.seed`` drives the SGD trainer's batch order and cell sampling.  ALS
training and inference draw no random numbers.
"""

from dataclasses import dataclass, field, fields as dc_fields, replace

from . import synth
from .conll import CONLL06_COLUMNS, CONLL09_COLUMNS, ColumnMap
from .errors import ConfigError
from .model import Hyperparams
from .sgd import SgdConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass
class PipelineConfig:
    # paths
    corpus: str = None
    vectors: str = None
    vocab: str = None
    model: str = None
    embeddings: str = None
    pairs: str = None
    scores: str = None
    report: str = None
    tensors: str = None
    log: str = None
    # column mapping
    columns: ColumnMap = field(default_factory=lambda: CONLL09_COLUMNS)
    # thresholds
    word_threshold: int = 2
    pos_threshold: int = 2
    relation_threshold: int = 1000
    # training
    hyper: Hyperparams = field(default_factory=lambda: Hyperparams(r=8))
    sgd: SgdConfig = field(default_factory=SgdConfig)
    trainer: str = "als"
    seed: int = 0
    fail_fast: bool = False
    # synth
    synth_sentences: int = 10
    synth_tokens: int = 6
    synth_predicates: int = 12
    synth_relations: int = 3
    synth_mode: str = "exact"
    synth_threshold: float = 0.5
    synth_noise: float = 0.0


# Flat keys: each names one PipelineConfig field and is coerced by its annotation.
_FLAT_KEYS = {
    **{"paths." + name: name for name in (
        "corpus", "vectors", "vocab", "model", "embeddings", "pairs", "scores",
        "report", "tensors", "log")},
    **{"thresholds." + name: name + "_threshold" for name in ("word", "pos", "relation")},
    **{"synth." + name: "synth_" + name for name in (
        "sentences", "tokens", "predicates", "relations", "mode", "threshold", "noise")},
    **{name: name for name in ("trainer", "seed", "fail_fast")},
}
# Dataclass sections: "<section>.<field>" overrides one field of the
# PipelineConfig field of that name; each section is built once, in this order.
_SECTIONS = ("columns", "hyper", "sgd")
_FIELDS = {f.name: f for f in dc_fields(PipelineConfig)}
# config key -> (its section, or None for a flat key; the field it sets)
_KEYS = {
    **{key: (None, _FIELDS[name]) for key, name in _FLAT_KEYS.items()},
    **{"%s.%s" % (section, f.name): (section, f)
       for section in _SECTIONS for f in dc_fields(_FIELDS[section].type)},
}
_LAYOUTS = {"conll09": CONLL09_COLUMNS, "conll06": CONLL06_COLUMNS}
_CHOICES = {"trainer": ("als", "sgd"), "synth.mode": synth.MODES}
_AT_LEAST_ONE = {"synth." + name
                 for name in ("sentences", "tokens", "predicates", "relations")}


def _coerce(raw, target_type):
    if target_type is bool:
        try:
            return _BOOL[raw.lower()]
        except KeyError:
            raise ConfigError("expected a boolean, got %r" % raw) from None
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError("expected %s, got %r" % (target_type.__name__, raw)) from None


def parse_config(lines):
    """Build a PipelineConfig from an iterable of "section.key=value" lines."""
    cfg = PipelineConfig()
    overrides = {section: {} for section in _SECTIONS}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (line_no, line))
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError("%s must be %s" % (key, " or ".join(map(repr, _CHOICES[key]))))
        if key == "columns.layout":
            if value not in _LAYOUTS:
                raise ConfigError("unknown column layout %r" % value)
            cfg.columns = _LAYOUTS[value]
        elif key in _KEYS:
            section, target = _KEYS[key]
            value = _coerce(value, target.type)
            if key in _AT_LEAST_ONE and value < 1:
                raise ConfigError("%s must be at least 1, got %d" % (key, value))
            if section is None:
                setattr(cfg, target.name, value)
            else:
                overrides[section][target.name] = value
        else:
            raise ConfigError("unknown config key %r" % key)
    for section, changes in overrides.items():
        try:
            setattr(cfg, section, replace(getattr(cfg, section), **changes))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if cfg.trainer == "sgd" and cfg.hyper.r_regularizer != "l2":
        # the SGD trainer always applies the L2 penalty to R
        raise ConfigError("trainer=sgd supports only hyper.r_regularizer=l2, got %r"
                          % cfg.hyper.r_regularizer)
    return cfg


def load_config(path):
    with open(path, encoding="utf-8") as f:
        return parse_config(f)
