"""Pipeline configuration: flat key=value text with dotted section prefixes.

Unknown keys are rejected so a typo never silently falls back to a default.
Two seeds drive all randomness: the top-level ``seed`` (which ``--seed``
overrides) draws the initial P for ``train`` and the data of ``synth``, and
``sgd.seed`` drives the SGD trainer's batch order and cell sampling.  ALS
training and inference draw no random numbers.
"""

from dataclasses import dataclass, field, fields as dc_fields, replace

from . import sgd, synth
from .conll import CONLL06_COLUMNS, CONLL09_COLUMNS, ColumnMap
from .encoding import text_lines
from .errors import ConfigError
from .model import Hyperparams, check_bounds
from .sgd import SgdConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass(frozen=True)
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

    # synth_threshold is compared with values min-max-scaled to [0, 1]
    _BOUNDS = (("seed", 0), ("synth_sentences", 1), ("synth_tokens", 1),
               ("synth_predicates", 1), ("synth_relations", 1), ("synth_noise", 0),
               ("synth_threshold", 0, 1))

    def __post_init__(self):
        check_bounds(self, self._BOUNDS)


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
    flat = {}
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
            flat["columns"] = _LAYOUTS[value]
        elif key in _KEYS:
            section, target = _KEYS[key]
            changes = flat if section is None else overrides[section]
            changes[target.name] = _coerce(value, target.type)
        else:
            raise ConfigError("unknown config key %r" % key)
    default = PipelineConfig()
    try:
        for section, changes in overrides.items():
            flat[section] = replace(flat.get(section, getattr(default, section)), **changes)
        cfg = PipelineConfig(**flat)  # checks the flat bounds
        if cfg.trainer == "sgd":
            sgd.check_hyper(cfg.hyper)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path, overrides=()):
    """parse_config of the file's lines, then of overrides (more lines, such
    as the CLI flags'), so a later line sets a key again."""
    return parse_config([*(line for _, line in text_lines(path)), *overrides])
