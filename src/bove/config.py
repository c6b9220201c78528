"""Pipeline configuration: flat key=value text with dotted section prefixes.

Unknown keys are rejected so a typo never silently falls back to a default,
and an error in a line of the config file names that file and line.
Two seeds drive all randomness: the top-level ``seed`` (which ``--seed``
overrides) draws the initial P for ``train`` and the data of ``synth``, and
``sgd.seed`` drives the SGD trainer's batch order and cell sampling.  ALS
training and inference draw no random numbers.
"""

from dataclasses import dataclass, field, fields as dc_fields, replace

from . import synth
from .conll import CONLL06_COLUMNS, CONLL09_COLUMNS, ColumnMap
from .encoding import text_lines
from .errors import ConfigError
from .model import FieldError, Hyperparams, check_bounds
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


def _entry(line):
    """(section or None for a flat key, field name, value) that one config
    line sets, or None for a blank or comment line.  A malformed line, an
    unknown key or a value that does not parse raises ConfigError."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if "=" not in line:
        raise ConfigError("expected key=value, got %r" % line)
    key, value = (part.strip() for part in line.split("=", 1))
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError("%s must be %s" % (key, " or ".join(map(repr, _CHOICES[key]))))
    if key == "columns.layout":
        if value not in _LAYOUTS:
            raise ConfigError("unknown column layout %r" % value)
        return None, "columns", _LAYOUTS[value]
    if key not in _KEYS:
        raise ConfigError("unknown config key %r" % key)
    section, target = _KEYS[key]
    return section, target.name, _coerce(value, target.type)


def _located(where, message):
    return ConfigError(message if where is None else "%s: %s" % (where, message))


def parse_config(lines, path=None, overrides=()):
    """Build a PipelineConfig from "section.key=value" lines, then from
    overrides (more lines, such as the CLI flags'), so a later line sets a
    key again.  The values are checked against their bounds once every line
    is read.  An error in one of lines, or a value out of bounds that one of
    lines set last, names that line: "<path> line <N>: ..." ("line <N>: ..."
    without a path); an override's is reported as it is."""
    where = "line" if path is None else "%s line" % path
    changes = {section: {} for section in (None, *_SECTIONS)}
    set_at = {}  # (section, field name) -> the line that set it last, None for an override
    numbered = [("%s %d" % (where, n), line) for n, line in enumerate(lines, start=1)]
    for at, line in [*numbered, *((None, line) for line in overrides)]:
        try:
            entry = _entry(line)
        except ConfigError as exc:
            raise _located(at, str(exc)) from None
        if entry is not None:
            section, name, value = entry
            changes[section][name] = value
            set_at[section, name] = at

    def checked(section, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except FieldError as exc:
            raise _located(set_at.get((section, exc.field)), str(exc)) from None

    flat, default = changes[None], PipelineConfig()
    for section in _SECTIONS:
        flat[section] = checked(section, replace, flat.get(section, getattr(default, section)),
                                **changes[section])
    return checked(None, PipelineConfig, **flat)


def load_config(path, overrides=()):
    """parse_config of the file's lines, located at the file, then of
    overrides (more lines, such as the CLI flags'), so a later line sets a
    key again."""
    return parse_config((line for _, line in text_lines(path)), path, overrides)
