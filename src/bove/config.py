"""Pipeline configuration: flat key=value text with dotted section prefixes.

Unknown keys are rejected so a typo never silently falls back to a default.
All randomness flows from the single top-level seed; stages derive sub-seeds
deterministically.
"""

from dataclasses import dataclass, field, fields as dc_fields

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


_PATH_KEYS = ("corpus", "vectors", "vocab", "model", "embeddings", "pairs",
              "scores", "report", "tensors", "log")
_COLUMN_KEYS = ("id", "form", "pos", "head", "deprel")
_THRESHOLD_KEYS = ("word", "pos", "relation")
_SYNTH_KEYS = ("sentences", "tokens", "predicates", "relations", "mode",
               "threshold", "noise")
_TOP_KEYS = ("trainer", "seed", "fail_fast")
_HYPER_KEYS = tuple(f.name for f in dc_fields(Hyperparams))
_SGD_KEYS = tuple(f.name for f in dc_fields(SgdConfig))


def _field_type(annotation):
    """Concrete coercion type for a dataclass field annotation."""
    if annotation in (int, float, bool, str):
        return annotation
    return {"int": int, "float": float, "bool": bool}.get(annotation, str)


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
    hyper_kwargs = {}
    sgd_kwargs = {}
    column_kwargs = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (line_no, line))
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key.startswith("paths."):
            name = key[len("paths."):]
            if name not in _PATH_KEYS:
                raise ConfigError("unknown config key %r" % key)
            setattr(cfg, name, value)
        elif key.startswith("columns."):
            name = key[len("columns."):]
            if name == "layout":
                if value == "conll09":
                    cfg.columns = CONLL09_COLUMNS
                elif value == "conll06":
                    cfg.columns = CONLL06_COLUMNS
                else:
                    raise ConfigError("unknown column layout %r" % value)
            elif name in _COLUMN_KEYS:
                column_kwargs[name] = _coerce(value, int)
            else:
                raise ConfigError("unknown config key %r" % key)
        elif key.startswith("thresholds."):
            name = key[len("thresholds."):]
            if name not in _THRESHOLD_KEYS:
                raise ConfigError("unknown config key %r" % key)
            setattr(cfg, name + "_threshold", _coerce(value, int))
        elif key.startswith("hyper."):
            name = key[len("hyper."):]
            if name not in _HYPER_KEYS:
                raise ConfigError("unknown config key %r" % key)
            target = _field_type(Hyperparams.__dataclass_fields__[name].type)
            hyper_kwargs[name] = _coerce(value, target)
        elif key.startswith("sgd."):
            name = key[len("sgd."):]
            if name not in _SGD_KEYS:
                raise ConfigError("unknown config key %r" % key)
            target = _field_type(SgdConfig.__dataclass_fields__[name].type)
            sgd_kwargs[name] = _coerce(value, target)
        elif key.startswith("synth."):
            name = key[len("synth."):]
            if name not in _SYNTH_KEYS:
                raise ConfigError("unknown config key %r" % key)
            if name in ("mode",):
                setattr(cfg, "synth_" + name, value)
            elif name in ("threshold", "noise"):
                setattr(cfg, "synth_" + name, _coerce(value, float))
            else:
                setattr(cfg, "synth_" + name, _coerce(value, int))
        elif key in _TOP_KEYS:
            if key == "trainer":
                if value not in ("als", "sgd"):
                    raise ConfigError("trainer must be 'als' or 'sgd'")
                cfg.trainer = value
            elif key == "fail_fast":
                cfg.fail_fast = _coerce(value, bool)
            else:
                cfg.seed = _coerce(value, int)
        else:
            raise ConfigError("unknown config key %r" % key)
    if column_kwargs:
        base = {f.name: getattr(cfg.columns, f.name) for f in dc_fields(ColumnMap)}
        base.update(column_kwargs)
        cfg.columns = ColumnMap(**base)
    if hyper_kwargs:
        try:
            cfg.hyper = Hyperparams(**{
                **{f.name: getattr(cfg.hyper, f.name) for f in dc_fields(Hyperparams)},
                **hyper_kwargs,
            })
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if sgd_kwargs:
        try:
            cfg.sgd = SgdConfig(**{
                **{f.name: getattr(cfg.sgd, f.name) for f in dc_fields(SgdConfig)},
                **sgd_kwargs,
            })
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return cfg


def load_config(path):
    with open(path, encoding="utf-8") as f:
        return parse_config(f)
