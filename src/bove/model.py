"""Learned parameters, hyperparameters, persistence, pretrained vectors.

A model holds the type embeddings: a vector per unary predicate (rows of P)
and a matrix per binary relation (slices of R), plus a frozen-row mask so
pretrained word vectors can be pinned for an entire training run.
"""

import math
import os
import struct
import zlib
from dataclasses import dataclass, fields, asdict

import numpy as np

from .encoding import check_sentence_id, finite_float, text_lines
from .errors import (
    DimensionMismatch,
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
)

MAGIC = b"BOVE"
FORMAT_VERSION = 1


class FieldError(ValueError):
    """A dataclass field holds a value it refuses; field is the field's name."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def check_bounds(config, bounds):
    """Raise FieldError unless every float field of the dataclass instance
    config is finite and each field in bounds lies within its limits.  An
    entry of bounds is (field, lowest) or (field, lowest, highest), both
    limits allowed values; an entry of any other length raises ValueError.
    A NaN fails every bound."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type is float and not math.isfinite(value):
            raise FieldError(f.name, "%s must be finite, got %r" % (f.name, value))
    for entry in bounds:
        name, lowest, highest = entry if len(entry) == 3 else (*entry, math.inf)
        if not lowest <= getattr(config, name) <= highest:
            bound = ("in [%s, %s]" % (lowest, highest) if highest < math.inf
                     else ">= %s" % lowest)
            raise FieldError(name, "%s must be %s" % (name, bound))


@dataclass(frozen=True)
class Hyperparams:
    """Training and inference hyperparameters.

    alpha weighs relation loss against property loss; lambda_p, lambda_r
    and lambda_e weigh the squared Frobenius norms of P, R and each E in
    the objective.  ALS stops at max_rounds, or once a round improves the
    objective by at most rel_improvement_stop relative; inference_iters
    caps the E solves of one sentence's inference.
    """

    r: int
    alpha: float = 1.0
    lambda_p: float = 0.1
    lambda_r: float = 0.1
    lambda_e: float = 0.1
    inference_iters: int = 30
    rel_improvement_stop: float = 0.001
    max_rounds: int = 200

    _BOUNDS = (("r", 1), ("alpha", 0), ("lambda_p", 0), ("lambda_r", 0), ("lambda_e", 0),
               ("inference_iters", 1), ("max_rounds", 0))

    def __post_init__(self):
        check_bounds(self, self._BOUNDS)


@dataclass
class TypeEmbeddings:
    """Predicate vectors P (c x r), relation matrices R (d x r x r), frozen mask."""

    P: np.ndarray
    R: np.ndarray
    frozen_p_rows: np.ndarray
    hyper: Hyperparams

    @property
    def c(self):
        return self.P.shape[0]

    @property
    def d(self):
        return self.R.shape[0]

    @property
    def r(self):
        return self.P.shape[1]

    def copy(self):
        return TypeEmbeddings(
            P=self.P.copy(), R=self.R.copy(),
            frozen_p_rows=self.frozen_p_rows.copy(), hyper=self.hyper,
        )


def init_for_training(c, d, hyper, seed):
    """Fresh model for c predicates and d relations at rank hyper.r, carrying
    hyper: P uniform in [-0.5/r, 0.5/r], R all zeros, nothing frozen."""
    rng = np.random.default_rng(seed)
    scale = 0.5 / hyper.r
    p = rng.uniform(-scale, scale, size=(c, hyper.r))
    r_tensor = np.zeros((d, hyper.r, hyper.r))
    return TypeEmbeddings(P=p, R=r_tensor, frozen_p_rows=np.zeros(c, dtype=bool),
                          hyper=hyper)


def read_word_vectors(path):
    """Read the text vector format: "<count> <dim>" header, one word per line.

    A malformed header or line, or a value that is not a finite number,
    raises ModelFormatError naming the file and the line.
    """
    lines = text_lines(path)
    _, header = next(lines, (1, ""))
    try:
        count, dim = (int(v) for v in header.split())
    except ValueError:
        raise ModelFormatError("%s line 1: vector file header must be '<count> <dim>'"
                               % path) from None
    vectors = {}
    for line_no, line in lines:
        word, *values = line.rstrip().split(" ")
        try:
            if len(values) != dim:
                raise ValueError("vector for %r has %d values, expected %d"
                                 % (word, len(values), dim))
            vectors[word] = np.array([finite_float(v) for v in values])
        except ValueError as exc:
            raise ModelFormatError("%s line %d: %s" % (path, line_no, exc)) from None
    if len(vectors) != count:
        raise ModelFormatError(
            "%s: vector file header promised %d words, found %d" % (path, count, len(vectors))
        )
    return dim, vectors


def load_pretrained(model, path, vocab):
    """Overwrite and freeze P rows of word predicates found in a vector file.

    PoS predicates and unmatched words stay trainable.  Returns a new model.
    """
    dim, vectors = read_word_vectors(path)
    if dim != model.r:
        raise DimensionMismatch(
            "pretrained vectors have dim %d but model r=%d" % (dim, model.r)
        )
    out = model.copy()
    for label, pid in vocab.predicate_ids.items():
        if not label.startswith("w:"):
            continue
        vec = vectors.get(label[2:])
        if vec is not None:
            out.P[pid] = vec
            out.frozen_p_rows[pid] = True
    return out


# -- binary model file ------------------------------------------------------
#
# Layout: magic "BOVE", format version u32 LE, then the payload, then a u32
# CRC32 of the payload.  Payload: u32 length + UTF-8 key=value hyperparameter
# block; c, d, r as u64 LE; frozen mask as packed bits (LSB first); P then R
# row-major float64 LE.


def _hyper_to_bytes(hyper):
    text = "\n".join("%s=%s" % (k, v) for k, v in sorted(asdict(hyper).items()))
    return text.encode("utf-8")


def _hyper_from_bytes(blob):
    """Parse a hyperparameter block; keys that are not Hyperparams fields are
    ignored, so files written by older versions still load."""
    try:
        stored = dict(line.split("=", 1) for line in blob.decode("utf-8").splitlines())
        return Hyperparams(**{
            f.name: f.type(stored[f.name]) for f in fields(Hyperparams) if f.name in stored
        })
    except (ValueError, TypeError) as exc:
        raise ModelFormatError("bad hyperparameter block: %s" % exc) from None


def save_model(model, path):
    """Write the model in the versioned binary format (bit-exact round trip)."""
    hyper_blob = _hyper_to_bytes(model.hyper)
    payload = bytearray()
    payload += struct.pack("<I", len(hyper_blob))
    payload += hyper_blob
    payload += struct.pack("<QQQ", model.c, model.d, model.r)
    payload += np.packbits(model.frozen_p_rows, bitorder="little").tobytes()
    payload += np.ascontiguousarray(model.P, dtype="<f8").tobytes()
    payload += np.ascontiguousarray(model.R, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(bytes(payload))))


def load_model(path):
    """Read a model file; raises distinct errors for bad magic, version,
    truncation and checksum failure."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 8:
        raise ModelTruncatedError("file too short for header (%d bytes)" % len(blob))
    if blob[:4] != MAGIC:
        raise ModelFormatError("bad magic bytes %r" % blob[:4])
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise ModelVersionError("unsupported format version %d" % version)
    if len(blob) < 12:
        raise ModelTruncatedError("missing checksum")
    payload, (crc,) = blob[8:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise ModelChecksumError("payload CRC mismatch")

    off = 0

    def take(nbytes):
        nonlocal off
        if off + nbytes > len(payload):
            raise ModelTruncatedError("payload ended early")
        chunk = payload[off:off + nbytes]
        off += nbytes
        return chunk

    (hyper_len,) = struct.unpack("<I", take(4))
    hyper = _hyper_from_bytes(take(hyper_len))
    c, d, r = struct.unpack("<QQQ", take(24))
    if hyper.r != r:
        raise ModelFormatError("hyperparameter r=%d disagrees with the stored r=%d"
                               % (hyper.r, r))
    mask_bytes = take((c + 7) // 8)
    frozen = np.unpackbits(
        np.frombuffer(mask_bytes, dtype=np.uint8), bitorder="little"
    )[:c].astype(bool)
    p = np.frombuffer(take(c * r * 8), dtype="<f8").reshape(c, r).copy()
    r_tensor = np.frombuffer(take(d * r * r * 8), dtype="<f8").reshape(d, r, r).copy()
    if off != len(payload):
        raise ModelFormatError("%d trailing payload bytes" % (len(payload) - off))
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(r_tensor))):
        raise ModelFormatError("P or R holds a non-finite value")
    return TypeEmbeddings(P=p, R=r_tensor, frozen_p_rows=frozen, hyper=hyper)


# -- embedding-bag files -----------------------------------------------------
#
# Per sentence: a text record line "<sentence_id> <n> <r>\n" followed by
# n*r float64 LE values row-major.


def write_bags(path, bags):
    """Write (sentence_id, E) pairs as an embedding-bag file.  Every id is
    checked (encoding.check_sentence_id), and every E for the n x r shape,
    n and r at least 1, that read_bags accepts, before the file is opened."""
    for sid, e in bags:
        check_sentence_id(sid)
        shape = np.shape(e)
        if len(shape) != 2 or min(shape) < 1:
            raise DimensionMismatch("bag %s has shape %s; it must be n x r with n and r "
                                    "at least 1" % (sid, shape))
    with open(path, "wb") as f:
        for sid, e in bags:
            e = np.ascontiguousarray(e, dtype="<f8")
            f.write(("%s %d %d\n" % (sid, e.shape[0], e.shape[1])).encode("utf-8"))
            f.write(e.tobytes())


def read_bags(path):
    """Read an embedding-bag file back as a list of (sentence_id, E)."""
    bags = []
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size if f.seekable() else math.inf  # unknown for a pipe
        while True:
            header = f.readline()
            if not header:
                break
            try:
                sid, n, r = header.decode("utf-8").split()
                n, r = int(n), int(r)
            except ValueError:
                raise ModelFormatError(
                    "bag record %d: header must be 'id n r', got %r"
                    % (len(bags) + 1, header)
                ) from None
            if min(n, r) < 1:
                raise ModelFormatError(
                    "bag record %d: n and r must be at least 1, got %r"
                    % (len(bags) + 1, header)
                )
            size = n * r * 8
            left -= len(header) + size  # checked before a read of that size
            if left < 0 or len(raw := f.read(size)) != size:
                raise ModelTruncatedError("bag record for %s ended early" % sid)
            e = np.frombuffer(raw, dtype="<f8").reshape(n, r).copy()
            if not np.all(np.isfinite(e)):
                raise ModelFormatError("bag record %d (%s) holds a non-finite value"
                                       % (len(bags) + 1, sid))
            bags.append((sid, e))
    return bags

