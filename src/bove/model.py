"""Learned parameters, hyperparameters, persistence, pretrained vectors.

A model holds the type embeddings: a vector per unary predicate (rows of P)
and a matrix per binary relation (slices of R), plus a frozen-row mask so
pretrained word vectors can be pinned for an entire training run.
"""

import struct
import zlib
from dataclasses import dataclass, fields, asdict

import numpy as np

from .errors import (
    DimensionMismatch,
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
)

MAGIC = b"BOVE"
FORMAT_VERSION = 1

R_REGULARIZERS = ("l2", "l1", "nuclear")


@dataclass(frozen=True)
class Hyperparams:
    """Training and inference hyperparameters.

    alpha weighs relation loss against property loss; lambda_* are
    regularizer strengths.  r_regularizer selects how R is regularized
    (plain ridge, entrywise soft-thresholding, or singular-value
    soft-thresholding per relation slice).
    """

    r: int
    alpha: float = 1.0
    lambda_p: float = 0.1
    lambda_r: float = 0.1
    lambda_e: float = 0.1
    r_regularizer: str = "l2"
    inference_iters: int = 30
    rel_improvement_stop: float = 0.001
    max_rounds: int = 200
    e_reinit_period: int = 10
    e_reinit_burst: int = 5
    als_r_cap: int = 100

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("embedding size r must be >= 1")
        if self.alpha < 0 or min(self.lambda_p, self.lambda_r, self.lambda_e) < 0:
            raise ValueError("alpha and regularizer strengths must be >= 0")
        if self.inference_iters < 1:
            raise ValueError("inference_iters must be >= 1")
        if self.r_regularizer not in R_REGULARIZERS:
            raise ValueError("r_regularizer must be one of %s" % (R_REGULARIZERS,))


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


def init_for_training(vocab, hyper, seed):
    """Fresh model: P uniform in [-0.5/r, 0.5/r], R all zeros, nothing frozen."""
    rng = np.random.default_rng(seed)
    scale = 0.5 / hyper.r
    p = rng.uniform(-scale, scale, size=(vocab.c, hyper.r))
    r_tensor = np.zeros((vocab.d, hyper.r, hyper.r))
    return TypeEmbeddings(
        P=p, R=r_tensor,
        frozen_p_rows=np.zeros(vocab.c, dtype=bool), hyper=hyper,
    )


def read_word_vectors(path):
    """Read the text vector format: "<count> <dim>" header, one word per line."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ModelFormatError("vector file header must be '<count> <dim>'")
        count, dim = int(header[0]), int(header[1])
        vectors = {}
        for line in f:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ModelFormatError(
                    "vector line for %r has %d values, expected %d"
                    % (parts[0], len(parts) - 1, dim)
                )
            vectors[parts[0]] = np.array([float(v) for v in parts[1:]])
    if len(vectors) != count:
        raise ModelFormatError(
            "vector file header promised %d words, found %d" % (count, len(vectors))
        )
    return dim, vectors


def write_word_vectors(path, vectors):
    """Write word vectors in the text format read_word_vectors expects."""
    dim = len(next(iter(vectors.values())))
    with open(path, "w", encoding="utf-8") as f:
        f.write("%d %d\n" % (len(vectors), dim))
        for word, vec in vectors.items():
            f.write(word + " " + " ".join("%.17g" % v for v in vec) + "\n")


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
    """Write (sentence_id, E) pairs as an embedding-bag file."""
    with open(path, "wb") as f:
        for sid, e in bags:
            e = np.ascontiguousarray(e, dtype="<f8")
            f.write(("%s %d %d\n" % (sid, e.shape[0], e.shape[1])).encode("utf-8"))
            f.write(e.tobytes())


def read_bags(path):
    """Read an embedding-bag file back as a list of (sentence_id, E)."""
    bags = []
    with open(path, "rb") as f:
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
            raw = f.read(n * r * 8)
            if len(raw) != n * r * 8:
                raise ModelTruncatedError("bag record for %s ended early" % sid)
            bags.append((sid, np.frombuffer(raw, dtype="<f8").reshape(n, r).copy()))
    return bags


def frozen_rows_digest(model):
    """Hash of the frozen P rows; used to assert freezing contracts."""
    import hashlib

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.P[model.frozen_p_rows], dtype="<f8").tobytes())
    return h.hexdigest()
