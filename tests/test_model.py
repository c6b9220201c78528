import numpy as np
import pytest

from bove.conll import build_vocabulary, RawToken
from bove.errors import (
    DimensionMismatch,
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
)
from bove.model import (
    Hyperparams,
    TypeEmbeddings,
    _hyper_from_bytes,
    _hyper_to_bytes,
    frozen_rows_digest,
    init_for_training,
    load_model,
    load_pretrained,
    read_bags,
    save_model,
    write_bags,
    write_word_vectors,
)


class Dims:
    def __init__(self, c, d):
        self.c = c
        self.d = d


def random_model(seed=0, c=5, d=2, r=3):
    rng = np.random.default_rng(seed)
    hyper = Hyperparams(r=r)
    frozen = rng.random(c) < 0.3
    return TypeEmbeddings(
        P=rng.normal(size=(c, r)),
        R=rng.normal(size=(d, r, r)),
        frozen_p_rows=frozen,
        hyper=hyper,
    )


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams(r=4)
        assert h.inference_iters == 30
        assert h.rel_improvement_stop == pytest.approx(0.001)
        assert h.e_reinit_period == 10
        assert h.e_reinit_burst == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": 0},
            {"r": 2, "alpha": -1.0},
            {"r": 2, "lambda_p": -0.1},
            {"r": 2, "inference_iters": 0},
            {"r": 2, "r_regularizer": "bogus"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)


class TestInit:
    def test_r_is_zero(self):
        model = init_for_training(Dims(3, 2), Hyperparams(r=2), seed=0)
        assert not model.R.any()

    def test_shapes(self):
        model = init_for_training(Dims(3, 2), Hyperparams(r=1), seed=0)
        assert model.P.shape == (3, 1)
        assert model.R.shape == (2, 1, 1)
        assert model.frozen_p_rows.shape == (3,)
        assert not model.frozen_p_rows.any()

    def test_seed_determinism(self):
        a = init_for_training(Dims(4, 2), Hyperparams(r=3), seed=7)
        b = init_for_training(Dims(4, 2), Hyperparams(r=3), seed=7)
        np.testing.assert_array_equal(a.P, b.P)

    def test_scale(self):
        model = init_for_training(Dims(100, 1), Hyperparams(r=4), seed=0)
        assert np.abs(model.P).max() <= 0.5 / 4


def make_vocab():
    toks = [
        RawToken(1, "bank", "NN", 2, "SBJ"),
        RawToken(2, "holds", "VBZ", 0, "ROOT"),
        RawToken(3, "money", "NN", 2, "OBJ"),
    ]
    return build_vocabulary([toks] * 3, relation_threshold=1)


class TestPretrained:
    def test_matched_rows_frozen(self, tmp_path):
        vocab = make_vocab()
        hyper = Hyperparams(r=3)
        model = init_for_training(vocab, hyper, seed=0)
        vec = np.array([1.0, -2.0, 3.0])
        path = tmp_path / "vecs.txt"
        write_word_vectors(path, {"bank": vec})
        out = load_pretrained(model, path, vocab)
        pid = vocab.predicate_ids["w:bank"]
        np.testing.assert_array_equal(out.P[pid], vec)
        assert out.frozen_p_rows[pid]

    def test_unmatched_rows_untouched(self, tmp_path):
        vocab = make_vocab()
        model = init_for_training(vocab, Hyperparams(r=2), seed=0)
        path = tmp_path / "vecs.txt"
        write_word_vectors(path, {"unrelated": np.array([1.0, 2.0])})
        out = load_pretrained(model, path, vocab)
        np.testing.assert_array_equal(out.P, model.P)
        assert not out.frozen_p_rows.any()

    def test_pos_predicates_never_frozen(self, tmp_path):
        vocab = make_vocab()
        model = init_for_training(vocab, Hyperparams(r=2), seed=0)
        path = tmp_path / "vecs.txt"
        # same string as the PoS tag; only the word predicate may match
        write_word_vectors(path, {"NN": np.array([9.0, 9.0])})
        out = load_pretrained(model, path, vocab)
        assert not out.frozen_p_rows[vocab.predicate_ids["p:NN"]]

    def test_dimension_mismatch(self, tmp_path):
        vocab = make_vocab()
        model = init_for_training(vocab, Hyperparams(r=8), seed=0)
        path = tmp_path / "vecs.txt"
        write_word_vectors(path, {"bank": np.zeros(10)})
        with pytest.raises(DimensionMismatch):
            load_pretrained(model, path, vocab)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = random_model()
        path = tmp_path / "model.bove"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.P, model.P)
        np.testing.assert_array_equal(loaded.R, model.R)
        np.testing.assert_array_equal(loaded.frozen_p_rows, model.frozen_p_rows)
        assert loaded.hyper == model.hyper

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "model.bove"
        save_model(random_model(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "model.bove"
        save_model(random_model(), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "model.bove"
        path.write_bytes(b"")
        with pytest.raises(ModelTruncatedError):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "model.bove"
        save_model(random_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_hyper_keys_ignored(self):
        # files written before iters_count_raw_solves was removed hold the key
        hyper = Hyperparams(r=3, inference_iters=7)
        blob = _hyper_to_bytes(hyper) + b"\niters_count_raw_solves=True"
        assert _hyper_from_bytes(blob) == hyper

    @pytest.mark.parametrize("block", [b"r=abc", b"r=0", b"garbage", b"alpha=1.0", b""])
    def test_bad_hyper_block(self, block):
        with pytest.raises(ModelFormatError, match="bad hyperparameter block"):
            _hyper_from_bytes(block)

    def test_checksum_failure(self, tmp_path):
        path = tmp_path / "model.bove"
        save_model(random_model(), path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelChecksumError):
            load_model(path)


class TestBags:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        bags = [("s0", rng.normal(size=(4, 3))), ("s1", rng.normal(size=(2, 3)))]
        path = tmp_path / "bags.bin"
        write_bags(path, bags)
        loaded = read_bags(path)
        assert [sid for sid, _ in loaded] == ["s0", "s1"]
        for (_, orig), (_, back) in zip(bags, loaded):
            np.testing.assert_array_equal(orig, back)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bags.bin"
        write_bags(path, [("s0", np.zeros((3, 3)))])
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ModelTruncatedError):
            read_bags(path)


def test_frozen_rows_digest_tracks_frozen_rows_only():
    model = random_model()
    before = frozen_rows_digest(model)
    model.P[~model.frozen_p_rows] += 1.0
    assert frozen_rows_digest(model) == before
    model.P[model.frozen_p_rows] += 1.0
    assert frozen_rows_digest(model) != before
