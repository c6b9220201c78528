import os
import re
import threading

import numpy as np
import pytest

from bove import synth
from bove.conll import build_vocabulary, RawToken
from bove.errors import (
    BoveError,
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
    init_for_training,
    load_model,
    load_pretrained,
    read_bags,
    read_word_vectors,
    save_model,
    write_bags,
)


def write_word_vectors(path, vectors):
    """Write word vectors in the text format read_word_vectors expects."""
    dim = len(next(iter(vectors.values())))
    with open(path, "w", encoding="utf-8") as f:
        f.write("%d %d\n" % (len(vectors), dim))
        for word, vec in vectors.items():
            f.write(word + " " + " ".join("%.17g" % v for v in vec) + "\n")


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": 0},
            {"r": 2, "alpha": -1.0},
            {"r": 2, "lambda_p": -0.1},
            {"r": 2, "inference_iters": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    @pytest.mark.parametrize("field, value, message", [
        ("max_rounds", -1, "max_rounds must be >= 0"),
    ])
    def test_round_schedule_bounds(self, field, value, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            Hyperparams(r=2, **{field: value})
        with pytest.raises(ModelFormatError, match=message):
            _hyper_from_bytes(b"r=2\n%s=%d" % (field.encode(), value))
        Hyperparams(r=2, **{field: value + 1})


class TestInit:
    def test_r_is_zero(self):
        model = init_for_training(3, 2, Hyperparams(r=2), seed=0)
        assert not model.R.any()

    def test_shapes(self):
        model = init_for_training(3, 2, Hyperparams(r=1), seed=0)
        assert model.P.shape == (3, 1)
        assert model.R.shape == (2, 1, 1)
        assert model.frozen_p_rows.shape == (3,)
        assert not model.frozen_p_rows.any()

    def test_seed_determinism(self):
        a = init_for_training(4, 2, Hyperparams(r=3), seed=7)
        b = init_for_training(4, 2, Hyperparams(r=3), seed=7)
        np.testing.assert_array_equal(a.P, b.P)

    def test_scale(self):
        model = init_for_training(100, 1, Hyperparams(r=4), seed=0)
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
        model = init_for_training(vocab.c, vocab.d, hyper, seed=0)
        vec = np.array([1.0, -2.0, 3.0])
        path = tmp_path / "vecs.txt"
        write_word_vectors(path, {"bank": vec})
        out = load_pretrained(model, path, vocab)
        pid = vocab.predicate_ids["w:bank"]
        np.testing.assert_array_equal(out.P[pid], vec)
        assert out.frozen_p_rows[pid]

    def test_unmatched_rows_untouched(self, tmp_path):
        vocab = make_vocab()
        model = init_for_training(vocab.c, vocab.d, Hyperparams(r=2), seed=0)
        path = tmp_path / "vecs.txt"
        write_word_vectors(path, {"unrelated": np.array([1.0, 2.0])})
        out = load_pretrained(model, path, vocab)
        np.testing.assert_array_equal(out.P, model.P)
        assert not out.frozen_p_rows.any()

    def test_pos_predicates_never_frozen(self, tmp_path):
        vocab = make_vocab()
        model = init_for_training(vocab.c, vocab.d, Hyperparams(r=2), seed=0)
        path = tmp_path / "vecs.txt"
        # same string as the PoS tag; only the word predicate may match
        write_word_vectors(path, {"NN": np.array([9.0, 9.0])})
        out = load_pretrained(model, path, vocab)
        assert not out.frozen_p_rows[vocab.predicate_ids["p:NN"]]

    def test_dimension_mismatch(self, tmp_path):
        vocab = make_vocab()
        model = init_for_training(vocab.c, vocab.d, Hyperparams(r=8), seed=0)
        path = tmp_path / "vecs.txt"
        write_word_vectors(path, {"bank": np.zeros(10)})
        with pytest.raises(DimensionMismatch):
            load_pretrained(model, path, vocab)

    def test_trailing_whitespace_accepted(self, tmp_path):
        # word2vec's text writer ends every line with a space
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nthe 0.1 0.2 0.3 \nbank 1 2 3\t\r\n")
        dim, vectors = read_word_vectors(path)
        assert dim == 3
        np.testing.assert_array_equal(vectors["the"], [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(vectors["bank"], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("text, line", [
        ("two 2\nbank 1 2\n", 1),
        ("1\nbank 1 2\n", 1),
        ("1 2\nbank 1 x\n", 2),
        ("1 2\nbank nan 2\n", 2),
        ("1 2\nbank 1 1e400\n", 2),
        ("2 2\nbank 1 2\nmoney 1\n", 3),
        ("1 2\nbank 1  2\n", 2),
    ], ids=["header word", "header one field", "value x", "value nan", "value 1e400",
            "short line", "empty inner field"])
    def test_malformed_vector_file(self, tmp_path, text, line):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        with pytest.raises(ModelFormatError, match="%s line %d: " % (path, line)):
            read_word_vectors(path)


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
        # files written before iters_count_raw_solves, als_r_cap,
        # r_regularizer and the E re-initialization were removed hold those keys
        hyper = Hyperparams(r=3, inference_iters=7)
        blob = _hyper_to_bytes(hyper) + (b"\niters_count_raw_solves=True\nals_r_cap=100"
                                         b"\nr_regularizer=nuclear\ne_reinit_period=10"
                                         b"\ne_reinit_burst=10")
        assert _hyper_from_bytes(blob) == hyper

    @pytest.mark.parametrize("block", [b"r=abc", b"r=0", b"garbage", b"alpha=1.0", b"",
                                       b"r=2\nalpha=nan", b"r=2\nrel_improvement_stop=inf"])
    def test_bad_hyper_block(self, block):
        with pytest.raises(ModelFormatError, match="bad hyperparameter block"):
            _hyper_from_bytes(block)

    def test_hyper_r_must_match_the_stored_r(self, tmp_path):
        model = random_model(c=12, d=2, r=6)
        model.hyper = Hyperparams(r=8)
        path = tmp_path / "model.bove"
        save_model(model, path)
        with pytest.raises(ModelFormatError, match="hyperparameter r=8 .* stored r=6"):
            load_model(path)

    @pytest.mark.parametrize("truth", [lambda hyper: synth.generate(1, hyper=hyper).model,
                                       lambda hyper: synth.make_pair_benchmark(1, hyper=hyper)[0]],
                             ids=["generate", "make_pair_benchmark"])
    def test_synth_model_takes_its_rank_from_hyper(self, tmp_path, truth):
        # the ground truth has hyper.r columns, so it saves and loads
        hyper = Hyperparams(r=8)
        model = truth(hyper)
        assert model.r == 8 and model.hyper is hyper
        save_model(model, tmp_path / "model.bove")
        assert load_model(tmp_path / "model.bove").hyper == hyper

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

    def test_ids_round_trip(self, tmp_path):
        ids = ["0", "s-1_é", "a|b"]
        path = tmp_path / "bags.bin"
        write_bags(path, [(sid, np.ones((1, 2))) for sid in ids])
        assert [sid for sid, _ in read_bags(path)] == ids

    @pytest.mark.parametrize("sid", ["", "a b", "a\tb", "a\n", "\u2028"])
    def test_id_the_reader_would_split_is_refused_before_writing(self, tmp_path, sid):
        path = tmp_path / "bags.bin"
        with pytest.raises(BoveError, match="sentence id %s is empty or holds whitespace"
                           % re.escape(repr(sid))):
            write_bags(path, [("s0", np.ones((1, 2))), (sid, np.ones((1, 2)))])
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,), (1, 2, 2)])
    def test_bag_the_reader_would_refuse_is_refused_before_writing(self, tmp_path, shape):
        path = tmp_path / "bags.bin"
        with pytest.raises(DimensionMismatch, match=re.escape(
                "bag s1 has shape %s; it must be n x r with n and r at least 1" % (shape,))):
            write_bags(path, [("s0", np.ones((1, 2))), ("s1", np.zeros(shape))])
        assert not path.exists()

    @pytest.mark.parametrize("ids", [["s0", "s1", "s0"], [0, "0"]])
    def test_repeated_id_is_refused_before_writing(self, tmp_path, ids):
        # the header holds the id as text, so 0 and "0" are one id
        path = tmp_path / "bags.bin"
        with pytest.raises(BoveError, match="^bag %s is given twice; sentence ids must be "
                           "unique$" % ids[-1]):
            write_bags(path, [(sid, np.ones((1, 2))) for sid in ids])
        assert not path.exists()

    def test_repeated_id_is_refused_on_reading(self, tmp_path):
        part = tmp_path / "part.bin"
        write_bags(part, [("s0", np.ones((1, 2))), ("s1", np.ones((2, 2)))])
        path = tmp_path / "bags.bin"
        path.write_bytes(part.read_bytes() * 2)
        with pytest.raises(ModelFormatError, match="^bag record 3 repeats sentence id s0$"):
            read_bags(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bags.bin"
        write_bags(path, [("s0", np.zeros((3, 3)))])
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ModelTruncatedError):
            read_bags(path)

    def test_header_sized_beyond_the_file_is_refused_before_reading(self, tmp_path):
        # 10^11 values would be 800 GB; the header is checked against the
        # 16 bytes left, so no read of that size is made
        path = tmp_path / "bags.bin"
        write_bags(path, [("s0", np.ones((1, 2)))])
        path.write_bytes(path.read_bytes() + b"a 100000000000 1\n" + bytes(16))
        with pytest.raises(ModelTruncatedError, match="^bag record for a ended early$"):
            read_bags(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_to_its_end(self, tmp_path):
        # a pipe has no size to check a header against, so its reads decide
        path = tmp_path / "bags.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=write_bags, args=(path, [("s0", np.ones((2, 3)))]))
        writer.start()
        bags = read_bags(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert [sid for sid, _ in bags] == ["s0"]
        np.testing.assert_array_equal(bags[0][1], np.ones((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        e = np.ones((2, 3))
        e[1, 2] = value
        path = tmp_path / "bags.bin"
        write_bags(path, [("s0", np.zeros((1, 3))), ("s1", e)])
        with pytest.raises(ModelFormatError, match=r"bag record 2 \(s1\).*non-finite"):
            read_bags(path)

