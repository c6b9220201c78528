"""CLI fuzz: corrupted input files of every kind fed through bove.cli.main.

The inputs are a CoNLL corpus, a vocabulary file, a tensor dump, a
pretrained vector file, an STS and an SNLI pair file, a bag file and an STS
and an SNLI scores file.

Whatever the corruption, main returns an exit code and never lets an
exception escape; a corruption that cannot leave the file valid exits 1, 2
or 3 with an error message.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bove.cli import EXIT_OK, main
from test_cli import CORPUS, write_config, write_corpus

# case -> (the input file it corrupts, the command that reads it, config
# keys); a paths.* value names a file next to the inputs, and None leaves
# the key out
CASES = {
    "corpus": ("corpus.conll", ["build-vocab"], {}),
    "vocabulary": ("vocab.txt", ["encode"], {}),
    "tensors-als": ("tensors.txt", ["train"], {"trainer": "als"}),
    "tensors-sgd": ("tensors.txt", ["train"], {"trainer": "sgd", "sgd.epochs": "2"}),
    "vectors": ("vectors.txt", ["train"],
                {"paths.tensors": None, "paths.vectors": "vectors.txt",
                 "paths.model": "model-vectors.bin"}),
    "pairs-sts": ("pairs.tsv", ["score", "--mode", "sts"], {}),
    "pairs-snli": ("pairs-snli.tsv", ["score", "--mode", "snli"],
                   {"paths.pairs": "pairs-snli.tsv", "paths.scores": "scores-snli.tsv"}),
    "bags-sts": ("bags.bin", ["score", "--mode", "sts"], {}),
    "bags-snli": ("bags.bin", ["score", "--mode", "snli"],
                  {"paths.pairs": "pairs-snli.tsv", "paths.scores": "scores-snli.tsv"}),
    # after the score cases, whose runs write the scores files
    "scores-sts": ("scores.tsv", ["eval", "--mode", "sts"], {}),
    "scores-snli": ("scores-snli.tsv", ["eval", "--mode", "snli"],
                    {"paths.scores": "scores-snli.tsv"}),
}
# valid input files that no command writes; the vectors are of size hyper.r
VALID_FILES = {
    "vectors.txt": b"2 2\ncat 0.5 -0.25\nsat 1e-3 2\n",
    "pairs.tsv": b"p1\t0\t1\t4.0\tA\np2\t2\t3\t1.0\tA\np3\t0\t3\t2.5\tA\n",
    "pairs-snli.tsv": (b"p1\t0\t1\tentailment\np2\t2\t3\tneutral\n"
                       b"p3\t0\t3\tcontradiction\n"),
}
# Replacement fields: numbers of every kind, tags, namespaces and separators.
ANY_FIELD = [b"", b"x", b"-1", b"0", b"1", b"2", b"99", b"1.5", b"nan", b"inf",
             b"-inf", b"1e308", b"W", b"X", b"w", b"p", b"r", b"rawW", b"dims",
             b"sentence", b"#thresholds", b"word=1", b"=", b"\t", b" ", b"\xff"]
# Fields that neither int() nor float() accepts.
NOT_A_NUMBER = [b"x", b"0x1", b"--1", b"1.5.", b"one"]
# Fields that no valid file holds where a gold or a score belongs.
NOT_FINITE = NOT_A_NUMBER + [b"nan", b"inf", b"-inf", b"1e999"]
# Fields that no valid file holds where a tag, a sentence id or an SNLI
# label belongs.
NOT_A_TAG = [b"ww", b"XX", b"Sentence", b"raw", b"q"]
NOT_A_SENTENCE = [b"q", b"99", b"-1"]
NOT_A_LABEL = [b"maybe", b"Entailment", b"4.0"]


def run_in(root, command, keys):
    """Run one command on the inputs in root; returns (exit code, stderr)."""
    keys = {"paths.tensors": "tensors.txt", "hyper.r": "2", "hyper.max_rounds": "3", **keys}
    config = write_config(root, **{
        key: str(root / value) if key.startswith("paths.") and value else value
        for key, value in keys.items()})
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", config, *command])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Bytes of every valid input file, the bags inferred by a model trained
    on the CLI test corpus."""
    root = tmp_path_factory.mktemp("valid")
    write_corpus(root / "corpus.conll", CORPUS)
    for name, data in VALID_FILES.items():
        (root / name).write_bytes(data)
    for command in (["build-vocab"], ["encode"], ["train"], ["infer"]):
        assert run_in(root, command, {}) == (EXIT_OK, "")
    for _, command, keys in CASES.values():
        assert run_in(root, command, keys) == (EXIT_OK, "")
    return {name: (root / name).read_bytes() for name, _, _ in CASES.values()}


def run_with(valid_inputs, case, data):
    """Run the command of `case` on valid inputs, with `data` as the bytes of
    its input file."""
    name, command, keys = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for other, valid in valid_inputs.items():
            (root / other).write_bytes(valid)
        (root / name).write_bytes(data)
        return run_in(root, command, keys)


def fields(line):
    """Split a line into fields and the separators between them."""
    return re.split(rb"(\s+)", line)


@st.composite
def any_corruption(draw, data):
    """data after one to three edits: a field replaced, a line deleted or
    repeated, bytes inserted, or the tail cut off."""
    lines = data.split(b"\n")
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(["field", "field", "delete", "repeat", "insert", "cut"]))
        if edit == "field":
            parts = fields(lines[at])
            index = draw(st.sampled_from(range(0, len(parts), 2)))
            parts[index] = draw(st.sampled_from(ANY_FIELD))
            lines[at] = b"".join(parts)
        elif edit == "delete" and len(lines) > 1:
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif edit == "insert":
            offset = draw(st.integers(min_value=0, max_value=len(lines[at])))
            lines[at] = (lines[at][:offset] + draw(st.binary(min_size=1, max_size=3))
                         + lines[at][offset:])
        else:
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
            del lines[at + 1:]
    return b"\n".join(lines)


def breaking_edits(name, parts):
    """{index in parts: replacements}, where no valid file of this kind
    holds any of the replacements at that index of that line."""
    if name == "corpus.conll":
        return {0: NOT_A_NUMBER, 16: NOT_A_NUMBER}  # token id, head
    if name == "pairs.tsv":
        return {2: NOT_A_SENTENCE, 4: NOT_A_SENTENCE, 6: NOT_FINITE}
    if name == "pairs-snli.tsv":
        return {2: NOT_A_SENTENCE, 4: NOT_A_SENTENCE, 6: NOT_A_LABEL}
    if name == "scores.tsv":  # id, score, gold, subset
        return {2: NOT_FINITE, 4: NOT_FINITE}
    if name == "scores-snli.tsv":
        return {2: NOT_FINITE, 4: NOT_A_LABEL}
    if name == "bags.bin":
        return {2: NOT_A_NUMBER, 4: NOT_A_NUMBER}  # n, r
    if name == "vectors.txt":  # the valid file's vectors are of size 2
        if len(parts) == 3:  # the "count dim" header
            return {0: NOT_A_NUMBER, 2: NOT_A_NUMBER}
        return {i: NOT_FINITE for i in range(2, len(parts), 2)}  # a word's values
    # vocabulary and tensor dump: a tag, then numbers, except a sentence's
    # id and a vocabulary label
    edits = {0: NOT_A_TAG}
    for i in range(2, len(parts), 2):
        if not (i == 2 and (parts[0] == b"sentence" or name == "vocab.txt")):
            edits[i] = NOT_A_NUMBER
    return edits


@st.composite
def invalid_corruption(draw, name, data):
    """data with one edit that no valid file survives: a field from
    breaking_edits, a byte that is not UTF-8, or a bag record cut short.

    A bag file is binary, so only its first line, a record header, is
    edited."""
    lines = data.split(b"\n")
    if name == "bags.bin":
        _, n, r = lines[0].split(b" ")
        payload = int(n) * int(r) * 8
        if draw(st.booleans()):
            return data[:len(lines[0]) + 1 + draw(st.integers(0, payload - 1))]
        lines = [lines[0], b"\n".join(lines[1:])]
    # the vocabulary's first line holds its thresholds
    at = draw(st.sampled_from([i for i, line in enumerate(lines[:-1])
                               if line and not (name == "vocab.txt" and i == 0)]))
    if draw(st.booleans()):
        offset = draw(st.integers(min_value=0, max_value=len(lines[at])))
        lines[at] = lines[at][:offset] + b"\xff" + lines[at][offset:]
    else:
        parts = fields(lines[at])
        index, replacements = draw(st.sampled_from(
            sorted(breaking_edits(name, parts).items())))
        parts[index] = draw(st.sampled_from(replacements))
        lines[at] = b"".join(parts)
    return b"\n".join(lines)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(draws=st.data())
def test_any_corruption_exits_with_a_code(valid_inputs, case, draws):
    name = CASES[case][0]
    code, err = run_with(valid_inputs, case,
                         draws.draw(any_corruption(valid_inputs[name])))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error: ")


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(draws=st.data())
def test_invalid_corruption_is_an_error(valid_inputs, case, draws):
    name = CASES[case][0]
    code, err = run_with(valid_inputs, case,
                         draws.draw(invalid_corruption(name, valid_inputs[name])))
    assert code in (1, 2, 3)
    assert err.startswith("error: ") and "Traceback" not in err
