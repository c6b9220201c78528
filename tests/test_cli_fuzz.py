"""CLI fuzz: corrupted vocabulary files and tensor dumps fed through bove.cli.main.

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

# case -> (the input file it corrupts, the command that reads it, config keys)
CASES = {
    "vocabulary": ("vocab.txt", "encode", {}),
    "tensors-als": ("tensors.txt", "train", {"trainer": "als"}),
    "tensors-sgd": ("tensors.txt", "train", {"trainer": "sgd", "sgd.epochs": "2"}),
}
# Replacement fields: numbers of every kind, tags, namespaces and separators.
ANY_FIELD = [b"", b"x", b"-1", b"0", b"1", b"2", b"99", b"1.5", b"nan", b"inf",
             b"-inf", b"1e308", b"W", b"X", b"w", b"p", b"r", b"rawW", b"dims",
             b"sentence", b"#thresholds", b"word=1", b"=", b"\t", b" ", b"\xff"]
# Fields that neither int() nor float() accepts.
NOT_A_NUMBER = [b"x", b"0x1", b"--1", b"1.5.", b"one"]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Bytes of a valid vocabulary file and tensor dump of the CLI test corpus."""
    root = tmp_path_factory.mktemp("valid")
    write_corpus(root / "corpus.conll", CORPUS)
    config = write_config(root, **{"paths.tensors": str(root / "tensors.txt")})
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", config, "build-vocab"]) == EXIT_OK
        assert main(["--config", config, "encode"]) == EXIT_OK
    return {name: (root / name).read_bytes() for name, _, _ in CASES.values()}


def run_with(case, data):
    """Run the command of `case` with `data` as the bytes of its input file."""
    name, command, keys = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_corpus(root / "corpus.conll", CORPUS)
        (root / name).write_bytes(data)
        config = write_config(root, **{"paths.tensors": str(root / "tensors.txt"),
                                       "hyper.r": "2", "hyper.max_rounds": "3", **keys})
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--config", config, command])
    return code, err.getvalue()


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


@st.composite
def invalid_corruption(draw, name, data):
    """data with one edit that no valid file survives: a number that does
    not parse, an unknown tag or namespace, or a byte that is not UTF-8."""
    lines = data.split(b"\n")
    at = draw(st.integers(min_value=1 if name == "vocab.txt" else 0,
                          max_value=len(lines) - 2))
    parts = fields(lines[at])
    tag = parts[0]
    edit = draw(st.sampled_from(["number", "tag", "utf8"]))
    if edit == "number":
        # every field after the tag is a number, except a sentence's id and a
        # vocabulary label
        numbers = [i for i in range(2, len(parts), 2)
                   if not (tag == b"sentence" and i == 2)
                   and not (name == "vocab.txt" and i == 2)]
        parts[draw(st.sampled_from(numbers))] = draw(st.sampled_from(NOT_A_NUMBER))
    elif edit == "tag":
        parts[0] = draw(st.sampled_from([b"ww", b"XX", b"Sentence", b"raw", b"q"]))
    else:
        offset = draw(st.integers(min_value=0, max_value=len(lines[at])))
        parts = [lines[at][:offset], b"\xff", lines[at][offset:]]
    lines[at] = b"".join(parts)
    return b"\n".join(lines)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(draws=st.data())
def test_any_corruption_exits_with_a_code(valid_inputs, case, draws):
    name = CASES[case][0]
    code, err = run_with(case, draws.draw(any_corruption(valid_inputs[name])))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith("error: ")


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(draws=st.data())
def test_invalid_corruption_is_an_error(valid_inputs, case, draws):
    name = CASES[case][0]
    code, err = run_with(case, draws.draw(invalid_corruption(name, valid_inputs[name])))
    assert code in (1, 2, 3)
    assert err.startswith("error: ") and "Traceback" not in err
