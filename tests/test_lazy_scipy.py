"""scipy is loaded by the first Cholesky solve, not by `import bove`.

Each pipeline stage runs in its own process, so a module-level scipy import
would add its load time to every command, including those that never solve
(vocabulary, encoding, scoring, evaluation, synthesis, SGD training).  A
fresh interpreter imports bove and bove.cli, runs those commands through
bove.cli.main on test_cli's corpus and records after each step whether
scipy is in sys.modules; `infer` and, in a fresh interpreter, an ALS
`train` solve and load it.  No timing is asserted.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from bove.model import write_bags

from test_cli import CORPUS, write_config, write_corpus

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import bove, bove.cli
seen = [["import", "scipy" in sys.modules]]
for name, config, args in json.loads(sys.argv[1]):
    code = bove.cli.main(["--config", config, *args])
    if code != 0:
        sys.exit("%s exited %d" % (name, code))
    seen.append([name, "scipy" in sys.modules])
print(json.dumps(seen))
"""


def probe(steps):
    """[step name, whether scipy is loaded after it] of each step run in one
    fresh interpreter, after the import as "import"."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(steps)],
                            env=env, capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_scipy_loads_at_the_first_solve(tmp_path):
    write_corpus(tmp_path / "corpus.conll", CORPUS)
    rng = np.random.default_rng(0)
    write_bags(tmp_path / "bags.bin",
               [(str(i), rng.normal(size=(len(sent), 4))) for i, sent in enumerate(CORPUS)])
    (tmp_path / "pairs.tsv").write_text("p1\t0\t1\t4.0\np2\t2\t3\t2.0\n")
    common = {"paths.tensors": str(tmp_path / "tensors.txt"), "hyper.max_rounds": "2",
              "sgd.epochs": "2"}
    config = write_config(tmp_path, name="als.txt", trainer="als", **common)
    sgd = write_config(tmp_path, name="sgd.txt", trainer="sgd", **common)
    synth = write_config(tmp_path, name="synth.txt", **{
        "paths.tensors": str(tmp_path / "synth_tensors.txt"),
        "paths.model": str(tmp_path / "synth_model.bin")})
    # infer solves with the SGD-trained model; train-als runs in a second
    # interpreter, so each of the two is seen to load scipy itself
    assert probe([
        ("build-vocab", config, ["build-vocab"]),
        ("encode", config, ["encode"]),
        ("score-sts", config, ["score", "--mode", "sts"]),
        ("eval-sts", config, ["eval", "--mode", "sts"]),
        ("synth", synth, ["synth"]),
        ("train-sgd", sgd, ["train"]),
        ("infer", sgd, ["infer"]),
    ]) == [["import", False], ["build-vocab", False], ["encode", False],
           ["score-sts", False], ["eval-sts", False], ["synth", False],
           ["train-sgd", False], ["infer", True]]
    assert probe([("train-als", config, ["train"])]) == [["import", False],
                                                         ["train-als", True]]
