"""bove needs numpy only: every command runs where scipy cannot be imported.

A fresh interpreter installs a sys.meta_path finder that refuses `scipy`
and every `scipy.*` module, then runs each pipeline stage through
bove.cli.main on test_cli's corpus: vocabulary, encoding, ALS and SGD
training, inference (E solves), scoring, evaluation and synthesis.  Each
must exit 0 and leave scipy out of sys.modules.  No timing is asserted.
"""

import json
import os
import pathlib
import subprocess
import sys

from test_cli import CORPUS, write_config, write_corpus

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: %s" % name)
        return None

sys.meta_path.insert(0, RefuseScipy())
import bove.cli
seen = []
for name, config, args in json.loads(sys.argv[1]):
    seen.append([name, bove.cli.main(["--config", config, *args]), "scipy" in sys.modules])
print(json.dumps(seen))
"""


def test_every_command_runs_without_scipy(tmp_path):
    write_corpus(tmp_path / "corpus.conll", CORPUS)
    (tmp_path / "pairs.tsv").write_text("p1\t0\t1\t4.0\np2\t2\t3\t2.0\n")
    common = {"paths.tensors": str(tmp_path / "tensors.txt"), "hyper.max_rounds": "2",
              "sgd.epochs": "2"}
    als = write_config(tmp_path, name="als.txt", trainer="als", **common)
    sgd = write_config(tmp_path, name="sgd.txt", trainer="sgd",
                       **{"paths.model": str(tmp_path / "sgd_model.bin")}, **common)
    synth = write_config(tmp_path, name="synth.txt", **{
        "paths.tensors": str(tmp_path / "synth_tensors.txt"),
        "paths.model": str(tmp_path / "synth_model.bin")})
    steps = [
        ("build-vocab", als, ["build-vocab"]),
        ("encode", als, ["encode"]),
        ("train-als", als, ["train"]),
        ("train-sgd", sgd, ["train"]),
        ("infer", als, ["infer"]),
        ("score-sts", als, ["score", "--mode", "sts"]),
        ("eval-sts", als, ["eval", "--mode", "sts"]),
        ("synth", synth, ["synth"]),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(steps)],
                            env=env, capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [
        [name, 0, False] for name, _, _ in steps]
