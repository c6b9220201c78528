"""Benchmark of the bove CLI pipeline on generated dependency corpora.

Usage (from the repository root):

    python3 perfbench/run.py --workload als-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload: it generates the inputs from the seed,
sets up (set-up time is reported as setup_s), then repeats passes of the
workload's timed CLI steps, each a call of bove.cli.main in this process,
until the next pass would end after --seconds, but at least MIN_PASSES
times.  Every metric is the median over passes.  The load is a closed
loop: one client, steps run one after another, BLAS pinned to one thread.

The host's speed drifts, so the run probes it with fixed reference kernels
(calib.py) at every step boundary and, within a step, at the return of a
unit of work once PROBE_INTERVAL_S has passed.  Every time is reported at
the reference host speed: each stretch of wall time between two probes is
divided by the slowdown they measured.  The wall times, probes left out,
are printed and recorded as well (pipeline_wall_s, setup_wall_s).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, from spans recorded by wrappers
around the bove modules' public functions (see spans.py).  A traced run
first times one untraced pass, so the tracing overhead is measured in the
same process.  Every run also prints an environment and a result
fingerprint block and writes a record and (when traced) its spans under
perfbench/out/.  The process exits 1 when an output check fails, and 2
when the bove sources are not found next to perfbench/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

import calib
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "out")

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up times are noisy (the program's cold start is most of the set-up
# of als-train and sgd-train): setup_s is the median of this many set-ups.
SETUP_REPEATS = 5
PROBE_INTERVAL_S = 0.3
# At least this many passes, so medians and the tail rule have samples
# (infer-score: 3 passes give 27 infer_bove calls, enough for a p50 tail).
MIN_PASSES = 3
R_ALS = 20
R_SGD = 50
SGD_EPOCHS = 20

# Each workload: corpus sizes, ALS rounds (a fixed count: the stopping rule
# is off and no E re-initialization falls inside), config lines, timed
# steps, the probe kind (calib.py) of set-up and steps and of steps with a
# kind of their own, the functions at whose return a probe may run, the
# wrapped functions it must call (expect) and those it is predicted never
# to call (bypass; a prefix ending in "." covers a module).
WORKLOADS = {
    "als-train": {
        "why": "ALS training: the per-sentence E sweep, update_R and the objective "
               "(computed twice per round); the only workload running P and R updates",
        "sentences": 8,
        "rounds": 2,
        "config": ["hyper.r=%d" % R_ALS, "trainer=als"],
        "steps": ["build-vocab", "encode", "train"],
        "kind": "solve",
        "probe_at": ["als.averaged_E_step", "als.update_P", "als.update_R",
                     "als.corpus_objective"],
        "expect": ["conll.read_conll", "conll.build_vocabulary", "conll.to_sentence_graph",
                   "encoding.encode", "encoding.write_tensor_file",
                   "encoding.read_tensor_file", "model.save_model", "als.train",
                   "als.averaged_E_step", "als.update_E_sentence", "als.update_P",
                   "als.update_R", "als.corpus_objective"],
        "bypass": ["sgd."],
    },
    "infer-score": {
        "why": "inference against a frozen model (30 serial E solves per sentence, "
               "no P, R or objective work), then bag I/O and alignment scoring of "
               "many planted pairs",
        "sentences": 8,
        "heldout_bases": 3,
        "pair_repeats": 80,
        "rounds": 1,
        "config": ["hyper.r=%d" % R_ALS, "trainer=als"],
        "setup_steps": ["build-vocab", "encode", "train"],
        "steps": ["infer", "score-sts", "score-snli"],
        "kind": "solve",
        "step_kinds": {"score-sts": "small", "score-snli": "small"},
        "probe_at": ["als.averaged_E_step", "inference.infer_bove",
                     "scoring.score_similarity", "scoring.score_entailment"],
        "expect": ["conll.read_conll", "conll.to_sentence_graph", "encoding.encode",
                   "model.load_model", "model.write_bags", "model.read_bags",
                   "inference.infer_corpus", "inference.infer_bove",
                   "inference.update_E_sentence", "scoring.read_pairs",
                   "scoring.score_similarity", "scoring.score_entailment"],
        "bypass": ["als.update_R", "als.update_P", "als.corpus_objective", "sgd."],
    },
    "sgd-train": {
        "why": "SGD training at r=%d: the cell sampler and per-cell gradient loop; "
               "no E, P or R solve runs" % R_SGD,
        "sentences": 16,
        "config": ["hyper.r=%d" % R_SGD, "trainer=sgd", "sgd.epochs=%d" % SGD_EPOCHS],
        "steps": ["build-vocab", "encode", "train"],
        "kind": "cells",
        "probe_at": ["sgd.sgd_step"],
        "expect": ["conll.read_conll", "conll.build_vocabulary", "conll.to_sentence_graph",
                   "encoding.encode", "encoding.write_tensor_file",
                   "encoding.read_tensor_file", "model.save_model", "sgd.train_sgd",
                   "sgd.sgd_step", "sgd.sample_cells", "sgd.sampled_loss_and_grads"],
        "bypass": ["als.", "inference.", "scoring."],
    },
}

# Wrapped functions: (module, attribute).  inference.update_E_sentence is
# the inference module's own binding of als.update_E_sentence.
WRAPPED = [
    ("conll", "read_conll"), ("conll", "build_vocabulary"), ("conll", "to_sentence_graph"),
    ("encoding", "encode"), ("encoding", "write_tensor_file"),
    ("encoding", "read_tensor_file"),
    ("model", "save_model"), ("model", "load_model"), ("model", "write_bags"),
    ("model", "read_bags"),
    ("als", "train"), ("als", "averaged_E_step"), ("als", "update_E_sentence"),
    ("als", "update_P"), ("als", "update_R"), ("als", "corpus_objective"),
    ("inference", "infer_corpus"), ("inference", "infer_bove"),
    ("inference", "update_E_sentence"),
    ("sgd", "train_sgd"), ("sgd", "sgd_step"), ("sgd", "sample_cells"),
    ("sgd", "sampled_loss_and_grads"),
    ("scoring", "read_pairs"), ("scoring", "score_similarity"),
    ("scoring", "score_entailment"),
]
CLI_STEPS = ["build-vocab", "encode", "train", "infer", "score-sts", "score-snli"]

# End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics: (name, unit, span name, statistic).
PER_LAYER = [
    ("als.update_E_sentence_calls", "count", "als.update_E_sentence", "calls"),
    ("als.update_E_sentence_ms_p50", "ms", "als.update_E_sentence", "ms_p50"),
    ("als.update_E_sentence_ms_tail", "ms", "als.update_E_sentence", "ms_tail"),
    ("als.update_E_sentence_ms_tail_pct", "%", "als.update_E_sentence", "tail_pct"),
    ("als.e_sweep_s", "s", "als.averaged_E_step", "s"),
    ("als.update_R_s", "s", "als.update_R", "s"),
    ("als.update_P_s", "s", "als.update_P", "s"),
    ("als.corpus_objective_s", "s", "als.corpus_objective", "s"),
    # Objective evaluations per round, the one before round 1 counted as a round.
    ("als.corpus_objective_calls_per_round", "count", "als.corpus_objective", "per_round"),
    ("als.rounds", "count", "als.train", "rounds"),
    ("als.train_self_s", "s", "als.train", "self_s"),
    ("inference.infer_bove_calls", "count", "inference.infer_bove", "calls"),
    ("inference.infer_bove_ms_p50", "ms", "inference.infer_bove", "ms_p50"),
    ("inference.infer_bove_ms_tail", "ms", "inference.infer_bove", "ms_tail"),
    ("inference.infer_bove_ms_tail_pct", "%", "inference.infer_bove", "tail_pct"),
    ("inference.infer_bove_self_s", "s", "inference.infer_bove", "self_s"),
    ("inference.update_E_sentence_calls", "count", "inference.update_E_sentence", "calls"),
    ("inference.update_E_sentence_s", "s", "inference.update_E_sentence", "s"),
    ("scoring.read_pairs_s", "s", "scoring.read_pairs", "s"),
    ("scoring.score_similarity_us_p50", "us", "scoring.score_similarity", "us_p50"),
    ("scoring.score_entailment_us_p50", "us", "scoring.score_entailment", "us_p50"),
    # Calls of both scoring kernels (score_similarity calls score_entailment twice).
    ("scoring.score_calls", "count", "scoring.score_similarity", "score_calls"),
    ("sgd.sample_cells_s", "s", "sgd.sample_cells", "s"),
    ("sgd.sampled_loss_and_grads_s", "s", "sgd.sampled_loss_and_grads", "s"),
    ("sgd.sgd_step_self_s", "s", "sgd.sgd_step", "self_s"),
    ("sgd.cells_sampled", "count", "sgd.sample_cells", "counter"),
    ("conll.read_conll_s", "s", "conll.read_conll", "s"),
    ("conll.build_vocabulary_s", "s", "conll.build_vocabulary", "s"),
    ("conll.to_sentence_graph_s", "s", "conll.to_sentence_graph", "s"),
    ("encoding.encode_s", "s", "encoding.encode", "s"),
    ("encoding.write_tensor_file_s", "s", "encoding.write_tensor_file", "s"),
    ("encoding.read_tensor_file_s", "s", "encoding.read_tensor_file", "s"),
    ("model.save_model_s", "s", "model.save_model", "s"),
    ("model.load_model_s", "s", "model.load_model", "s"),
    ("model.write_bags_s", "s", "model.write_bags", "s"),
    ("model.read_bags_s", "s", "model.read_bags", "s"),
] + [("cli.%s_s" % step, "s", "cli." + step, "s") for step in CLI_STEPS] + [
    ("trace_overhead_frac", "ratio", None, "overhead"),
]


def throughputs(workload, counts, times):
    """Named throughputs of one pass: {name: (value, unit)}.

    counts: sentences, rounds/epochs, heldout, pairs; times: step seconds
    (cli.<step>) plus sgd_step_s, the summed sgd.sgd_step span time, all
    at the reference host speed.
    """
    if workload == "als-train":
        return {"als_sent_rounds_per_s": (
            counts["sentences"] * counts["rounds"] / times["cli.train"],
            "sentence*rounds/s")}
    if workload == "sgd-train":
        return {"sgd_sent_epochs_per_s": (
            counts["sentences"] * counts["epochs"] / times["sgd_step_s"],
            "sentence*epochs/s")}
    return {
        "infer_sent_per_s": (counts["heldout"] / times["cli.infer"], "sentences/s"),
        "score_pairs_per_s": (
            2 * counts["pairs"] / (times["cli.score-sts"] + times["cli.score-snli"]),
            "pairs/s"),
    }


# Name of each workload's main throughput, reported as items_per_s.
MAIN_RATE = {"als-train": "als_sent_rounds_per_s", "sgd-train": "sgd_sent_epochs_per_s",
             "infer-score": "infer_sent_per_s"}


def layer_metrics(summary, workload, overhead, rounds):
    """Per-layer metric values, and the names of expected functions that
    recorded no calls (reported missing, never as 0).

    Functions the workload does not expect to call report 0 for every
    statistic.  rounds: ALS rounds per pass.
    """
    spec = WORKLOADS[workload]
    expected = set(spec["expect"]) | {"cli." + s for s in spec["steps"]}
    called = summary.names()
    values, missing = {}, set()
    for name, _, fn, stat in PER_LAYER:
        if stat == "overhead":
            values[name] = overhead
            continue
        if fn not in called:
            if fn in expected:
                missing.add(fn)
            else:
                values[name] = 0.0
            continue
        durs = summary.durations[fn]
        if stat == "calls":
            values[name] = summary.calls(fn)
        elif stat == "s":
            values[name] = summary.total_s(fn)
        elif stat == "self_s":
            values[name] = summary.self_s(fn)
        elif stat == "ms_p50":
            values[name] = 1e3 * spans.nearest_rank(durs, 50.0)
        elif stat == "us_p50":
            values[name] = 1e6 * spans.nearest_rank(durs, 50.0)
        elif stat in ("ms_tail", "tail_pct"):
            found = spans.tail(durs)
            if found is None:
                missing.add(fn)
            else:
                values[name] = 1e3 * found[0] if stat == "ms_tail" else found[1]
        elif stat == "per_round":
            values[name] = summary.calls(fn) / (summary.calls("als.train") * (rounds + 1))
        elif stat == "rounds":
            values[name] = rounds
        elif stat == "score_calls":
            values[name] = (summary.calls("scoring.score_similarity")
                            + summary.calls("scoring.score_entailment"))
        elif stat == "counter":
            values[name] = summary.counter(fn)
    return values, sorted(missing)


def bypass_violations(summary, workload):
    """Called functions the workload is predicted never to call."""
    bypass = WORKLOADS[workload]["bypass"]
    return sorted(name for name in summary.names()
                  if any(name == p or (p.endswith(".") and name.startswith(p))
                         for p in bypass))


# -- environment ----------------------------------------------------------


def git_commit(root):
    """Commit id from .git without running git; "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    import scipy

    def blas(mod):
        try:
            blas_info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return "%s %s" % (blas_info.get("name"), blas_info.get("version"))
        except (TypeError, KeyError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


# -- outputs the program wrote --------------------------------------------


def read_bag_file(path):
    """Embedding bags as [(id, array n x r)], read independently of bove."""
    import numpy as np

    bags = []
    with open(path, "rb") as f:
        while True:
            header = f.readline()
            if not header:
                return bags
            sid, n, r = header.decode("utf-8").split()
            n, r = int(n), int(r)
            data = np.frombuffer(f.read(8 * n * r), dtype="<f8")
            if data.size != n * r:
                raise ValueError("bag %s truncated" % sid)
            bags.append((sid, data.reshape(n, r)))


def read_train_log(path):
    """Objectives of the rounds (ALS) or epochs (SGD) in a train log."""
    objectives = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = dict(part.split("=", 1) for part in line.split())
            objectives.append(float(fields["objective"]))
    return objectives


def read_report_mean(path):
    """The value of the "subset=mean" line of an evaluation report."""
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = dict(part.split("=", 1) for part in line.split())
            if fields.get("subset") == "mean":
                return float(fields["value"])
    raise ValueError("no mean line in %s" % path)


# -- one run ----------------------------------------------------------------


class Run:
    """Inputs, configs and checks of one workload run in its own directory."""

    def __init__(self, workload, seed, work):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.checks = []  # (description, passed)
        self.attempted = 0
        self.failed = 0
        self.fingerprints = {"als_rounds": None, "als_final_objective": None,
                             "sgd_final_loss": None, "pair_ap": None, "sts_pearson": None}

    def path(self, name):
        return os.path.join(self.work, name)

    def check(self, description, passed):
        self.checks.append((description, bool(passed)))
        return passed

    def write_config(self, name, corpus):
        lines = [
            "paths.corpus=" + self.path(corpus),
            "paths.vocab=" + self.path("vocab.txt"),
            "paths.tensors=" + self.path("tensors.txt"),
            "paths.model=" + self.path("model.bin"),
            "paths.log=" + self.path("train.log"),
            "paths.embeddings=" + self.path("bags.bin"),
            "paths.scores=" + self.path("scores.tsv"),
            "columns.layout=conll09",
            "thresholds.word=2",
            "thresholds.pos=2",
            "thresholds.relation=2",
            "seed=%d" % self.seed,
            "sgd.seed=%d" % self.seed,
        ] + self.spec["config"]
        if "rounds" in self.spec:
            lines += ["hyper.rel_improvement_stop=0",
                      "hyper.max_rounds=%d" % self.spec["rounds"]]
        with open(self.path(name), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def step(self, cli, step, tracer=None):
        """Run one CLI step through bove.cli.main; returns its start and end
        wall-clock readings."""
        if step.startswith("score-"):
            mode = step.split("-", 1)[1]
            args = ["--config", self.path("config_%s.txt" % mode), "score", "--mode", mode]
        elif step == "infer":
            args = ["--config", self.path("config_heldout.txt"), "infer"]
        else:
            args = ["--config", self.path("config.txt"), step]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            index = tracer.open("cli." + step) if tracer else None
            t0 = time.perf_counter()
            code = cli.main(args)
            t1 = time.perf_counter()
            if tracer:
                tracer.close(index)
        self.attempted += 1
        if not self.check("%s exits 0 (got %d: %s)" % (step, code, err.getvalue().strip()),
                          code == 0):
            self.failed += 1
        return t0, t1

    def setup(self, cli):
        """Cold-start the program once, generate the inputs, write configs,
        and (infer-score) build the vocabulary and train the model."""
        import gen

        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", "import bove.cli"], env=env, check=True)
        if os.path.isdir(self.work):
            shutil.rmtree(self.work)
        os.makedirs(self.work)
        self.info = gen.generate(self.seed, self.work, self.spec["sentences"],
                                 self.spec.get("heldout_bases", 0),
                                 self.spec.get("pair_repeats", 0))
        self.write_config("config.txt", "train.conll")
        if "heldout_bases" in self.spec:
            self.write_config("config_heldout.txt", "heldout.conll")
            for mode in ("sts", "snli"):
                with open(self.path("config_%s.txt" % mode), "w", encoding="utf-8") as f:
                    f.write("paths.embeddings=%s\npaths.pairs=%s\npaths.scores=%s\n"
                            "paths.report=%s\n" % (
                                self.path("bags.bin"), self.path("pairs_%s.tsv" % mode),
                                self.path("scores_%s.tsv" % mode),
                                self.path("report_%s.txt" % mode)))
            for step in self.spec["setup_steps"]:
                self.step(cli, step)
            self.check_train_log("als")

    def check_train_log(self, trainer):
        objectives = read_train_log(self.path("train.log"))
        if trainer == "als":
            self.fingerprints["als_rounds"] = len(objectives)
            self.fingerprints["als_final_objective"] = objectives[-1]
            self.check("ALS ran %d rounds, expected %d"
                       % (len(objectives), self.spec["rounds"]),
                       len(objectives) == self.spec["rounds"])
            if len(objectives) > 1:
                self.check("last ALS objective %.6g below the first %.6g"
                           % (objectives[-1], objectives[0]),
                           objectives[-1] < objectives[0])
        else:
            self.fingerprints["sgd_final_loss"] = objectives[-1]
            self.check("SGD ran %d epochs" % len(objectives),
                       len(objectives) == SGD_EPOCHS)
        return len(objectives)

    def check_outputs(self):
        """Checks after one pass; returns the pass's counts for throughputs."""
        counts = {"sentences": self.info["sentences"]}
        if self.name == "als-train":
            self.attempted += counts["sentences"]
            counts["rounds"] = self.check_train_log("als")
        elif self.name == "sgd-train":
            self.attempted += counts["sentences"]
            counts["epochs"] = self.check_train_log("sgd")
        else:
            import numpy as np

            lengths = self.info["heldout_lengths"]
            bags = dict(read_bag_file(self.path("bags.bin")))
            self.check("%d bags for %d held-out sentences" % (len(bags), len(lengths)),
                       len(bags) == len(lengths))
            self.attempted += len(lengths)
            for i, n in enumerate(lengths):
                bag = bags.get(str(i))
                if not self.check(
                        "bag %d has shape %dx%d with finite values" % (i, n, R_ALS),
                        bag is not None and bag.shape == (n, R_ALS)
                        and bool(np.all(np.isfinite(bag)))):
                    self.failed += 1
            ap = read_report_mean(self.path("report_snli.txt"))
            rate_pos = self.info["positives"] / self.info["pairs"]
            self.check("pair_ap %.4f above the planted positive rate %.4f" % (ap, rate_pos),
                       ap > rate_pos)
            self.fingerprints["pair_ap"] = ap
            self.fingerprints["sts_pearson"] = read_report_mean(self.path("report_sts.txt"))
            counts.update(heldout=len(lengths), pairs=self.info["pairs"])
        return counts


def run_workload(args):
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, SRC)
    import bove
    from bove import cli

    if os.path.dirname(os.path.abspath(bove.__file__)) != os.path.join(SRC, "bove"):
        print("error: imported bove from %s, not %s" % (bove.__file__, SRC), file=sys.stderr)
        return 2

    work = os.path.join(WORK, "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    run = Run(args.workload, args.seed, work)
    try:
        return measure(run, cli, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def wrap_all(tracer, names=None, probe_at=(), probe=None):
    """Wrap the functions of WRAPPED (those in names, if given); probe()
    runs at the return of each function named in probe_at."""
    import importlib

    for mod, attr in WRAPPED:
        name = "%s.%s" % (mod, attr)
        if names is not None and name not in names:
            continue
        module = importlib.import_module("bove." + mod)
        counter = (lambda cells: len(cells[0]) + len(cells[1])) \
            if name == "sgd.sample_cells" else None
        tracer.wrap(module, attr, name, counter=counter, generator=(attr == "read_conll"),
                    after=probe if name in probe_at else None)


def timed_passes(run, cli, args):
    """Set up, then repeat passes; returns (setup times, set-up wall
    times, passes, tracer, untraced reference pass time or None).

    Untraced, the tracer wraps only sgd.sgd_step, whose spans time SGD
    training, and the functions at whose return the host probe may run;
    traced, it wraps every function in WRAPPED after one untraced
    reference pass, and probes only at step boundaries, so that no probe
    time falls inside a span.
    """
    spec = run.spec
    clock = calib.HostClock(sorted({spec["kind"]} | set(spec.get("step_kinds", {}).values())),
                            PROBE_INTERVAL_S)
    tracer = spans.Tracer()
    probe_at = set(spec["probe_at"])
    wrap_all(tracer, probe_at | {"sgd.sgd_step"}, probe_at, clock.maybe_probe)

    setup_times, setup_wall = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        clock.probe()
        t0 = time.perf_counter()
        run.setup(cli)
        t1 = time.perf_counter()
        clock.probe()
        setup_wall.append(clock.work_seconds(t0, t1))
        setup_times.append(clock.reference_seconds(t0, t1, spec["kind"]))

    def one_pass(label):
        t0 = time.perf_counter()
        tracer.run = label
        probes_before = len(clock.probes)
        clock.probe()
        bounds = {}
        for step in spec["steps"]:
            bounds["cli." + step] = (run.step(cli, step, tracer),
                                     spec.get("step_kinds", {}).get(step, spec["kind"]))
            clock.probe()
        counts = run.check_outputs()
        wall = {key: clock.work_seconds(start, end) for key, ((start, end), _) in bounds.items()}
        steps = {key: clock.reference_seconds(start, end, kind)
                 for key, ((start, end), kind) in bounds.items()}
        times = dict(steps, sgd_step_s=sum(
            clock.reference_seconds(s, e, spec["kind"])
            for n, s, e, _, r in tracer.spans if n == "sgd.sgd_step" and r == label))
        slowdowns = clock.slowdowns(spec["kind"])[probes_before:]
        return {"pipeline_s": sum(steps.values()), "pipeline_wall_s": sum(wall.values()),
                "steps_s": steps, "steps_wall_s": wall,
                "probes": len(slowdowns), "slowdown_median": median(slowdowns),
                "rates": throughputs(run.name, counts, times),
                "fingerprints": dict(run.fingerprints),
                "wall_s": time.perf_counter() - t0}

    reference = None
    if args.trace:
        reference = one_pass("reference")["pipeline_s"]
        tracer.restore()
        wrap_all(tracer)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass("pass%d" % len(passes)))
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + median(p["wall_s"] for p in passes) > args.seconds):
            break
    tracer.restore()
    return setup_times, setup_wall, passes, tracer, reference


def measure(run, cli, args):
    """One workload run: passes, checks, record file and result line."""
    setup_times, setup_wall, passes, tracer, reference = timed_passes(run, cli, args)
    fingerprints = passes[0]["fingerprints"]
    run.check("fingerprints identical in every pass",
              all(p["fingerprints"] == fingerprints for p in passes))
    pipeline_s = median(p["pipeline_s"] for p in passes)
    rates = {k: (median(p["rates"][k][0] for p in passes), unit)
             for k, (_, unit) in passes[0]["rates"].items()}
    shown = {
        "setup_s": (median(setup_times), "s"),
        "setup_wall_s": (median(setup_wall), "s"),
        "pipeline_s": (pipeline_s, "s"),
        "pipeline_wall_s": (median(p["pipeline_wall_s"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (run.failed / max(run.attempted, 1), "1"),
    }
    shown.update(rates)
    for key in ("als_final_objective", "sgd_final_loss", "pair_ap", "sts_pearson"):
        if fingerprints[key] is not None:
            shown[key] = (fingerprints[key], "1")

    record = {
        "workload": run.name, "why": run.spec["why"], "seed": run.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": len(passes),
        "pass_pipeline_s": [p["pipeline_s"] for p in passes],
        "pass_steps_s": [p["steps_s"] for p in passes],
        "pass_steps_wall_s": [p["steps_wall_s"] for p in passes],
        "pass_probes": [p["probes"] for p in passes],
        "pass_slowdown_median": [p["slowdown_median"] for p in passes],
        "setup_runs_s": setup_times,
        "setup_runs_wall_s": setup_wall,
        "env": environment(run.seed), "fingerprints": fingerprints,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (run.name, run.seed, args.trace))
    if args.trace:
        summary = spans.Summary(tracer, ["pass%d" % i for i in range(len(passes))])
        layers, missing = layer_metrics(summary, run.name, pipeline_s / reference - 1.0,
                                        fingerprints["als_rounds"] or 0)
        violations = bypass_violations(summary, run.name)
        run.check("no calls into predicted bypasses (%s)" % ", ".join(violations),
                  not violations)
        self_by_layer = {}
        for name in summary.names():
            layer = name.split(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + summary.self_s(name)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        record.update(missing=missing, bypass_violations=violations,
                      self_s_by_layer=self_by_layer, trace_reference_pipeline_s=reference)
        tracer.write(stem + ".spans.jsonl")
    else:
        values = {"setup_s": shown["setup_s"][0], "pipeline_s": pipeline_s,
                  "items_per_s": rates[MAIN_RATE[run.name]][0],
                  "peak_rss_mb": shown["peak_rss_mb"][0]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record["result_metrics"] = metrics
    record["checks"] = [{"check": d, "ok": ok} for d, ok in run.checks]
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print("workload=%s seed=%d trace=%d passes=%d"
          % (run.name, run.seed, args.trace, len(passes)))
    print("env " + json.dumps(record["env"]))
    print("fingerprints " + json.dumps(fingerprints))
    for key, (value, unit) in shown.items():
        print("%-24s %.6g %s" % (key, value, unit))
    if args.trace:
        for layer, value in sorted(self_by_layer.items()):
            print("self_s[%s] %.6g s" % (layer, value))
        if missing:
            print("missing (expected calls not recorded): " + ", ".join(missing))
    bad = [d for d, ok in run.checks if not ok]
    for description in bad:
        print("CHECK FAILED: " + description)
    correct = not bad and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        result = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        code = code or result.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bove", "cli.py")):
        print("error: bove sources not found at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
