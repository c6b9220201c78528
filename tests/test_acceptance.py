"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from bove import synth
from bove.als import (
    averaged_E_step,
    corpus_objective,
    train,
    update_E_sentence,
    update_P,
    update_R,
)
from bove.conll import RawToken, build_vocabulary, to_sentence_graph
from bove.encoding import (
    SparsePropertyMatrix,
    SparseRelationTensor,
    from_dense,
    reconstruction_loss,
)
from bove.inference import infer_bove
from bove.model import Hyperparams, init_for_training
from bove.scoring import (
    ScoredPair,
    average_precision,
    evaluate_snli,
    pearson,
    score_entailment,
    score_similarity,
)
from bove.sgd import SgdConfig, sample_cells, sampled_loss_and_grads, train_sgd
from oracles import (
    entailment_by_enumeration,
    minimize_p_block,
    minimize_r_block,
    model_of,
    p_block_objective,
    r_block_objective,
    with_hyper,
)


def report(number, name, ok, detail):
    print("criterion %2d (%s): %s — %s" % (number, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (number, name, detail)


def random_instance(rng):
    """One random micro-corpus: dense tensors plus fixed embeddings."""
    s = int(rng.integers(1, 6))
    n = int(rng.integers(1, 6))
    r = int(rng.integers(1, 5))
    c = int(rng.integers(1, 9))
    d = int(rng.integers(1, 4))
    ws = [rng.normal(size=(c, n)) for _ in range(s)]
    xs = [rng.normal(size=(d, n, n)) for _ in range(s)]
    es = [rng.normal(size=(n, r)) for _ in range(s)]
    return ws, xs, es, (s, n, r, c, d)


def sparse_corpus(ws_dense, xs_dense):
    pairs = [from_dense(wd, xd) for wd, xd in zip(ws_dense, xs_dense)]
    return [w for w, _ in pairs], [x for _, x in pairs]


def block_weights(dims, lam_p, lam_r, alpha):
    """A model of zero P and R for dims under the block solves' weights."""
    _, _, r, c, d = dims
    return model_of(np.zeros((c, r)), np.zeros((d, r, r)), lambda_p=lam_p, lambda_r=lam_r,
                    alpha=alpha)


def rel_frobenius(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_criterion_01_closed_form_vs_oracle():
    rng = np.random.default_rng(0)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        ws_dense, xs_dense, es, dims = random_instance(rng)
        ws, xs = sparse_corpus(ws_dense, xs_dense)
        lam_p, lam_r, alpha = 0.2, 0.3, 0.8
        weights = block_weights(dims, lam_p, lam_r, alpha)
        p_closed = update_P(ws, es, weights)
        p_oracle = minimize_p_block(ws_dense, es, lam_p, dims[3], dims[2])
        worst = max(worst, rel_frobenius(p_closed, p_oracle))
        r_closed = update_R(xs, es, weights)
        r_oracle = minimize_r_block(xs_dense, es, lam_r, alpha, dims[4], dims[2])
        worst = max(worst, rel_frobenius(r_closed, r_oracle))
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, "closed-form vs oracle", ok,
           "worst relative error %.3g over 20 instances in %.2fs" % (worst, elapsed))


def test_criterion_02_block_optimality():
    rng = np.random.default_rng(1)
    ws_dense, xs_dense, es, dims = random_instance(rng)
    ws, xs = sparse_corpus(ws_dense, xs_dense)
    lam_p, lam_r, alpha = 0.2, 0.3, 0.8
    weights = block_weights(dims, lam_p, lam_r, alpha)
    p_star = update_P(ws, es, weights)
    r_star = update_R(xs, es, weights)
    f_p = p_block_objective(p_star, ws_dense, es, lam_p)
    f_r = r_block_objective(r_star, xs_dense, es, lam_r, alpha)
    worst_drop = 0.0
    for _ in range(100):
        dp = rng.normal(size=p_star.shape)
        dp *= 1e-3 / np.linalg.norm(dp)
        worst_drop = max(worst_drop,
                         f_p - p_block_objective(p_star + dp, ws_dense, es, lam_p))
        dr = rng.normal(size=r_star.shape)
        dr *= 1e-3 / np.linalg.norm(dr)
        worst_drop = max(worst_drop,
                         f_r - r_block_objective(r_star + dr, xs_dense, es,
                                                 lam_r, alpha))
    ok = worst_drop <= 1e-9
    report(2, "block optimality", ok,
           "largest objective drop %.3g over 100 perturbations each" % worst_drop)


def test_criterion_03_kronecker_vec_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 6))
        r = int(rng.integers(1, 5))
        a = rng.normal(size=(m, r))
        b = rng.normal(size=(r, r))
        lhs = (a @ b @ a.T).ravel()            # row-major vec of A B A^T
        rhs = np.kron(a, a) @ b.ravel()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    report(3, "Kronecker/vec identity", ok,
           "worst elementwise gap %.3g over 50 pairs" % worst)


def exact_fit_hyper():
    return Hyperparams(r=6, lambda_p=1e-6, lambda_r=1e-6, lambda_e=1e-6,
                       rel_improvement_stop=0.0, max_rounds=100)


def test_criterion_04_synthetic_recovery():
    start = time.time()
    hyper = exact_fit_hyper()
    data = synth.generate(7, n_sentences=10, n_tokens=6, c=12, d=3,
                          mode="exact", hyper=hyper)
    ws = [w for _, w, _ in data.sentences]
    xs = [x for _, _, x in data.sentences]
    model = init_for_training(12, 3, hyper, seed=0)
    result = train(ws, xs, model)
    ratio = result.data_fit_trace[-1] / result.data_fit_trace[0]
    elapsed = time.time() - start
    ok = ratio <= 1e-4 and elapsed < 60.0
    report(4, "synthetic recovery", ok,
           "data-fit ratio %.3g after %d rounds in %.2fs"
           % (ratio, len(result.trace) - 1, elapsed))


def trained_exact_model():
    hyper = exact_fit_hyper()
    data = synth.generate(7, n_sentences=10, n_tokens=6, c=12, d=3,
                          mode="exact", hyper=hyper)
    ws = [w for _, w, _ in data.sentences]
    xs = [x for _, _, x in data.sentences]
    model = init_for_training(12, 3, hyper, seed=0)
    return train(ws, xs, model).model, hyper


def test_criterion_05_inference_self_consistency():
    model, hyper = trained_exact_model()
    held_out = synth.generate(8, n_sentences=10, n_tokens=6, c=12, d=3,
                              mode="exact", hyper=hyper)
    worst = 1.0
    for _, w, x in held_out.sentences:
        e30 = infer_bove(w, x, with_hyper(model, inference_iters=30))
        e500 = infer_bove(w, x, with_hyper(model, inference_iters=500))
        l30 = reconstruction_loss(w, x, model, e30)
        l500 = reconstruction_loss(w, x, model, e500)
        if l500 > 0:
            worst = max(worst, l30 / l500)
    ok = worst <= 1.05
    report(5, "inference self-consistency", ok,
           "worst 30-iter/500-iter loss ratio %.4f over 10 held-out sentences" % worst)


def test_criterion_06_averaging_damping():
    # scalar instance: no property signal, one self-edge of -1.5, rho=1,
    # lambda_E=1; the raw refresh e -> -3e/(2e^2+1) flips sign forever from
    # e0=1 while the averaged iteration lands on the fixed point 0
    w = SparsePropertyMatrix(c=1, n=1, rows=np.array([], dtype=np.int64),
                             cols=np.array([], dtype=np.int64))
    x = SparseRelationTensor(d=1, n=1, rels=np.array([0]), heads=np.array([0]),
                             deps=np.array([0]), values=np.array([-1.5]))
    model = model_of(np.zeros((1, 1)), np.ones((1, 1, 1)), alpha=1.0, lambda_e=1.0)
    raw = [np.array([[1.0]])]
    avg = [np.array([[1.0]])]
    for _ in range(10):
        raw.append(update_E_sentence(w, x, model, raw[-1])[0])
        avg.append(averaged_E_step(w, x, model, avg[-1]))
    raw_vals = [float(e[0, 0]) for e in raw]
    avg_err = [abs(float(e[0, 0])) for e in avg]
    oscillates = all(
        abs(abs(v) - 1.0) < 1e-12 for v in raw_vals
    ) and all(raw_vals[i] * raw_vals[i + 1] < 0 for i in range(len(raw_vals) - 1))
    monotone = all(avg_err[i + 1] <= avg_err[i] + 1e-11
                   for i in range(1, len(avg_err) - 1))
    converged = avg_err[-1] < 1e-9
    ok = oscillates and monotone and converged
    report(6, "averaging damping", ok,
           "raw trace sign-alternates at |e|=1; averaged error trace %s -> %.3g"
           % ([round(v, 6) for v in avg_err[:4]], avg_err[-1]))


def test_criterion_07_sgd_gradient_check():
    rng = np.random.default_rng(3)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        c = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        w, x = from_dense((rng.random((c, n)) < 0.5).astype(float),
                          (rng.random((d, n, n)) < 0.4).astype(float))
        hyper = Hyperparams(r=r, alpha=float(rng.uniform(0.5, 1.5)),
                            lambda_p=0.1, lambda_r=0.1, lambda_e=0.1)
        model = init_for_training(c, d, hyper, seed=int(rng.integers(100)))
        model.R = rng.normal(size=model.R.shape) * 0.3
        e_store = [rng.normal(size=(n, r))]
        samples = {0: sample_cells(w, x, 2, rng)}
        args = ([0], samples, model, e_store)
        _, g_p, g_r, g_e = sampled_loss_and_grads(*args)

        def loss():
            return sampled_loss_and_grads(*args)[0]

        for arr, grad in ((model.P, g_p), (model.R, g_r), (e_store[0], g_e[0])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss()
                arr[idx] = orig - h
                down = loss()
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(grad[idx]), 1e-6)
                worst = max(worst, abs(fd - grad[idx]) / denom)
    ok = worst <= 1e-4
    report(7, "SGD gradient check", ok,
           "worst relative error %.3g over 50 micro-instances" % worst)


def test_criterion_08_cross_trainer_agreement():
    hyper = Hyperparams(r=6)
    data = synth.generate(7, n_sentences=10, n_tokens=6, c=12, d=3,
                          mode="exact", hyper=hyper)
    ws = [w for _, w, _ in data.sentences]
    xs = [x for _, _, x in data.sentences]
    als_result = train(ws, xs, init_for_training(12, 3, hyper, seed=0))
    _, obj_als = corpus_objective(ws, xs, als_result.e_store, als_result.model)
    sgd_model, sgd_es, _ = train_sgd(
        ws, xs, init_for_training(12, 3, hyper, seed=0),
        SgdConfig(batch_size=10, learning_rate=0.1, epochs=300, seed=2),
    )
    _, obj_sgd = corpus_objective(ws, xs, sgd_es, sgd_model)
    rel = abs(obj_sgd - obj_als) / obj_als
    ok = rel <= 0.05
    report(8, "cross-trainer agreement", ok,
           "ALS objective %.5f vs SGD %.5f (%.2f%% apart)"
           % (obj_als, obj_sgd, 100 * rel))


def test_criterion_09_scoring_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(30):
        s1 = rng.normal(size=(int(rng.integers(1, 4)), 3))
        s2 = rng.normal(size=(int(rng.integers(1, 4)), 3))
        worst = max(worst, abs(score_entailment(s1, s2)
                               - entailment_by_enumeration(s1, s2)))
    pearson_gap = abs(pearson([0, 1, 1], [0, 0, 1]) - 0.5)
    ap_gap = abs(average_precision([3, 2, 1], [True, False, True]) - 5.0 / 6.0)
    ok = worst <= 1e-12 and pearson_gap <= 1e-12 and ap_gap <= 1e-12
    report(9, "scoring oracles", ok,
           "entailment gap %.3g, pearson gap %.3g, AP gap %.3g"
           % (worst, pearson_gap, ap_gap))


def test_criterion_10_stopping_rule():
    hyper = Hyperparams(r=4, rel_improvement_stop=0.001, max_rounds=500)
    data = synth.generate(9, n_sentences=6, n_tokens=5, c=10, d=2,
                          mode="discrete", hyper=hyper)
    ws = [w for _, w, _ in data.sentences]
    xs = [x for _, _, x in data.sentences]
    lines = []
    result = train(ws, xs, init_for_training(10, 2, hyper, seed=0),
                   log=lines.append)
    last_rel = (result.trace[-2] - result.trace[-1]) / result.trace[-2]
    ok = (result.stopped_by_rule
          and len(result.trace) - 1 < hyper.max_rounds
          and last_rel <= 0.001
          and "rel_improvement=" in lines[-1])
    report(10, "stopping rule", ok,
           "stopped after %d rounds with final relative improvement %.3g"
           % (len(result.trace) - 1, last_rel))


def test_criterion_11_pair_benchmark_ap():
    model, pairs = synth.make_pair_benchmark(3, n_matched=50, n_mismatched=50,
                                             noise=0.05)
    scored = []
    for pid, (w1, x1), (w2, x2), matched in pairs:
        e1 = infer_bove(w1, x1, model)
        e2 = infer_bove(w2, x2, model)
        scored.append(ScoredPair(pid, score_similarity(e1, e2), matched))
    ap = evaluate_snli(scored)
    ok = ap >= 0.9
    report(11, "pair benchmark AP", ok,
           "average precision %.4f on 50+50 matched/mismatched pairs" % ap)


def test_criterion_12_preprocessing_conformance():
    def tok(i, form, pos, head, deprel):
        return RawToken(index=i, form=form, pos=pos, head=head, deprel=deprel)

    sentence = [
        tok(1, "the", "DT", 2, "NMOD"),
        tok(2, "bank", "NN", 3, "SBJ"),
        tok(3, "holds", "VB", 0, "ROOT"),
        tok(4, "42.5", "CD", 3, "OBJ"),
        tok(5, "xylophone", "NN", 4, "NMOD"),
        tok(6, "wug", "ZZ", 3, "OBJ"),
        tok(7, ".", ".", 3, "P"),
    ]
    corpus = [sentence, sentence[:3] + [sentence[-1]]]
    vocab = build_vocabulary(corpus)

    checks = {
        "number -> NB": vocab.normalized_word("42.5", "CD") == "NB",
        "punct -> PUNCT": vocab.normalized_word(".", ".") == "PUNCT",
        "rare word -> UNKNOWN_<POS>":
            vocab.normalized_word("xylophone", "NN") == "UNKNOWN_NN",
        "frequent word kept": vocab.normalized_word("the", "DT") == "the",
        "rare PoS -> UNKNOWN_POSTAG":
            vocab.normalized_pos("ZZ") == "UNKNOWN_POSTAG",
        "rare word under rare PoS":
            vocab.normalized_word("wug", "ZZ") == "UNKNOWN_UNKNOWN_POSTAG",
        "rare relation -> UNKNOWN_RELATION":
            vocab.normalized_relation("NMOD") == "UNKNOWN_RELATION",
    }
    graph = to_sentence_graph(sentence, vocab)
    adj_id = vocab.relation_ids["ADJ"]
    adj_edges = [t for t in graph.relations if t[0] == adj_id]
    checks["ADJ edge count = n-1"] = len(adj_edges) == len(sentence) - 1
    checks["ADJ edges are (i, i+1)"] = (
        sorted((h, d) for _, h, d in adj_edges)
        == [(i, i + 1) for i in range(len(sentence) - 1)]
    )
    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    report(12, "preprocessing conformance", ok,
           "all %d normalization checks hold" % len(checks)
           if ok else "failed: %s" % ", ".join(failed))
