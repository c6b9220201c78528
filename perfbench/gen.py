"""Seeded generator of the benchmark's inputs: CoNLL-09 corpora and sentence pairs.

Every sentence is a dependency tree with one root and no cycle.  Word
frequencies follow a Zipf law within each part-of-speech tag; number (CD)
and punctuation tokens are included so the program's NB and PUNCT folding
runs, rare words become UNKNOWN_<POS>, and one token per training corpus
carries a tag seen only once, so UNKNOWN_POSTAG is exercised too.

The work the program does depends on sentence lengths and on the number of
relation labels d, so both are held fixed across seeds: sentence lengths are
a fixed multiset spread over 5..40 tokens (5..12 in held-out sets, which are
short like sentence-pair test sets), shuffled by the seed, and every one of
the 40 labels occurs at least twice in a training corpus of 8 or more
sentences (the benchmark sets thresholds.relation=2, giving d = 40 + ADJ +
UNKNOWN_RELATION).  The seed moves the words, tags, tree shapes and label
order.

Held-out corpora hold groups of three sentences: a base sentence, a
paraphrase (the same tree with PARAPHRASE_SWAP of its open-class words
replaced by other words of the same tag) and a structural twin (the same
tree with every open-class word redrawn).  Planted pairs join a base and
its paraphrase as positives (SNLI label "entailment"); twins are hard
negatives ("contradiction") and sentences of different groups easy ones
("neutral" or "contradiction").  The STS gold is 5 times the share of kept
tokens within a group, and 5 times the word overlap across groups.

Usage (writes the inputs run.py generates for that workload and seed):
    python3 perfbench/gen.py --workload infer-score --seed 7 --out DIR
"""

import argparse
import os

import numpy as np

LABELS = (
    "NMOD", "P", "PMOD", "SBJ", "OBJ", "ADV", "COORD", "CONJ", "VC", "AMOD",
    "NAME", "TMP", "LOC", "IM", "OPRD", "PRD", "DEP", "DIR", "MNR", "PRP",
    "APPO", "SUB", "HMOD", "HYPH", "SUFFIX", "TITLE", "LGS", "DTV", "EXT",
    "PRT", "POSTHON", "BNF", "PUT", "VOC", "EXTR", "PRN", "GAP-SBJ",
    "LOC-PRD", "ADV-GAP", "DEP-GAP",
)
LABEL_MIN_COUNT = 2

# (tag, share of tokens, word types, open class)
TAGS = (
    ("NN", 0.18, 400, True),
    ("NNS", 0.07, 200, True),
    ("NNP", 0.06, 200, True),
    ("VB", 0.05, 120, True),
    ("VBD", 0.06, 120, True),
    ("VBZ", 0.04, 100, True),
    ("JJ", 0.08, 200, True),
    ("RB", 0.04, 60, True),
    ("IN", 0.12, 20, False),
    ("DT", 0.10, 8, False),
    ("PRP", 0.04, 10, False),
    ("CC", 0.03, 4, False),
    ("CD", 0.05, 0, False),
    (".", 0.03, 0, False),
    (",", 0.05, 0, False),
)
RARE_TAG = "FW"
ZIPF_EXPONENT = 1.1
TRAIN_LENGTHS = (5, 40)
HELDOUT_LENGTHS = (5, 12)
PARAPHRASE_SWAP = 0.3
GROUP = ("base", "paraphrase", "twin")

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "be", "du", "fa", "go")


def _word(tag, rank):
    """Deterministic word form for a tag's rank-th type."""
    parts = [tag.lower()]
    k = rank
    while True:
        parts.append(_SYLLABLES[k % len(_SYLLABLES)])
        k //= len(_SYLLABLES)
        if k == 0:
            break
    return "".join(parts)


class Lexicon:
    """Tag distribution and per-tag Zipf word distributions."""

    def __init__(self):
        self.tags = [t[0] for t in TAGS]
        shares = np.array([t[1] for t in TAGS])
        self.tag_p = shares / shares.sum()
        self.open = {t[0]: t[3] for t in TAGS}
        self.words = {}
        self.word_p = {}
        for tag, _, types, _ in TAGS:
            if types:
                self.words[tag] = [_word(tag, k) for k in range(types)]
                w = 1.0 / np.arange(1, types + 1) ** ZIPF_EXPONENT
                self.word_p[tag] = w / w.sum()
        weights = 1.0 / (np.arange(len(LABELS)) + 4.0)
        self.label_p = weights / weights.sum()

    def form(self, tag, rng):
        if tag == "CD":
            kind = rng.integers(3)
            if kind == 0:
                return str(int(rng.integers(1, 100)))
            if kind == 1:
                return "%d.%d" % (rng.integers(1, 10), rng.integers(10))
            return "%d,%03d" % (rng.integers(1, 10), rng.integers(1000))
        if tag in (".", ","):
            return tag
        words = self.words[tag]
        return words[int(rng.choice(len(words), p=self.word_p[tag]))]


def sentence_lengths(count, span, rng):
    """A fixed multiset of count lengths spread over span, shuffled."""
    lengths = np.rint(np.linspace(span[0], span[1], count)).astype(int)
    return [int(n) for n in rng.permutation(lengths)]


def random_heads(n, rng):
    """0-based head per token (-1 for the root) of a random tree.

    Tokens join in a random order; each attaches to an already placed
    token, preferring near ones, so the result is connected and acyclic.
    """
    order = rng.permutation(n)
    heads = [0] * n
    heads[order[0]] = -1
    placed = [int(order[0])]
    for i in order[1:]:
        i = int(i)
        dist = np.abs(np.array(placed) - i).astype(float)
        w = 1.0 / dist
        heads[i] = placed[int(rng.choice(len(placed), p=w / w.sum()))]
        placed.append(i)
    return heads


def label_sequence(count, lexicon, rng):
    """count labels, with every label at least LABEL_MIN_COUNT times when
    count allows."""
    fixed = [lab for lab in LABELS for _ in range(LABEL_MIN_COUNT)][:count]
    drawn = rng.choice(len(LABELS), size=count - len(fixed), p=lexicon.label_p)
    labels = fixed + [LABELS[k] for k in drawn]
    return [labels[k] for k in rng.permutation(count)]


def make_corpus(count, span, lexicon, rng, rare_tag=False):
    """count sentences as lists of (form, tag, head, deprel), heads 1-based."""
    lengths = sentence_lengths(count, span, rng)
    labels = iter(label_sequence(sum(lengths) - count, lexicon, rng))
    corpus = []
    for n in lengths:
        tags = rng.choice(len(lexicon.tags), size=n, p=lexicon.tag_p)
        heads = random_heads(n, rng)
        sent = []
        for i in range(n):
            tag = lexicon.tags[tags[i]]
            deprel = "ROOT" if heads[i] < 0 else next(labels)
            sent.append([lexicon.form(tag, rng), tag, heads[i] + 1, deprel])
        corpus.append(sent)
    if rare_tag:
        sent = corpus[int(rng.integers(count))]
        sent[int(rng.integers(len(sent)))][1] = RARE_TAG
    return corpus


def paraphrase(sent, lexicon, rng, swap):
    """Same tree and tags, about a share swap of open-class words redrawn."""
    out = []
    for form, tag, head, deprel in sent:
        if lexicon.open.get(tag) and rng.random() < swap:
            form = lexicon.form(tag, rng)
        out.append([form, tag, head, deprel])
    return out


def overlap(a, b):
    """Jaccard overlap of the word types of two sentences."""
    sa = {tok[0] for tok in a}
    sb = {tok[0] for tok in b}
    return len(sa & sb) / len(sa | sb)


def make_pairs(heldout, repeats, rng):
    """STS and SNLI pair rows over the held-out corpus.

    heldout holds groups of len(GROUP) sentences.  Every ordered pair of
    distinct sentences appears `repeats` times under distinct ids.
    """
    sts, snli = [], []
    ids = range(len(heldout))
    for rep in range(repeats):
        for i in ids:
            for j in ids:
                if i == j:
                    continue
                pid = "p%d_%d_%d" % (rep, i, j)
                if i // len(GROUP) == j // len(GROUP):
                    kept = sum(x[0] == y[0] for x, y in zip(heldout[i], heldout[j]))
                    gold = 5.0 * kept / len(heldout[i])
                    twin = "twin" in (GROUP[i % len(GROUP)], GROUP[j % len(GROUP)])
                    label = "contradiction" if twin else "entailment"
                else:
                    gold = 5.0 * overlap(heldout[i], heldout[j])
                    label = ("neutral", "contradiction")[int(rng.integers(2))]
                sts.append((pid, str(i), str(j), "%.4f" % gold))
                snli.append((pid, str(i), str(j), label))
    return sts, snli


def write_conll(path, corpus):
    """CoNLL-09 layout: id, form, pos at column 4, head at 8, deprel at 10."""
    with open(path, "w", encoding="utf-8") as f:
        for sent in corpus:
            for idx, (form, tag, head, deprel) in enumerate(sent, start=1):
                cols = ["_"] * 11
                cols[0], cols[1], cols[4] = str(idx), form, tag
                cols[8], cols[10] = str(head), deprel
                f.write("\t".join(cols) + "\n")
            f.write("\n")


def write_pairs(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write("\t".join(row) + "\tgen\n")


def generate(seed, out, sentences, heldout_bases=0, pair_repeats=0):
    """Write train.conll and, with heldout_bases > 0, heldout.conll and pairs.

    Returns a dict: sentences and tokens, and with a held-out set also
    heldout, heldout_lengths, pairs and positives.
    """
    rng = np.random.default_rng(seed)
    lexicon = Lexicon()
    train = make_corpus(sentences, TRAIN_LENGTHS, lexicon, rng, rare_tag=True)
    write_conll(os.path.join(out, "train.conll"), train)
    info = {"sentences": sentences, "tokens": sum(len(s) for s in train)}
    if heldout_bases:
        bases = make_corpus(heldout_bases, HELDOUT_LENGTHS, lexicon, rng)
        heldout = []
        for sent in bases:
            heldout += [sent, paraphrase(sent, lexicon, rng, PARAPHRASE_SWAP),
                        paraphrase(sent, lexicon, rng, 1.0)]
        write_conll(os.path.join(out, "heldout.conll"), heldout)
        sts, snli = make_pairs(heldout, pair_repeats, rng)
        write_pairs(os.path.join(out, "pairs_sts.tsv"), sts)
        write_pairs(os.path.join(out, "pairs_snli.tsv"), snli)
        info.update(
            heldout=len(heldout),
            heldout_lengths=[len(s) for s in heldout],
            pairs=len(sts),
            positives=sum(row[3] == "entailment" for row in snli),
        )
    return info


def main(argv=None):
    from run import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    print(generate(args.seed, args.out, spec["sentences"], spec.get("heldout_bases", 0),
                   spec.get("pair_repeats", 0)))


if __name__ == "__main__":
    main()
