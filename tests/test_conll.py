import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from bove.conll import (
    ADJ,
    CONLL09_COLUMNS,
    GENERIC_UNKNOWN_WORD,
    RawToken,
    Vocabulary,
    build_vocabulary,
    is_number,
    is_punctuation_tag,
    read_conll,
    to_sentence_graph,
)
from bove.errors import ConllParseError, VocabularyError


def tok(i, form, pos="NN", head=0, deprel="ROOT"):
    return RawToken(index=i, form=form, pos=pos, head=head, deprel=deprel)


def simple_corpus():
    # "the bank holds money ."  x2 plus a hapax sentence
    s1 = [
        tok(1, "the", "DT", 2, "NMOD"),
        tok(2, "bank", "NN", 3, "SBJ"),
        tok(3, "holds", "VBZ", 0, "ROOT"),
        tok(4, "money", "NN", 3, "OBJ"),
        tok(5, ".", ".", 3, "P"),
    ]
    s2 = [
        tok(1, "the", "DT", 2, "NMOD"),
        tok(2, "bank", "NN", 3, "SBJ"),
        tok(3, "holds", "VBZ", 0, "ROOT"),
        tok(4, "3.14", "CD", 3, "OBJ"),
        tok(5, ".", ".", 3, "P"),
    ]
    s3 = [
        tok(1, "xylophone", "NN", 0, "ROOT"),
    ]
    return [s1, s2, s3]


def small_vocab(relation_threshold=1):
    return build_vocabulary(simple_corpus(), relation_threshold=relation_threshold)


class TestNormalization:
    def test_number_maps_to_nb(self):
        vocab = small_vocab()
        assert vocab.normalized_word("3.14", "CD") == "NB"

    def test_hapax_maps_to_unknown_pos(self):
        vocab = small_vocab()
        assert vocab.normalized_word("xylophone", "NN") == "UNKNOWN_NN"

    def test_frequent_word_passes_through(self):
        vocab = small_vocab()
        assert vocab.normalized_word("bank", "NN") == "bank"
        assert vocab.normalized_pos("NN") == "NN"

    def test_punctuation_maps_to_punct(self):
        vocab = small_vocab()
        assert vocab.normalized_word(".", ".") == "PUNCT"

    def test_rare_pos_maps_to_unknown_postag(self):
        vocab = small_vocab()
        assert vocab.normalized_pos("CD") == "UNKNOWN_POSTAG"

    def test_relation_above_threshold_passes(self):
        vocab = small_vocab(relation_threshold=1)
        assert vocab.normalized_relation("SBJ") == "SBJ"

    def test_relation_below_threshold_maps_to_unknown(self):
        vocab = small_vocab(relation_threshold=1000)
        assert vocab.normalized_relation("GAP-LOC") == "UNKNOWN_RELATION"

    def test_empty_relation_label(self):
        vocab = small_vocab()
        assert vocab.normalized_relation("") == "UNKNOWN_RELATION"

    def test_is_number(self):
        assert is_number("3.14")
        assert is_number("1,000")
        assert is_number("-7")
        assert not is_number("3rd")
        assert not is_number("three")

    def test_is_punctuation_tag(self):
        assert is_punctuation_tag(".")
        assert is_punctuation_tag("``")
        assert not is_punctuation_tag("NN")
        assert not is_punctuation_tag("")


class TestReadConll:
    def make_line(self, i, form, pos, head, deprel):
        cols = ["_"] * 12
        cols[0], cols[1], cols[4] = str(i), form, pos
        cols[8], cols[10] = str(head), deprel
        return "\t".join(cols)

    def test_two_sentences(self):
        text = "\n".join(
            [
                self.make_line(1, "a", "DT", 0, "ROOT"),
                "",
                self.make_line(1, "b", "NN", 0, "ROOT"),
                "",
            ]
        )
        sentences = list(read_conll(io.StringIO(text)))
        assert len(sentences) == 2
        assert sentences[0][0].form == "a"

    def test_empty_stream(self):
        assert list(read_conll(io.StringIO(""))) == []

    def test_head_out_of_range(self):
        text = "\n".join(
            [
                self.make_line(1, "a", "DT", 7, "NMOD"),
                self.make_line(2, "b", "NN", 0, "ROOT"),
                self.make_line(3, "c", "NN", 1, "OBJ"),
            ]
        )
        with pytest.raises(ConllParseError, match="line"):
            list(read_conll(io.StringIO(text)))

    @pytest.mark.parametrize("before, between, bad_line", [
        ([], [], 2),
        (["# comment"], [], 3),
        ([], ["# comment"], 3),
        ([], ["# one", "# two"], 4),
    ])
    def test_bad_token_reports_its_own_line(self, before, between, bad_line):
        # head 9 on token 2, after comment lines before or between the tokens
        lines = (before + [self.make_line(1, "a", "DT", 0, "ROOT")] + between
                 + [self.make_line(2, "b", "NN", 9, "OBJ")])
        with pytest.raises(ConllParseError, match="^line %d: head 9" % bad_line):
            list(read_conll(io.StringIO("\n".join(lines) + "\n")))

    def test_non_numeric_head(self):
        text = self.make_line(1, "a", "DT", 0, "ROOT").replace("\t0\t", "\tx\t")
        with pytest.raises(ConllParseError, match="line 1"):
            list(read_conll(io.StringIO(text)))

    def test_too_few_columns(self):
        with pytest.raises(ConllParseError, match="columns"):
            list(read_conll(io.StringIO("1\ta\n")))

    def test_self_heading_token(self):
        with pytest.raises(ConllParseError):
            list(read_conll(io.StringIO(self.make_line(1, "a", "DT", 1, "X"))))

    def test_default_columns_are_conll09(self):
        assert CONLL09_COLUMNS.head == 8
        assert CONLL09_COLUMNS.deprel == 10


class TestBuildVocabulary:
    def test_empty_corpus_rejected(self):
        with pytest.raises(VocabularyError):
            build_vocabulary([])

    def test_hapax_creates_unknown_variant(self):
        vocab = small_vocab()
        assert "w:UNKNOWN_NN" in vocab.predicate_ids

    def test_adj_always_present(self):
        vocab = small_vocab()
        assert ADJ in vocab.relation_ids

    def test_always_created_labels(self):
        vocab = small_vocab()
        for label in ("w:NB", "w:PUNCT", "w:" + GENERIC_UNKNOWN_WORD,
                      "p:UNKNOWN_POSTAG"):
            assert label in vocab.predicate_ids
        assert "UNKNOWN_RELATION" in vocab.relation_ids

    def test_ids_dense_and_bijective(self):
        vocab = small_vocab()
        assert sorted(vocab.predicate_ids.values()) == list(range(vocab.c))
        assert sorted(vocab.relation_ids.values()) == list(range(vocab.d))

    def test_no_threshold_yields_no_unknown_words(self):
        corpus = [simple_corpus()[0], simple_corpus()[0]]
        vocab = build_vocabulary(corpus, word_threshold=1, pos_threshold=1,
                                 relation_threshold=1)
        unknown_words = [
            lab for lab in vocab.predicate_ids
            if lab.startswith("w:UNKNOWN") and vocab.counts.get(lab, 0) > 0
        ]
        assert unknown_words == []

    def test_determinism(self):
        v1 = small_vocab()
        v2 = small_vocab()
        assert v1.predicate_ids == v2.predicate_ids
        assert v1.relation_ids == v2.relation_ids

    def test_threshold_monotonicity(self):
        low = build_vocabulary(simple_corpus(), word_threshold=1)
        high = build_vocabulary(simple_corpus(), word_threshold=5)
        assert high.c <= low.c

    def test_save_load_round_trip(self, tmp_path):
        vocab = small_vocab()
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.predicate_ids == vocab.predicate_ids
        assert loaded.relation_ids == vocab.relation_ids
        assert loaded.counts == vocab.counts
        assert loaded.word_threshold == vocab.word_threshold
        assert loaded.raw_word_counts == vocab.raw_word_counts

    @pytest.mark.parametrize("key", ["bogus", "word_threshold", "Word", ""])
    def test_unknown_threshold_key_is_refused(self, tmp_path, key):
        # only word, pos and relation thresholds exist; setattr would take any key
        path = tmp_path / "vocab.txt"
        path.write_text("p\tNN\t0\t4\n#thresholds\tword=2\t%s=5\n" % key)
        with pytest.raises(VocabularyError,
                           match=re.escape("vocab.txt line 2: unknown threshold %r" % key)):
            Vocabulary.load(path)


# Vocabulary.save output for small_vocab(), recorded before the namespace
# table drove save and load; the file format must not drift.
GOLDEN_VOCAB_TEXT = (
    "#thresholds\tword=2\tpos=2\trelation=1\n"
    "p\tNN\t0\t4\n"
    "p\t.\t1\t2\n"
    "p\tDT\t2\t2\n"
    "p\tVBZ\t3\t2\n"
    "w\tPUNCT\t4\t2\n"
    "w\tUNKNOWN_NN\t5\t2\n"
    "w\tbank\t6\t2\n"
    "w\tholds\t7\t2\n"
    "w\tthe\t8\t2\n"
    "p\tUNKNOWN_POSTAG\t9\t1\n"
    "w\tNB\t10\t1\n"
    "w\tUNKNOWN_UNKNOWN_POSTAG\t11\t0\n"
    "r\tADJ\t0\t8\n"
    "r\tNMOD\t1\t2\n"
    "r\tOBJ\t2\t2\n"
    "r\tP\t3\t2\n"
    "r\tSBJ\t4\t2\n"
    "r\tUNKNOWN_RELATION\t5\t0\n"
    "rawW\tNB\t0\t1\n"
    "rawW\tPUNCT\t0\t2\n"
    "rawW\tbank\t0\t2\n"
    "rawW\tholds\t0\t2\n"
    "rawW\tmoney\t0\t1\n"
    "rawW\tthe\t0\t2\n"
    "rawW\txylophone\t0\t1\n"
    "rawP\t.\t0\t2\n"
    "rawP\tCD\t0\t1\n"
    "rawP\tDT\t0\t2\n"
    "rawP\tNN\t0\t4\n"
    "rawP\tVBZ\t0\t2\n"
    "rawR\tADJ\t0\t8\n"
    "rawR\tNMOD\t0\t2\n"
    "rawR\tOBJ\t0\t2\n"
    "rawR\tP\t0\t2\n"
    "rawR\tSBJ\t0\t2\n"
)


def test_save_matches_recorded_text(tmp_path):
    path = tmp_path / "vocab.txt"
    small_vocab().save(path)
    assert path.read_text(encoding="utf-8") == GOLDEN_VOCAB_TEXT


class TestWordFoldCollisions:
    """Forms that collide with the folded classes NB and PUNCT."""

    # NB and PUNCT each have raw count 1 here (one literal "NB", one literal
    # "PUNCT" tagged as punctuation), below the word threshold 2.
    CORPUS = [
        [tok(1, "NB", "NN"), tok(2, "PUNCT", ".", 1, "P"), tok(3, "bank", "NN", 1, "NMOD")],
        [tok(1, "bank", "NN")],
    ]
    TAGS = ("NN", ".", "CD", "")
    # normalized_word per tag in TAGS, recorded before the word fold was shared
    RECORDED = {
        "NB": ("UNKNOWN_NN", "PUNCT", "UNKNOWN_UNKNOWN_POSTAG", "UNKNOWN_UNKNOWN_POSTAG"),
        "PUNCT": ("UNKNOWN_NN", "PUNCT", "UNKNOWN_UNKNOWN_POSTAG", "UNKNOWN_UNKNOWN_POSTAG"),
        "7": ("NB", "NB", "NB", "NB"),
        "bank": ("bank", "PUNCT", "bank", "bank"),
        "zzz": ("UNKNOWN_NN", "PUNCT", "UNKNOWN_UNKNOWN_POSTAG", "UNKNOWN_UNKNOWN_POSTAG"),
    }

    def test_recorded_table(self):
        vocab = build_vocabulary(self.CORPUS, relation_threshold=1)
        assert vocab.raw_word_counts == {"NB": 1, "PUNCT": 1, "bank": 2}
        for form, expected in self.RECORDED.items():
            assert tuple(vocab.normalized_word(form, pos) for pos in self.TAGS) == expected


def reference_normalized_word(vocab, form, pos):
    """The word rule spelled out: a number is NB, then a punctuation tag is
    PUNCT, then a form seen fewer than word_threshold times is UNKNOWN_<tag>."""
    if is_number(form):
        return "NB"
    if pos and not any(ch.isalnum() for ch in pos):
        return "PUNCT"
    if vocab.raw_word_counts.get(form, 0) < vocab.word_threshold:
        return "UNKNOWN_" + vocab.normalized_pos(pos)
    return form


colliding_forms = st.sampled_from(["NB", "PUNCT", "7", "-1,5", ".", "bank", "UNKNOWN_NN"])
colliding_tags = st.sampled_from(["NN", "CD", ".", ",", "``", "NB", "PUNCT", ""])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.tuples(colliding_forms, colliding_tags), min_size=1, max_size=5),
             min_size=1, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(colliding_forms, colliding_tags), min_size=1, max_size=8),
)
def test_normalized_word_on_colliding_forms(corpus, word_threshold, probes):
    sentences = [[tok(i, form, pos) for i, (form, pos) in enumerate(sentence, start=1)]
                 for sentence in corpus]
    vocab = build_vocabulary(sentences, word_threshold=word_threshold)
    for form, pos in probes:
        assert vocab.normalized_word(form, pos) == reference_normalized_word(vocab, form, pos)


class TestSentenceGraph:
    def test_single_token_no_relations(self):
        vocab = small_vocab()
        graph = to_sentence_graph([tok(1, "bank", "NN", 0, "ROOT")], vocab)
        assert graph.relations == ()
        assert len(graph) == 1

    def test_two_token_encoding(self):
        vocab = small_vocab(relation_threshold=1)
        graph = to_sentence_graph(
            [tok(1, "bank", "NN", 0, "ROOT"), tok(2, "holds", "VBZ", 1, "SBJ")],
            vocab,
        )
        sbj = vocab.relation_ids["SBJ"]
        adj = vocab.relation_ids[ADJ]
        assert set(graph.relations) == {(sbj, 0, 1), (adj, 0, 1)}

    def test_adjacency_count(self):
        vocab = small_vocab()
        graph = to_sentence_graph(simple_corpus()[0], vocab)
        adj = vocab.relation_ids[ADJ]
        assert sum(1 for rel, _, _ in graph.relations if rel == adj) == 4

    def test_unseen_word_falls_back(self):
        vocab = small_vocab()
        # unseen word with an unseen tag: falls back to the generic unknown
        graph = to_sentence_graph([tok(1, "zzz", "ZZTAG", 0, "ROOT")], vocab)
        assert graph.tokens[0][0] == vocab.predicate_ids["w:" + GENERIC_UNKNOWN_WORD]
        assert graph.tokens[0][1] == vocab.predicate_ids["p:UNKNOWN_POSTAG"]

    def test_ids_in_range_property(self):
        vocab = small_vocab()
        for sentence in simple_corpus():
            graph = to_sentence_graph(sentence, vocab)
            for wid, pid in graph.tokens:
                assert 0 <= wid < vocab.c
                assert 0 <= pid < vocab.c
            for rel, h, dep in graph.relations:
                assert 0 <= rel < vocab.d
                assert 0 <= h < len(graph)
                assert 0 <= dep < len(graph)


words = st.sampled_from(["the", "bank", "holds", "cat", "3", ".", "runs", "qq"])
tags = st.sampled_from(["DT", "NN", "VBZ", "CD", "."])
rels = st.sampled_from(["SBJ", "OBJ", "NMOD", "P"])


@st.composite
def sentences(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    toks = []
    for i in range(1, n + 1):
        head = draw(st.integers(min_value=0, max_value=n).filter(lambda h: h != i))
        toks.append(
            RawToken(index=i, form=draw(words), pos=draw(tags), head=head,
                     deprel=draw(rels))
        )
    return toks


@settings(max_examples=50, deadline=None)
@given(st.lists(sentences(), min_size=1, max_size=5))
def test_random_corpora_round_trip(corpus):
    vocab = build_vocabulary(corpus, relation_threshold=1)
    for sentence in corpus:
        graph = to_sentence_graph(sentence, vocab)
        n = len(graph)
        assert all(0 <= wid < vocab.c and 0 <= pid < vocab.c
                   for wid, pid in graph.tokens)
        assert all(
            0 <= rel < vocab.d and 0 <= h < n and 0 <= dep < n
            for rel, h, dep in graph.relations
        )
        adj = vocab.relation_ids[ADJ]
        adj_count = sum(1 for rel, _, _ in graph.relations if rel == adj)
        if n >= 2:
            assert adj_count == n - 1
        assert len(set(graph.relations)) == len(graph.relations)
