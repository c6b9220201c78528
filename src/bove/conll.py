"""CoNLL corpus ingestion: reading, normalization, vocabularies, sentence graphs.

Tokens carry two unary predicates (word type and PoS tag) sharing one id
space; predicates are namespaced "w:" / "p:" so a word and a tag with the
same string never collide.  Relations (dependency labels plus the ADJ
adjacency relation) get their own id space.
"""

import re
from dataclasses import dataclass, field

from .errors import ConllParseError, VocabularyError

UNKNOWN_POSTAG = "UNKNOWN_POSTAG"
UNKNOWN_RELATION = "UNKNOWN_RELATION"
ADJ = "ADJ"
NB = "NB"
PUNCT = "PUNCT"

# Generic unknown-word predicate; always present so inference on a word with
# an unseen tag has somewhere to fall back to.
GENERIC_UNKNOWN_WORD = "UNKNOWN_" + UNKNOWN_POSTAG

_NUMBER_RE = re.compile(r"[+-]?\d[\d.,]*")


@dataclass(frozen=True)
class RawToken:
    """One token of a parsed sentence, 1-based index, 0 head = root."""

    index: int
    form: str
    pos: str
    head: int
    deprel: str


@dataclass(frozen=True)
class ColumnMap:
    """0-based column positions in a tab-separated CoNLL file."""

    id: int = 0
    form: int = 1
    pos: int = 4
    head: int = 8
    deprel: int = 10

    def max_column(self):
        return max(self.id, self.form, self.pos, self.head, self.deprel)


# CoNLL 2009 layout (the default) and the older 2006 layout.
CONLL09_COLUMNS = ColumnMap()
CONLL06_COLUMNS = ColumnMap(id=0, form=1, pos=4, head=6, deprel=7)


def is_number(form):
    """True when the form is an optional sign, digits and digit separators."""
    return bool(_NUMBER_RE.fullmatch(form))


def is_punctuation_tag(pos, punct_tags=None):
    """True when the PoS tag marks punctuation.

    Default trigger: the tag is nonempty and consists solely of
    non-alphanumeric characters.  An explicit tag set overrides this.
    """
    if punct_tags is not None:
        return pos in punct_tags
    return bool(pos) and not any(ch.isalnum() for ch in pos)


def read_conll(stream, columns=CONLL09_COLUMNS):
    """Yield one list of RawToken per sentence from a CoNLL text stream.

    Sentences are separated by blank lines; lines starting with '#' are
    skipped.  Raises ConllParseError (with line number) on malformed lines
    and out-of-range heads.
    """
    need = columns.max_column() + 1
    tokens = []
    start_line = None
    for line_no, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            if tokens:
                _check_sentence(tokens, start_line)
                yield tokens
                tokens = []
                start_line = None
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < need:
            raise ConllParseError(
                "expected at least %d tab-separated columns, got %d"
                % (need, len(cols)),
                line_no,
            )
        try:
            index = int(cols[columns.id])
            head = int(cols[columns.head])
        except ValueError:
            raise ConllParseError(
                "non-numeric token id or head: %r / %r"
                % (cols[columns.id], cols[columns.head]),
                line_no,
            ) from None
        if index < 1:
            raise ConllParseError("token id must be >= 1, got %d" % index, line_no)
        if head < 0:
            raise ConllParseError("head must be >= 0, got %d" % head, line_no)
        if head == index:
            raise ConllParseError("token %d heads itself" % index, line_no)
        if start_line is None:
            start_line = line_no
        tokens.append(
            RawToken(
                index=index,
                form=cols[columns.form],
                pos=cols[columns.pos],
                head=head,
                deprel=cols[columns.deprel],
            )
        )
    if tokens:
        _check_sentence(tokens, start_line)
        yield tokens


def _check_sentence(tokens, start_line):
    n = len(tokens)
    for offset, tok in enumerate(tokens):
        if tok.index != offset + 1:
            raise ConllParseError(
                "token ids not consecutive from 1 (found %d at position %d)"
                % (tok.index, offset + 1),
                (start_line or 0) + offset,
            )
        if tok.head > n:
            raise ConllParseError(
                "head %d out of range for %d-token sentence" % (tok.head, n),
                (start_line or 0) + offset,
            )


@dataclass
class Vocabulary:
    """Dense label-id bijections for predicates and relations, plus counts.

    predicate_ids keys are namespaced ("w:bank", "p:NN") and share the id
    space [0, c); relation_ids map into [0, d).  counts holds final-label
    frequencies under the same namespaced keys ("r:" for relations).
    raw_word_counts / raw_pos_counts / raw_relation_counts hold
    pre-threshold counts and drive normalization at lookup time.
    """

    predicate_ids: dict = field(default_factory=dict)
    relation_ids: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    raw_word_counts: dict = field(default_factory=dict)
    raw_pos_counts: dict = field(default_factory=dict)
    raw_relation_counts: dict = field(default_factory=dict)
    word_threshold: int = 2
    pos_threshold: int = 2
    relation_threshold: int = 1000
    punct_tags: frozenset | None = None

    @property
    def c(self):
        return len(self.predicate_ids)

    @property
    def d(self):
        return len(self.relation_ids)

    # -- normalization ----------------------------------------------------

    def normalized_pos(self, pos):
        if self.raw_pos_counts.get(pos, 0) < self.pos_threshold:
            return UNKNOWN_POSTAG
        return pos

    def normalized_word(self, form, pos):
        if is_number(form):
            return NB
        if is_punctuation_tag(pos, self.punct_tags):
            return PUNCT
        if self.raw_word_counts.get(form, 0) < self.word_threshold:
            return "UNKNOWN_" + self.normalized_pos(pos)
        return form

    def normalized_relation(self, deprel):
        if self.raw_relation_counts.get(deprel, 0) < self.relation_threshold:
            return UNKNOWN_RELATION
        return deprel

    # -- id lookups with inference fallback --------------------------------

    def word_predicate_id(self, form, pos):
        label = "w:" + self.normalized_word(form, pos)
        pid = self.predicate_ids.get(label)
        if pid is None:
            # unseen-at-inference word whose UNKNOWN_<POS> variant was never
            # created during training: fall back to the generic unknown word.
            pid = self.predicate_ids.get("w:" + GENERIC_UNKNOWN_WORD)
        if pid is None:
            raise VocabularyError(
                "predicate %r missing and no generic unknown-word fallback" % label
            )
        return pid

    def pos_predicate_id(self, pos):
        label = "p:" + self.normalized_pos(pos)
        pid = self.predicate_ids.get(label)
        if pid is None:
            pid = self.predicate_ids.get("p:" + UNKNOWN_POSTAG)
        if pid is None:
            raise VocabularyError("predicate %r missing and no UNKNOWN_POSTAG" % label)
        return pid

    def relation_id(self, deprel):
        label = self.normalized_relation(deprel)
        rid = self.relation_ids.get(label)
        if rid is None:
            rid = self.relation_ids.get(UNKNOWN_RELATION)
        if rid is None:
            raise VocabularyError("relation %r missing and no UNKNOWN_RELATION" % label)
        return rid

    # -- persistence --------------------------------------------------------

    def save(self, path):
        """Write as UTF-8 text, one "namespace\\tlabel\\tid\\tcount" line per label."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(
                "#thresholds\tword=%d\tpos=%d\trelation=%d\n"
                % (self.word_threshold, self.pos_threshold, self.relation_threshold)
            )
            for label, pid in sorted(self.predicate_ids.items(), key=lambda kv: kv[1]):
                ns, bare = label.split(":", 1)
                f.write("%s\t%s\t%d\t%d\n" % (ns, bare, pid, self.counts.get(label, 0)))
            for label, rid in sorted(self.relation_ids.items(), key=lambda kv: kv[1]):
                f.write("r\t%s\t%d\t%d\n" % (label, rid, self.counts.get("r:" + label, 0)))
            for form, cnt in sorted(self.raw_word_counts.items()):
                f.write("rawW\t%s\t0\t%d\n" % (form, cnt))
            for pos, cnt in sorted(self.raw_pos_counts.items()):
                f.write("rawP\t%s\t0\t%d\n" % (pos, cnt))
            for rel, cnt in sorted(self.raw_relation_counts.items()):
                f.write("rawR\t%s\t0\t%d\n" % (rel, cnt))

    @classmethod
    def load(cls, path):
        vocab = cls()
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    if line.startswith("#thresholds"):
                        for part in line.split("\t")[1:]:
                            key, val = part.split("=")
                            setattr(vocab, key + "_threshold", int(val))
                        continue
                    ns, label, sid, cnt = line.split("\t")
                    sid, cnt = int(sid), int(cnt)
                except ValueError:
                    raise VocabularyError(
                        "%s line %d: malformed vocabulary line %r" % (path, line_no, line)
                    ) from None
                if ns in ("w", "p"):
                    vocab.predicate_ids[ns + ":" + label] = sid
                    vocab.counts[ns + ":" + label] = cnt
                elif ns == "r":
                    vocab.relation_ids[label] = sid
                    vocab.counts["r:" + label] = cnt
                elif ns == "rawW":
                    vocab.raw_word_counts[label] = cnt
                elif ns == "rawP":
                    vocab.raw_pos_counts[label] = cnt
                elif ns == "rawR":
                    vocab.raw_relation_counts[label] = cnt
                else:
                    raise VocabularyError(
                        "%s line %d: unknown namespace %r" % (path, line_no, ns)
                    )
        return vocab


def normalize_token(form, pos, vocab):
    """Normalized (word_label, pos_label) for one token, given corpus counts."""
    return vocab.normalized_word(form, pos), vocab.normalized_pos(pos)


def normalize_relation(deprel, vocab):
    """Normalized relation label, given corpus counts."""
    return vocab.normalized_relation(deprel)


def build_vocabulary(
    corpus,
    word_threshold=2,
    pos_threshold=2,
    relation_threshold=1000,
    punct_tags=None,
):
    """Build a Vocabulary from an iterable of RawToken lists.

    Ids are dense and deterministic: descending final-label frequency, ties
    broken lexicographically.  Always creates NB, PUNCT, the generic
    unknown-word predicate, UNKNOWN_POSTAG, UNKNOWN_RELATION and ADJ.
    """
    vocab = Vocabulary(
        word_threshold=word_threshold,
        pos_threshold=pos_threshold,
        relation_threshold=relation_threshold,
        punct_tags=frozenset(punct_tags) if punct_tags is not None else None,
    )
    sentences = list(corpus)
    if not sentences or all(not s for s in sentences):
        raise VocabularyError("empty corpus")

    # pass 1: raw counts (numbers and punctuation folded before counting,
    # so NB / PUNCT are counted as word types and never thresholded away)
    for sentence in sentences:
        for tok in sentence:
            if is_number(tok.form):
                word = NB
            elif is_punctuation_tag(tok.pos, vocab.punct_tags):
                word = PUNCT
            else:
                word = tok.form
            vocab.raw_word_counts[word] = vocab.raw_word_counts.get(word, 0) + 1
            vocab.raw_pos_counts[tok.pos] = vocab.raw_pos_counts.get(tok.pos, 0) + 1
            if tok.head != 0:
                vocab.raw_relation_counts[tok.deprel] = (
                    vocab.raw_relation_counts.get(tok.deprel, 0) + 1
                )
        if len(sentence) >= 2:
            vocab.raw_relation_counts[ADJ] = (
                vocab.raw_relation_counts.get(ADJ, 0) + len(sentence) - 1
            )

    # pass 2: final-label counts after thresholding
    counts = vocab.counts
    for sentence in sentences:
        for tok in sentence:
            wl, pl = normalize_token(tok.form, tok.pos, vocab)
            counts["w:" + wl] = counts.get("w:" + wl, 0) + 1
            counts["p:" + pl] = counts.get("p:" + pl, 0) + 1
            if tok.head != 0:
                rl = normalize_relation(tok.deprel, vocab)
                counts["r:" + rl] = counts.get("r:" + rl, 0) + 1
        if len(sentence) >= 2:
            counts["r:" + ADJ] = counts.get("r:" + ADJ, 0) + len(sentence) - 1

    for always in ("w:" + NB, "w:" + PUNCT, "w:" + GENERIC_UNKNOWN_WORD,
                   "p:" + UNKNOWN_POSTAG, "r:" + UNKNOWN_RELATION, "r:" + ADJ):
        counts.setdefault(always, 0)

    predicates = sorted(
        (label for label in counts if label[0] in "wp"),
        key=lambda lab: (-counts[lab], lab),
    )
    vocab.predicate_ids = {label: i for i, label in enumerate(predicates)}
    relations = sorted(
        (label[2:] for label in counts if label.startswith("r:")),
        key=lambda lab: (-counts["r:" + lab], lab),
    )
    vocab.relation_ids = {label: i for i, label in enumerate(relations)}
    return vocab


@dataclass(frozen=True)
class SentenceGraph:
    """Discrete sentence graph: predicate-id pairs per token, relation triples.

    tokens[t] = (word_predicate_id, pos_predicate_id); relations are
    (relation_id, head_index, dependent_index) with 0-based token indices.
    """

    tokens: tuple
    relations: tuple

    def __len__(self):
        return len(self.tokens)


def to_sentence_graph(tokens, vocab):
    """Encode one RawToken list as a SentenceGraph.

    Each non-root head contributes one dependency triple; consecutive tokens
    contribute directed ADJ triples (i -> i+1); root attachments contribute
    nothing.  Raises VocabularyError on a vocabulary/corpus mismatch.
    """
    n = len(tokens)
    preds = []
    triples = set()
    for tok in tokens:
        preds.append(
            (vocab.word_predicate_id(tok.form, tok.pos), vocab.pos_predicate_id(tok.pos))
        )
        if tok.head != 0:
            triples.add((vocab.relation_id(tok.deprel), tok.head - 1, tok.index - 1))
    adj = vocab.relation_ids.get(ADJ)
    if adj is None:
        raise VocabularyError("vocabulary lacks the ADJ relation")
    for i in range(n - 1):
        triples.add((adj, i, i + 1))
    return SentenceGraph(tokens=tuple(preds), relations=tuple(sorted(triples)))
