"""CoNLL corpus ingestion: reading, normalization, vocabularies, sentence graphs.

Tokens carry two unary predicates (word type and PoS tag) sharing one id
space; predicates are namespaced "w:" / "p:" so a word and a tag with the
same string never collide.  Relations (dependency labels plus the ADJ
adjacency relation) get their own id space.
"""

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .encoding import text_lines
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


def is_punctuation_tag(pos):
    """True when the PoS tag is nonempty and has no alphanumeric character."""
    return bool(pos) and not any(ch.isalnum() for ch in pos)


def _word_class(form, pos):
    """NB for a number, PUNCT for a punctuation tag, else None: a plain word,
    even when its form is literally "NB" or "PUNCT"."""
    if is_number(form):
        return NB
    if is_punctuation_tag(pos):
        return PUNCT
    return None


def read_conll(stream, columns=CONLL09_COLUMNS, path=None):
    """Yield one list of RawToken per sentence from a CoNLL text stream.

    Sentences are separated by blank lines; lines starting with '#' are
    skipped.  Raises ConllParseError on malformed lines and out-of-range
    heads, naming the line and path, the file the stream reads, if given.
    """
    need = columns.max_column() + 1
    tokens, token_lines = [], []
    # the blank line chained after the stream ends its last sentence
    for line_no, line in enumerate(chain(stream, [""]), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            if tokens:
                _check_sentence(tokens, token_lines, path)
                yield tokens
                tokens, token_lines = [], []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < need:
            raise ConllParseError(
                "expected at least %d tab-separated columns, got %d"
                % (need, len(cols)),
                line_no, path,
            )
        try:
            index = int(cols[columns.id])
            head = int(cols[columns.head])
        except ValueError:
            raise ConllParseError(
                "non-numeric token id or head: %r / %r"
                % (cols[columns.id], cols[columns.head]),
                line_no, path,
            ) from None
        if index < 1:
            raise ConllParseError("token id must be >= 1, got %d" % index, line_no, path)
        if head < 0:
            raise ConllParseError("head must be >= 0, got %d" % head, line_no, path)
        if head == index:
            raise ConllParseError("token %d heads itself" % index, line_no, path)
        token_lines.append(line_no)
        tokens.append(
            RawToken(
                index=index,
                form=cols[columns.form],
                pos=cols[columns.pos],
                head=head,
                deprel=cols[columns.deprel],
            )
        )


def _check_sentence(tokens, token_lines, path):
    n = len(tokens)
    for position, (tok, line_no) in enumerate(zip(tokens, token_lines), start=1):
        if tok.index != position:
            raise ConllParseError(
                "token ids not consecutive from 1 (found %d at position %d)"
                % (tok.index, position),
                line_no, path,
            )
        if tok.head > n:
            raise ConllParseError(
                "head %d out of range for %d-token sentence" % (tok.head, n),
                line_no, path,
            )


def _frequent(label, raw_counts, threshold, unknown):
    """label when its raw count reaches threshold, else the unknown label."""
    return label if raw_counts.get(label, 0) >= threshold else unknown


def _lookup(ids, label, fallback):
    """Id of label, else of its fallback; VocabularyError when neither exists."""
    found = ids.get(label, ids.get(fallback))
    if found is None:
        raise VocabularyError("label %r missing and no fallback %r" % (label, fallback))
    return found


# Vocabulary file namespace -> (Vocabulary field, key prefix there; None for the
# raw counts, whose lines carry id 0).  An id line's count is in counts["ns:label"].
_NAMESPACES = {
    "w": ("predicate_ids", "w:"),
    "p": ("predicate_ids", "p:"),
    "r": ("relation_ids", ""),
    "rawW": ("raw_word_counts", None),
    "rawP": ("raw_pos_counts", None),
    "rawR": ("raw_relation_counts", None),
}
_FILE_ORDER = list(dict.fromkeys(name for name, _ in _NAMESPACES.values()))


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

    @property
    def c(self):
        return len(self.predicate_ids)

    @property
    def d(self):
        return len(self.relation_ids)

    # -- normalization ----------------------------------------------------

    def normalized_pos(self, pos):
        return _frequent(pos, self.raw_pos_counts, self.pos_threshold, UNKNOWN_POSTAG)

    def normalized_word(self, form, pos):
        return _word_class(form, pos) or _frequent(
            form, self.raw_word_counts, self.word_threshold,
            "UNKNOWN_" + self.normalized_pos(pos))

    def normalized_relation(self, deprel):
        return _frequent(deprel, self.raw_relation_counts, self.relation_threshold,
                         UNKNOWN_RELATION)

    # -- id lookups with inference fallback --------------------------------

    def word_predicate_id(self, form, pos):
        return _lookup(self.predicate_ids, "w:" + self.normalized_word(form, pos),
                       "w:" + GENERIC_UNKNOWN_WORD)

    def pos_predicate_id(self, pos):
        return _lookup(self.predicate_ids, "p:" + self.normalized_pos(pos),
                       "p:" + UNKNOWN_POSTAG)

    def relation_id(self, deprel):
        return _lookup(self.relation_ids, self.normalized_relation(deprel),
                       UNKNOWN_RELATION)

    # -- persistence --------------------------------------------------------

    def save(self, path):
        """Write as UTF-8 text, one "namespace\\tlabel\\tid\\tcount" line per label;
        field by field, ids in id order, raw counts in label order."""
        lines = []
        for ns, (name, prefix) in _NAMESPACES.items():
            order = _FILE_ORDER.index(name)
            for key, value in getattr(self, name).items():
                if prefix is None:
                    lines.append((order, 0, key, ns, value))
                elif key.startswith(prefix):
                    label = key[len(prefix):]
                    lines.append((order, value, label, ns,
                                  self.counts.get(ns + ":" + label, 0)))
        with open(path, "w", encoding="utf-8") as f:
            f.write(
                "#thresholds\tword=%d\tpos=%d\trelation=%d\n"
                % (self.word_threshold, self.pos_threshold, self.relation_threshold)
            )
            for _, sid, label, ns, cnt in sorted(lines):
                f.write("%s\t%s\t%d\t%d\n" % (ns, label, sid, cnt))

    @classmethod
    def load(cls, path):
        """Read a file written by save.  The ids of each space, predicates
        and relations, must map one to one onto [0, c) or [0, d); a repeated
        or out-of-range id raises VocabularyError naming its line."""
        vocab = cls()
        id_lines = {"predicate_ids": {}, "relation_ids": {}}  # space -> {id: its line}
        for line_no, line in text_lines(path):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#thresholds"):
                    for part in line.split("\t")[1:]:
                        key, val = part.split("=")
                        if key not in ("word", "pos", "relation"):
                            raise VocabularyError("%s line %d: unknown threshold %r"
                                                  % (path, line_no, key))
                        setattr(vocab, key + "_threshold", int(val))
                    continue
                ns, label, sid, cnt = line.split("\t")
                sid, cnt = int(sid), int(cnt)
                name, prefix = _NAMESPACES[ns]
            except ValueError:
                raise VocabularyError(
                    "%s line %d: malformed vocabulary line %r" % (path, line_no, line)
                ) from None
            except KeyError:
                raise VocabularyError(
                    "%s line %d: unknown namespace %r" % (path, line_no, ns)
                ) from None
            if prefix is None:
                getattr(vocab, name)[label] = cnt
                continue
            seen = id_lines[name]
            if sid in seen:
                raise VocabularyError("%s line %d: %s id %d already given on line %d"
                                      % (path, line_no, name[:-4], sid, seen[sid]))
            seen[sid] = line_no
            getattr(vocab, name)[prefix + label] = sid
            vocab.counts[ns + ":" + label] = cnt
        # distinct ids, at least one per label, are onto [0, size) when all lie in it
        for name, seen in id_lines.items():
            size = len(getattr(vocab, name))
            for sid, line_no in seen.items():
                if not 0 <= sid < size:
                    raise VocabularyError("%s line %d: %s id %d out of range [0, %d)"
                                          % (path, line_no, name[:-4], sid, size))
        return vocab


def build_vocabulary(corpus, word_threshold=2, pos_threshold=2, relation_threshold=1000):
    """Build a Vocabulary from an iterable of RawToken lists.

    Ids are dense and deterministic: descending final-label frequency, ties
    broken lexicographically.  Always creates NB, PUNCT, the generic
    unknown-word predicate, UNKNOWN_POSTAG, UNKNOWN_RELATION and ADJ.
    """
    sentences = list(corpus)
    tokens = [tok for sentence in sentences for tok in sentence]
    if not tokens:
        raise VocabularyError("empty corpus")
    adjacent = sum(max(len(sentence) - 1, 0) for sentence in sentences)
    dependencies = [tok for tok in tokens if tok.head != 0]

    # raw counts: numbers and punctuation are counted as their class, so NB
    # and PUNCT are word types that are never thresholded away
    vocab = Vocabulary(
        raw_word_counts=Counter(_word_class(t.form, t.pos) or t.form for t in tokens),
        raw_pos_counts=Counter(t.pos for t in tokens),
        raw_relation_counts=Counter([t.deprel for t in dependencies] + [ADJ] * adjacent),
        word_threshold=word_threshold,
        pos_threshold=pos_threshold,
        relation_threshold=relation_threshold,
    )

    # final-label counts after thresholding; the labels listed always get an id
    counts = vocab.counts = Counter(dict.fromkeys(
        ("w:" + NB, "w:" + PUNCT, "w:" + GENERIC_UNKNOWN_WORD, "p:" + UNKNOWN_POSTAG,
         "r:" + UNKNOWN_RELATION), 0))
    counts.update("w:" + vocab.normalized_word(t.form, t.pos) for t in tokens)
    counts.update("p:" + vocab.normalized_pos(t.pos) for t in tokens)
    counts.update("r:" + vocab.normalized_relation(t.deprel) for t in dependencies)
    counts["r:" + ADJ] += adjacent

    ranked = sorted(counts, key=lambda label: (-counts[label], label))
    vocab.predicate_ids = {label: i for i, label in
                           enumerate(lab for lab in ranked if lab[0] in "wp")}
    vocab.relation_ids = {label[2:]: i for i, label in
                          enumerate(lab for lab in ranked if lab[0] == "r")}
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
