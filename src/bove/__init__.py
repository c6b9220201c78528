"""Bag-of-vector embeddings of labeled linguistic graphs.

Trains type embeddings (predicate vectors, relation matrices) from a parsed
corpus by tensor factorization, infers per-token vector bags for new
sentences with the type embeddings frozen, and scores sentence pairs by
vector-bag alignment.
"""

from .conll import (
    RawToken,
    SentenceGraph,
    Vocabulary,
    build_vocabulary,
    read_conll,
    to_sentence_graph,
)
from .encoding import (
    SparsePropertyMatrix,
    SparseRelationTensor,
    encode,
    reconstruction_loss,
)
from .model import (
    Hyperparams,
    TypeEmbeddings,
    init_for_training,
    load_model,
    load_pretrained,
    save_model,
)
from .als import (
    averaged_E_step,
    train,
    update_E_sentence,
    update_P,
    update_R,
)
from .sgd import SgdConfig, sgd_step, train_sgd
from .inference import infer_bove, infer_corpus
from .scoring import (
    average_precision,
    cosine,
    evaluate_snli,
    evaluate_sts,
    pearson,
    score_entailment,
    score_similarity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
