"""Dependency labeler: one encoded label per arc.

The modifiers of each head form a single chain, sorted by sentence
position regardless of side, and labels are decoded per head with exact
Viterbi; heads are independent of each other.  Scores are a sum of
arc-label features (the parser's 34 arc templates conjoined with the
label) and pairwise features over consecutive chain elements (a POS
triplet and its three unilexical variants, conjoined with the label
pair).  The root word is the single modifier of the virtual root 0 and
gets its label the same way, so a scheme's root-slot labels are learned
like any others.

Ties break toward the first label in the sorted alphabet.
"""

import numpy as np

from .baseline_parser import ROOT_TOKEN, featurize_arc
from .encoding import EncodedDTree
from .errors import ToolkitError
from .kernels import viterbi_chain
from . import perceptron
from .perceptron import DIM_BITS, LinearModel, conjoin_grid, hash_features
from .trees import validate


def featurize_pairwise(sentence, h, m, m2):
    """Features for consecutive modifiers m < m2 of head h: the POS
    triplet (head, earlier, later) and its three unilexical variants."""
    if h == 0:
        hf = hp = ROOT_TOKEN
    else:
        hf, hp = sentence.form(h), sentence.pos(h)
    mf, mp = sentence.form(m), sentence.pos(m)
    m2f, m2p = sentence.form(m2), sentence.pos(m2)
    return [
        'ppp:' + hp + ' ' + mp + ' ' + m2p,
        'wpp:' + hf + ' ' + mp + ' ' + m2p,
        'pwp:' + hp + ' ' + mf + ' ' + m2p,
        'ppw:' + hp + ' ' + mp + ' ' + m2f,
    ]


def _chains(sentence, heads):
    """(head, [modifiers ascending]) for every head with modifiers,
    virtual root included, in ascending head order."""
    by_head = {}
    for m, h in enumerate(heads, 1):
        by_head.setdefault(h, []).append(m)
    return [(h, sorted(ms)) for h, ms in sorted(by_head.items())]


def _chain_index_tables(model, sentence, h, chain, n_labels):
    """Pre-masked weight indices for one chain: unary (T, K, 34) and
    pairwise (T, K*K, 4); pairwise row 0 is unused and stays zero."""
    T = len(chain)
    unary = np.empty((T, n_labels, 34), dtype=np.intp)
    pair = np.zeros((T, n_labels * n_labels, 4), dtype=np.intp)
    for t, m in enumerate(chain):
        hashes = hash_features(featurize_arc(sentence, h, m))
        unary[t] = model.indices(conjoin_grid(hashes, range(n_labels)))
        if t:
            hashes = hash_features(
                featurize_pairwise(sentence, h, chain[t - 1], m))
            pair[t] = model.indices(
                conjoin_grid(hashes, range(n_labels * n_labels)))
    return unary, pair


def _decode_chain(weights, unary, pair, n_labels):
    T = unary.shape[0]
    emis = weights[unary].sum(axis=2)
    trans = weights[pair].sum(axis=2).reshape(T, n_labels, n_labels)
    path, _ = viterbi_chain(emis, trans)
    return path


def _chain_mistakes(model, tree_chains):
    """Decode each chain of one tree in turn; yield the (gold, predicted)
    index rows of every wrong label and every wrong label pair."""
    for unary, pair, gold in tree_chains:
        K = unary.shape[1]
        pred = _decode_chain(model.weights, unary, pair, K)
        for t, (g, p) in enumerate(zip(gold, pred)):
            if g != p:
                yield unary[t, g], unary[t, p]
            if t and (gold[t - 1], g) != (pred[t - 1], p):
                yield (pair[t, gold[t - 1] * K + g],
                       pair[t, pred[t - 1] * K + p])


def train_labeler(corpus, epochs, seed=1):
    """Averaged perceptron over per-head chains with the gold tree
    structure fixed; one example is the set of chains of one tree."""
    corpus = list(corpus)
    if not corpus:
        raise ToolkitError('empty corpus')
    labels = set()
    for enc in corpus:
        problems = validate(enc)
        if problems:
            raise ToolkitError('bad tree in labeler corpus: ' + problems[0])
        labels.update(enc.labels)
    alphabet = sorted(labels)
    label_id = {lab: k for k, lab in enumerate(alphabet)}
    model = LinearModel(DIM_BITS, meta={
        'task': 'labels', 'labels': alphabet, 'hash': 'blake2b-64'})
    examples = []
    for enc in corpus:
        tree_chains = []
        for h, chain in _chains(enc.sentence, enc.heads):
            unary, pair = _chain_index_tables(
                model, enc.sentence, h, chain, len(alphabet))
            gold = [label_id[enc.labels[m - 1]] for m in chain]
            tree_chains.append((unary, pair, gold))
        examples.append(tree_chains)
    return perceptron.train(model, examples, epochs, seed, _chain_mistakes)


def label_tree(sentence, heads, model):
    """Label every arc of a head vector; returns an EncodedDTree."""
    alphabet = model.meta.get('labels', [])
    if not alphabet:
        raise ToolkitError('labeler model has an empty alphabet')
    K = len(alphabet)
    out = [None] * len(sentence)
    for h, chain in _chains(sentence, heads):
        unary, pair = _chain_index_tables(model, sentence, h, chain, K)
        path = _decode_chain(model.weights, unary, pair, K)
        for m, k in zip(chain, path):
            out[m - 1] = alphabet[k]
    return EncodedDTree(sentence, tuple(heads), tuple(out))
