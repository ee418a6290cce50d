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

The labeler hashes no string.  It conjoins each label onto the (n, 34)
arc digests of a tree (from parse_heads, or tree_arc_digests in
training), and mixes its pairwise digests from their form and POS
templates: a pairwise feature with prefix key k and parts a, b, c is
mix(mix(mix(a + k) + b) + c), so two pairs share a digest when they
share the string.

Ties break toward the first label in the sorted alphabet.
"""

import numpy as np

from .baseline_parser import ROOT_TOKEN, TEMPLATES, tree_arc_digests
from .errors import ToolkitError
from .kernels import viterbi_chain
from . import perceptron
from .perceptron import DIM_BITS, LinearModel, conjoin_grid
from .trees import DTree, validate

PAIR_FEATURES = 4

# featurize_pairwise's features as (prefix, head part, earlier
# modifier's part, later modifier's part), each part by the parser's
# template that holds its digest
_PAIRWISE = (('ppp:', 'hp:', 'mp:', 'mp:'), ('wpp:', 'hf:', 'mp:', 'mp:'),
             ('pwp:', 'hp:', 'mf:', 'mp:'), ('ppw:', 'hp:', 'mp:', 'mf:'))
_PAIR_KEYS = perceptron.hash_features([prefix for prefix, *_ in _PAIRWISE])
_PAIR_COLUMNS = np.array(
    [[[prefix for prefix, _, _ in TEMPLATES].index(part) for part in parts]
     for _, *parts in _PAIRWISE]).T


def featurize_pairwise(sentence, h, m, m2):
    """Features for consecutive modifiers m < m2 of head h: the POS
    triplet (head, earlier, later) and its three unilexical variants.
    The reference definition: _pair_digests mixes the same features
    from digests, and the tests hold it to this function."""
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


def _pair_digests(arc_digests, earlier, later):
    """The (len(earlier), 4) pairwise digests of consecutive modifiers
    earlier[i] < later[i] of one head, from the tree's arc digests."""
    head, mod, mod2 = _PAIR_COLUMNS
    into = arc_digests[earlier - 1]
    digests = perceptron.mix(into[:, head] + _PAIR_KEYS)
    digests = perceptron.mix(digests + into[:, mod])
    return perceptron.mix(digests + arc_digests[later - 1][:, mod2])


def _chains(heads):
    """(head, [modifiers ascending]) for every head with modifiers,
    virtual root included, in ascending head order."""
    by_head = {}
    for m, h in enumerate(heads, 1):
        by_head.setdefault(h, []).append(m)
    return sorted(by_head.items())


def _chain_tables(model, heads, n_labels, arc_digests):
    """(chain, unary, pair) for every chain of a tree, in _chains order,
    with the chain's weight indices (model.indices): unary (T, K, 34)
    and pairwise (T, K*K, 4), whose row 0 is unused and stays zero.
    arc_digests is the (n, 34) digests of the tree's arcs, row m-1 for
    the arc into m; the labels are conjoined onto them and onto the
    pairwise digests mixed from them.  The tables of the chains are
    slices of two sentence tables."""
    chains = _chains(heads)
    mods = np.array([m for _, chain in chains for m in chain],
                    dtype=np.intp)
    unary = model.indices(conjoin_grid(arc_digests[mods - 1],
                                       range(n_labels)))
    pair = np.zeros((len(mods), n_labels * n_labels, PAIR_FEATURES),
                    dtype=np.intp)
    starts = np.cumsum([0] + [len(chain) for _, chain in chains])
    later = np.ones(len(mods), dtype=bool)
    later[starts[:-1]] = False
    pair[later] = model.indices(conjoin_grid(
        _pair_digests(arc_digests, mods[np.roll(later, -1)], mods[later]),
        range(n_labels * n_labels)))
    return [(chain, unary[a:b], pair[a:b])
            for (_, chain), a, b in zip(chains, starts, starts[1:])]


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
    examples = [
        [(unary, pair, [label_id[enc.labels[m - 1]] for m in chain])
         for chain, unary, pair in _chain_tables(
             model, enc.heads, len(alphabet),
             tree_arc_digests(enc.sentence, enc.heads))]
        for enc in corpus]
    return perceptron.train(model, examples, epochs, seed, _chain_mistakes)


def label_tree(sentence, heads, model, arc_digests):
    """Label every arc of a head vector, given the (n, 34) digests of
    its arcs that parse_heads returns; returns a DTree of encoded
    labels."""
    alphabet = model.meta.get('labels', [])
    if not alphabet:
        raise ToolkitError('labeler model has an empty alphabet')
    K = len(alphabet)
    out = [None] * len(sentence)
    for chain, unary, pair in _chain_tables(model, heads, K, arc_digests):
        path = _decode_chain(model.weights, unary, pair, K)
        for m, k in zip(chain, path):
            out[m - 1] = alphabet[k]
    return DTree(sentence, tuple(heads), tuple(out))
