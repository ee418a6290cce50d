"""Dependency labeler: one encoded label per arc.

The modifiers of each head form a single chain, sorted by sentence
position regardless of side, and labels are decoded per head with exact
Viterbi; heads are independent of each other.  One table holds the
chains of a tree, and _tree_tables builds the tables of a block of trees
at once: training those of as many consecutive trees as fit in
perceptron.BLOCK_CELLS table entries, label_tree the block of the one
tree it labels.  _decode_tree gathers a tree's weights once and runs one
Viterbi per chain: label_tree labels a parsed tree that way, and
training decodes each gold tree that way, then makes one update for all
its wrong labels and label pairs.  Scores are a sum of
arc-label features (the parser's 34 arc templates conjoined with the
label) and pairwise features over consecutive chain elements (a POS
triplet and its three unilexical variants, conjoined with the label
pair).  The root word is the single modifier of the virtual root 0 and
gets its label the same way, so a scheme's root-slot labels are learned
like any others.

The labeler hashes no string of its own.  It conjoins each label onto
the (n, 34) arc digests of a tree (from parse_heads, or in training
tree_arc_digests over the block_atoms of each block of trees), and
mixes its pairwise digests from their form and POS templates: a
pairwise feature with prefix key k and parts a, b, c is
mix(mix(mix(a + k) + b) + c), so two pairs share a digest when they
share the string.

Ties break toward the first label in the sorted alphabet.
"""

import numpy as np

from .baseline_parser import (FEATURES_PER_ARC, ROOT_TOKEN, TEMPLATES,
                              block_atoms, tree_arc_digests)
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


def _tree_tables(model, heads, n_labels, arc_digests):
    """The label-chain tables of a block of trees, heads holding the
    head vector of each: one (mods, starts, unary, pair) per tree, mods
    its modifiers by head (the virtual root's first), then by position,
    with chain k at mods[starts[k]:starts[k + 1]]; unary (n, K, 34) and
    pairwise (n, K*K, 4) weight indices (model.indices), whose row at a
    chain start is unused and stays zero.  arc_digests is the (sum of n,
    34) digests of the trees' arcs, tree after tree, row m-1 of a tree
    for the arc into m (tree_arc_digests); the labels are conjoined onto
    them and onto the pairwise digests mixed from them, for the whole
    block in one pass each."""
    first = [0]
    for tree in heads:
        first.append(first[-1] + len(tree))
    # each (tree, head) pair numbered apart, and after the trees before
    head = np.array([a + s + h for s, (a, tree) in enumerate(zip(first, heads))
                     for h in tree], dtype=np.intp)
    mods = head.argsort(kind='stable') + 1  # rows of arc_digests, + 1
    later = np.zeros(len(mods), dtype=bool)
    later[1:] = head[mods[1:] - 1] == head[mods[:-1] - 1]
    unary = model.indices(conjoin_grid(arc_digests[mods - 1],
                                       range(n_labels)))
    pair = np.zeros((len(mods), n_labels * n_labels, PAIR_FEATURES),
                    dtype=np.intp)
    pair[later] = model.indices(conjoin_grid(
        _pair_digests(arc_digests, mods[:-1][later[1:]], mods[later]),
        range(n_labels * n_labels)))
    # the chain starts of the block, each tree's end being the next
    # tree's first start
    starts = np.append((~later).nonzero()[0], len(mods))
    cut = starts.searchsorted(first).tolist()
    return [(mods[a:b] - a, starts[c:d + 1] - a, *tables)
            for a, b, c, d, *tables in zip(
                first, first[1:], cut, cut[1:],
                perceptron.pieces(unary, first),
                perceptron.pieces(pair, first))]


def _decode_tree(weights, tables):
    """The best label id of each of a tree's mods: one gather of its
    weights, then one Viterbi per chain."""
    _, starts, unary, pair = tables
    K = unary.shape[1]
    emis = weights[unary].sum(axis=2)
    trans = weights[pair].sum(axis=2).reshape(len(emis), K, K)
    path = []
    for a, b in zip(starts[:-1], starts[1:]):
        path += viterbi_chain(emis[a:b], trans[a:b])[0]
    return np.array(path, dtype=np.intp)


def _tree_mistakes(model, example):
    """The (gold, predicted) indices of every wrong label and every wrong
    label pair of one tree, decoded whole, or None.  A pair is wrong only
    where one of its labels is."""
    tables, gold = example
    _, starts, unary, pair = tables
    pred = _decode_tree(model.weights, tables)
    wrong = np.flatnonzero(gold != pred)
    if not len(wrong):
        return None
    K = unary.shape[1]
    # a label pair ends at each chain element but the first
    later = np.ones(len(gold), dtype=bool)
    later[starts[:-1]] = False
    gold_pairs = np.roll(gold, 1) * K + gold
    pred_pairs = np.roll(pred, 1) * K + pred
    pairs = np.flatnonzero(later & (gold_pairs != pred_pairs))
    return tuple(np.concatenate((unary[wrong, labels[wrong]].ravel(),
                                 pair[pairs, keys[pairs]].ravel()))
                 for labels, keys in ((gold, gold_pairs),
                                      (pred, pred_pairs)))


def train_labeler(corpus, epochs, seed=1):
    """Averaged structured perceptron over the label chains of whole
    trees, with the gold tree structure fixed: one example, and one
    update, per tree."""
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
    K = len(alphabet)
    examples = []
    for block in perceptron.blocks(
            [len(enc.heads) * (K * FEATURES_PER_ARC + K * K * PAIR_FEATURES)
             for enc in corpus]):
        trees = corpus[block]
        heads = [enc.heads for enc in trees]
        digests = tree_arc_digests(
            block_atoms([enc.sentence for enc in trees]), heads)
        for enc, tables in zip(trees, _tree_tables(model, heads, K,
                                                   digests)):
            gold = np.array([label_id[label] for label in enc.labels])
            examples.append((tables, gold[tables[0] - 1]))
    return perceptron.train(model, examples, epochs, seed, _tree_mistakes)


def label_tree(sentence, heads, model, arc_digests):
    """Label every arc of a head vector, given the (n, 34) digests of
    its arcs that parse_heads returns; returns a DTree of encoded
    labels."""
    alphabet = model.meta.get('labels', [])
    if not alphabet:
        raise ToolkitError('labeler model has an empty alphabet')
    (tables,) = _tree_tables(model, [heads], len(alphabet), arc_digests)
    path = _decode_tree(model.weights, tables)[np.argsort(tables[0])]
    return DTree(sentence, tuple(heads),
                 tuple(alphabet[k] for k in path.tolist()))
