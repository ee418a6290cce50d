"""Unary chain recovery over unaryless constituent trees.

Conversion drops unary nodes, so the pipeline re-inserts them afterwards
with one independent multi-class decision per node: either NULL or a
chain class such as "S->ADJP", read topmost-first (S dominating ADJP
dominating the node).  Candidates at a node are NULL plus the classes
observed in training for that node's symbol.  Both directions key a
chain by the yield of the node below it: unary_chains reads the chains
off a tree, add_chains puts them back on its stripped form.

Classifier: the shared hashed averaged perceptron; every node feature is
conjoined at scoring time with (class, node-is-preterminal) so chains
above POS nodes and above constituents get separate weight.  One path,
_node_rows, takes a block of trees to the weight indices of their nodes
that have a choice, hashing the block's feature strings in one call:
training builds the rows of as many consecutive trees at once as fit in
perceptron.BLOCK_CELLS table entries, and recover the block of the one
tree it restores.  _decide scores a tree's nodes with the same weights:
recover decides a parsed tree that way, and training decides each gold
tree that way before its one update.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError
from . import perceptron
from .perceptron import DIM_BITS, LinearModel, conjoin_grid
from .trees import (
    CTree, PRETERMINAL, PROPER, iter_nodes, proper, strip_unaries)

NULL_CLASS = 'NULL'
CHAIN_SEP = '->'
_NONE = 'NONE'
FEATURES_PER_NODE = 19


@dataclass(frozen=True)
class UnaryData:
    """extract_instances output: instances, one (unaryless tree, its gold
    chains) pair per tree; the class inventory (NULL first, then sorted
    chains); and the symbol -> observed classes map."""
    instances: tuple
    classes: tuple
    allowed: dict


def _with_parents(root):
    """(node, parent, slot) for every node in trees.iter_nodes order, slot
    indexing parent.children; parent and slot are None at the root."""
    stack = [(root, None, None)]
    while stack:
        node, parent, slot = stack.pop()
        yield node, parent, slot
        stack.extend((node.children[k], node, k)
                     for k in reversed(range(len(node.children))))


def _child_labels(node):
    return ' '.join(c.label for c in node.children)


def featurize_node(tree, node, parent, slot):
    """FEATURES_PER_NODE strings describing a node at index `slot` among
    its parent's children (parent and slot None at the root); boundary
    slots fall back to the sentinel NONE so the count is constant."""
    sent = tree.sentence
    par_label = above = _NONE
    left_sib = right_sib = None
    if parent is not None:
        par_label = parent.label
        above = parent.label + CHAIN_SEP + _child_labels(parent)
        sibs = parent.children
        left_sib = sibs[slot - 1] if slot else None
        right_sib = sibs[slot + 1] if slot + 1 < len(sibs) else None
    if node.kind == PRETERMINAL:
        below = node.label + CHAIN_SEP + sent.form(node.head)
    else:
        below = node.label + CHAIN_SEP + _child_labels(node)
    lt = sent.token(min(node.positions))
    rt = sent.token(max(node.positions))

    def opt(v):
        return v if v is not None else _NONE

    feats = [
        'lab:' + node.label,
        'lab,par:' + node.label + ' ' + par_label,
        'lab,sibs:' + node.label + ' '
        + (left_sib.label if left_sib else _NONE) + ' '
        + (right_sib.label if right_sib else _NONE),
        'above:' + above,
        'below:' + below,
        'lw:' + lt.form, 'll:' + opt(lt.lemma),
        'lp:' + lt.pos, 'lm:' + opt(lt.morph),
        'rw:' + rt.form, 'rl:' + opt(rt.lemma),
        'rp:' + rt.pos, 'rm:' + opt(rt.morph),
    ]
    for tag, sib in (('ls', left_sib), ('rs', right_sib)):
        if sib is not None and sib.kind == PRETERMINAL:
            tok = sent.token(sib.head)
            feats += [tag + 'w:' + tok.form, tag + 'l:' + opt(tok.lemma),
                      tag + 'm:' + opt(tok.morph)]
        else:
            feats += [tag + 'w:' + _NONE, tag + 'l:' + _NONE,
                      tag + 'm:' + _NONE]
    return feats


def unary_chains(tree):
    """yield -> chain class of the unary nodes covering exactly that
    yield, topmost first: the chains strip_unaries removes, keyed by the
    yield of the node it keeps below them."""
    chains = {}
    for node in iter_nodes(tree.root):
        if node.kind == PROPER and len(node.children) == 1:
            chains.setdefault(node.positions, []).append(node.label)
    return {y: CHAIN_SEP.join(labels) for y, labels in chains.items()}


def add_chains(tree, chains):
    """Put each chain class of `chains` (yield -> class) on top of the one
    node of an unaryless tree with that yield (its proper nodes have two
    children or more): add_chains(strip_unaries(t), unary_chains(t)) == t."""

    def add(node):
        if node.kind == PROPER:
            node = proper(node.label, node.head,
                          [add(c) for c in node.children])
        cls = chains.get(node.positions)
        if cls:
            for label in reversed(cls.split(CHAIN_SEP)):
                node = proper(label, node.head, (node,))
        return node

    return CTree(add(tree.root), tree.sentence)


def extract_instances(treebank):
    """The training data of the restorer: each tree's unaryless form and
    gold chains (unary_chains), and the classes observed above each
    symbol."""
    instances = []
    observed = {}
    for tree in treebank:
        chains = unary_chains(tree)
        stripped = strip_unaries(tree)
        instances.append((stripped, chains))
        for node in iter_nodes(stripped.root):
            gold = chains.get(node.positions, NULL_CLASS)
            if gold != NULL_CLASS:
                observed.setdefault(node.label, set()).add(gold)
    classes = (NULL_CLASS,) + tuple(
        sorted(set().union(*observed.values())))
    return UnaryData(tuple(instances), classes, observed)


def _node_rows(model, trees):
    """(nodes, rows, allowed) of each of a block of unaryless trees, for
    its nodes that have a class besides NULL to choose, in _with_parents
    order: rows[i, c] are the weight indices of class c at nodes[i], its
    features conjoined with key 2c + preterminal, and allowed[i, c] flags
    the candidates, NULL and the classes observed above the node's
    symbol.  The feature strings of the whole block go through one
    hash_features call, and their digests through one indices call."""
    observed = model.meta['allowed']
    n_classes = len(model.meta['classes'])
    nodes, features, ends = [], [], [0]
    for tree in trees:
        for node, parent, slot in _with_parents(tree.root):
            if any(observed.get(node.label, ())):
                nodes.append(node)
                features += featurize_node(tree, node, parent, slot)
        ends.append(len(nodes))
    hashes = perceptron.hash_features(features).reshape(
        len(nodes), FEATURES_PER_NODE)
    flags = np.array([node.kind == PRETERMINAL for node in nodes], dtype=int)
    rows = model.indices(conjoin_grid(
        hashes, 2 * np.arange(n_classes) + flags[:, None]))
    allowed = np.zeros((len(nodes), n_classes), dtype=bool)
    allowed[:, 0] = True
    for i, node in enumerate(nodes):
        allowed[i, observed[node.label]] = True
    return [(nodes[a:b], *arrays) for a, b, *arrays in zip(
        ends, ends[1:], perceptron.pieces(rows, ends),
        perceptron.pieces(allowed, ends))]


def _decide(weights, rows, allowed):
    """The highest-scoring candidate class of each node, the first on
    ties."""
    scores = weights[rows].sum(axis=2)
    return np.where(allowed, scores, -np.inf).argmax(axis=1)


def _tree_mistakes(model, example):
    """The (gold, predicted) rows of every wrongly decided node of one
    tree, all decided with the same weights, or None."""
    rows, allowed, gold = example
    pred = _decide(model.weights, rows, allowed)
    wrong = np.flatnonzero(gold != pred)
    if not len(wrong):
        return None
    return rows[wrong, gold[wrong]], rows[wrong, pred[wrong]]


def train_unary(data, epochs, seed=1):
    """Averaged structured perceptron over whole trees: every node with a
    choice is decided with the weights at the start of its tree, then the
    tree makes one update.  Each node's candidates are NULL plus the
    classes observed above its symbol."""
    if not data.instances:
        raise ToolkitError('no unary instances')
    class_id = {cls: k for k, cls in enumerate(data.classes)}
    model = LinearModel(DIM_BITS, meta={
        'task': 'unary', 'hash': 'blake2b-64',
        'classes': list(data.classes),
        'allowed': {sym: sorted(class_id[c] for c in classes)
                    for sym, classes in sorted(data.allowed.items())}})
    examples = []
    # a tree of n tokens has at most 2n - 1 nodes once its unaries are gone
    for block in perceptron.blocks(
            [(2 * len(tree.sentence) - 1) * len(data.classes)
             * FEATURES_PER_NODE for tree, _ in data.instances]):
        instances = data.instances[block]
        for (_, chains), (nodes, rows, allowed) in zip(instances, _node_rows(
                model, [tree for tree, _ in instances])):
            gold = np.array([class_id[chains.get(node.positions, NULL_CLASS)]
                             for node in nodes], dtype=np.intp)
            examples.append((rows, allowed, gold))
    return perceptron.train(model, examples, epochs, seed, _tree_mistakes)


def recover(tree, model):
    """Insert predicted unary chains above the nodes of an unaryless
    tree.  Features are read off the input tree, so decisions at distinct
    nodes do not interact: every node that has a class besides NULL to
    choose is decided first, in one batch, and the chains are added
    after."""
    classes = model.meta['classes']
    ((nodes, rows, allowed),) = _node_rows(model, [tree])
    chosen = _decide(model.weights, rows, allowed).tolist()
    return add_chains(tree, {node.positions: classes[k]
                             for node, k in zip(nodes, chosen) if k})
