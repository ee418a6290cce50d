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
above POS nodes and above constituents get separate weight.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError
from . import perceptron
from .perceptron import DIM_BITS, LinearModel, conjoin_grid, hash_distinct
from .trees import (
    CTree, PRETERMINAL, PROPER, iter_nodes, proper, strip_unaries)

NULL_CLASS = 'NULL'
CHAIN_SEP = '->'
_NONE = 'NONE'
FEATURES_PER_NODE = 19
MIX_BLOCK = 64  # instances whose keys are mixed at once


@dataclass(frozen=True)
class Instance:
    features: tuple
    symbol: str
    preterminal: bool
    gold: str


@dataclass(frozen=True)
class UnaryData:
    """extract_instances output: instances, the class inventory (NULL
    first, then sorted chains), and the symbol -> observed classes map."""
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
    """One instance per node of each stripped tree; gold class = the
    chain that sat above it in the original, or NULL."""
    instances = []
    observed = {}
    for tree in treebank:
        chains = unary_chains(tree)
        stripped = strip_unaries(tree)
        for node, parent, slot in _with_parents(stripped.root):
            gold = chains.get(node.positions, NULL_CLASS)
            instances.append(Instance(
                tuple(featurize_node(stripped, node, parent, slot)),
                node.label, node.kind == PRETERMINAL, gold))
            if gold != NULL_CLASS:
                observed.setdefault(node.label, set()).add(gold)
    classes = (NULL_CLASS,) + tuple(
        sorted({i.gold for i in instances} - {NULL_CLASS}))
    return UnaryData(tuple(instances), classes, observed)


def _instance_indices(model, instances, n_classes):
    """One (n_classes, 19) array of weight indices per instance,
    under the instance's own preterminal flag: row c scores class c under
    key 2c + preterminal.  The strings of all instances go through one
    hash_distinct call; the keys are mixed in MIX_BLOCK instances at a
    time, so the transient digest grids stay small however many
    instances there are."""
    digests, order = hash_distinct(itertools.chain.from_iterable(
        inst.features for inst in instances))
    hashes = digests[order].reshape(len(instances), FEATURES_PER_NODE)
    flags = np.array([inst.preterminal for inst in instances], dtype=int)
    keys = 2 * np.arange(n_classes) + flags[:, None]
    rows = []
    for start in range(0, len(instances), MIX_BLOCK):
        block = slice(start, start + MIX_BLOCK)
        rows.extend(model.indices(conjoin_grid(hashes[block], keys[block])))
    return rows


def _candidates(model, symbol):
    """Ids of NULL and the classes observed for `symbol`, ascending."""
    return sorted({0, *model.meta['allowed'].get(symbol, ())})


def _best(weights, idx, cand):
    """The highest-scoring candidate class, first on ties."""
    return cand[int(np.argmax(weights[idx[cand]].sum(axis=1)))]


def _instance_mistakes(model, example):
    idx, cand, gold = example
    pred = _best(model.weights, idx, cand)
    if pred != gold:
        yield idx[gold], idx[pred]


def train_unary(data, epochs, seed=1):
    """Averaged multi-class perceptron, candidates restricted per
    instance to NULL plus the classes observed for its symbol."""
    if not data.instances:
        raise ToolkitError('no unary instances')
    class_id = {cls: k for k, cls in enumerate(data.classes)}
    model = LinearModel(DIM_BITS, meta={
        'task': 'unary', 'hash': 'blake2b-64',
        'classes': list(data.classes),
        'allowed': {sym: sorted(class_id[c] for c in classes)
                    for sym, classes in sorted(data.allowed.items())}})
    indices = _instance_indices(model, data.instances, len(data.classes))
    examples = [(idx, _candidates(model, inst.symbol), class_id[inst.gold])
                for idx, inst in zip(indices, data.instances)]
    return perceptron.train(model, examples, epochs, seed,
                            _instance_mistakes)


def recover(tree, model):
    """Insert predicted unary chains above the nodes of an unaryless
    tree.  Features are read off the input tree, so decisions at distinct
    nodes do not interact: every node that has a class besides NULL to
    choose is decided first, in one batch, and the chains are added
    after."""
    classes = model.meta['classes']
    nodes = []
    instances = []
    for node, parent, slot in _with_parents(tree.root):
        cand = _candidates(model, node.label)
        if cand != [0]:
            nodes.append((node.positions, cand))
            instances.append(Instance(
                tuple(featurize_node(tree, node, parent, slot)), node.label,
                node.kind == PRETERMINAL, NULL_CLASS))
    indices = _instance_indices(model, instances, len(classes))
    chosen = {positions: classes[_best(model.weights, idx, cand)]
              for (positions, cand), idx in zip(nodes, indices)}
    return add_chains(tree, {positions: cls for positions, cls
                             in chosen.items() if cls != NULL_CLASS})
