"""Unary chain recovery over unaryless constituent trees.

Conversion drops unary nodes, so the pipeline re-inserts them afterwards
with one independent multi-class decision per node: either NULL or a
chain class such as "S->ADJP", read topmost-first (S dominating ADJP
dominating the node).  Candidates at a node are NULL plus the classes
observed in training for that node's symbol.

Classifier: the shared hashed averaged perceptron; every node feature is
conjoined at scoring time with (class, node-is-preterminal) so chains
above POS nodes and above constituents get separate weight.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ToolkitError
from . import perceptron
from .perceptron import DIM_BITS, LinearModel, conjoin_grid, hash_features
from .trees import CTree, PRETERMINAL, PROPER, proper, strip_unaries

NULL_CLASS = 'NULL'
CHAIN_SEP = '->'
_NONE = 'NONE'


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
    """(node, parent) for every node, in the order of trees.iter_nodes;
    the root's parent is None."""
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        stack.extend((c, node) for c in reversed(node.children))


def _child_labels(node):
    return ' '.join(c.label for c in node.children)


def featurize_node(tree, node, parent):
    """19 feature strings describing a node under its parent (None at the
    root); boundary slots fall back to the sentinel NONE so the count is
    constant."""
    sent = tree.sentence
    if parent is None:
        par_label = _NONE
        above = _NONE
        left_sib = right_sib = None
    else:
        par_label = parent.label
        above = parent.label + CHAIN_SEP + _child_labels(parent)
        slot = next(i for i, c in enumerate(parent.children) if c is node)
        left_sib = parent.children[slot - 1] if slot else None
        right_sib = (parent.children[slot + 1]
                     if slot + 1 < len(parent.children) else None)
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


def _survivor_chains(tree):
    """yield-set -> unary labels sitting immediately above the node that
    survives stripping, topmost first."""
    chains = {}

    def walk(node, pending):
        if node.kind == PROPER and len(node.children) == 1:
            walk(node.children[0], pending + [node.label])
            return
        if pending:
            chains[node.positions] = pending
        if node.kind == PROPER:
            for c in node.children:
                walk(c, [])

    walk(tree.root, [])
    return chains


def extract_instances(treebank):
    """One instance per node of each stripped tree; gold class = the
    chain that sat above it in the original, or NULL."""
    instances = []
    observed = {}
    for tree in treebank:
        chains = _survivor_chains(tree)
        stripped = strip_unaries(tree)
        for node, parent in _with_parents(stripped.root):
            if node.kind not in (PROPER, PRETERMINAL):
                continue
            chain = chains.get(node.positions)
            gold = CHAIN_SEP.join(chain) if chain else NULL_CLASS
            instances.append(Instance(
                tuple(featurize_node(stripped, node, parent)), node.label,
                node.kind == PRETERMINAL, gold))
            if gold != NULL_CLASS:
                observed.setdefault(node.label, set()).add(gold)
    classes = (NULL_CLASS,) + tuple(
        sorted({i.gold for i in instances} - {NULL_CLASS}))
    return UnaryData(tuple(instances), classes, observed)


def _instance_indices(model, inst, n_classes):
    """Masked weight indices (n_classes, 19) for this instance's own
    preterminal flag; row c scores class c under key 2c + preterminal."""
    hashes = hash_features(list(inst.features))
    keys = 2 * np.arange(n_classes) + int(inst.preterminal)
    return model.indices(conjoin_grid(hashes, keys))


def _candidates(allowed, class_id, symbol):
    cand = [0]
    for cls in allowed.get(symbol, ()):
        cand.append(class_id[cls])
    return sorted(set(cand))


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
    examples = [(_instance_indices(model, inst, len(data.classes)),
                 _candidates(data.allowed, class_id, inst.symbol),
                 class_id[inst.gold])
                for inst in data.instances]
    return perceptron.train(model, examples, epochs, seed,
                            _instance_mistakes)


def _predict(model, tree, node, parent):
    classes = model.meta['classes']
    allowed = model.meta['allowed']
    cand = sorted({0, *allowed.get(node.label, ())})
    if cand == [0]:
        return NULL_CLASS
    inst = Instance(tuple(featurize_node(tree, node, parent)), node.label,
                    node.kind == PRETERMINAL, NULL_CLASS)
    idx = _instance_indices(model, inst, len(classes))
    return classes[_best(model.weights, idx, cand)]


def recover(tree, model):
    """Insert predicted unary chains above the nodes of an unaryless
    tree; features are read off the input tree, so decisions at distinct
    nodes do not interact."""

    def rebuild(node, parent):
        if node.kind == PRETERMINAL:
            base = node
        else:
            base = proper(node.label, node.head,
                          [rebuild(c, node) for c in node.children])
        cls = _predict(model, tree, node, parent)
        if cls != NULL_CLASS:
            for label in reversed(cls.split(CHAIN_SEP)):
                base = proper(label, node.head, (base,))
        return base

    return CTree(rebuild(tree.root, None), tree.sentence)
