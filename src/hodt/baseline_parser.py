"""Trainable unlabeled dependency parser (arc-factored).

This is deliberately a plain first-order model: hashed features per
candidate arc, averaged-perceptron training, exact decoding through the
kernels (Eisner for projective trees, Chu-Liu/Edmonds for arbitrary
ones), both with a single-root constraint.  It exists so the pipeline is
self-contained; it does not try to match mature parsers.

Feature templates, in full.  For an arc h -> m (h = 0 is the virtual
root, whose form/POS are the sentinel "<root>"; positions off either end
of the sentence read as "<none>"):

     1. bias
     2. head form                      3. head POS
     4. head form+POS
     5. modifier form                  6. modifier POS
     7. modifier form+POS
     8. head POS + modifier POS
     9. head form + modifier form
    10. head POS + modifier form
    11. head form + modifier POS
    12. head form+POS + modifier form+POS
    13. POS of (h, h+1, m-1, m)       14. POS of (h-1, h, m-1, m)
    15. POS of (h, h+1, m, m+1)       16. POS of (h-1, h, m, m+1)
    17. joined POS sequence of all tokens strictly between h and m

Each template is emitted twice: plain, and conjoined with the attachment
direction plus the binned distance |h - m| (bins 1,2,3,4,5,6-10,>10), so
every arc yields exactly 34 features.
"""

import itertools

import numpy as np

from .errors import ToolkitError
from .kernels import cle_decode, eisner_decode
from . import perceptron
from .perceptron import DIM_BITS, LinearModel, hash_distinct

ROOT_TOKEN = '<root>'
NONE_TOKEN = '<none>'

FEATURES_PER_ARC = 34


def _distance_bin(d):
    if d <= 5:
        return str(d)
    if d <= 10:
        return '6-10'
    return '>10'


def featurize_arc(sentence, h, m):
    """The 34 feature strings of candidate arc h -> m."""
    n = len(sentence)

    def pos_at(i):
        return sentence.pos(i) if 1 <= i <= n else NONE_TOKEN

    if h == 0:
        hf = hp = ROOT_TOKEN
        hprev = hnext = NONE_TOKEN
    else:
        hf, hp = sentence.form(h), sentence.pos(h)
        hprev, hnext = pos_at(h - 1), pos_at(h + 1)
    mf, mp = sentence.form(m), sentence.pos(m)
    mprev, mnext = pos_at(m - 1), pos_at(m + 1)
    lo, hi = (h, m) if h < m else (m, h)
    between = ' '.join(sentence.pos(i) for i in range(lo + 1, hi))
    base = (
        'b',
        'hf:' + hf,
        'hp:' + hp,
        'hfp:' + hf + ' ' + hp,
        'mf:' + mf,
        'mp:' + mp,
        'mfp:' + mf + ' ' + mp,
        'hp,mp:' + hp + ' ' + mp,
        'hf,mf:' + hf + ' ' + mf,
        'hp,mf:' + hp + ' ' + mf,
        'hf,mp:' + hf + ' ' + mp,
        'hfp,mfp:' + hf + ' ' + hp + ' ' + mf + ' ' + mp,
        'ctx1:' + hp + ' ' + hnext + ' ' + mprev + ' ' + mp,
        'ctx2:' + hprev + ' ' + hp + ' ' + mprev + ' ' + mp,
        'ctx3:' + hp + ' ' + hnext + ' ' + mp + ' ' + mnext,
        'ctx4:' + hprev + ' ' + hp + ' ' + mp + ' ' + mnext,
        'btw:' + between,
    )
    ctx = ('R' if m > h else 'L') + _distance_bin(abs(h - m))
    return list(base) + [f + '/' + ctx for f in base]


def arc_index_table(model, sentence):
    """Weight indices (model.indices) of every candidate arc, shape
    (n+1, n+1, 34); entry [h, m] covers arc h -> m.  The diagonal and the
    m = 0 column are left at zero and must not be read.  The strings of
    all arcs go through one hash_distinct call, and each distinct digest
    is looked up once."""
    n = len(sentence)
    table = np.zeros((n + 1, n + 1, FEATURES_PER_ARC), dtype=np.intp)
    arcs = [(h, m) for m in range(1, n + 1) for h in range(n + 1) if h != m]
    digests, rows = hash_distinct(itertools.chain.from_iterable(
        featurize_arc(sentence, h, m) for h, m in arcs))
    heads, mods = np.array(arcs, dtype=np.intp).reshape(-1, 2).T
    table[heads, mods] = model.indices(digests)[rows].reshape(
        -1, FEATURES_PER_ARC)
    return table


def score_matrix(model, table):
    return model.weights[table].sum(axis=2)


def _gold_items(treebank):
    items = []
    for tree in treebank:
        heads = tree.heads
        if len(heads) != len(tree.sentence):
            raise ToolkitError(
                f'tree with {len(heads)} heads over '
                f'{len(tree.sentence)} tokens')
        items.append((tree.sentence, list(heads)))
    return items


def _decode(model, scores):
    """Best tree under the scores: Eisner for a projective model,
    Chu-Liu/Edmonds otherwise."""
    decode = eisner_decode if model.meta['projective'] else cle_decode
    return decode(scores)


def train_unlabeled(treebank, epochs, seed=1, projective=True):
    """Averaged structured perceptron over whole trees: decode with the
    current weights, update on the arcs where prediction and gold
    disagree."""
    items = _gold_items(treebank)
    if not items:
        raise ToolkitError('empty treebank')
    model = LinearModel(DIM_BITS, meta={
        'task': 'arcs', 'projective': bool(projective),
        'hash': 'blake2b-64', 'features_per_arc': FEATURES_PER_ARC})
    examples = [(arc_index_table(model, sentence), gold)
                for sentence, gold in items]

    def mistakes(model, example):
        table, gold = example
        pred, _ = _decode(model, score_matrix(model, table))
        for m, (g, p) in enumerate(zip(gold, pred), 1):
            if g != p:
                yield table[g, m], table[p, m]

    return perceptron.train(model, examples, epochs, seed, mistakes)


def parse_heads(model, sentence):
    """Decode one sentence with a trained model, projectively or not as
    the model was trained."""
    heads, _ = _decode(model, score_matrix(
        model, arc_index_table(model, sentence)))
    return heads
