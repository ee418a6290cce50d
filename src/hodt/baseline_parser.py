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

featurize_arc builds the 34 strings of one arc.  It is the reference
definition of the templates, and the tests hold the digests to it; the
parser never builds an arc string.  sentence_atoms hashes, in one
hash_features call, the five part strings of each position 0..n (form,
POS, form+POS, POS+next POS, previous POS+POS) and the 2n+1
direction+distance strings ('/R1', '/L6-10', ...).  Each template has a
key, the digest of its prefix ('hf:', 'btw:', ...), and its digest is a
splitmix mix (perceptron.mix) over part digests and key: the bias is
mix(key), a head-only template mix(head part + key), a modifier-only
one mix(modifier part + key), a two-sided one mix(mix(head part + key)
+ modifier part).  btw chains the mix over the POS digests strictly
between h and m, one span length at a time, starting from mix(key).  A
/ctx copy is its plain digest mixed with the arc's direction+distance
digest.  So two (arc, template) cells get the same digest when
featurize_arc gives them the same string, and, but for 64-bit
collisions and a part with a space in it (which can join into the same
string two ways), only then.

arc_index_table is the only place a parsed sentence is hashed: it
mixes the digests of all n^2 candidate arcs in blocks of at most
_BLOCK_CELLS, and keeps only their weight indices.  parse_heads mixes
the n chosen arcs' digests again from the same atoms for the labeler,
which in training gets them from tree_arc_digests.
"""

from collections import namedtuple

import numpy as np

from .errors import ToolkitError
from .kernels import cle_decode, eisner_decode
from . import perceptron
from .perceptron import DIM_BITS, LinearModel

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
    """The 34 feature strings of candidate arc h -> m, one arc at a time.

    This is the reference definition of the templates: arc_features
    builds the same strings for many arcs at once, and the tests hold it
    to this function."""
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


# Templates 1-16 as (prefix, head part, modifier part).  A part is a
# digest of each position (0 is the virtual root), by its index in
# _PARTS: form, POS, form and POS, POS and next POS, previous POS and POS;
# part 0 is all zeros.  Template 17 (btw) is built from the arc's span.
_PARTS = (None, 'f', 'p', 'fp', 'pn', 'vp')
TEMPLATES = (
    ('b', None, None),
    ('hf:', 'f', None), ('hp:', 'p', None), ('hfp:', 'fp', None),
    ('mf:', None, 'f'), ('mp:', None, 'p'), ('mfp:', None, 'fp'),
    ('hp,mp:', 'p', 'p'), ('hf,mf:', 'f', 'f'), ('hp,mf:', 'p', 'f'),
    ('hf,mp:', 'f', 'p'), ('hfp,mfp:', 'fp', 'fp'),
    ('ctx1:', 'pn', 'vp'), ('ctx2:', 'vp', 'vp'),
    ('ctx3:', 'pn', 'pn'), ('ctx4:', 'vp', 'pn'),
)
_HEAD_PART = [_PARTS.index(head) for _, head, _ in TEMPLATES]
_MOD_PART = [_PARTS.index(mod) for _, _, mod in TEMPLATES]
_TWO_SIDED = [t for t, (_, h, m) in enumerate(TEMPLATES) if h and m]
_PLAIN_TEMPLATES = len(TEMPLATES) + 1
_KEYS = perceptron.hash_features([p for p, _, _ in TEMPLATES] + ['btw:'])

# digests mixed per arc_index_table block: the n^2 candidate arcs of a
# sentence of up to 43 tokens are one block
_BLOCK_CELLS = 1 << 16


# What sentence_atoms hashes and mixes once per sentence.  The digest of
# template t < 16 of arc h -> m is mix(left[h, t] + right[m, t]); btw[lo,
# hi] is the btw digest of the span lo < hi; dist[m - h + n] is the
# digest of the arc's direction+distance.
Atoms = namedtuple('Atoms', 'left right btw dist')


def sentence_atoms(sentence):
    """Atoms of a sentence, from one hash_features call over its
    7n + 6 part and direction+distance strings."""
    n = len(sentence)
    form = [ROOT_TOKEN] + [t.form for t in sentence]
    pos = [ROOT_TOKEN] + [t.pos for t in sentence]
    padded = [NONE_TOKEN] + pos[1:] + [NONE_TOKEN]  # the POS at 0..n+1
    prev = [NONE_TOKEN] + padded[:n]
    after = [NONE_TOKEN] + padded[2:]
    digests = perceptron.hash_features(
        form + pos + [f + ' ' + p for f, p in zip(form, pos)]
        + [p + ' ' + a for p, a in zip(pos, after)]
        + [v + ' ' + p for v, p in zip(prev, pos)]
        + ['/' + ('R' if d > 0 else 'L') + _distance_bin(abs(d))
           for d in range(-n, n + 1)])
    parts = np.zeros((n + 1, len(_PARTS)), dtype=np.uint64)
    parts[:, 1:] = digests[:5 * (n + 1)].reshape(5, n + 1).T
    left = parts[:, _HEAD_PART] + _KEYS[:-1]
    left[:, _TWO_SIDED] = perceptron.mix(left[:, _TWO_SIDED])
    # btw[lo, lo + length], one length at a time; only lo < hi is read
    btw = np.zeros((n + 1, n + 1), dtype=np.uint64)
    diagonals = btw.reshape(-1)
    span = perceptron.mix(np.repeat(_KEYS[-1:], n))
    for length in range(1, n + 1):
        diagonals[length::n + 2][:n + 1 - length] = span
        span = perceptron.mix(span[:-1] + parts[length:n, 2])
    return Atoms(left, parts[:, _MOD_PART], btw, digests[5 * (n + 1):])


def _atom_digests(atoms, heads, mods):
    """The (len(heads), 34) uint64 digests of the arcs heads[i] ->
    mods[i], mixed from a sentence's atoms."""
    heads = np.asarray(heads, dtype=np.intp)
    mods = np.asarray(mods, dtype=np.intp)
    plain = np.empty((len(heads), _PLAIN_TEMPLATES), dtype=np.uint64)
    np.add(atoms.left[heads], atoms.right[mods], out=plain[:, :-1])
    perceptron.mix(plain[:, :-1])
    plain[:, -1] = atoms.btw[np.minimum(heads, mods), np.maximum(heads, mods)]
    n = len(atoms.left) - 1
    ctx = perceptron.mix(plain + atoms.dist[mods - heads + n][:, None])
    return np.concatenate((plain, ctx), axis=1)


def arc_features(sentence, heads, mods):
    """The (len(heads), 34) uint64 digests of the arcs heads[i] ->
    mods[i]: row i stands for featurize_arc(sentence, heads[i],
    mods[i])."""
    return _atom_digests(sentence_atoms(sentence), heads, mods)


def arc_index_table(model, sentence):
    """(table, atoms): the weight indices (model.indices) of every
    candidate arc of a sentence, shape (n+1, n+1, 34), entry [h, m] for
    arc h -> m, and the sentence's atoms.  The diagonal and the m = 0
    column are left at zero and must not be read.  The digests are mixed
    and looked up in blocks of at most _BLOCK_CELLS, and none is kept."""
    n = len(sentence)
    atoms = sentence_atoms(sentence)
    table = np.zeros((n + 1, n + 1, FEATURES_PER_ARC), dtype=np.intp)
    heads, mods = np.nonzero(np.arange(n + 1)[:, None]
                             != np.arange(1, n + 1))
    mods += 1
    step = _BLOCK_CELLS // FEATURES_PER_ARC
    for a in range(0, len(heads), step):
        h, m = heads[a:a + step], mods[a:a + step]
        table[h, m] = model.indices(_atom_digests(atoms, h, m))
    return table, atoms


def tree_arc_digests(sentence, heads):
    """The (n, 34) uint64 digests of the arcs heads[m-1] -> m of one
    tree, row m-1 for the arc into m."""
    return arc_features(sentence, heads, np.arange(1, len(heads) + 1))


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
    examples = [(arc_index_table(model, sentence)[0], gold)
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
    the model was trained: (heads, arc_digests), where arc_digests is the
    (n, 34) uint64 digests of the chosen arcs heads[m-1] -> m, mixed
    from the atoms of the candidate arcs' table, for the labeler."""
    table, atoms = arc_index_table(model, sentence)
    heads, _ = _decode(model, score_matrix(model, table))
    return heads, _atom_digests(atoms, heads,
                                np.arange(1, len(sentence) + 1))
