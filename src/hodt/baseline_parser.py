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
parser never builds an arc string.  block_atoms hashes, in one
hash_features call per block of sentences, the five part strings of
each position 0..n of each sentence (form, POS, form+POS, POS+next POS,
previous POS+POS) and its 2n+1 direction+distance strings ('/R1',
'/L6-10', ...), with no string shared between sentences.  Each template
has a key, the digest of its prefix ('hf:', 'btw:', ...), and its digest
is a splitmix mix (perceptron.mix) over part digests and key: the bias
is mix(key), a head-only template mix(head part + key), a modifier-only
one mix(modifier part + key), a two-sided one mix(mix(head part + key)
+ modifier part).  btw chains the mix over the POS digests strictly
between h and m, one span length at a time for every sentence of the
block at once, starting from mix(key).  A /ctx copy is its plain digest
mixed with the arc's direction+distance digest.  So two (arc, template)
cells get the same digest when featurize_arc gives them the same
string, and, but for 64-bit collisions and a part with a space in it
(which can join into the same string two ways), only then.

Every sentence is hashed as one of a block (block_atoms), and its
candidate arcs are mixed and looked up as one of a block
(block_index_tables), in passes of at most perceptron.BLOCK_CELLS table
entries that keep only weight indices.  Training builds the tables of as
many consecutive sentences at once as fit in BLOCK_CELLS;
arc_index_table, which parses, is the block of one sentence.  parse_heads mixes the n
chosen arcs' digests again from the same atoms for the labeler
(tree_arc_digests), which in training mixes each gold tree's arcs from
the atoms of its own blocks.
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


# What block_atoms hashes and mixes once per block of sentences.  Position
# p of sentence s is row start[s] + p of left, right and btw (start, a
# list, ends with the number of rows), and an arc h -> m is read at the
# rows of its sentence.  The digest of template t < 16 of arc h -> m is
# mix(left[h, t] + right[m, t]); btw[lo, length] is the btw digest of the
# span from lo to lo + length; dist[origin[m] + m - h] is the digest of
# the arc's direction+distance.
Atoms = namedtuple('Atoms', 'start left right btw dist origin')


def block_atoms(sentences):
    """Atoms of a block of sentences, from one hash_features call over
    the 7n + 6 part and direction+distance strings of each sentence: the
    five parts of each position, sentence after sentence, then the 2n + 1
    distances of each sentence."""
    texts, distances, start, origin = [], [], [0], []
    for sentence in sentences:
        n = len(sentence)
        form = [ROOT_TOKEN] + [t.form for t in sentence]
        pos = [ROOT_TOKEN] + [t.pos for t in sentence]
        padded = [NONE_TOKEN] + pos[1:] + [NONE_TOKEN]  # the POS at 0..n+1
        prev = [NONE_TOKEN] + padded[:n]
        after = [NONE_TOKEN] + padded[2:]
        for f, p, v, a in zip(form, pos, prev, after):
            texts += (f, p, f + ' ' + p, p + ' ' + a, v + ' ' + p)
        # where distance 0 of the sentence is, for each of its rows
        origin += [len(distances) + n] * (n + 1)
        distances += ['/' + ('R' if d > 0 else 'L') + _distance_bin(abs(d))
                      for d in range(-n, n + 1)]
        start.append(start[-1] + n + 1)
    digests = perceptron.hash_features(texts + distances)
    rows = start[-1]
    width = max((b - a for a, b in zip(start, start[1:])), default=1)
    # width rows of zeros under the parts, for the POS past the last row
    parts = np.zeros((rows + width, len(_PARTS)), dtype=np.uint64)
    parts[:rows, 1:] = digests[:5 * rows].reshape(rows, 5)
    left = parts[:rows, _HEAD_PART] + _KEYS[:-1]
    left[:, _TWO_SIDED] = perceptron.mix(left[:, _TWO_SIDED])
    # btw[:, length] for every row at once, one length at a time: the
    # span from lo to lo + length + 1 adds the POS at lo + length to the
    # span from lo to lo + length.  Spans that run past their sentence
    # are never read
    btw = np.zeros((rows, width), dtype=np.uint64)
    span = _KEYS[-1:].repeat(rows)
    for length in range(1, width):
        btw[:, length] = perceptron.mix(span)
        span += parts[length:length + rows, 2]
    return Atoms(start, left, parts[:rows, _MOD_PART], btw,
                 digests[5 * rows:], np.array(origin, dtype=np.intp))


def _atom_digests(atoms, heads, mods):
    """The (len(heads), 34) uint64 digests of the arcs heads[i] ->
    mods[i], each two rows of one sentence of a block's atoms, mixed from
    those atoms."""
    heads = np.asarray(heads, dtype=np.intp)
    mods = np.asarray(mods, dtype=np.intp)
    plain = np.empty((len(heads), _PLAIN_TEMPLATES), dtype=np.uint64)
    np.add(atoms.left[heads], atoms.right[mods], out=plain[:, :-1])
    perceptron.mix(plain[:, :-1])
    plain[:, -1] = atoms.btw[np.minimum(heads, mods), np.abs(mods - heads)]
    dist = atoms.dist[atoms.origin[mods] + mods - heads]
    ctx = perceptron.mix(plain + dist[:, None])
    return np.concatenate((plain, ctx), axis=1)


def arc_features(sentence, heads, mods):
    """The (len(heads), 34) uint64 digests of the arcs heads[i] ->
    mods[i]: row i stands for featurize_arc(sentence, heads[i],
    mods[i])."""
    return _atom_digests(block_atoms([sentence]), heads, mods)


def block_index_tables(model, sentences):
    """(tables, atoms): the arc_index_table table of each sentence of a
    block, and the block's atoms.  The candidate arcs of the whole block
    are mixed and looked up in passes of at most perceptron.BLOCK_CELLS
    table entries, and no digest is kept."""
    atoms = block_atoms(sentences)
    start = atoms.start
    sizes = [b - a for a, b in zip(start, start[1:])]
    cells = [k * k for k in sizes]
    at = [0]
    for count in cells:
        at.append(at[-1] + count)
    # for each cell of each (n+1, n+1) table: where its table begins, the
    # table's side and the sentence's first row
    cell_at, cell_side, cell_row = np.array(
        [at[:-1], sizes, start[:-1]]).repeat(cells, axis=1)
    heads, mods = np.divmod(np.arange(at[-1]) - cell_at, cell_side)
    arcs = ((heads != mods) & (mods > 0)).nonzero()[0]
    heads = heads[arcs] + cell_row[arcs]
    mods = mods[arcs] + cell_row[arcs]
    tables = np.zeros((at[-1], FEATURES_PER_ARC), dtype=np.intp)
    step = perceptron.BLOCK_CELLS // FEATURES_PER_ARC
    for a in range(0, len(arcs), step):
        tables[arcs[a:a + step]] = model.indices(_atom_digests(
            atoms, heads[a:a + step], mods[a:a + step]))
    return ([table.reshape(size, size, FEATURES_PER_ARC)
             for table, size in zip(perceptron.pieces(tables, at), sizes)],
            atoms)


def arc_index_table(model, sentence):
    """(table, atoms): the weight indices (model.indices) of every
    candidate arc of a sentence, shape (n+1, n+1, 34), entry [h, m] for
    arc h -> m, and the sentence's atoms, a block of one.  The diagonal
    and the m = 0 column are left at zero and must not be read."""
    (table,), atoms = block_index_tables(model, [sentence])
    return table, atoms


def tree_arc_digests(atoms, heads):
    """The (sum of n, 34) uint64 digests of the arcs heads[s][m-1] -> m
    of each sentence s of a block, mixed from the block's atoms: sentence
    after sentence, row m-1 of a sentence for the arc into m."""
    start = atoms.start
    return _atom_digests(
        atoms, [a + h for a, tree in zip(start, heads) for h in tree],
        [m for a, b in zip(start, start[1:]) for m in range(a + 1, b)])


def score_matrix(model, table):
    """The (n+1, n+1) arc scores over an arc_index_table table, each cell
    the sum of its arc's weights.  The weights are gathered in blocks of
    head rows of at most perceptron.BLOCK_CELLS table entries, so no
    float array of the table's shape is made."""
    scores = np.empty(table.shape[:2], dtype=model.weights.dtype)
    step = max(1, perceptron.BLOCK_CELLS
                   // (table.shape[1] * FEATURES_PER_ARC))
    for h in range(0, len(table), step):
        scores[h:h + step] = model.weights[table[h:h + step]].sum(axis=2)
    return scores


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
    current weights, then update once on all the arcs where prediction
    and gold disagree."""
    items = _gold_items(treebank)
    if not items:
        raise ToolkitError('empty treebank')
    model = LinearModel(DIM_BITS, meta={
        'task': 'arcs', 'projective': bool(projective),
        'hash': 'blake2b-64', 'features_per_arc': FEATURES_PER_ARC})
    examples = []
    for block in perceptron.blocks(
            [len(sentence) ** 2 * FEATURES_PER_ARC for sentence, _ in items]):
        tables, _ = block_index_tables(
            model, [sentence for sentence, _ in items[block]])
        examples += zip(tables, [gold for _, gold in items[block]])

    def mistakes(model, example):
        # every wrong arc of the sentence in one update: the weights and
        # totals are sums of small integers, exact in any order
        table, gold = example
        pred, _ = _decode(model, score_matrix(model, table))
        wrong = [(g, p, m) for m, (g, p) in enumerate(zip(gold, pred), 1)
                 if g != p]
        if wrong:
            gold_heads, pred_heads, mods = zip(*wrong)
            return table[gold_heads, mods], table[pred_heads, mods]
        return None

    return perceptron.train(model, examples, epochs, seed, mistakes)


def parse_heads(model, sentence):
    """Decode one sentence with a trained model, projectively or not as
    the model was trained: (heads, arc_digests), where arc_digests is the
    (n, 34) uint64 digests of the chosen arcs heads[m-1] -> m, mixed
    from the atoms of the candidate arcs' table, for the labeler."""
    table, atoms = arc_index_table(model, sentence)
    heads, _ = _decode(model, score_matrix(model, table))
    return heads, tree_arc_digests(atoms, [heads])
