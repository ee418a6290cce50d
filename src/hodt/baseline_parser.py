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

featurize_arc builds the 34 strings of one arc and is the reference.
arc_index_table builds the strings of all n^2 candidate arcs through
arc_features, which builds each string once: every template's value is
an integer code over numpy (h, m) grids, from per-sentence ids of each
position's form, POS and neighbouring POS, and only the first arc of
each distinct code is rendered.  At n = 40, about 16k of the 54,400
strings are distinct.  arc_index_table is the only place a parsed
sentence is featurized: parse_heads hands the digests of the chosen
arcs to the labeler, which conjoins its labels onto them.  In training
the labeler gets each gold tree's digests from tree_arc_digests, which
runs arc_features over that tree's n arcs.
"""

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
# string of each position (0 is the virtual root), by its index in
# _PARTS: form, POS, form and POS, POS and next POS, previous POS and
# POS; part 0 is empty.  Template 17 (btw) is built from the arc's span.
_PARTS = (None, 'f', 'p', 'fp', 'pn', 'vp')
_TEMPLATES = (
    ('b', None, None),
    ('hf:', 'f', None), ('hp:', 'p', None), ('hfp:', 'fp', None),
    ('mf:', None, 'f'), ('mp:', None, 'p'), ('mfp:', None, 'fp'),
    ('hp,mp:', 'p', 'p'), ('hf,mf:', 'f', 'f'), ('hp,mf:', 'p', 'f'),
    ('hf,mp:', 'f', 'p'), ('hfp,mfp:', 'fp', 'fp'),
    ('ctx1:', 'pn', 'vp'), ('ctx2:', 'vp', 'vp'),
    ('ctx3:', 'pn', 'pn'), ('ctx4:', 'vp', 'pn'),
)
_HEAD_PART = np.array([_PARTS.index(head) for _, head, _ in _TEMPLATES])
_MOD_PART = np.array([_PARTS.index(mod) for _, _, mod in _TEMPLATES])
_PLAIN_TEMPLATES = len(_TEMPLATES) + 1
_CTX_KEYS = 16  # direction x distance bin: 14 keys, and offset 0 (unused)


def _intern(strings, ids):
    """The id of each string in ids, new strings numbered on."""
    return [ids.setdefault(s, len(ids)) for s in strings]


def arc_features(sentence, heads, mods):
    """The feature strings of the arcs heads[i] -> mods[i], each built
    once: (texts, rows), where texts[rows[i, k]] is
    featurize_arc(sentence, heads[i], mods[i])[k].

    The parts of every position are interned once per sentence.  Each
    plain template then gets an integer code per arc, offset by its
    template number, from the ids of its head and modifier parts (btw
    from the arc's (lo, hi) span), so that equal codes render equal
    strings; the code of a /ctx template is its plain code times 16 plus
    the direction and distance key.  One np.unique call over the codes of
    all 34 templates finds the distinct codes.  The string of each
    distinct plain code is built once, from its first arc, and that of
    each distinct /ctx code from its plain code's string.  Two codes can
    still render the same string (two spans with the same POS between
    them, a form with a space in it or one ending in '/R1'), so texts
    may repeat."""
    n = len(sentence)
    k = n + 1
    form = [ROOT_TOKEN] + [t.form for t in sentence]
    pos = [ROOT_TOKEN] + [t.pos for t in sentence]
    padded = [NONE_TOKEN] + pos[1:] + [NONE_TOKEN]  # the POS at 0..n+1
    prev = [NONE_TOKEN] + padded[:n]
    after = [NONE_TOKEN] + padded[2:]
    parts = [[''] * k, form, pos,
             [f + ' ' + p for f, p in zip(form, pos)],
             [p + ' ' + a for p, a in zip(pos, after)],
             [v + ' ' + p for v, p in zip(prev, pos)]]
    spaced = [[s + ' ' for s in strings] for strings in parts]
    # the /ctx suffix of an arc, by modifier - head + n
    suffix_ids = {}
    suffix = _intern([
        '/' + ('R' if d > 0 else 'L') + _distance_bin(abs(d))
        for d in range(-n, n + 1)], suffix_ids)
    suffixes = list(suffix_ids)

    heads = np.asarray(heads, dtype=np.intp)
    mods = np.asarray(mods, dtype=np.intp)
    ids = np.array([_intern(strings, {}) for strings in parts],
                   dtype=np.int64)
    codes = np.empty((2, _PLAIN_TEMPLATES, len(heads)), dtype=np.int64)
    plain = codes[0]
    plain[:-1] = ids[_HEAD_PART[:, None], heads] * k
    plain[:-1] += ids[_MOD_PART[:, None], mods]
    plain[-1] = np.minimum(heads, mods) * k + np.maximum(heads, mods)
    plain += (np.arange(_PLAIN_TEMPLATES) * k * k)[:, None]
    ctx_base = _PLAIN_TEMPLATES * k * k  # above every plain code
    np.multiply(plain, _CTX_KEYS, out=codes[1])
    codes[1] += np.array(suffix)[mods - heads + n] + ctx_base
    distinct, first, inverse = np.unique(
        codes, return_index=True, return_inverse=True)
    bounds = np.searchsorted(
        distinct, np.arange(_PLAIN_TEMPLATES + 1) * k * k).tolist()
    arc = first[:bounds[-1]] % max(len(heads), 1)
    first_heads, first_mods = heads[arc].tolist(), mods[arc].tolist()

    texts = []
    for t, (prefix, head, mod) in enumerate(_TEMPLATES):
        hs = (spaced if head and mod else parts)[_HEAD_PART[t]]
        ms = parts[_MOD_PART[t]]
        span = slice(bounds[t], bounds[t + 1])
        texts += [prefix + hs[h] + ms[m]
                  for h, m in zip(first_heads[span], first_mods[span])]
    span = slice(bounds[-2], bounds[-1])
    texts += ['btw:' + ' '.join(pos[min(h, m) + 1:max(h, m)])
              for h, m in zip(first_heads[span], first_mods[span])]
    plain_code, key = np.divmod(distinct[bounds[-1]:] - ctx_base, _CTX_KEYS)
    row = np.searchsorted(distinct[:bounds[-1]], plain_code)
    texts += [texts[i] + suffixes[j]
              for i, j in zip(row.tolist(), key.tolist())]
    return texts, inverse.reshape(FEATURES_PER_ARC, -1).T


def arc_index_table(model, sentence):
    """(table, digests, rows) of every candidate arc of a sentence.

    table holds the weight indices (model.indices), shape (n+1, n+1, 34);
    entry [h, m] covers arc h -> m.  The diagonal and the m = 0 column
    are left at zero and must not be read.  digests and rows are what
    arc_features and hash_features gave: digests[rows[i]] are the 34
    digests of the i-th arc in np.nonzero(h != m) order, so arc h -> m
    is row h*(n-1) + m - (m > h).  arc_features builds each distinct
    string code once; those strings go through one hash_features call
    with no dedupe (about 2.5% of them repeat at n = 40, too few to pay
    for a dict), and each code's digest is looked up once."""
    n = len(sentence)
    table = np.zeros((n + 1, n + 1, FEATURES_PER_ARC), dtype=np.intp)
    heads, mods = np.nonzero(np.arange(n + 1)[:, None]
                             != np.arange(1, n + 1))
    mods += 1
    texts, rows = arc_features(sentence, heads, mods)
    digests = perceptron.hash_features(texts)
    table[heads, mods] = model.indices(digests)[rows]
    return table, digests, rows


def tree_arc_digests(sentence, heads):
    """The (n, 34) uint64 digests of the arcs heads[m-1] -> m of one
    tree: row m-1 is hash_features(featurize_arc(sentence, heads[m-1],
    m)), from one arc_features and one hash_features call."""
    texts, rows = arc_features(sentence, heads,
                               np.arange(1, len(heads) + 1))
    return perceptron.hash_features(texts)[rows]


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
    (n, 34) uint64 digests of the chosen arcs heads[m-1] -> m, taken from
    the candidate arcs' featurization for the labeler."""
    table, digests, rows = arc_index_table(model, sentence)
    heads, _ = _decode(model, score_matrix(model, table))
    n = len(sentence)
    mods = np.arange(1, n + 1)
    chosen = np.asarray(heads, dtype=np.intp)
    return heads, digests[rows[chosen * (n - 1) + mods - (mods > chosen)]]
