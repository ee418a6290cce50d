"""Label encodings that make a head-ordered d-tree trainable as a plain
labeled dependency tree.

Three schemes share the textual shape ``<body>#<number>``:

* direct:  body is the constituent label, number the absolute order index.
* delta:   number is the difference to the previous index on the same side
  of the head, walking outward (the innermost modifier keeps its absolute
  index).  Requires a projective and nested input; differences are >= 0
  exactly because of nesting, and index alphabets shrink on treebanks with
  deep spines.  Decoding reads the labels as direct ones, then sums the
  differences outward.
* hn:      body is the modifier's own spine (proper-node labels top-first,
  '|'-joined, '∅' when empty) and the number is the attachment step on the
  head's spine.  The root word's spine travels in the root slot as
  ``<spine>#0`` since it sits on no arc.

'#', '|' and '\\' occurring inside labels are escaped at encode time and
restored by decode.  decode never raises on predicted input: unparseable
labels fall back to (full string, 1) and bump a warning counter.
"""

import re
from dataclasses import dataclass

from .errors import TreeStructureError
from .reduction import ctree_to_dtree
from .trees import (
    PROPER, DTree, head_outward, is_nested, is_projective, iter_nodes)

ROOT_LABEL = '_root_'
EMPTY_SPINE = '∅'
# one character of an escaped label: an escape pair, a lone trailing
# backslash, or any other character
_CHAR = re.compile(r'\\.|\\\Z|[^\\]', re.DOTALL)


@dataclass
class DecodeResult:
    """Per-token (label, order index) pairs, None at the root slot."""
    pairs: tuple
    warnings: int = 0


def escape_label(label):
    return (label.replace('\\', '\\\\')
            .replace('#', '\\#').replace('|', '\\|'))


def unescape_label(label):
    return ''.join(c[-1] for c in _CHAR.findall(label))


def _split_tail(label):
    """Split at the last unescaped '#'; returns (body, tail) or None."""
    chars = _CHAR.findall(label)
    for k in range(len(chars) - 1, -1, -1):
        if chars[k] == '#':
            return ''.join(chars[:k]), ''.join(chars[k + 1:])
    return None


def _split_spine(body):
    """Split an hn spine body at unescaped '|' separators."""
    parts = ['']
    for c in _CHAR.findall(body):
        if c == '|':
            parts.append('')
        else:
            parts[-1] += c
    return parts


def encode_direct(dtree):
    """Label each arc as <label>#<absolute order index>."""
    labels = [ROOT_LABEL] * len(dtree.sentence)
    for _, m, (label, j) in dtree.arcs():
        labels[m - 1] = f'{escape_label(label)}#{j}'
    return DTree(dtree.sentence, dtree.heads, tuple(labels))


def encode_delta(dtree):
    """Difference-encode order indices per side of each head."""
    if not (is_projective(dtree) and is_nested(dtree)):
        raise TreeStructureError(
            'delta encoding needs a projective and nested tree')
    labels = [ROOT_LABEL] * len(dtree.sentence)
    for h, mods in dtree.dependents().items():
        for side in head_outward(h, mods):
            previous = None
            for m in side:
                label, j = dtree.labels[m - 1]
                d = j if previous is None else j - previous
                previous = j
                labels[m - 1] = f'{escape_label(label)}#{d}'
    return DTree(dtree.sentence, dtree.heads, tuple(labels))


def _spine_body(labels):
    if not labels:
        return EMPTY_SPINE
    return '|'.join(escape_label(lb) for lb in labels)


def encode_hn(tree):
    """Spine-chain encoding computed from the constituent tree itself:
    each arc records its modifier's spine and the attachment step.  The
    spines keep unary constituents, whose steps the attachment steps
    count, but dtree_to_ctree rebuilds only the steps that arcs attach
    at, so unary constituents are the unary restorer's to put back."""
    dtree = ctree_to_dtree(tree)
    # a head's proper nodes lie on one path, so preorder lists them
    # topmost first
    spines = [[] for _ in range(len(tree.sentence) + 1)]
    for node in iter_nodes(tree.root):
        if node.kind == PROPER:
            spines[node.head].append(node.label)
    labels = [ROOT_LABEL] * len(tree.sentence)
    for _, m, (_, j) in dtree.arcs():
        labels[m - 1] = f'{_spine_body(spines[m])}#{j}'
    root = dtree.root()
    labels[root - 1] = f'{_spine_body(spines[root])}#0'
    return DTree(dtree.sentence, dtree.heads, tuple(labels))


def _parse_pair(label):
    """(body, index, ok): ok=False means the unparseable-label fallback."""
    split = _split_tail(label)
    if split is None:
        return label, 1, False
    body, tail = split
    try:
        idx = int(tail)
    except ValueError:
        return label, 1, False
    return body, idx, True


def decode(enc, scheme):
    """Parse encoded labels back to (label, order index) pairs.

    Exact inverse on encoder output; on arbitrary predicted labels it
    degrades gracefully and counts every fallback in .warnings.  The
    result feeds reduction.recover_order.
    """
    if scheme == 'direct':
        return _decode_direct(enc)
    if scheme == 'delta':
        return _decode_delta(enc)
    if scheme == 'hn':
        return _decode_hn(enc)
    raise ValueError(f'unknown encoding scheme {scheme!r}')


def _decode_direct(enc):
    pairs = [None] * len(enc.heads)
    warnings = 0
    for _, m, label in enc.arcs():
        body, idx, ok = _parse_pair(label)
        warnings += not ok
        pairs[m - 1] = (unescape_label(body) if ok else body, idx)
    return DecodeResult(tuple(pairs), warnings)


def _decode_delta(enc):
    """The direct reading, then a running sum outward on each side of
    each head; a negative difference counts as 0 and as a warning."""
    direct = _decode_direct(enc)
    pairs = list(direct.pairs)
    warnings = direct.warnings
    for h, positions in enc.dependents().items():
        for side in head_outward(h, positions):
            idx = 0
            for m in side:
                label, d = pairs[m - 1]
                if d < 0:
                    d = 0
                    warnings += 1
                idx += d
                pairs[m - 1] = (label, idx)
    return DecodeResult(tuple(pairs), warnings)


def _spine_labels(body):
    """The labels of an hn spine body, topmost first."""
    if body == EMPTY_SPINE:
        return ()
    return tuple(unescape_label(p) for p in _split_spine(body))


def _decode_hn(enc):
    warnings = 0
    spines = {}
    steps = {}
    for _, m, label in enc.arcs():
        body, steps[m], ok = _parse_pair(label)
        warnings += not ok
        spines[m] = _spine_labels(body) if ok else (body,)
    root = enc.root()
    body, step, ok = _parse_pair(enc.labels[root - 1])
    # on predicted input the root spine never reaches us
    spines[root] = (_spine_labels(body)
                    if ok and step == 0 and body != ROOT_LABEL else ())
    pairs = [None] * len(enc.heads)
    for h, m, label in enc.arcs():
        spine, j = spines[h], steps[m]
        if 1 <= j <= len(spine):
            pairs[m - 1] = (spine[-j], j)
        else:
            warnings += 1
            pairs[m - 1] = ((spine or spines[m] or (label,))[0], j)
    return DecodeResult(tuple(pairs), warnings)


def label_alphabet(corpus):
    """Distinct arc labels with occurrence counts, sorted by label; the
    root slot does not count."""
    counts = {}
    for enc in corpus:
        for _, _, label in enc.arcs():
            counts[label] = counts.get(label, 0) + 1
    return sorted(counts.items())
