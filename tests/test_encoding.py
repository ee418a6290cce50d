import pytest
from hypothesis import example, given, settings, strategies as st

from hodt.corpus_gen import (GenConfig, enumerate_ctrees, gen_ctree,
                             gen_toy_treebank)
from hodt.encoding import (EMPTY_SPINE, ROOT_LABEL, DecodeResult,
                           _parse_pair, _split_spine, _split_tail, decode,
                           encode_delta, encode_direct, encode_hn,
                           escape_label, label_alphabet, unescape_label)
from hodt.errors import TreeStructureError
from hodt.reduction import ctree_to_dtree, dtree_to_ctree, recover_order
from hodt.trees import (PROPER, DTree, head_outward, is_nested,
                        is_projective, spine, strip_unaries)

from conftest import make_sentence


def _decoded_equals(dtree, enc, scheme):
    result = decode(enc, scheme)
    if result.warnings:
        return False
    return result.pairs == dtree.labels and enc.heads == dtree.heads


def test_direct_labels(english_tree):
    dt = ctree_to_dtree(english_tree)
    enc = encode_direct(dt)
    by_mod = dict(zip(range(1, 7), enc.labels))
    assert by_mod[1] == 'NP#1'
    assert by_mod[2] == 'S#2'
    assert by_mod[4] == 'VP#1'
    assert by_mod[3] == ROOT_LABEL
    assert _decoded_equals(dt, enc, 'direct')


def test_delta_worked_example():
    # one head, left modifiers at steps 1,3,4 and right at 2,3,3,5;
    # per side: absolute first step, then consecutive differences
    sent = make_sentence(*((f'w{i}', 'P') for i in range(1, 9)))
    heads = (4, 4, 4, 0, 4, 4, 4, 4)
    pairs = (('X', 4), ('X', 3), ('X', 1), None,
             ('X', 2), ('X', 3), ('X', 3), ('X', 5))
    hodt, stats = recover_order(DTree(sent, heads, pairs))
    assert stats.total() == 0
    enc = encode_delta(hodt)
    tails = [lab.split('#')[-1] for lab in enc.labels]
    assert tails[:3] == ['1', '2', '1']      # outermost-first on the left
    assert tails[4:] == ['2', '1', '0', '2']
    assert _decoded_equals(hodt, enc, 'delta')


def test_delta_requires_projective_and_nested(german_tree):
    dt = ctree_to_dtree(german_tree)
    with pytest.raises(TreeStructureError):
        encode_delta(dt)


def test_hn_labels(english_tree):
    enc = encode_hn(english_tree)
    by_mod = dict(zip(range(1, 7), enc.labels))
    # modifier spine top-first, then the attachment step on the head spine
    assert by_mod[1] == f'{EMPTY_SPINE}#1'
    assert by_mod[2] == 'NP#2'
    assert by_mod[4] == 'ADVP#1'
    assert by_mod[5] == 'ADJP#1'
    assert by_mod[6] == f'{EMPTY_SPINE}#2'
    assert by_mod[3].endswith('#0')          # root slot carries its spine
    assert by_mod[3].startswith('S|VP')


def test_hn_decode_resolves_class_labels(english_tree):
    enc = encode_hn(english_tree)
    result = decode(enc, 'hn')
    assert result.warnings == 0
    by_mod = {m + 1: pair for m, pair in enumerate(result.pairs) if pair}
    # attachment at step 2 on the root's S|VP spine resolves to S
    assert by_mod[2] == ('S', 2)
    assert by_mod[6] == ('S', 2)
    assert by_mod[4] == ('VP', 1)
    skeleton = DTree(english_tree.sentence, tuple(enc.heads), result.pairs)
    hodt, stats = recover_order(skeleton)
    assert stats.total() == 0
    assert dtree_to_ctree(hodt) == strip_unaries(english_tree)


def test_escaping_roundtrip():
    for label in ('A#B', 'A|B', 'A\\B', '#', '|', '\\', 'A\\#|B'):
        assert unescape_label(escape_label(label)) == label
    sent = make_sentence(('a', 'P'), ('b', 'P'))
    pairs = (('X#Y|Z\\W', 1), None)
    hodt, _ = recover_order(DTree(sent, (2, 0), pairs))
    for scheme, enc in (('direct', encode_direct(hodt)),
                        ('delta', encode_delta(hodt))):
        result = decode(enc, scheme)
        assert result.warnings == 0
        assert result.pairs[0] == ('X#Y|Z\\W', 1)


# labels over the characters the codec treats specially, and a few more
LABELS = st.text(alphabet='\\#|a1-é∅0 \n', max_size=10)


@given(LABELS)
def test_unescape_inverts_escape(label):
    assert unescape_label(escape_label(label)) == label


@given(LABELS, st.integers(-3, 30))
def test_split_tail_finds_the_appended_index(label, k):
    body = escape_label(label)
    assert _split_tail(f'{body}#{k}') == (body, str(k))


@given(st.lists(LABELS, min_size=1, max_size=4))
def test_split_spine_returns_the_escaped_parts(parts):
    escaped = [escape_label(p) for p in parts]
    assert _split_spine('|'.join(escaped)) == escaped


@pytest.mark.parametrize('label,unescaped,tail,spine', [
    # a lone trailing backslash escapes nothing and is kept
    ('a\\', 'a\\', None, ['a\\']),
    ('\\\\#3', '\\#3', ('\\\\', '3'), ['\\\\#3']),
    ('a\\#b#2', 'a#b#2', ('a\\#b', '2'), ['a\\#b#2']),
    ('\\\\|b|\\', '\\|b|\\', None, ['\\\\', 'b', '\\']),
])
def test_odd_labels_are_pinned(label, unescaped, tail, spine):
    assert unescape_label(label) == unescaped
    assert _split_tail(label) == tail
    assert _split_spine(label) == spine


def test_decode_is_total_on_garbage():
    sent = make_sentence(('a', 'P'), ('b', 'P'), ('c', 'P'))
    garbage = ('no-separator', '#', 'X#', 'X#junk', '', 'X#-3', 'X#1#z')
    for scheme in ('direct', 'delta', 'hn'):
        for g in garbage:
            enc = DTree(sent, (2, 0, 2), (g, ROOT_LABEL, 'Z#1'))
            result = decode(enc, scheme)
            assert len(result.pairs) == 3
            pair = result.pairs[0]
            assert pair is not None and isinstance(pair[1], int)
            # the downstream repair always produces a sound ordered tree
            skeleton = DTree(sent, tuple(enc.heads), result.pairs)
            hodt, _ = recover_order(skeleton, continuous_mode=True)
            from hodt.trees import validate
            assert validate(hodt) == []


def test_delta_negative_difference_clamps():
    sent = make_sentence(('a', 'P'), ('b', 'P'), ('c', 'P'))
    enc = DTree(sent, (2, 0, 2), ('X#-4', ROOT_LABEL, 'X#0'))
    result = decode(enc, 'delta')
    assert result.warnings >= 1
    assert all(p is None or p[1] >= 0 for p in result.pairs)


def test_direct_roundtrip_exhaustive():
    for length in range(1, 5):
        for tree in enumerate_ctrees(length):
            dt = ctree_to_dtree(tree)
            assert _decoded_equals(dt, encode_direct(dt), 'direct')


def test_delta_roundtrip_on_nested_projective():
    cfg = GenConfig(seed=3)
    count = 0
    for i in range(200):
        tree = gen_ctree(cfg, 2 + i % 7, index=i)
        dt = ctree_to_dtree(tree)
        if not (is_projective(dt) and is_nested(dt)):
            continue
        count += 1
        assert _decoded_equals(dt, encode_delta(dt), 'delta')
    assert count > 100


def test_hn_roundtrip_random():
    cfg = GenConfig(seed=4, unary_probability=0.3)
    for i in range(150):
        tree = gen_ctree(cfg, 2 + i % 6, index=i)
        enc = encode_hn(tree)
        result = decode(enc, 'hn')
        assert result.warnings == 0
        skeleton = DTree(tree.sentence, tuple(enc.heads), result.pairs)
        hodt, stats = recover_order(skeleton)
        assert stats.total() == 0
        assert dtree_to_ctree(hodt) == strip_unaries(tree)


def test_hn_spines_are_the_tree_spines():
    # encode_hn reads all spines in one walk; each must be the proper
    # labels of trees.spine, topmost first
    trees = gen_toy_treebank(GenConfig(seed=5), 40) + [
        gen_ctree(GenConfig(seed=5, unary_probability=0.3,
                            discontinuity_probability=0.5), 2 + i % 12,
                  index=i)
        for i in range(60)]
    for tree in trees:
        for m, label in enumerate(encode_hn(tree).labels, 1):
            labels = [n.label for n in spine(tree, m) if n.kind == PROPER]
            body, _ = _split_tail(label)
            assert body == ('|'.join(map(escape_label, labels))
                            or EMPTY_SPINE)


# the decoders as first written, one loop each, kept as the reference
# that decode must agree with on any input

def _reference_direct(enc):
    pairs = [None] * len(enc.heads)
    warnings = 0
    for h, m, label in enc.arcs():
        body, idx, ok = _parse_pair(label)
        if not ok:
            warnings += 1
            pairs[m - 1] = (body, idx)
        else:
            pairs[m - 1] = (unescape_label(body), idx)
    return DecodeResult(tuple(pairs), warnings)


def _reference_delta(enc):
    pairs = [None] * len(enc.heads)
    warnings = 0
    parsed = {}
    for _, m, label in enc.arcs():
        body, d, ok = _parse_pair(label)
        if not ok:
            warnings += 1
        elif d < 0:
            d = 0
            warnings += 1
        parsed[m] = (unescape_label(body) if ok else body, d)
    for h, positions in enc.dependents().items():
        for side in head_outward(h, positions):
            previous = None
            for m in side:
                body, d = parsed[m]
                idx = d if previous is None else previous + d
                previous = idx
                pairs[m - 1] = (body, idx)
    return DecodeResult(tuple(pairs), warnings)


def _reference_hn(enc):
    n = len(enc.heads)
    warnings = 0
    spines = {}
    attach = {}
    for h, m, label in enc.arcs():
        body, idx, ok = _parse_pair(label)
        if not ok:
            warnings += 1
            spines[m] = (body,)
        elif body == EMPTY_SPINE:
            spines[m] = ()
        else:
            spines[m] = tuple(unescape_label(p) for p in _split_spine(body))
        attach[m] = (idx, label)
    root = enc.root()
    root_body, root_idx, ok = _parse_pair(enc.labels[root - 1])
    if ok and root_idx == 0 and root_body != ROOT_LABEL:
        spines[root] = (() if root_body == EMPTY_SPINE else
                        tuple(unescape_label(p)
                              for p in _split_spine(root_body)))
    else:
        spines[root] = ()
    pairs = [None] * n
    for h, m, _ in enc.arcs():
        idx, raw = attach[m]
        head_spine = spines.get(h, ())
        if 1 <= idx <= len(head_spine):
            label = head_spine[len(head_spine) - idx]
        else:
            warnings += 1
            if head_spine:
                label = head_spine[0]
            elif spines[m]:
                label = spines[m][0]
            else:
                label = raw
        pairs[m - 1] = (label, idx)
    return DecodeResult(tuple(pairs), warnings)


REFERENCE_DECODERS = {'direct': _reference_direct, 'delta': _reference_delta,
                      'hn': _reference_hn}


@st.composite
def _encoded_trees(draw):
    """A random head vector (one root, no cycle) under labels drawn from
    LABELS and a few spine bodies, most of them with a '#k' tail, the
    root slot included."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(1, n + 1)))
    heads = [0] * n
    for k, m in enumerate(order[1:], 1):
        heads[m - 1] = order[draw(st.integers(0, k - 1))]
    bodies = st.one_of(LABELS, st.sampled_from(
        (EMPTY_SPINE, ROOT_LABEL, 'NP', 'S|VP', 'S|VP|VP')))
    tailed = st.builds('{}#{}'.format, bodies, st.integers(-3, 6))
    labels = draw(st.lists(st.one_of(tailed, tailed, bodies),
                           min_size=n, max_size=n))
    return DTree(make_sentence(*[('w', 'P')] * n), tuple(heads),
                 tuple(labels))


@settings(max_examples=300, deadline=None)
@given(_encoded_trees())
# the root label itself never reads as a spine, even with a '#0' tail
@example(DTree(make_sentence(('a', 'P'), ('b', 'P')), (0, 1),
               (f'{ROOT_LABEL}#0', 'X#1')))
def test_decode_agrees_with_the_reference_decoders(enc):
    for scheme, reference in REFERENCE_DECODERS.items():
        assert decode(enc, scheme) == reference(enc)


def test_label_alphabet_counts(english_tree):
    dt = ctree_to_dtree(english_tree)
    corpus = [encode_direct(dt), encode_direct(dt)]
    alpha = label_alphabet(corpus)
    assert alpha == [('NP#1', 2), ('S#2', 4), ('VP#1', 4)]
