import pytest
from hypothesis import given, strategies as st

from hodt.corpus_gen import GenConfig, enumerate_ctrees, gen_ctree
from hodt.encoding import (EMPTY_SPINE, ROOT_LABEL, _split_spine,
                           _split_tail, decode, encode_delta, encode_direct,
                           encode_hn, escape_label, label_alphabet,
                           unescape_label)
from hodt.errors import TreeStructureError
from hodt.reduction import ctree_to_dtree, dtree_to_ctree, recover_order
from hodt.trees import DTree, is_nested, is_projective, strip_unaries

from conftest import make_sentence


def _decoded_equals(dtree, enc, scheme):
    result = decode(enc, scheme)
    if result.warnings:
        return False
    want = {(a.modifier, a.label, a.order_index) for a in dtree.arcs}
    got = {(m + 1, lab, idx)
           for m, pair in enumerate(result.pairs) if pair is not None
           for lab, idx in (pair,)}
    return want == got and tuple(enc.heads) == tuple(dtree.heads())


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


def test_label_alphabet_counts(english_tree):
    dt = ctree_to_dtree(english_tree)
    corpus = [encode_direct(dt), encode_direct(dt)]
    alpha = label_alphabet(corpus)
    assert alpha == [('NP#1', 2), ('S#2', 4), ('VP#1', 4)]
