import numpy as np
import pytest

from hodt.corpus_gen import GenConfig, enumerate_ctrees, gen_ctree
from hodt.errors import TreeStructureError
from hodt.reduction import (ctree_to_dtree, dtree_to_ctree, recover_order,
                            roundtrip_check)
from hodt.trees import (CTree, DTree, is_nested, preterminal, proper,
                        strip_unaries, validate)

from conftest import arc_set, make_sentence


def test_english_sample_arcs(english_tree):
    dt = ctree_to_dtree(english_tree)
    assert dt.root() == 3
    assert arc_set(dt) == {
        (2, 1, 'NP', 1), (3, 2, 'S', 2), (3, 4, 'VP', 1),
        (3, 5, 'VP', 1), (3, 6, 'S', 2)}


def test_german_sample_arcs(german_tree):
    dt = ctree_to_dtree(german_tree)
    assert dt.root() == 2
    # the punctuation attaches at the second step on the verb's spine,
    # right after S claimed the first
    assert arc_set(dt) == {
        (4, 3, 'NP', 1), (4, 1, 'NP', 2), (2, 4, 'S', 1),
        (2, 5, 'VROOT', 2)}


def test_flat_vs_right_branching_vp():
    sent = make_sentence(('really', 'RB'), ('needs', 'VBZ'),
                         ('caution', 'NN'))
    pre = {i: preterminal(t.pos, i)
           for i, t in zip(range(1, 4), sent)}
    flat = CTree(proper('VP', 2, (pre[1], pre[2], pre[3])), sent)
    assert arc_set(ctree_to_dtree(flat)) == {
        (2, 1, 'VP', 1), (2, 3, 'VP', 1)}
    nested = CTree(
        proper('VP', 2, (pre[1], proper('VP', 2, (pre[2], pre[3])))), sent)
    assert arc_set(ctree_to_dtree(nested)) == {
        (2, 3, 'VP', 1), (2, 1, 'VP', 2)}


def test_unary_nodes_emit_no_arcs_but_advance_the_spine(english_tree):
    dt = ctree_to_dtree(english_tree)
    labels = {label for _, _, (label, _) in dt.arcs()}
    assert 'ADVP' not in labels and 'ADJP' not in labels
    # rebuild drops them entirely
    rebuilt = dtree_to_ctree(dt)
    assert rebuilt == strip_unaries(english_tree)


def test_rebuild_german(german_tree):
    rebuilt = dtree_to_ctree(ctree_to_dtree(german_tree))
    assert rebuilt == german_tree  # already unaryless
    np_outer = [n for n in (rebuilt.root.children + tuple(
        c for child in rebuilt.root.children
        for c in getattr(child, 'children', ())))
        if n.label == 'NP']
    assert any(n.positions == frozenset((1, 3, 4)) for n in np_outer)


def test_single_token_roundtrip():
    sent = make_sentence(('w', 'T'))
    tree = CTree(preterminal('T', 1), sent)
    dt = ctree_to_dtree(tree)
    assert list(dt.arcs()) == []
    assert dtree_to_ctree(dt) == tree


def test_label_conflict_rejected(german_tree):
    sent = german_tree.sentence
    bad = DTree(sent, (4, 0, 4, 2, 2),
                (('NP', 2), None, ('NP', 1), ('S', 1), ('VROOT', 1)))
    with pytest.raises(TreeStructureError):
        dtree_to_ctree(bad)


def test_exhaustive_roundtrip_small():
    for length in range(1, 5):
        for tree in enumerate_ctrees(length):
            assert dtree_to_ctree(ctree_to_dtree(tree)) == tree


def test_roundtrip_check_report(english_tree, german_tree):
    rep = roundtrip_check(strip_unaries(english_tree))
    assert rep.ok and rep.continuous and rep.projective and rep.nested
    rep_g = roundtrip_check(german_tree)
    assert rep_g.ok and not rep_g.continuous and not rep_g.projective


def test_recover_order_label_conflict_resolution():
    # same index, different labels: the modifier nearest the head wins
    sent = make_sentence(*((f'w{i}', 'P') for i in range(1, 6)))
    dec = DTree(sent, (4, 1, 0, 3, 3),
                (('N', 1), ('M', 1), None, ('VP', 1), ('ADJP', 1)))
    hodt, stats = recover_order(dec)
    assert hodt.labels[3][0] == 'VP' and hodt.labels[4][0] == 'VP'
    assert stats.labels_changed == 1
    assert validate(hodt) == []


def test_recover_order_equidistant_tie_prefers_left():
    sent = make_sentence(*((f'w{i}', 'P') for i in range(1, 6)))
    dec = DTree(sent, (2, 3, 0, 3, 4),
                (('L', 1), ('B', 1), None, ('R', 1), ('Q', 1)))
    hodt, _ = recover_order(dec)
    assert hodt.labels[1][0] == 'B' and hodt.labels[3][0] == 'B'
    assert validate(hodt) == []


def test_recover_order_nesting_repair():
    sent = make_sentence(('a', 'P'), ('b', 'P'), ('c', 'P'),
                         ('d', 'P'), ('e', 'P'))
    dec = DTree(sent, (3, 3, 0, 3, 3),
                (('X', 1), ('X', 1), None, ('VP', 2), ('VP', 1)))
    hodt, stats = recover_order(dec, continuous_mode=True)
    assert is_nested(hodt)
    assert hodt.labels[3][1] == 1 and hodt.labels[4][1] == 1
    assert stats.indices_lowered >= 1


def test_recover_order_clamps_and_compacts():
    sent = make_sentence(('a', 'P'), ('b', 'P'), ('c', 'P'))
    dec = DTree(sent, (2, 0, 2), (('L', 0), None, ('R', 9)))
    hodt, stats = recover_order(dec)
    assert hodt.labels[0][1] == 1     # clamped up from 0
    assert hodt.labels[2][1] == 2     # compacted down from 9
    assert stats.indices_clamped == 1
    assert stats.tokens_changed == 1  # compaction keeps the order
    assert validate(hodt) == []


def test_recover_order_idempotent():
    cfg = GenConfig(seed=5, discontinuity_probability=0.3)
    for i in range(60):
        tree = gen_ctree(cfg, 2 + i % 5, index=i)
        once, stats_once = recover_order(ctree_to_dtree(tree))
        assert stats_once.total() == 0  # clean input untouched
        again, stats_again = recover_order(once)
        assert stats_again.total() == 0
        assert arc_set(again) == arc_set(once)


def test_recover_order_token_count_agrees_with_repairs():
    rng = np.random.default_rng(3)
    cfg = GenConfig(seed=13, discontinuity_probability=0.3)
    for i in range(300):
        tree = gen_ctree(cfg, 2 + i % 7, index=i)
        heads = ctree_to_dtree(tree).heads
        pairs = tuple(
            None if h == 0 else ('ABC'[rng.integers(3)],
                                 int(rng.integers(-2, 6)))
            for h in heads)
        dec = DTree(tree.sentence, heads, pairs)
        for continuous in (False, True):
            _, stats = recover_order(dec, continuous_mode=continuous)
            assert (stats.tokens_changed == 0) == (stats.total() == 0)
            assert stats.tokens_changed <= stats.total()

