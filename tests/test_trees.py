from hodt.corpus_gen import GenConfig, enumerate_ctrees, gen_ctree
from hodt.reduction import ctree_to_dtree
from hodt.trees import (CTree, DTree, head_outward, is_continuous,
                        is_nested, is_projective, iter_nodes, preterminal,
                        proper, spine, strip_unaries, validate)

from conftest import make_sentence


def single_token_tree():
    sent = make_sentence(('w', 'T'))
    return CTree(preterminal('T', 1), sent)


def test_continuity(english_tree, german_tree):
    assert is_continuous(english_tree)
    assert not is_continuous(german_tree)
    assert is_continuous(single_token_tree())


def test_projectivity(english_tree, german_tree):
    assert is_projective(ctree_to_dtree(strip_unaries(english_tree)))
    assert not is_projective(ctree_to_dtree(german_tree))
    # chain 1 <- 2 <- 3
    sent = make_sentence(('a', 'A'), ('b', 'B'), ('c', 'C'))
    chain = DTree(sent, (2, 3, 0), (None, None, None))
    assert is_projective(chain)


def test_nesting(german_tree):
    dt = ctree_to_dtree(german_tree)
    assert is_nested(dt)
    # closer right modifier with the larger index breaks nesting
    sent = make_sentence(('a', 'A'), ('b', 'B'), ('c', 'C'),
                         ('d', 'D'), ('e', 'E'))
    bad = DTree(sent, (3, 3, 0, 3, 3),
                (('Y', 1), ('Y', 1), None, ('X', 2), ('X', 1)))
    assert not is_nested(bad)
    good = DTree(sent, (3, 3, 0, 3, 3),
                 (('Y', 2), ('Y', 1), None, ('X', 1), ('X', 2)))
    assert is_nested(good)


def test_spine(english_tree):
    assert [n.label for n in spine(english_tree, 3)] == ['S', 'VP', 'VBZ']
    assert [n.label for n in spine(english_tree, 1)] == ['DT']
    assert [n.label for n in spine(single_token_tree(), 1)] == ['T']


def test_strip_unaries(english_tree, english_tree_unaryless):
    stripped = strip_unaries(english_tree)
    assert stripped == english_tree_unaryless
    assert strip_unaries(stripped) == stripped
    # a chain standing over a bare preterminal vanishes completely: the
    # rebuild direction can never produce a one-child proper node, so the
    # stripped form must not contain one either
    sent = make_sentence(('w', 'T'))
    chain = CTree(
        proper('X', 1, (proper('Y', 1, (proper('Z', 1, (
            preterminal('T', 1),)),)),)),
        sent)
    collapsed = strip_unaries(chain)
    assert collapsed.root.kind == 'preterminal'
    assert collapsed.root.label == 'T'
    # but the bottom node above real branching survives
    sent2 = make_sentence(('a', 'A'), ('b', 'B'))
    two = CTree(
        proper('X', 1, (proper('Z', 1, (
            preterminal('A', 1), preterminal('B', 2))),)),
        sent2)
    kept = strip_unaries(two)
    assert kept.root.label == 'Z'
    assert len(kept.root.children) == 2


def test_validate_accepts_good_trees(english_tree, german_tree):
    assert validate(english_tree) == []
    assert validate(german_tree) == []


def test_validate_flags_broken_yield():
    sent = make_sentence(('a', 'A'), ('b', 'B'))
    from hodt.trees import CNode
    p1 = preterminal('A', 1)
    p2 = preterminal('B', 2)
    node = CNode('X', 1, frozenset((1,)), (p1, p2), 'proper')
    problems = validate(CTree(node, sent))
    assert problems and any('yield' in p for p in problems)


def test_validate_flags_a_preterminal_with_a_child():
    sent = make_sentence(('a', 'A'))
    from hodt.trees import CNode
    node = CNode('A', 1, frozenset((1,)), (preterminal('B', 1),),
                 'preterminal')
    assert validate(CTree(node, sent)) == ["preterminal 'A' has children"]


def test_validate_flags_preterminals_that_skip_a_position():
    sent = make_sentence(('a', 'A'), ('b', 'B'), ('c', 'C'))
    skipping = CTree(proper('X', 1, (preterminal('A', 1),
                                     preterminal('C', 3))), sent)
    assert validate(skipping) == ['root yield does not cover the sentence']


def test_validate_flags_multiple_roots():
    sent = make_sentence(('a', 'A'), ('b', 'B'), ('c', 'C'))
    bad = DTree(sent, (0, 0, 1), (None, None, None))
    problems = validate(bad)
    assert any('root' in p for p in problems)


def test_validate_flags_an_order_index_below_one():
    sent = make_sentence(('a', 'A'), ('b', 'B'))
    bad = DTree(sent, (2, 0), (('X', 0), None))
    assert validate(bad) == ['arc 2->1 has index < 1']


def test_validate_flags_two_labels_at_one_step():
    sent = make_sentence(('a', 'A'), ('b', 'B'), ('c', 'C'))
    bad = DTree(sent, (2, 0, 2), (('X', 1), None, ('Y', 1)))
    assert validate(bad) == ["head 2 index 1 carries labels ['X', 'Y']"]


def test_continuity_implies_projectivity():
    # brute force over every unaryless tree with up to five tokens
    for length in range(1, 6):
        for tree in enumerate_ctrees(length):
            if is_continuous(tree):
                assert is_projective(ctree_to_dtree(tree))


def test_nested_matches_pairwise_definition():
    cfg = GenConfig(seed=11, discontinuity_probability=0.4)
    for i in range(120):
        tree = gen_ctree(cfg, 2 + i % 6, index=i)
        dt = ctree_to_dtree(tree)
        index_of = {m: j for _, m, (_, j) in dt.arcs()}
        mods = {}
        for h, m, _ in dt.arcs():
            mods.setdefault(h, []).append(m)
        expected = True
        for h, ms in mods.items():
            for side in (sorted(m for m in ms if m > h),
                         sorted((m for m in ms if m < h), reverse=True)):
                for near, far in zip(side, side[1:]):
                    if index_of[near] > index_of[far]:
                        expected = False
        assert is_nested(dt) == expected


def test_iter_nodes_covers_every_node(english_tree):
    kinds = [n.kind for n in iter_nodes(english_tree.root)]
    assert set(kinds) == {'preterminal', 'proper'}
    assert kinds.count('preterminal') == 6
    assert kinds.count('proper') == 5


def test_head_outward_orders_each_side_from_the_head():
    assert head_outward(4, [7, 1, 5, 3, 9]) == ([3, 1], [5, 7, 9])
    assert head_outward(1, (2,)) == ([], [2])
    assert head_outward(3, {}) == ([], [])
