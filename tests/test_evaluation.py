from collections import Counter

import pytest

from hodt.corpus_gen import GenConfig, gen_ctree
from hodt.evaluation import EvalConfig, attachment_scores, brackets, evalb
from hodt.trees import CTree, DTree, preterminal, proper

from tests.conftest import make_sentence


def _brack(tree, **kw):
    return brackets(tree, EvalConfig(**kw))


def test_brackets_english(english_tree_unaryless):
    got = _brack(english_tree_unaryless, punctuation_pos=frozenset({'.'}))
    assert got == Counter({
        ('NP', frozenset({1, 2})): 1,
        ('VP', frozenset({3, 4, 5})): 1,
        ('S', frozenset({1, 2, 3, 4, 5})): 1})


def _flat_np_tree():
    # discontinuous NP in one flat node, verb in the gap, VROOT on top
    sent = make_sentence(
        ('Es', 'PPER'), ('kam', 'VVFIN'), ('nichts', 'PIAT'),
        ('Interessantes', 'NN'), ('.', '$.'))
    pre = {i: preterminal(t.pos, i)
           for i, t in zip(range(1, 6), sent)}
    np = proper('NP', 4, (pre[1], pre[3], pre[4]))
    s = proper('S', 2, (np, pre[2]))
    return CTree(proper('VROOT', 2, (s, pre[5])), sent)


def test_brackets_root_and_punct_filters():
    got = _brack(_flat_np_tree(),
                 punctuation_pos=frozenset({'$.'}),
                 ignore_root_labels=frozenset({'VROOT'}))
    assert got == Counter({
        ('NP', frozenset({1, 3, 4})): 1,
        ('S', frozenset({1, 2, 3, 4})): 1})


def test_brackets_single_preterminal():
    sent = make_sentence(('hi', 'UH'))
    tree = CTree(preterminal('UH', 1), sent)
    assert _brack(tree) == Counter()


def test_evalb_identity(english_tree_unaryless):
    rep = evalb([english_tree_unaryless], [english_tree_unaryless])
    assert rep.precision == rep.recall == rep.f1 == rep.exact == 1.0


def _pred_two_thirds():
    # same sentence; VP truncated to {3,4}, JJ hoisted under S
    sent = make_sentence(
        ('The', 'DT'), ('public', 'NN'), ('is', 'VBZ'),
        ('still', 'RB'), ('cautious', 'JJ'), ('.', '.'))
    pre = {i: preterminal(t.pos, i)
           for i, t in zip(range(1, 7), sent)}
    np = proper('NP', 2, (pre[1], pre[2]))
    vp = proper('VP', 3, (pre[3], pre[4]))
    s = proper('S', 3, (np, vp, pre[5], pre[6]))
    return CTree(s, sent)


def test_evalb_two_thirds(english_tree_unaryless):
    cfg = EvalConfig(punctuation_pos=frozenset({'.'}))
    rep = evalb([english_tree_unaryless], [_pred_two_thirds()], cfg)
    assert abs(rep.precision - 2 / 3) < 1e-9
    assert abs(rep.recall - 2 / 3) < 1e-9
    assert abs(rep.f1 - 2 / 3) < 1e-9
    assert rep.exact == 0.0
    assert (rep.matched, rep.gold_brackets, rep.pred_brackets) == (2, 3, 3)


def test_evalb_half_exact(english_tree_unaryless):
    cfg = EvalConfig(punctuation_pos=frozenset({'.'}))
    gold = [english_tree_unaryless, english_tree_unaryless]
    pred = [english_tree_unaryless, _pred_two_thirds()]
    rep = evalb(gold, pred, cfg)
    assert rep.exact == 0.5
    assert rep.sentences == 2


def test_evalb_misalignment(english_tree_unaryless):
    with pytest.raises(ValueError):
        evalb([english_tree_unaryless], [])
    short = CTree(preterminal('X', 1), make_sentence(('a', 'X')))
    with pytest.raises(ValueError):
        evalb([english_tree_unaryless], [short])


def test_scores_refuse_sentences_whose_words_differ():
    def tree(*forms):
        sent = make_sentence(*((form, 'X') for form in forms))
        return CTree(proper('S', 1, (preterminal('X', 1),
                                     preterminal('X', 2))), sent)
    with pytest.raises(ValueError) as err:
        evalb([tree('a', 'b')], [tree('a', 'c')])
    assert str(err.value) == "sentence 1, token 2: 'b' vs 'c'"
    gold = _dep(make_sentence(('a', 'X'), ('b', 'Y')), (2, 0), ('A', 'root'))
    pred = _dep(make_sentence(('a', 'X'), ('c', 'Y')), (2, 0), ('A', 'root'))
    with pytest.raises(ValueError) as err:
        attachment_scores([gold, gold], [gold, pred])
    assert str(err.value) == "sentence 2, token 2: 'b' vs 'c'"


def test_evalb_symmetry_random_pairs():
    checked = 0
    for seed in range(100):
        cfg_a = GenConfig(seed=seed, discontinuity_probability=0.3)
        cfg_b = GenConfig(seed=seed + 1000, discontinuity_probability=0.3)
        n = 3 + seed % 6
        g = gen_ctree(cfg_a, n)
        p = gen_ctree(cfg_b, n)
        fwd = evalb([g], [p])
        rev = evalb([p], [g])
        assert abs(fwd.precision - rev.recall) < 1e-12
        assert abs(fwd.recall - rev.precision) < 1e-12
        assert abs(fwd.f1 - rev.f1) < 1e-12
        checked += 1
    assert checked == 100


def test_evalb_permutation_invariance(english_tree_unaryless):
    small_sent = make_sentence(('a', 'X'), ('b', 'X'))
    small = CTree(proper('P', 1, (preterminal('X', 1),
                                  preterminal('X', 2))), small_sent)
    gold = [english_tree_unaryless, small]
    pred = [_pred_two_thirds(), small]
    fwd = evalb(gold, pred)
    rev = evalb(gold[::-1], pred[::-1])
    assert fwd.f1 == rev.f1
    assert fwd.exact == rev.exact


def _dep(sent, heads, labels):
    return DTree(sent, tuple(heads), tuple(labels))


def test_attachment_identity():
    sent = make_sentence(('a', 'X'), ('b', 'Y'))
    d = _dep(sent, (2, 0), ('A', 'root'))
    assert attachment_scores([d], [d]) == (1.0, 1.0)


def test_attachment_relabeled_arc():
    # English arcs with 3->4 relabeled; punctuation token 6 excluded
    sent = make_sentence(
        ('The', 'DT'), ('public', 'NN'), ('is', 'VBZ'),
        ('still', 'RB'), ('cautious', 'JJ'), ('.', '.'))
    heads = (2, 3, 0, 3, 3, 3)
    gold = _dep(sent, heads, ('NP', 'S', 'root', 'VP', 'VP', 'S'))
    pred = _dep(sent, heads, ('NP', 'S', 'root', 'ADVP', 'VP', 'S'))
    uas, las = attachment_scores(
        [gold], [pred], punctuation_pos=frozenset({'.'}))
    assert uas == 1.0
    assert abs(las - 4 / 5) < 1e-12


def test_attachment_all_wrong():
    sent = make_sentence(('a', 'X'), ('b', 'Y'))
    gold = _dep(sent, (2, 0), ('A', 'root'))
    pred = _dep(sent, (0, 1), ('root', 'A'))
    assert attachment_scores([gold], [pred]) == (0.0, 0.0)


def test_attachment_misalignment():
    s2 = make_sentence(('a', 'X'), ('b', 'Y'))
    s1 = make_sentence(('a', 'X'))
    with pytest.raises(ValueError):
        attachment_scores([_dep(s2, (2, 0), ('A', 'root'))],
                          [_dep(s1, (0,), ('root',))])
