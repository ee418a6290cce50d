import os

import pytest

from hodt.corpus_gen import TOY_HEAD_RULES
from hodt.errors import HeadRuleError
from hodt.headrules import (LEFTMOST, RIGHTMOST, find_head_child, lexicalize,
                            load_rules)
from hodt.treebank_io import read_bracketed
from hodt.trees import validate


def test_positional_strategies():
    assert find_head_child(RIGHTMOST, 'NP', ['PIAT', 'NN']) == 1
    assert find_head_child(LEFTMOST, 'X', ['X']) == 0
    assert find_head_child(LEFTMOST, 'NP', ['A', 'B', 'C']) == 0


def test_table_lookup():
    rules = load_rules(['default right', 'S right-to-left VP S'])
    assert find_head_child(rules, 'S', ['NP', 'VP', '.']) == 1
    # no candidate matches: default endpoint
    assert find_head_child(rules, 'S', ['NP', 'PP', '.']) == 2
    assert find_head_child(rules, 'QP', ['CD', 'CD']) == 1


def test_priority_order_and_direction():
    rules = load_rules(['default left', 'VP left-to-right V VP'])
    assert find_head_child(rules, 'VP', ['ADVP', 'VP', 'V']) == 2  # V first
    rules2 = load_rules(['default left', 'NP right-to-left N'])
    assert find_head_child(rules2, 'NP', ['N', 'D', 'N']) == 2


def test_multiple_passes_per_parent():
    rules = load_rules([
        'default right',
        'NP right-to-left POS',
        'NP right-to-left NN NNS',
        'NP left-to-right NP',
    ])
    assert find_head_child(rules, 'NP', ['DT', 'NN', 'POS']) == 2
    # within one pass, candidate priority outranks position
    assert find_head_child(rules, 'NP', ['DT', 'NNS', 'NN']) == 2
    assert find_head_child(rules, 'NP', ['DT', 'NNS', 'JJ']) == 1
    assert find_head_child(rules, 'NP', ['NP', 'PP', 'NP']) == 0
    assert find_head_child(rules, 'NP', ['DT', 'JJ']) == 1


def test_load_rules_errors():
    with pytest.raises(HeadRuleError):
        load_rules(['S sideways VP'])
    with pytest.raises(HeadRuleError):
        load_rules(['default diagonal'])
    with pytest.raises(HeadRuleError):
        load_rules(['S left-to-right'])
    with pytest.raises(HeadRuleError):
        load_rules(['strategy nonsense'])


def test_strategy_directive_is_gone():
    # an empty table with `default left|right` does what it did
    with pytest.raises(HeadRuleError) as err:
        load_rules(['# positional', 'default right', 'strategy leftmost'])
    assert err.value.line == 3
    assert str(err.value).startswith('line 3: ')
    assert load_rules(['default left']) == LEFTMOST
    assert load_rules(['default right']) == RIGHTMOST


def test_lexicalize_propagates_heads(toy_rules):
    raw = read_bracketed(
        '(S (NP (D the) (N dog)) (VP (V runs) (NP (N home))))')
    tree = lexicalize(raw[0], toy_rules)
    assert validate(tree) == []
    assert tree.root.head == 3       # verb heads S through VP
    np = tree.root.children[0]
    assert np.label == 'NP' and np.head == 2
    # exactly one child shares the parent head
    for node in (tree.root, np):
        sharing = [c for c in node.children if c.head == node.head]
        assert len(sharing) == 1


def test_lexicalize_single_preterminal(toy_rules):
    raw = read_bracketed('(N word)')
    tree = lexicalize(raw[0], toy_rules)
    assert tree.root.head == 1
    assert tree.root.kind == 'preterminal'


def test_lexicalize_rightmost_chain():
    raw = read_bracketed('(X (A a) (Y (B b) (C c)))')
    tree = lexicalize(raw[0], RIGHTMOST)
    assert tree.root.head == 3


def test_mirror_symmetry():
    # leftmost on a label sequence equals rightmost on its reverse
    labels = ['A', 'B', 'C', 'D']
    i = find_head_child(LEFTMOST, 'X', labels)
    j = find_head_child(RIGHTMOST, 'X', labels[::-1])
    assert i == len(labels) - 1 - j


def test_shipped_rule_files_parse():
    data = os.path.join(os.path.dirname(__file__), '..', 'src', 'hodt',
                        'data')
    collins = load_rules(os.path.join(data, 'collins_english.rules'))
    assert find_head_child(collins, 'VP', ['TO', 'VP']) == 0
    assert find_head_child(collins, 'NP', ['DT', 'NN', 'POS']) == 2
    assert find_head_child(collins, 'PP', ['IN', 'NP']) == 0
    toy = load_rules(TOY_HEAD_RULES.splitlines())
    assert find_head_child(toy, 'S', ['NP', 'VP']) == 1
    assert find_head_child(toy, 'Q', ['A', 'B']) == 1
