"""Shared fixtures: the two worked-example trees and small helpers.

The English sample is continuous with two unary wrappers; the German one
is discontinuous with a two-level NP spine.  Both reappear across the
conversion, encoding and acceptance tests.
"""

import pytest

from hodt import baseline_parser, dep_labeler, perceptron
from hodt.corpus_gen import TOY_HEAD_RULES
from hodt.headrules import load_rules
from hodt.trees import CTree, Sentence, Token, preterminal, proper


def make_sentence(*pairs):
    return Sentence(tuple(
        Token(i, form, pos) for i, (form, pos) in enumerate(pairs, 1)))


def deep_tree(depth):
    """A right-branching tree whose lowest preterminals sit `depth`
    levels down, counting the root and the preterminal."""
    n = depth   # one word per level, two at the bottom
    sent = Sentence(tuple(Token(i, f'w{i}', 'A') for i in range(1, n + 1)))
    node = proper('X', n - 1, (preterminal('A', n - 1),
                               preterminal('A', n)))
    for i in range(n - 2, 0, -1):
        node = proper('X', i, (preterminal('A', i), node))
    return CTree(node, sent)


@pytest.fixture(scope='session')
def english_tree():
    sent = make_sentence(
        ('The', 'DT'), ('public', 'NN'), ('is', 'VBZ'),
        ('still', 'RB'), ('cautious', 'JJ'), ('.', '.'))
    pre = {i: preterminal(t.pos, i) for i, t in
           zip(range(1, 7), sent)}
    np = proper('NP', 2, (pre[1], pre[2]))
    advp = proper('ADVP', 4, (pre[4],))
    adjp = proper('ADJP', 5, (pre[5],))
    vp = proper('VP', 3, (pre[3], advp, adjp))
    s = proper('S', 3, (np, vp, pre[6]))
    return CTree(s, sent)


@pytest.fixture(scope='session')
def english_tree_unaryless():
    sent = make_sentence(
        ('The', 'DT'), ('public', 'NN'), ('is', 'VBZ'),
        ('still', 'RB'), ('cautious', 'JJ'), ('.', '.'))
    pre = {i: preterminal(t.pos, i) for i, t in
           zip(range(1, 7), sent)}
    np = proper('NP', 2, (pre[1], pre[2]))
    vp = proper('VP', 3, (pre[3], pre[4], pre[5]))
    s = proper('S', 3, (np, vp, pre[6]))
    return CTree(s, sent)


@pytest.fixture(scope='session')
def german_tree():
    # positions 1,3,4 form one NP wrapped in two levels; the verb at 2
    # splits it, so the NP yield has a gap
    sent = make_sentence(
        ('das', 'PDS'), ('steht', 'VVFIN'), ('keiner', 'PIAT'),
        ('Liste', 'NN'), ('.', '$.'))
    pre = {i: preterminal(t.pos, i) for i, t in
           zip(range(1, 6), sent)}
    np_inner = proper('NP', 4, (pre[3], pre[4]))
    np_outer = proper('NP', 4, (pre[1], np_inner))
    s = proper('S', 2, (np_outer, pre[2]))
    vroot = proper('VROOT', 2, (s, pre[5]))
    return CTree(vroot, sent)


@pytest.fixture(scope='session')
def toy_rules():
    return load_rules(TOY_HEAD_RULES.splitlines())


class Calls(list):
    """The strings of each perceptron.hash_features call, in order; arcs
    holds the (heads, mods) of each call that mixes arc digests from a
    sentence's atoms (baseline_parser._atom_digests)."""

    def __init__(self):
        super().__init__()
        self.arcs = []

    def clear(self):
        super().clear()
        self.arcs.clear()


@pytest.fixture
def hash_calls(monkeypatch):
    """Calls recorded while the test runs.  hash_distinct, the unary
    restorer's dedupe path, raises if the parser or the labeler calls
    it."""
    calls = Calls()
    real = perceptron.hash_features
    monkeypatch.setattr(perceptron, 'hash_features',
                        lambda texts: calls.append(list(texts))
                        or real(texts))
    mix_arcs = baseline_parser._atom_digests

    def atom_digests(atoms, heads, mods):
        calls.arcs.append((list(heads), list(mods)))
        return mix_arcs(atoms, heads, mods)

    def no_dedupe(texts):
        raise AssertionError('hash_distinct called')
    monkeypatch.setattr(perceptron, 'hash_distinct', no_dedupe)
    monkeypatch.setattr(baseline_parser, '_atom_digests', atom_digests)
    for module in (baseline_parser, dep_labeler):
        monkeypatch.setattr(module, 'hash_distinct', no_dedupe,
                            raising=False)
    return calls


def arc_set(dtree):
    return {(h, m, label, j) for h, m, (label, j) in dtree.arcs()}
