"""Each learner builds its training tables a block of sentences at a time.

A block must give every tree the tables it gets alone (the block of one
that parsing builds), whatever the block boundaries, and hash the same
strings; and building a bank's tables must hold little beyond the
tables it keeps."""

import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodt import perceptron
from hodt.baseline_parser import (block_atoms, block_index_tables,
                                  train_unlabeled, tree_arc_digests)
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.dep_labeler import _tree_tables, train_labeler
from hodt.encoding import encode_direct
from hodt.perceptron import LinearModel
from hodt.reduction import ctree_to_dtree
from hodt.trees import strip_unaries
from hodt.unary_recovery import (_node_rows, extract_instances,
                                 train_unary)

TREES = 10

BANKS = {
    'toy': lambda seed: gen_toy_treebank(GenConfig(seed=seed), TREES),
    'cont': lambda seed: [gen_ctree(GenConfig(
        seed=seed, unary_probability=0.2), 1 + i * 13 % 17, index=i)
        for i in range(TREES)],
    'disc': lambda seed: [gen_ctree(GenConfig(
        seed=seed, discontinuity_probability=1.0, unary_probability=0.2),
        2 + i * 13 % 17, index=i) for i in range(TREES)],
}


class _Hashed(list):
    """The strings of each hash_features call made inside the block."""

    def __enter__(self):
        real = perceptron.hash_features
        self._patch = mock.patch.object(
            perceptron, 'hash_features',
            lambda texts: self.append(list(texts)) or real(texts))
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


def _masked(model, *tables):
    return [model._slot_keys[table] for table in tables]


def _arc_tables(trees, blocks):
    model = LinearModel(dim_bits=18)
    out = []
    for block in blocks:
        tables, _ = block_index_tables(
            model, [enc.sentence for enc in trees[block]])
        out += [_masked(model, table) for table in tables]
    return out


def _label_tables(trees, blocks):
    model = LinearModel(dim_bits=18)
    out = []
    for block in blocks:
        heads = [enc.heads for enc in trees[block]]
        digests = tree_arc_digests(
            block_atoms([enc.sentence for enc in trees[block]]), heads)
        out += [[mods, starts, *_masked(model, unary, pair)]
                for mods, starts, unary, pair in _tree_tables(
                    model, heads, 3, digests)]
    return out


def _unary_rows(trees, blocks, meta):
    model = LinearModel(dim_bits=18, meta=meta)
    out = []
    for block in blocks:
        out += [[[id(node) for node in nodes], *_masked(model, rows),
                 allowed]
                for nodes, rows, allowed in _node_rows(model, trees[block])]
    return out


def _slices(cuts, n):
    """The blocks of n items cut after item i where cuts[i]."""
    ends = [i + 1 for i, cut in enumerate(cuts[:n - 1]) if cut]
    return [slice(a, b) for a, b in zip([0] + ends, ends + [n])]


def _built(build, trees, blocks, *args):
    """(tables, strings hashed per block)."""
    with _Hashed() as hashed:
        tables = build(trees, blocks, *args)
    return tables, hashed


def _same(got, want):
    assert len(got) == len(want)
    for got_arrays, want_arrays in zip(got, want):
        assert len(got_arrays) == len(want_arrays)
        for a, b in zip(got_arrays, want_arrays):
            assert np.array_equal(a, b)


@pytest.mark.parametrize('bank', sorted(BANKS))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(1, 10**6),
       cuts=st.lists(st.booleans(), min_size=TREES - 1,
                     max_size=TREES - 1))
@example(seed=1, cuts=[True] * (TREES - 1))
@example(seed=1, cuts=[False] * (TREES - 1))
def test_blocks_give_the_tables_of_one_tree_at_a_time(bank, seed, cuts):
    ctrees = BANKS[bank](seed)
    encoded = [encode_direct(ctree_to_dtree(strip_unaries(t)))
               for t in ctrees]
    data = extract_instances(ctrees)
    stripped = [tree for tree, _ in data.instances]
    meta = train_unary(data, epochs=0).meta
    blocks = _slices(cuts, TREES)
    alone = _slices([True] * TREES, TREES)
    for build, trees, args in ((_arc_tables, encoded, ()),
                               (_label_tables, encoded, ()),
                               (_unary_rows, stripped, (meta,))):
        got, hashed = _built(build, trees, blocks, *args)
        want, hashed_alone = _built(build, trees, alone, *args)
        _same(got, want)
        # one call per block, over the strings its trees hash alone:
        # none dropped, none shared between trees
        assert len(hashed) == len(blocks)
        for block, strings in zip(blocks, hashed):
            assert Counter(strings) == sum(
                map(Counter, hashed_alone[block]), Counter())


def _toy_bank():
    trees = gen_toy_treebank(GenConfig(seed=1), 960)
    return trees, [encode_direct(ctree_to_dtree(strip_unaries(t)))
                   for t in trees]


LEARNERS = {
    'arcs': lambda trees, corpus: train_unlabeled(corpus, 1),
    'labels': lambda trees, corpus: train_labeler(corpus, 1),
    'unary': lambda trees, corpus: train_unary(extract_instances(trees), 1),
}


@pytest.mark.parametrize('learner', sorted(LEARNERS))
def test_building_a_banks_tables_holds_little_beyond_them(learner,
                                                          monkeypatch):
    # tracemalloc's peak while a learner builds the tables of 960 toy
    # trees, over what it holds when training starts: the transient of
    # a block, where building the bank as one block took 8.5 MB or more
    trees, corpus = _toy_bank()
    held = []

    def train(model, examples, epochs, seed, mistakes):
        held.append(tracemalloc.get_traced_memory())
        return model

    monkeypatch.setattr(perceptron, 'train', train)
    tracemalloc.start()
    try:
        LEARNERS[learner](trees, corpus)
    finally:
        tracemalloc.stop()
    ((kept, peak),) = held
    assert kept > 1 << 20
    assert peak - kept < 3 << 20
