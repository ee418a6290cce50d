import hashlib
from itertools import combinations

import pytest

from hodt.corpus_gen import (
    MAX_UNARY_CHAIN, TOY_HEAD_RULES, GenConfig, enumerate_ctrees, gen_ctree,
    gen_toy_treebank)
from hodt.headrules import lexicalize, load_rules
from hodt.treebank_io import write_bracketed, write_export
from hodt.trees import (
    PROPER, is_continuous, iter_nodes, strip_unaries, unlexicalize, validate)


def _count_trees(n, binary):
    """Independent tree count: the block holding the smallest leaf is any
    subset containing it; each partition contributes (product of block
    counts) * (number of blocks) for the head-child choice."""

    def count(size):
        if size == 1:
            return 1
        total = 0
        for part in _partitions(tuple(range(size))):
            if len(part) < 2 or (binary and len(part) != 2):
                continue
            prod = len(part)
            for block in part:
                prod *= count(len(block))
            total += prod
        return total

    def _partitions(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for r in range(len(rest) + 1):
            for chosen in combinations(rest, r):
                remaining = tuple(x for x in rest if x not in chosen)
                for sub in _partitions(remaining):
                    yield ((first,) + chosen,) + sub

    return count(n)


@pytest.mark.parametrize('n,expected', [(1, 1), (2, 2), (3, 15), (4, 184)])
def test_enumeration_counts(n, expected):
    trees = enumerate_ctrees(n)
    assert len(trees) == expected
    assert _count_trees(n, binary=False) == expected


def test_enumeration_count_five():
    trees = enumerate_ctrees(5)
    assert len(trees) == 3155
    assert _count_trees(5, binary=False) == 3155


@pytest.mark.parametrize('n,expected', [(2, 2), (3, 12), (4, 120), (5, 1680)])
def test_binary_enumeration_counts(n, expected):
    trees = enumerate_ctrees(n, binary=True)
    assert len(trees) == expected
    assert _count_trees(n, binary=True) == expected
    for t in trees:
        for node in iter_nodes(t.root):
            if node.kind == PROPER:
                assert len(node.children) == 2


def test_binary_three_leaf_continuity_split():
    trees = enumerate_ctrees(3, binary=True)
    continuous = [t for t in trees if is_continuous(t)]
    assert len(continuous) == 8
    assert len(trees) - len(continuous) == 4


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_ctrees(6)
    with pytest.raises(ValueError):
        enumerate_ctrees(7, binary=True)
    with pytest.raises(ValueError):
        enumerate_ctrees(0)


def test_enumerated_trees_valid_unaryless_distinct():
    trees = enumerate_ctrees(3)
    seen = set()
    for t in trees:
        assert validate(t) == []
        assert strip_unaries(t) == t
        key = repr(t.root)
        assert key not in seen
        seen.add(key)


def test_gen_ctree_deterministic():
    cfg = GenConfig(seed=5, discontinuity_probability=0.4,
                    unary_probability=0.3)
    assert gen_ctree(cfg, 6, index=3) == gen_ctree(cfg, 6, index=3)
    batch = [gen_ctree(cfg, 6, index=i) for i in range(10)]
    assert len({repr(t.root) for t in batch}) > 1


def test_gen_ctree_valid_batch():
    cfg = GenConfig(seed=2, discontinuity_probability=0.5,
                    unary_probability=0.4)
    for i in range(40):
        t = gen_ctree(cfg, 2 + i % 7, index=i)
        assert validate(t) == []
        assert len(t.sentence) == 2 + i % 7


def test_gen_ctree_continuous_when_prob_zero():
    cfg = GenConfig(seed=3)
    assert all(is_continuous(gen_ctree(cfg, 7, index=i)) for i in range(30))


def test_gen_ctree_discontinuous_when_forced():
    cfg = GenConfig(seed=4, discontinuity_probability=1.0)
    hits = sum(not is_continuous(gen_ctree(cfg, 6, index=i))
               for i in range(30))
    assert hits >= 28


def test_gen_ctree_binary_only():
    cfg = GenConfig(seed=6, binary_only=True)
    for i in range(15):
        t = gen_ctree(cfg, 5, index=i)
        for node in iter_nodes(t.root):
            if node.kind == PROPER:
                assert len(node.children) == 2


def test_gen_ctree_unary_chains_bounded():
    cfg = GenConfig(seed=7, unary_probability=0.8)
    saw_unary = False
    for i in range(20):
        t = gen_ctree(cfg, 4, index=i)
        for node in iter_nodes(t.root):
            chain = 0
            cur = node
            while cur.kind == PROPER and len(cur.children) == 1:
                chain += 1
                cur = cur.children[0]
            assert chain <= MAX_UNARY_CHAIN
            saw_unary = saw_unary or chain > 0
    assert saw_unary


def test_toy_treebank_shapes():
    cfg = GenConfig(seed=1)
    trees = gen_toy_treebank(cfg, 25)
    assert len(trees) == 25
    pos_seen = set()
    for t in trees:
        assert validate(t) == []
        assert is_continuous(t)
        assert t.root.label == 'S'
        pos_seen.update(tok.pos for tok in t.sentence)
    assert pos_seen <= {'D', 'N', 'V', 'A', 'AV'}
    assert {'N', 'V'} <= pos_seen


def test_toy_treebank_deterministic_and_splittable():
    cfg = GenConfig(seed=1)
    assert gen_toy_treebank(cfg, 5) == gen_toy_treebank(cfg, 5)
    shifted = gen_toy_treebank(cfg, 5, start=5)
    assert shifted != gen_toy_treebank(cfg, 5)
    # streams line up: item k of the shifted batch is item 5+k of a longer run
    assert gen_toy_treebank(cfg, 10)[5:] == shifted


def test_toy_heads_match_shipped_rules(toy_rules):
    cfg = GenConfig(seed=9)
    for t in gen_toy_treebank(cfg, 20):
        assert lexicalize(unlexicalize(t), toy_rules) == t


def test_toy_rules_text_loads():
    rules = load_rules(TOY_HEAD_RULES.splitlines())
    assert rules is not None


# SHA-256 of what `hodt gen` writes for banks shaped like the benchmark's:
# 20 trees on each of three seeds spaced like its train, held-out and
# extra train banks.  Taken before the two random-tree builders were
# merged; the benchmark's workloads depend on these bytes.
GEN_BANKS = {
    'long': (40, {}, write_bracketed,
             '93110c32e73ed1ae4f413161da2da513969ad627139324072d14a0a528a04154'),
    'disc': (40, {'discontinuity_probability': 1.0}, write_export,
             'cb8476d9134befe26c1679067eb9bc9b1b2a19d8a3dd8df6ec815f7646f733a3'),
    'batch': (25, {'discontinuity_probability': 0.3,
                   'unary_probability': 0.1}, write_export,
              'f222394c28c608823466662dd3d645e9c9649c4775e86019fe009a4da36c62fa'),
    'binary': (25, {'binary_only': True, 'discontinuity_probability': 0.5,
                    'unary_probability': 0.2}, write_export,
               'c525a3a81a34ea47fba69d351dc44178337f25cff9a35f9a55b4cc6346e00e23'),
}


@pytest.mark.parametrize('name', sorted(GEN_BANKS))
def test_gen_banks_are_pinned(name):
    length, options, write, digest = GEN_BANKS[name]
    trees = [gen_ctree(GenConfig(seed=seed, **options), length, index=i)
             for seed in (1, 1_000_004, 2_000_004) for i in range(20)]
    text = write(trees)
    assert hashlib.sha256(text.encode('utf-8')).hexdigest() == digest
