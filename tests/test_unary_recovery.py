import numpy as np
import pytest

from hodt import perceptron, unary_recovery
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.perceptron import LinearModel, conjoin_grid, hash_features
from hodt.trees import PRETERMINAL, strip_unaries, validate
from hodt.unary_recovery import (NULL_CLASS, _node_rows, _with_parents,
                                 add_chains, extract_instances,
                                 featurize_node, recover, train_unary,
                                 unary_chains)


def _toy(n, seed=1):
    return gen_toy_treebank(GenConfig(seed=seed), n)


LAW_BANKS = {
    'toy': lambda: _toy(60, seed=5),
    'unary': lambda: [gen_ctree(GenConfig(seed=5, unary_probability=0.2),
                                2 + i % 12, index=i) for i in range(60)],
    'disc': lambda: [gen_ctree(GenConfig(
        seed=5, unary_probability=0.2, discontinuity_probability=0.5),
        2 + i % 12, index=i) for i in range(60)],
}


@pytest.mark.parametrize('bank', sorted(LAW_BANKS))
def test_add_chains_inverts_strip_unaries(bank):
    total = 0
    for t in LAW_BANKS[bank]():
        chains = unary_chains(t)
        stripped = strip_unaries(t)
        assert add_chains(stripped, chains) == t
        assert unary_chains(stripped) == {}
        total += len(chains)
    assert total > 20   # the bank has chains to put back


def test_instance_extraction_classes():
    trees = _toy(50)
    data = extract_instances(trees)
    assert data.classes[0] == NULL_CLASS
    assert list(data.classes[1:]) == sorted(data.classes[1:])
    # the toy grammar wraps N in NP and V in VP, AV in ADVP
    assert 'NP' in data.classes
    assert any(c.startswith('VP') or c == 'VP' for c in data.classes)
    # one instance per tree: its unaryless form and its gold chains,
    # whose classes are in the inventory
    assert list(data.instances) == [
        (strip_unaries(t), unary_chains(t)) for t in trees]
    assert {c for _, chains in data.instances for c in chains.values()} \
        == set(data.classes[1:])


def test_allowed_map_restricts_candidates():
    trees = _toy(50)
    data = extract_instances(trees)
    # chains observed over N nodes never include VP
    for sym, chains in data.allowed.items():
        for chain in chains:
            assert chain in data.classes


def test_feature_vector_shape(english_tree):
    node = english_tree.root
    feats = featurize_node(english_tree, node, None, None)
    assert len(feats) == 19
    child = english_tree.root.children[0]   # the NP
    feats_np = featurize_node(english_tree, child, node, 0)
    assert len(feats_np) == 19
    assert feats != feats_np


def test_production_above_feature(english_tree):
    # the NP under S sees the plain parent production
    np_node = english_tree.root.children[0]
    feats = featurize_node(english_tree, np_node, english_tree.root, 0)
    assert any('S->NP VP' in f for f in feats)


def test_memorize_and_invert_strip():
    trees = _toy(120)
    data = extract_instances(trees)
    model = train_unary(data, epochs=8, seed=1)
    wrong = 0
    for t in trees:
        stripped = strip_unaries(t)
        restored = recover(stripped, model)
        assert validate(restored) == []
        if restored != t:
            wrong += 1
    assert wrong <= 1


def test_strip_of_recover_is_identity():
    trees = _toy(40, seed=3)
    data = extract_instances(trees)
    model = train_unary(data, epochs=4, seed=3)
    for t in trees[:20]:
        stripped = strip_unaries(t)
        assert strip_unaries(recover(stripped, model)) == stripped


def test_zero_epochs_predicts_null_everywhere():
    trees = _toy(20)
    data = extract_instances(trees)
    model = train_unary(data, epochs=0)
    for t in trees[:10]:
        stripped = strip_unaries(t)
        assert recover(stripped, model) == stripped


def test_recover_can_reroot():
    # a corpus whose root always wears a unary TOP gets it back on top
    from hodt.trees import CTree, preterminal, proper
    from tests.conftest import make_sentence

    trees = []
    for k in range(30):
        sent = make_sentence(('w%d' % k, 'V'), ('n%d' % k, 'N'))
        s = proper('S', 1, (preterminal('V', 1),
                            preterminal('N', 2)))
        trees.append(CTree(proper('TOP', 1, (s,)), sent))
    data = extract_instances(trees)
    model = train_unary(data, epochs=5, seed=1)
    stripped = strip_unaries(trees[0])
    assert stripped.root.label == 'S'
    restored = recover(stripped, model)
    assert restored.root.label == 'TOP'
    assert restored == trees[0]


def test_determinism():
    trees = _toy(30)
    data = extract_instances(trees)
    a = train_unary(data, epochs=3, seed=2)
    b = train_unary(data, epochs=3, seed=2)
    assert a.to_json() == b.to_json()


def test_node_rows_match_per_node_hashing():
    # the nodes with a class besides NULL to choose, each row against
    # hashing and conjoining its own features alone
    trees = _toy(20) + [gen_ctree(GenConfig(
        seed=2, discontinuity_probability=1.0, unary_probability=0.3), 12)]
    data = extract_instances(trees)
    K = len(data.classes)
    model = train_unary(data, epochs=0)
    open_model = LinearModel(dim_bits=20, meta=model.meta)
    allowed = model.meta['allowed']
    checked = skipped = 0
    for tree, _ in data.instances:
        ((nodes, rows, cand),) = _node_rows(open_model, [tree])
        want = [(node, parent, slot)
                for node, parent, slot in _with_parents(tree.root)
                if node.label in allowed]
        skipped += sum(1 for _ in _with_parents(tree.root)) - len(want)
        assert [id(n) for n in nodes] == [id(n) for n, _, _ in want]
        assert rows.shape == (len(nodes), K, 19)
        for (node, parent, slot), got, ok in zip(want, rows, cand):
            digests = hash_features(featurize_node(tree, node, parent,
                                                   slot))
            keys = 2 * np.arange(K) + (node.kind == PRETERMINAL)
            assert np.array_equal(got, open_model.indices(
                conjoin_grid(digests, keys)))
            assert np.flatnonzero(ok).tolist() == [0, *allowed[node.label]]
            checked += 1
    assert checked > 50 and skipped > 50


def test_recover_hashes_each_tree_once(monkeypatch):
    trees = _toy(40)
    model = train_unary(extract_instances(trees), epochs=2, seed=1)
    calls = []
    real = perceptron.hash_features
    monkeypatch.setattr(perceptron, 'hash_features',
                        lambda texts: calls.append(list(texts))
                        or real(texts))
    choices = []
    for t in trees[:5]:
        stripped = strip_unaries(t)
        choices.append(sum(node.label in model.meta['allowed']
                           for node, _, _ in _with_parents(stripped.root)))
        recover(stripped, model)
    assert [len(c) for c in calls] == [19 * n for n in choices]
    assert all(choices)


def test_training_decodes_each_tree_once_with_only_its_choices(
        monkeypatch):
    # one decode per tree and epoch, of the nodes with a choice only (a
    # node whose only candidate is NULL is never decoded); the weights are
    # those of an unobserved run
    data = extract_instances(_toy(60))
    want = train_unary(data, epochs=3, seed=1).to_json()
    decoded = []
    real = unary_recovery._decide

    def decide(weights, rows, allowed):
        decoded.append(allowed)
        return real(weights, rows, allowed)

    monkeypatch.setattr(unary_recovery, '_decide', decide)
    model = train_unary(data, epochs=3, seed=1)
    assert model.to_json() == want
    choices = [sum(node.label in data.allowed
                   for node, _, _ in _with_parents(tree.root))
               for tree, _ in data.instances]
    nodes = [sum(1 for _ in _with_parents(tree.root))
             for tree, _ in data.instances]
    assert 0 < sum(choices) < sum(nodes)
    assert len(decoded) == 3 * len(data.instances)
    assert sorted(len(a) for a in decoded) == sorted(3 * choices)
    assert all(a.sum(axis=1).min(initial=2) > 1 for a in decoded)


def test_training_predicts_what_recover_predicts(monkeypatch):
    # each tree's decisions in training are recover's under the same
    # weights, and the tree is a mistake exactly when recover gets it
    # wrong
    trees = _toy(60, seed=7)
    data = extract_instances(trees)
    decided = []
    real_decide = unary_recovery._decide
    monkeypatch.setattr(unary_recovery, '_decide',
                        lambda weights, rows, allowed: decided.append(
                            real_decide(weights, rows, allowed))
                        or decided[-1])
    real_train = perceptron.train
    seen = {True: 0, False: 0}

    def train(model, examples, epochs, seed, mistakes):
        index = {id(example): i for i, example in enumerate(examples)}
        classes = model.meta['classes']

        def check(model, example):
            i = index[id(example)]
            stripped, _ = data.instances[i]
            decided.clear()
            wrong = mistakes(model, example)
            (pred,) = decided
            nodes = [node for node, _, _ in _with_parents(stripped.root)
                     if node.label in data.allowed]
            got = recover(stripped, model)
            assert got == add_chains(stripped, {
                node.positions: classes[k]
                for node, k in zip(nodes, pred.tolist()) if k})
            assert (wrong is None) == (got == trees[i])
            seen[wrong is None] += 1
            return wrong

        return real_train(model, examples, epochs, seed, check)

    monkeypatch.setattr(perceptron, 'train', train)
    train_unary(data, epochs=3, seed=1)
    assert seen[True] and seen[False]


def test_restores_every_held_out_tree_of_the_tie_bank():
    # on this bank a restorer that updated after each node left 36 of the
    # first 200 transitive V nodes at a zero margin between VP and NULL,
    # and its averaged weights put a spurious VP over 103 of these trees
    data = extract_instances(gen_toy_treebank(GenConfig(seed=3), 960))
    model = train_unary(data, epochs=5, seed=1)
    held = gen_toy_treebank(GenConfig(seed=1000006), 720)
    wrong = sum(recover(strip_unaries(t), model) != t for t in held)
    assert wrong == 0
