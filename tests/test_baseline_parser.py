import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodt.baseline_parser import (FEATURES_PER_ARC, arc_features,
                                  arc_index_table, featurize_arc,
                                  parse_heads, train_unlabeled,
                                  tree_arc_digests)
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.encoding import encode_direct
from hodt.errors import ToolkitError
from hodt.perceptron import LinearModel, feature_hash, hash_features
from hodt.reduction import ctree_to_dtree

from conftest import make_sentence


def _toy_corpus(n, seed=1):
    trees = gen_toy_treebank(GenConfig(seed=seed), n)
    return [encode_direct(ctree_to_dtree(t)) for t in trees]


def test_feature_count_fixed():
    sent = make_sentence(('a', 'A'), ('b', 'B'), ('c', 'C'))
    for h in range(0, 4):
        for m in range(1, 4):
            if h == m:
                continue
            feats = featurize_arc(sent, h, m)
            assert len(feats) == FEATURES_PER_ARC == 34


def test_features_distinguish_direction_and_distance():
    sent = make_sentence(*((f'w{i}', f'P{i}') for i in range(1, 8)))
    near = set(featurize_arc(sent, 2, 3))
    far = set(featurize_arc(sent, 2, 7))
    flipped = set(featurize_arc(sent, 3, 2))
    assert near != far
    assert near != flipped


def test_root_arcs_use_sentinels():
    sent = make_sentence(('a', 'A'), ('b', 'B'))
    feats = featurize_arc(sent, 0, 1)
    assert any('<root>' in f for f in feats)


def test_memorizes_small_treebank():
    corpus = _toy_corpus(30)
    model = train_unlabeled(corpus, epochs=8, seed=1)
    wrong = 0
    for enc in corpus:
        got, _ = parse_heads(model, enc.sentence)
        wrong += sum(1 for a, b in zip(got, enc.heads) if a != b)
    total = sum(len(e.sentence) for e in corpus)
    assert wrong / total < 0.05


def test_training_is_deterministic():
    corpus = _toy_corpus(15)
    m1 = train_unlabeled(corpus, epochs=3, seed=9)
    m2 = train_unlabeled(corpus, epochs=3, seed=9)
    assert m1.to_json() == m2.to_json()
    m3 = train_unlabeled(corpus, epochs=3, seed=10)
    assert m1.to_json() != m3.to_json()


def test_zero_epochs_gives_zero_model():
    corpus = _toy_corpus(5)
    model = train_unlabeled(corpus, epochs=0)
    assert not model.weights.any()


def test_projectivity_flag_selects_decoder():
    corpus = _toy_corpus(10)
    proj = train_unlabeled(corpus, epochs=2, projective=True)
    nonproj = train_unlabeled(corpus, epochs=2, projective=False)
    assert proj.meta['projective'] is True
    assert nonproj.meta['projective'] is False
    sent = corpus[0].sentence
    assert len(parse_heads(proj, sent)[0]) == len(sent)
    assert len(parse_heads(nonproj, sent)[0]) == len(sent)


def test_length_mismatch_rejected():
    corpus = _toy_corpus(1)
    sent = corpus[0].sentence

    class Broken:
        sentence = sent
        heads = (0,) * (len(sent) + 3)

    with pytest.raises(ToolkitError):
        train_unlabeled([Broken()], epochs=1)


def _reference_arc_table(model, sentence):
    """One arc at a time: featurize_arc, feature_hash of each string, the
    model's mask."""
    n = len(sentence)
    table = np.zeros((n + 1, n + 1, FEATURES_PER_ARC), dtype=np.intp)
    for m in range(1, n + 1):
        for h in range(n + 1):
            if h != m:
                digests = np.array(
                    [feature_hash(f) for f in featurize_arc(sentence, h, m)],
                    dtype=np.uint64)
                table[h, m] = model.indices(digests)
    return table


SENTENCES = {
    'toy': lambda: [t.sentence for t in
                    gen_toy_treebank(GenConfig(seed=4), 6)],
    'long': lambda: [gen_ctree(GenConfig(seed=4), 40).sentence],
    'disc': lambda: [gen_ctree(GenConfig(
        seed=4, discontinuity_probability=1.0), 40).sentence],
    'one': lambda: [make_sentence(('a', 'A'))],
    'empty': lambda: [make_sentence()],
}


@pytest.mark.parametrize('kind', sorted(SENTENCES))
def test_arc_index_table_matches_per_arc_hashing(kind):
    model = LinearModel(dim_bits=20)
    for sentence in SENTENCES[kind]():
        table, _, _ = arc_index_table(model, sentence)
        n = len(sentence)
        assert table.shape == (n + 1, n + 1, FEATURES_PER_ARC)
        assert table.dtype == np.intp
        assert np.array_equal(table, _reference_arc_table(model, sentence))


def test_arc_index_table_hashes_each_distinct_code_once(hash_calls):
    sentence = gen_ctree(GenConfig(seed=4), 12).sentence
    arcs = [(h, m) for h in range(13) for m in range(1, 13) if h != m]
    texts, _ = arc_features(sentence, *zip(*arcs))
    arc_index_table(LinearModel(), sentence)
    every = [f for h, m in arcs for f in featurize_arc(sentence, h, m)]
    # one call, with one string per distinct code: a string that two
    # codes render is hashed twice, every other string once
    (hashed,) = hash_calls
    assert hashed == texts
    assert set(hashed) == set(every)
    assert len(set(hashed)) <= len(hashed) < len(every)


# few atoms, so that parts repeat; with spaces and '/', so that different
# parts can join into the same string; and the sentinels as words
ATOMS = st.sampled_from(
    ['a', 'b', 'c', 'a b', 'b c', '/', 'a/R1', '<root>', '<none>'])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(ATOMS, ATOMS), max_size=14))
def test_arc_index_table_matches_per_arc_hashing_on_random_sentences(words):
    # up to 14 tokens, so that the >10 distance bin is reached
    model = LinearModel(dim_bits=20)
    sentence = make_sentence(*words)
    table, _, _ = arc_index_table(model, sentence)
    assert np.array_equal(table, _reference_arc_table(model, sentence))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(ATOMS, ATOMS), min_size=1, max_size=14))
@example([('a', 'b')])
@pytest.mark.parametrize('projective', [True, False])
def test_parse_heads_returns_the_digests_of_the_chosen_arcs(projective,
                                                            words):
    # random weights, so that the decoded trees vary
    model = LinearModel(dim_bits=12, meta={'projective': projective})
    # index i gets the i-th value: the slots are handed out in a
    # separate statement, since handing them out may grow `weights`
    slots = model.indices(np.arange(1 << 12, dtype=np.uint64))
    model.weights[slots] = np.random.default_rng(len(words)).standard_normal(
        slots.size)
    sentence = make_sentence(*words)
    heads, digests = parse_heads(model, sentence)
    assert digests.shape == (len(sentence), FEATURES_PER_ARC)
    assert digests.dtype == np.uint64
    reference = np.array([hash_features(featurize_arc(sentence, h, m))
                          for m, h in enumerate(heads, 1)])
    assert np.array_equal(digests, reference)
    assert np.array_equal(tree_arc_digests(sentence, heads), reference)


def test_arc_index_table_hashes_a_string_of_two_codes_twice(hash_calls):
    # 'a b' + 'c' and 'a' + 'b c' are different head and modifier forms
    # that render the same 'hf,mf:a b c'
    sentence = make_sentence(('a b', 'X'), ('c', 'Y'), ('a', 'Z'),
                             ('b c', 'W'))
    assert featurize_arc(sentence, 1, 2)[8] == 'hf,mf:a b c'
    assert featurize_arc(sentence, 3, 4)[8] == 'hf,mf:a b c'
    model = LinearModel(dim_bits=20)
    table, _, _ = arc_index_table(model, sentence)
    (hashed,) = hash_calls
    assert hashed.count('hf,mf:a b c') == 2
    assert hashed.count('hf,mf:a b c/R1') == 2
    assert np.array_equal(table, _reference_arc_table(model, sentence))
