"""Acceptance gate: the eleven shipping criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion.

Self-contained on purpose: brute-force oracles are reimplemented here
rather than imported from the unit-test files, and the end-to-end and
determinism checks drive the command line entry point.  Tolerances and
time budgets sit in the constants below.
"""

import itertools
import json
import time

import numpy as np
import pytest

from hodt.cli import main as cli_main
from hodt.corpus_gen import (
    GenConfig, enumerate_ctrees, gen_ctree, gen_toy_treebank)
from hodt.encoding import (
    ROOT_LABEL, decode, encode_delta, encode_direct, encode_hn,
    label_alphabet)
from hodt.errors import TreeStructureError
from hodt.evaluation import EvalConfig, evalb
from hodt.headrules import lexicalize, load_rules
from hodt.kernels import cle_decode, eisner_decode, viterbi_chain
from hodt.perceptron import LinearModel
from hodt.reduction import ctree_to_dtree, dtree_to_ctree, recover_order
from hodt.treebank_io import read_bracketed, write_bracketed
from hodt.trees import (
    Arc, CTree, DTree, HeadOrderedDTree, PROPER, is_continuous, is_nested,
    is_projective, iter_nodes, preterminal, proper, spine, strip_unaries,
    validate)
from hodt.unary_recovery import recover

from tests.conftest import arc_set, make_sentence

TOL = 1e-9
FIGURE_BUDGET_S = 1.0
BIJECTION_BUDGET_S = 60.0
ORACLE_BUDGET_S = 60.0
END_TO_END_BUDGET_S = 300.0
F1_FLOOR = 0.95
UNARY_ORACLE_FLOOR = 0.99
RANDOM_TREES = 10_000
FUZZ_TREES = 10_000

_CACHE = {}


def _exhaustive():
    """Every unaryless tree over 1..5 tokens, all head choices."""
    if 'exhaustive' not in _CACHE:
        trees = []
        for n in range(1, 6):
            trees.extend(enumerate_ctrees(n))
        _CACHE['exhaustive'] = trees
    return _CACHE['exhaustive']


def _random_corpus():
    """10^4 seeded random unaryless trees, 2..8 tokens, half of the draws
    from the discontinuous builder."""
    if 'random' not in _CACHE:
        cfg = GenConfig(seed=1, discontinuity_probability=0.5)
        _CACHE['random'] = [
            gen_ctree(cfg, 2 + i % 7, index=i) for i in range(RANDOM_TREES)]
    return _CACHE['random']


def test_c01_worked_example_fidelity(
        english_tree, english_tree_unaryless, german_tree):
    start = time.perf_counter()
    d_en = ctree_to_dtree(english_tree)
    assert d_en.root == 3
    assert arc_set(d_en) == {
        (2, 1, 'NP', 1), (3, 2, 'S', 2), (3, 4, 'VP', 1),
        (3, 5, 'VP', 1), (3, 6, 'S', 2)}
    # decoding drops the unary ADVP/ADJP wrappers
    assert dtree_to_ctree(d_en) == english_tree_unaryless

    d_de = ctree_to_dtree(german_tree)
    assert d_de.root == 2
    arcs = arc_set(d_de)
    assert {(4, 3, 'NP', 1), (4, 1, 'NP', 2), (2, 4, 'S', 1)} <= arcs
    (vroot_arc,) = [a for a in arcs if a[2] == 'VROOT']
    assert vroot_arc[:3] == (2, 5, 'VROOT')
    # the clause node occupies step 1 of the head's spine, so the
    # punctuation attachment is necessarily the second event; a step-1
    # VROOT arc cannot coexist with the step-1 S arc
    assert vroot_arc[3] == 2
    conflicting = HeadOrderedDTree.from_arcs(
        german_tree.sentence,
        [Arc(4, 3, 'NP', 1), Arc(4, 1, 'NP', 2),
         Arc(2, 4, 'S', 1), Arc(2, 5, 'VROOT', 1)], 2)
    with pytest.raises(TreeStructureError):
        dtree_to_ctree(conflicting)
    assert dtree_to_ctree(d_de) == german_tree
    assert time.perf_counter() - start < FIGURE_BUDGET_S


def test_c02_roundtrip_bijection():
    start = time.perf_counter()
    exhaustive = _exhaustive()
    assert len(exhaustive) == 3357       # 1 + 2 + 15 + 184 + 3155
    failures = 0
    for t in exhaustive:
        failures += dtree_to_ctree(ctree_to_dtree(t)) != t
    for t in _random_corpus():
        failures += dtree_to_ctree(ctree_to_dtree(t)) != t
    assert failures == 0
    assert time.perf_counter() - start < BIJECTION_BUDGET_S


def _is_binary(tree):
    return all(len(node.children) == 2
               for node in iter_nodes(tree.root) if node.kind == PROPER)


def test_c03_binary_strictly_ordered():
    checked = 0
    for t in itertools.chain(_exhaustive(), _random_corpus()):
        if not _is_binary(t):
            continue
        d = ctree_to_dtree(t)
        per_step = {}
        for arc in d.arcs:
            per_step[(arc.head, arc.order_index)] = per_step.get(
                (arc.head, arc.order_index), 0) + 1
        assert all(size == 1 for size in per_step.values())
        regenerated = ctree_to_dtree(dtree_to_ctree(d))
        assert set(regenerated.arcs) == set(d.arcs)
        assert regenerated.root == d.root
        checked += 1
    assert checked >= 2 + 12 + 120 + 1680   # the exhaustive binary trees


def test_c04_continuity_equivalence():
    for t in itertools.chain(_exhaustive(), _random_corpus()):
        d = ctree_to_dtree(strip_unaries(t))
        assert is_continuous(t) == (is_projective(d) and is_nested(d))


def _decodes_back(dtree, enc, scheme):
    result = decode(enc, scheme)
    if result.warnings:
        return False
    got = set()
    for m, h in enumerate(enc.heads, 1):
        if h == 0:
            continue
        label, idx = result.pairs[m - 1]
        got.add((h, m, label, idx))
    return got == arc_set(dtree)


def test_c05_encoding_roundtrips():
    for t in itertools.chain(_exhaustive(), _random_corpus()):
        d = ctree_to_dtree(t)
        assert _decodes_back(d, encode_direct(d), 'direct')
    delta_checked = 0
    for t in itertools.chain(_exhaustive(), _random_corpus()):
        if not is_continuous(t):
            continue
        d = ctree_to_dtree(t)
        assert _decodes_back(d, encode_delta(d), 'delta')
        delta_checked += 1
    assert delta_checked > 1000

    # the worked single-head example: absolute steps 1,3,4 on the left
    # and 2,3,3,5 on the right encode, per side head-outward, as the
    # absolute first step then consecutive differences: 1,2,1 / 2,1,0,2
    sent = make_sentence(*((f'w{i}', 'P') for i in range(1, 9)))
    heads = (4, 4, 4, 0, 4, 4, 4, 4)
    pairs = (('X', 4), ('X', 3), ('X', 1), None,
             ('X', 2), ('X', 3), ('X', 3), ('X', 5))
    hodt, stats = recover_order(DTree(sent, heads, pairs))
    assert stats.total() == 0
    enc = encode_delta(hodt)
    tails = [label.split('#')[-1] for label in enc.labels]
    assert tails[:3] == ['1', '2', '1']
    assert tails[4:] == ['2', '1', '0', '2']
    assert _decodes_back(hodt, enc, 'delta')


def _proper_spine_height(tree):
    return max(
        sum(1 for label in spine(tree, h)[:-1] if label is not None)
        for h in range(1, len(tree.sentence) + 1))


def test_c06_alphabet_sizes():
    # 150 sentences per corpus: enough to populate each scheme's label
    # inventory for the toy grammar (smaller samples can tie by chance)
    corpora_checked = 0
    for seed in range(1, 21):
        trees = gen_toy_treebank(GenConfig(seed=seed), 150)
        stripped = [strip_unaries(t) for t in trees]
        direct = label_alphabet(
            [encode_direct(ctree_to_dtree(t)) for t in stripped])
        delta = label_alphabet(
            [encode_delta(ctree_to_dtree(t)) for t in stripped])
        hn = label_alphabet([encode_hn(t) for t in trees])
        assert len(delta) <= len(direct)
        # each corpus carries verb spines at least two proper nodes tall
        # (a clause node over a verb-phrase node), the regime where the
        # spine-concatenation scheme pays with a larger alphabet
        assert any(_proper_spine_height(t) >= 2 for t in trees)
        assert len(hn) > len(direct)
        corpora_checked += 1
    assert corpora_checked == 20


def _spanning_single_root(heads):
    if sum(1 for h in heads if h == 0) != 1:
        return False
    for start in range(1, len(heads) + 1):
        seen = set()
        v = start
        while v != 0:
            if v in seen:
                return False
            seen.add(v)
            v = heads[v - 1]
    return True


def _head_vector_projective(heads):
    children = {}
    for m, h in enumerate(heads, 1):
        children.setdefault(h, set()).add(m)

    def descendants(h):
        out = set()
        stack = [h]
        while stack:
            v = stack.pop()
            for c in children.get(v, ()):
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    for m, h in enumerate(heads, 1):
        if h == 0:
            continue
        desc = descendants(h)
        for between in range(min(h, m) + 1, max(h, m)):
            if between not in desc:
                return False
    return True


def _brute_best(scores, projective_only):
    n = scores.shape[0] - 1
    key = ('trees', n, projective_only)
    if key not in _CACHE:
        _CACHE[key] = [
            heads for heads in itertools.product(range(n + 1), repeat=n)
            if _spanning_single_root(heads)
            and (not projective_only or _head_vector_projective(heads))]
    best = -np.inf
    for heads in _CACHE[key]:
        total = sum(scores[h][m] for m, h in enumerate(heads, 1))
        best = max(best, total)
    return best


def test_c07_decoder_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for decoder, projective in ((eisner_decode, True), (cle_decode, False)):
        for trial in range(200):
            n = 1 + trial % 5
            sc = rng.normal(size=(n + 1, n + 1))
            heads, total = decoder(sc)
            assert _spanning_single_root(heads)
            if projective:
                assert _head_vector_projective(heads)
            achieved = sum(sc[h][m] for m, h in enumerate(heads, 1))
            assert abs(achieved - total) < TOL
            assert abs(total - _brute_best(sc, projective)) < TOL

    for trial in range(200):
        T = 1 + trial % 4          # modifiers in the chain
        K = 1 + trial % 5          # candidate labels
        emis = rng.normal(size=(T, K))
        trans = rng.normal(size=(T, K, K))
        path, total = viterbi_chain(emis, trans)
        best = -np.inf
        for seq in itertools.product(range(K), repeat=T):
            s = sum(emis[t][k] for t, k in enumerate(seq))
            s += sum(trans[t][seq[t - 1]][seq[t]] for t in range(1, T))
            best = max(best, s)
        achieved = sum(emis[t][k] for t, k in enumerate(path))
        achieved += sum(trans[t][path[t - 1]][path[t]] for t in range(1, T))
        assert abs(achieved - total) < TOL
        assert abs(total - best) < TOL
    assert time.perf_counter() - start < ORACLE_BUDGET_S


GARBAGE_LABELS = (
    '', '#', 'X#', '#3', 'X#-2', 'A|B#z', '\\#', 'X#1#2', 'VP#0',
    '∅#1', 'NP#999', 'S|VP#2', 'no-index', 'A#B#C', 'X##', '|#1')
PLAUSIBLE_LABELS = ('NP#1', 'VP#2', 'S#3', 'X#7', 'ADJP#1', 'S#1')


def test_c08_repair_totality():
    pool = GARBAGE_LABELS + PLAUSIBLE_LABELS
    rng = np.random.default_rng(8)
    cfg = GenConfig(seed=77)
    produced = 0
    for i in range(FUZZ_TREES):
        base = gen_ctree(cfg, 2 + i % 6, index=i)   # continuous skeleton
        heads = ctree_to_dtree(strip_unaries(base)).heads()
        labels = tuple(
            ROOT_LABEL if h == 0 else pool[rng.integers(len(pool))]
            for h in heads)
        scheme = ('direct', 'delta', 'hn')[i % 3]
        result = decode(
            DTree(base.sentence, heads, labels), scheme)
        skeleton = DTree(base.sentence, heads, result.pairs)
        repaired, _ = recover_order(skeleton, continuous_mode=True)
        tree = dtree_to_ctree(repaired)
        assert validate(tree) == []
        assert is_continuous(tree)
        produced += 1
    assert produced == FUZZ_TREES


def test_c09_end_to_end_memorization(tmp_path):
    start = time.perf_counter()
    trees = gen_toy_treebank(GenConfig(seed=1), 200)
    train_file = tmp_path / 'train.brackets'
    train_file.write_text(write_bracketed(trees), encoding='utf-8')
    bundle = tmp_path / 'bundle'
    assert cli_main([
        'train', '-i', str(train_file), '-m', str(bundle),
        '--head-rules', 'toy', '--epochs', '10', '--seed', '1']) == 0

    tagged = '\n'.join(
        ' '.join(f'{tok.form}/{tok.pos}' for tok in tree.sentence)
        for tree in trees) + '\n'
    sent_file = tmp_path / 'sentences.txt'
    sent_file.write_text(tagged, encoding='utf-8')
    pred_file = tmp_path / 'pred.brackets'
    assert cli_main([
        'parse', '-m', str(bundle), '-i', str(sent_file),
        '-o', str(pred_file)]) == 0

    rules = load_rules((bundle / 'rules.txt').read_text().splitlines())
    pred = [lexicalize(t, rules)
            for t in read_bracketed(pred_file.read_text())]
    report = evalb(trees, pred)
    assert report.f1 >= F1_FLOOR

    # restoration oracle: gold unaryless skeletons in, original trees out
    unary_model = LinearModel.load(str(bundle / 'unary.json'))
    restored = sum(
        recover(strip_unaries(t), unary_model) == t for t in trees)
    assert restored / len(trees) >= UNARY_ORACLE_FLOOR
    assert time.perf_counter() - start < END_TO_END_BUDGET_S


def test_c10_scorer_correctness(english_tree_unaryless):
    cfg = EvalConfig(punctuation_pos=frozenset({'.'}))
    identity = evalb([english_tree_unaryless], [english_tree_unaryless], cfg)
    assert identity.precision == identity.recall == identity.f1 == 1.0
    assert identity.exact == 1.0

    # two of the three gold brackets survive in the prediction
    sent = make_sentence(
        ('The', 'DT'), ('public', 'NN'), ('is', 'VBZ'),
        ('still', 'RB'), ('cautious', 'JJ'), ('.', '.'))
    pre = {i: preterminal(t.pos, i)
           for i, t in zip(range(1, 7), sent)}
    pred = CTree(proper('S', 3, (
        proper('NP', 2, (pre[1], pre[2])),
        proper('VP', 3, (pre[3], pre[4])),
        pre[5], pre[6])), sent)
    partial = evalb([english_tree_unaryless], [pred], cfg)
    assert abs(partial.precision - 2 / 3) < TOL
    assert abs(partial.recall - 2 / 3) < TOL
    assert abs(partial.f1 - 2 / 3) < TOL

    for seed in range(100):
        n = 3 + seed % 6
        g = gen_ctree(GenConfig(seed=seed,
                                discontinuity_probability=0.3), n)
        p = gen_ctree(GenConfig(seed=seed + 500,
                                discontinuity_probability=0.3), n)
        fwd = evalb([g], [p])
        rev = evalb([p], [g])
        assert abs(fwd.precision - rev.recall) < TOL
        assert abs(fwd.recall - rev.precision) < TOL


def _pipeline_run(base):
    base.mkdir()
    corpus = base / 'corpus.brackets'
    assert cli_main(['gen', '--kind', 'toy', '-n', '60', '--seed', '5',
                     '-o', str(corpus)]) == 0
    conll = base / 'deps.conll'
    assert cli_main(['convert', '-i', str(corpus), '--head-rules', 'toy',
                     '-o', str(conll)]) == 0
    bundle = base / 'bundle'
    assert cli_main(['train', '-i', str(corpus), '-m', str(bundle),
                     '--head-rules', 'toy', '--epochs', '3',
                     '--seed', '2']) == 0
    rules = load_rules((bundle / 'rules.txt').read_text().splitlines())
    trees = [lexicalize(t, rules)
             for t in read_bracketed(corpus.read_text())]
    tagged = '\n'.join(
        ' '.join(f'{tok.form}/{tok.pos}' for tok in tree.sentence)
        for tree in trees) + '\n'
    sents = base / 'sentences.txt'
    sents.write_text(tagged, encoding='utf-8')
    pred = base / 'pred.brackets'
    assert cli_main(['parse', '-m', str(bundle), '-i', str(sents),
                     '-o', str(pred)]) == 0
    report = base / 'report.json'
    assert cli_main(['eval', str(corpus), str(pred),
                     '-o', str(report)]) == 0


def test_c11_byte_determinism(tmp_path):
    _pipeline_run(tmp_path / 'one')
    _pipeline_run(tmp_path / 'two')
    compared = 0
    for rel in ('corpus.brackets', 'deps.conll', 'pred.brackets',
                'report.json', 'bundle/manifest.json', 'bundle/parser.json',
                'bundle/labeler.json', 'bundle/unary.json',
                'bundle/rules.txt'):
        first = (tmp_path / 'one' / rel).read_bytes()
        second = (tmp_path / 'two' / rel).read_bytes()
        assert first == second, f'{rel} differs between runs'
        compared += 1
    assert compared == 9
    report = json.loads((tmp_path / 'one' / 'report.json').read_text())
    assert report['kind'] == 'brackets'
