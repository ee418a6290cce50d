import itertools
import warnings

import numpy as np
import pytest

from hodt.kernels import BACKEND, cle_decode, eisner_decode, viterbi_chain


def _spanning_single_root(heads):
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return False
    for start in range(1, n + 1):
        seen = set()
        v = start
        while v != 0:
            if v in seen:
                return False
            seen.add(v)
            v = heads[v - 1]
    return True


def _projective(heads):
    n = len(heads)
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

    desc = {h: descendants(h) for h in range(n + 1)}
    for m, h in enumerate(heads, 1):
        if h == 0:
            continue
        lo, hi = min(h, m), max(h, m)
        for between in range(lo + 1, hi):
            if between not in desc[h]:
                return False
    return True


def _all_trees(n, projective_only):
    trees = []
    for heads in itertools.product(range(n + 1), repeat=n):
        if not _spanning_single_root(heads):
            continue
        if projective_only and not _projective(heads):
            continue
        trees.append(heads)
    return trees


_TREE_CACHE = {}


def brute_best(scores, projective_only):
    n = scores.shape[0] - 1
    key = (n, projective_only)
    if key not in _TREE_CACHE:
        _TREE_CACHE[key] = _all_trees(n, projective_only)
    best = -np.inf
    for heads in _TREE_CACHE[key]:
        total = sum(scores[h][m] for m, h in enumerate(heads, 1))
        if total > best:
            best = total
    return best


@pytest.mark.parametrize('decoder,projective', [
    (eisner_decode, True), (cle_decode, False)])
def test_decoders_match_brute_force(decoder, projective):
    rng = np.random.default_rng(42)
    for trial in range(200):
        n = 1 + trial % 5
        sc = rng.normal(size=(n + 1, n + 1))
        heads, total = decoder(sc)
        want = brute_best(sc, projective)
        assert total == pytest.approx(want, abs=1e-9)
        assert _spanning_single_root(heads)
        if projective:
            assert _projective(heads)
        achieved = sum(sc[h][m] for m, h in enumerate(heads, 1))
        assert achieved == pytest.approx(total, abs=1e-9)


def test_eisner_reads_lists_and_float32_as_float64():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = 1 + trial % 12
        sc32 = rng.normal(size=(n + 1, n + 1)).astype(np.float32)
        sc = sc32.astype(float)
        want = eisner_decode(sc)
        assert eisner_decode(sc.tolist()) == want
        assert eisner_decode(sc32) == want


def _forced_root(sc, r):
    """sc with word r the only possible root: the other root arcs and
    every arc into r blocked."""
    forced = sc.copy()
    forced[0, 1:] = -np.inf
    forced[0, r] = sc[0, r]
    forced[1:, r] = -np.inf
    return forced


@pytest.mark.parametrize('draw', ['normal', 'integer'])
def test_cle_total_is_the_best_over_forced_roots(draw):
    # the one-pass root constraint against one decode per possible root;
    # totals, not heads, because integer scores tie
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = 2 + trial % 39
        if draw == 'normal':
            sc = rng.normal(size=(n + 1, n + 1))
        else:
            sc = rng.integers(-3, 4, size=(n + 1, n + 1)).astype(float)
        heads, total = cle_decode(sc)
        assert _spanning_single_root(heads)
        assert sum(sc[h][m] for m, h in enumerate(heads, 1)) == \
            pytest.approx(total, abs=1e-9)
        best = max(cle_decode(_forced_root(sc, r))[1]
                   for r in range(1, n + 1))
        assert total == pytest.approx(best, abs=1e-9)


def test_cle_scores_near_the_float_limit():
    # the root penalty of scores near 1e307 overflows float64 unless they
    # are scaled down first; an exact power-of-two scale must not change
    # the tree
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        for _ in range(300):
            sc = rng.normal(size=(6, 6)) * 1e307
            heads, _ = cle_decode(sc)
            assert _spanning_single_root(heads)
            assert heads == cle_decode(sc * 2.0 ** -60)[0]


@pytest.mark.parametrize('decoder', [eisner_decode, cle_decode])
def test_decoders_return_a_tree_when_every_tree_is_blocked(decoder):
    rng = np.random.default_rng(3)
    for n in range(1, 8):
        no_arcs = np.full((n + 1, n + 1), -np.inf)
        no_root = rng.normal(size=(n + 1, n + 1))
        no_root[0] = -np.inf
        for sc in (no_arcs, no_root):
            heads, total = decoder(sc)
            assert _spanning_single_root(heads)
            assert total == -np.inf


@pytest.mark.parametrize('decoder,projective', [
    (eisner_decode, True), (cle_decode, False)])
def test_decoders_avoid_blocked_arcs(decoder, projective):
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = 1 + trial % 5
        sc = rng.normal(size=(n + 1, n + 1))
        sc[rng.random(size=sc.shape) < 0.4] = -np.inf
        heads, total = decoder(sc)
        assert _spanning_single_root(heads)
        assert total == pytest.approx(brute_best(sc, projective), abs=1e-9)
        assert sum(sc[h][m] for m, h in enumerate(heads, 1)) == \
            pytest.approx(total, abs=1e-9)


def _pruned_emissions(rng, T, K):
    """Emissions with -inf at blocked labels, at least one label left per
    step."""
    emis = rng.normal(size=(T, K))
    for t in range(T):
        blocked = rng.random(K) < 0.5
        blocked[rng.integers(K)] = False
        emis[t, blocked] = -np.inf
    return emis


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(7)
    pruned = np.random.default_rng(11)
    cases = []
    for trial in range(200):
        T = 1 + trial % 4
        K = 1 + trial % 5
        cases.append((rng.normal(size=(T, K)), rng.normal(size=(T, K, K))))
        cases.append((_pruned_emissions(pruned, T, K),
                      pruned.normal(size=(T, K, K))))
    for emis, trans in cases:
        T, K = emis.shape
        path, total = viterbi_chain(emis, trans)
        best = -np.inf
        for seq in itertools.product(range(K), repeat=T):
            s = sum(emis[t][k] for t, k in enumerate(seq))
            s += sum(trans[t][seq[t - 1]][seq[t]] for t in range(1, T))
            if s > best:
                best = s
        assert total == pytest.approx(best, abs=1e-9)
        achieved = sum(emis[t][k] for t, k in enumerate(path))
        achieved += sum(trans[t][path[t - 1]][path[t]]
                        for t in range(1, T))
        assert achieved == pytest.approx(total, abs=1e-9)


def test_single_word_sentence():
    sc = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert eisner_decode(sc) == ([0], 3.0)
    assert cle_decode(sc) == ([0], 3.0)


def test_cle_handles_nonprojective():
    # crossing structure 2->4 and 3->1 beats any projective arrangement
    n = 4
    sc = np.full((n + 1, n + 1), -10.0)
    sc[0][2] = 5.0
    sc[2][4] = 5.0
    sc[4][3] = 5.0
    sc[3][1] = 5.0
    heads, total = cle_decode(sc)
    assert heads == [3, 0, 4, 2]
    assert total == pytest.approx(20.0)


def test_single_root_enforced():
    # the matrix strongly prefers two roots; decoders must not comply
    n = 2
    sc = np.array([
        [0.0, 9.0, 9.0],
        [0.0, 0.0, -1.0],
        [0.0, -1.0, 0.0]])
    for decoder in (eisner_decode, cle_decode):
        heads, _ = decoder(sc)
        assert sum(1 for h in heads if h == 0) == 1


# Tie-breaks: the first maximum wins (lowest split point, head, label).
# The expected values are pinned, so a rewrite of a kernel cannot change
# which of several equal-scoring answers comes back.

def test_decoders_tie_break_on_equal_scores():
    for n in range(1, 41):
        for value in (0.0, 1.5):
            sc = np.full((n + 1, n + 1), value)
            assert eisner_decode(sc) == (list(range(n)), value * n)
            assert cle_decode(sc) == ([0] + [1] * (n - 1), value * n)


def test_viterbi_tie_breaks():
    assert viterbi_chain(np.zeros((4, 3)), np.zeros((4, 3, 3))) == (
        [0, 0, 0, 0], 0.0)
    # pruned rows: blocked labels are -inf, the rest tie
    emis = np.zeros((4, 4))
    emis[0, [0, 1]] = -np.inf
    emis[1, [0, 2, 3]] = -np.inf
    emis[3, 3] = -np.inf
    assert viterbi_chain(emis, np.zeros((4, 4, 4))) == ([2, 1, 0, 0], 0.0)
    trans = np.zeros((4, 4, 4))
    trans[2, 1, 3] = 1.0
    trans[3, 3, 0] = -1.0
    assert viterbi_chain(emis, trans) == ([2, 1, 3, 1], 1.0)
    emis = np.array([[-np.inf, 2.0, 2.0], [1.0, -np.inf, 1.0]])
    trans = np.zeros((2, 3, 3))
    trans[1] = [[1, 0, 1], [0, 0, 0], [1, 0, 1]]
    assert viterbi_chain(emis, trans) == ([2, 0], 4.0)


def test_empty_inputs():
    assert eisner_decode(np.zeros((1, 1))) == ([], 0.0)
    assert cle_decode(np.zeros((1, 1))) == ([], 0.0)
    assert viterbi_chain(np.zeros((0, 3)), np.zeros((0, 3, 3))) == ([], 0.0)


def test_backend_is_reported():
    assert BACKEND == 'python'
