"""Decoding kernels: Eisner, Chu-Liu/Edmonds and the label-chain Viterbi.

Ties break toward the first maximum under a strict > scan (ascending
split point / head / label index); numpy's argmax, which returns the
first maximum, gives the same choice.

Score matrices are (n+1, n+1); entry [h][m] is the arc h -> m with words
numbered from 1, and row 0 holds the root-selection scores.
"""

import math

import numpy as np

# the one implementation, named in benchmark metadata
BACKEND = 'python'

NEG_INF = float('-inf')


def eisner_decode(scores):
    """Best projective tree with exactly one root.

    Returns (heads, total): heads[i] is the head of word i+1, 0 for the
    root.  The chart runs over the words only; the root arc is added when
    the two outer complete spans are joined, which is what keeps a second
    root arc impossible.
    """
    n = len(scores) - 1
    if n < 1:
        return [], 0.0
    sc = np.asarray(scores, dtype=float).tolist()
    size = n + 1
    cr = [[0.0] * size for _ in range(size)]      # complete, head at left
    cl = [[0.0] * size for _ in range(size)]      # complete, head at right
    ir = [[NEG_INF] * size for _ in range(size)]  # incomplete, arc s -> t
    il = [[NEG_INF] * size for _ in range(size)]  # incomplete, arc t -> s
    br = [[0] * size for _ in range(size)]
    bl = [[0] * size for _ in range(size)]
    split = [[0] * size for _ in range(size)]  # split point of ir and il
    for length in range(1, n):
        for s in range(1, n - length + 1):
            t = s + length
            best = NEG_INF
            arg = s
            for r in range(s, t):
                v = cr[s][r] + cl[r + 1][t]
                if v > best:
                    best = v
                    arg = r
            il[s][t] = best + sc[t][s]
            ir[s][t] = best + sc[s][t]
            split[s][t] = arg
            best = NEG_INF
            arg = s
            for r in range(s, t):
                v = cl[s][r] + il[r][t]
                if v > best:
                    best = v
                    arg = r
            cl[s][t] = best
            bl[s][t] = arg
            best = NEG_INF
            arg = s + 1
            for r in range(s + 1, t + 1):
                v = ir[s][r] + cr[r][t]
                if v > best:
                    best = v
                    arg = r
            cr[s][t] = best
            br[s][t] = arg
    best = NEG_INF
    root = 1
    for r in range(1, n + 1):
        v = sc[0][r] + cl[1][r] + cr[r][n]
        if v > best:
            best = v
            root = r
    heads = [0] * (n + 1)
    # 0=complete-left, 1=complete-right, 2=incomplete-left, 3=incomplete-right
    stack = [(0, 1, root), (1, root, n)]
    while stack:
        kind, s, t = stack.pop()
        if s == t:
            continue
        if kind == 0:
            r = bl[s][t]
            stack.append((0, s, r))
            stack.append((2, r, t))
        elif kind == 1:
            r = br[s][t]
            stack.append((3, s, r))
            stack.append((1, r, t))
        else:
            if kind == 2:
                heads[s] = t
            else:
                heads[t] = s
            r = split[s][t]
            stack.append((1, s, r))
            stack.append((0, r + 1, t))
    return heads[1:], best


def cle_decode(scores):
    """Best unrestricted (possibly non-projective) tree with exactly one root.

    One Chu-Liu/Edmonds pass over a dense copy of the scores.  Every root
    arc is first lowered by 1 + n * (max - min) of the arc scores, more
    than two tree totals can differ, so the best arborescence has exactly
    one root arc and is the best single-rooted tree (Stanojevic & Cohen,
    "A Root of a Problem", EMNLP 2021).  A -inf arc is raised to a floor
    below every tree of finite arcs beforehand, so a tree comes back even
    when every tree needs one; its total is then -inf.  The floor, the
    penalty and contracted scores stay within 4 (n+1)**3 times the largest
    finite score; only where that could overflow, a copy of the scores
    scaled down by a power of two is decoded instead, which leaves every
    comparison of large scores as it was.

    Greedy heads take the first maximum (the root, then ascending words),
    and a contracted cycle takes the slot of its lowest member.  The total
    is summed over the original scores.
    """
    sc = np.asarray(scores, dtype=float)
    n = len(sc) - 1
    if n < 1:
        return [], 0.0
    arc = ~np.eye(n + 1, dtype=bool)
    arc[:, 0] = False
    finite = arc & np.isfinite(sc)
    lo, hi = (sc[finite].min(), sc[finite].max()) if finite.any() \
        else (0.0, 0.0)
    shift = (math.frexp(max(abs(lo), abs(hi)))[1]
             + 3 * (n + 1).bit_length() + 2 - 1023)
    w = sc
    if shift > 0:
        w, lo, hi = (np.ldexp(x, -shift) for x in (sc, lo, hi))
    w = np.where(finite, w, lo - 1 - n * (hi - lo))
    w[0] -= 1 + n * (w[arc].max() - w[arc].min())
    w[~arc] = NEG_INF
    live = list(range(1, n + 1))
    undo = []
    while True:
        best = w.argmax(axis=0)
        heads = best.tolist()
        cycle = None
        seen = {}
        for start in live:
            v = start
            while v and v not in seen:
                seen[v] = start
                v = heads[v]
            if v and seen[v] == start:
                cycle = [v]
                u = heads[v]
                while u != v:
                    cycle.append(u)
                    u = heads[u]
                break
        if cycle is None:
            break
        # contract the cycle into the slot c of its lowest member; record
        # for each outside node which member its arc into or out of c uses
        members = np.array(sorted(cycle))
        c = members[0]
        into = w[:, members] - w[best[members], members]
        out = w[members]
        undo.append((c, members, best[members],
                     members[into.argmax(axis=1)], members[out.argmax(axis=0)]))
        w[:, c] = into.max(axis=1)
        w[c] = out.max(axis=0)
        w[members[1:]] = NEG_INF
        w[:, members[1:]] = NEG_INF
        w[c, c] = NEG_INF
        live = [v for v in live if v == c or v not in cycle]
    # expand the cycles innermost first; heads of slots still contracted
    # are stale until their own cycle is expanded
    for c, members, cycle_heads, enters, leaves in reversed(undo):
        p = best[c]
        moved = best == c
        best[moved] = leaves[moved]
        best[members] = cycle_heads
        best[enters[p]] = p
    heads = best.tolist()
    total = 0.0
    for m in range(1, n + 1):
        total += float(sc[heads[m], m])
    return heads[1:], total


def viterbi_chain(emis, trans):
    """Best path through a label chain.

    emis is (T, K); trans is (T, K, K) where trans[t][p][k] scores moving
    from label p at step t-1 to label k at step t (trans[0] is ignored).
    Returns (labels, total).
    """
    emis = np.asarray(emis, dtype=float)
    trans = np.asarray(trans, dtype=float)
    T = len(emis)
    if T == 0:
        return [], 0.0
    delta = emis[0]
    back = []
    for t in range(1, T):
        cand = delta[:, None] + trans[t]
        arg = cand.argmax(axis=0)
        back.append(arg)
        delta = cand.max(axis=0) + emis[t]
    last = int(delta.argmax())
    path = [last]
    for arg in reversed(back):
        path.append(int(arg[path[-1]]))
    path.reverse()
    return path, float(delta[last])
