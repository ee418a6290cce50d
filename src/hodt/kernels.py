"""Decoding kernels: Eisner, Chu-Liu/Edmonds and the label-chain Viterbi.

Ties break toward the first maximum under a strict > scan (ascending
split point / head / label index); numpy's argmax, which returns the
first maximum, gives the same choice.

Score matrices are (n+1, n+1); entry [h][m] is the arc h -> m with words
numbered from 1, and row 0 holds the root-selection scores.
"""

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
    sc = [[float(x) for x in row] for row in scores]
    size = n + 1
    cr = [[0.0] * size for _ in range(size)]      # complete, head at left
    cl = [[0.0] * size for _ in range(size)]      # complete, head at right
    ir = [[NEG_INF] * size for _ in range(size)]  # incomplete, arc s -> t
    il = [[NEG_INF] * size for _ in range(size)]  # incomplete, arc t -> s
    br = [[0] * size for _ in range(size)]
    bl = [[0] * size for _ in range(size)]
    bir = [[0] * size for _ in range(size)]
    bil = [[0] * size for _ in range(size)]
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
            bil[s][t] = arg
            bir[s][t] = arg
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
        elif kind == 2:
            heads[s] = t
            r = bil[s][t]
            stack.append((1, s, r))
            stack.append((0, r + 1, t))
        else:
            heads[t] = s
            r = bir[s][t]
            stack.append((1, s, r))
            stack.append((0, r + 1, t))
    return heads[1:], best


def _tree_total(heads, sc):
    total = 0.0
    for v in range(1, len(heads)):
        total += sc[heads[v]][v]
    return total


def _greedy_heads(nodes, arcs, root):
    best = {}
    for v in nodes:
        bu = root
        bs = arcs.get((root, v), NEG_INF)
        for u in nodes:
            if u == v:
                continue
            s = arcs.get((u, v), NEG_INF)
            if s > bs:
                bs = s
                bu = u
        best[v] = bu
    return best


def _cle_rec(nodes, arcs, root):
    # nodes ascending; arcs: (head, dep) -> score, deps drawn from nodes
    best = _greedy_heads(nodes, arcs, root)
    cycle = None
    color = {}
    for start in nodes:
        if start in color:
            continue
        path = []
        v = start
        while v != root and v not in color:
            color[v] = start
            path.append(v)
            v = best[v]
        if v != root and color[v] == start:
            cycle = path[path.index(v):]
            break
    if cycle is None:
        return best
    cyc_set = set(cycle)
    cnode = max(nodes) + 1
    cyc_score = {v: arcs.get((best[v], v), NEG_INF) for v in cycle}
    new_arcs = {}
    enter_src = {}
    leave_src = {}
    for (u, v), s in sorted(arcs.items()):
        if u in cyc_set and v not in cyc_set:
            if (cnode, v) not in new_arcs or s > new_arcs[(cnode, v)]:
                new_arcs[(cnode, v)] = s
                leave_src[v] = u
        elif u not in cyc_set and v in cyc_set:
            adj = s - cyc_score[v]
            if (u, cnode) not in new_arcs or adj > new_arcs[(u, cnode)]:
                new_arcs[(u, cnode)] = adj
                enter_src[u] = v
        elif u not in cyc_set:
            new_arcs[(u, v)] = s
    new_nodes = sorted(v for v in nodes if v not in cyc_set) + [cnode]
    parent = _cle_rec(new_nodes, new_arcs, root)
    result = {}
    for v, u in parent.items():
        if v == cnode:
            continue
        result[v] = leave_src[v] if u == cnode else u
    entry_v = enter_src[parent[cnode]]
    for v in cycle:
        result[v] = parent[cnode] if v == entry_v else best[v]
    return result


def cle_decode(scores):
    """Best unrestricted (possibly non-projective) tree, single root.

    Runs greedy-plus-contraction from the virtual root; if that yields
    several root arcs, re-runs once per candidate root with the others
    blocked and keeps the highest-scoring tree (first such root on ties).
    """
    n = len(scores) - 1
    if n < 1:
        return [], 0.0
    sc = [[float(x) for x in row] for row in scores]
    nodes = list(range(1, n + 1))

    def run(matrix):
        arcs = {}
        for v in nodes:
            for u in range(0, n + 1):
                if u != v and matrix[u][v] > NEG_INF:
                    arcs[(u, v)] = matrix[u][v]
        parent = _cle_rec(nodes, arcs, 0)
        heads = [0] * (n + 1)
        for v in nodes:
            heads[v] = parent[v]
        return heads

    heads = run(sc)
    roots = [v for v in nodes if heads[v] == 0]
    if len(roots) != 1:
        best_heads = None
        best_total = NEG_INF
        for r in nodes:
            forced = [row[:] for row in sc]
            for v in nodes:
                if v != r:
                    forced[0][v] = NEG_INF
            for u in nodes:
                if u != r:
                    forced[u][r] = NEG_INF
            cand = run(forced)
            total = _tree_total(cand, sc)
            if total > best_total:
                best_total = total
                best_heads = cand
        heads = best_heads
    return heads[1:], _tree_total(heads, sc)


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
