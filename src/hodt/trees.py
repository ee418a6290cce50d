"""Core data types: sentences, constituent trees, dependency trees.

Constituent trees (CTree) carry an explicit head position on every node;
unlexicalized trees coming out of treebank readers are represented as
RawNode/RawLeaf and must go through headrules.lexicalize first.  Dependency
trees come in two flavours: plain DTree (a head vector, optionally labeled)
and HeadOrderedDTree, whose arcs additionally carry the order index that
records at which step of the head's spine each modifier attaches.

Positions are 1-based throughout; head 0 in a DTree marks the root word.
"""

from dataclasses import dataclass

from .errors import TreeStructureError

TERMINAL = 'terminal'
PRETERMINAL = 'preterminal'
PROPER = 'proper'


@dataclass(frozen=True)
class Token:
    position: int
    form: str
    pos: str
    lemma: str | None = None
    morph: str | None = None


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        for i, tok in enumerate(self.tokens, 1):
            if tok.position != i:
                raise TreeStructureError(
                    f'token positions must be consecutive from 1; '
                    f'got {tok.position} at slot {i}')

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def token(self, position):
        return self.tokens[position - 1]

    def form(self, position):
        return self.tokens[position - 1].form

    def pos(self, position):
        return self.tokens[position - 1].pos


@dataclass(frozen=True)
class RawLeaf:
    """Terminal of an unlexicalized tree as read from a treebank file."""
    position: int
    form: str
    pos: str
    lemma: str | None = None
    morph: str | None = None


@dataclass(frozen=True)
class RawNode:
    """Unlexicalized constituent; children are RawNode or RawLeaf."""
    label: str
    children: tuple


@dataclass(frozen=True)
class CNode:
    """Constituent-tree node.  kind is one of terminal/preterminal/proper.

    positions is the yield as a set, which keeps discontinuous
    constituents first-class.  Children are stored sorted by the smallest
    position they cover; for continuous trees that equals surface order.
    """
    label: str
    head: int
    positions: frozenset[int]
    children: tuple['CNode', ...]
    kind: str

    def min_position(self):
        return min(self.positions)


def terminal(form, position):
    return CNode(form, position, frozenset((position,)), (), TERMINAL)


def preterminal(pos_tag, position, form):
    leaf = terminal(form, position)
    return CNode(pos_tag, position, frozenset((position,)), (leaf,), PRETERMINAL)


def proper(label, head, children):
    """Build an internal node; children are canonically ordered by their
    smallest covered position."""
    kids = tuple(sorted(children, key=CNode.min_position))
    positions = frozenset().union(*(c.positions for c in kids))
    return CNode(label, head, positions, kids, PROPER)


@dataclass(frozen=True)
class CTree:
    root: CNode
    sentence: Sentence


@dataclass(frozen=True)
class Arc:
    """Dependency arc labeled with the constituent it attaches at and the
    order index (1-based step on the head's spine)."""
    head: int
    modifier: int
    label: str
    order_index: int


@dataclass(frozen=True)
class HeadOrderedDTree:
    sentence: Sentence
    arcs: tuple[Arc, ...]
    root: int

    @staticmethod
    def from_arcs(sentence, arcs, root):
        return HeadOrderedDTree(
            sentence, tuple(sorted(arcs, key=lambda a: a.modifier)), root)

    def heads(self):
        """Head vector view (0 marks the root word)."""
        heads = [0] * len(self.sentence)
        for arc in self.arcs:
            heads[arc.modifier - 1] = arc.head
        return tuple(heads)

    def modifiers_by_head(self):
        by_head = {}
        for arc in self.arcs:
            by_head.setdefault(arc.head, []).append(arc)
        return by_head


@dataclass(frozen=True)
class DTree:
    """Plain dependency tree: heads[i] is the head of position i+1, 0 for
    the root word.  labels, when present, parallel the positions with None
    at the root slot."""
    sentence: Sentence
    heads: tuple[int, ...]
    labels: tuple[str | None, ...] | None = None

    def root(self):
        return self.heads.index(0) + 1


def iter_nodes(node):
    """All nodes of a subtree, parents before children."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def postorder_proper(node):
    """Proper nodes only, children before parents."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.kind == PROPER:
            out.append(n)
            stack.extend(n.children)
    out.reverse()
    return out


def is_continuous(tree):
    """True iff every constituent covers an interval of positions."""
    for node in iter_nodes(tree.root):
        if max(node.positions) - min(node.positions) + 1 != len(node.positions):
            return False
    return True


def _heads_of(tree):
    if isinstance(tree, HeadOrderedDTree):
        return tree.heads()
    return tuple(tree.heads)


def _descendant_sets(heads):
    n = len(heads)
    children = {i: [] for i in range(n + 1)}
    for m, h in enumerate(heads, 1):
        children[h].append(m)
    desc = {}

    def collect(v):
        acc = {v}
        for c in children[v]:
            acc |= collect(c)
        desc[v] = acc
        return acc

    for c in children[0]:
        collect(c)
    return desc


def is_projective(tree):
    """Projectivity of the arc structure: for every arc, all positions
    strictly between head and modifier descend from the head.  Order
    indices are ignored; see is_nested for them."""
    heads = _heads_of(tree)
    desc = _descendant_sets(heads)
    for m, h in enumerate(heads, 1):
        if h == 0:
            continue
        lo, hi = (h, m) if h < m else (m, h)
        for between in range(lo + 1, hi):
            if between not in desc[h]:
                return False
    return True


def is_nested(tree):
    """Order indices never decrease moving outward on either side of a
    head: if m1 is closer to h than m2 (same side), index(m1) <= index(m2)."""
    for h, arcs in tree.modifiers_by_head().items():
        for side in (  # left of h, right of h
                sorted((a for a in arcs if a.modifier < h),
                       key=lambda a: h - a.modifier),
                sorted((a for a in arcs if a.modifier > h),
                       key=lambda a: a.modifier - h)):
            for closer, farther in zip(side, side[1:]):
                if closer.order_index > farther.order_index:
                    return False
    return True


def spine(tree, h):
    """Nodes headed by h from the topmost one down to the preterminal,
    inclusive; the terminal is not part of the spine."""
    if not 1 <= h <= len(tree.sentence):
        raise TreeStructureError(f'position {h} outside the sentence')
    node = tree.root
    while node.head != h:
        node = next(c for c in node.children if h in c.positions)
    path = []
    while node.kind != TERMINAL:
        path.append(node)
        if node.kind == PRETERMINAL:
            break
        node = next(c for c in node.children if c.head == h)
    return path


def strip_unaries(tree):
    """Remove every unary proper node, promoting its child, until none is
    left.  Preterminals always survive; the result can be a bare
    preterminal when a whole spine was unary."""

    def strip(node):
        if node.kind != PROPER:
            return node
        children = tuple(strip(c) for c in node.children)
        if len(children) == 1:
            return children[0]
        return proper(node.label, node.head, children)

    return CTree(strip(tree.root), tree.sentence)


def unlexicalize(tree):
    """Project a CTree back to the RawNode/RawLeaf form the treebank
    readers return (labels, tags and forms; head positions dropped)."""

    def conv(node):
        if node.kind == PRETERMINAL:
            tok = tree.sentence.token(node.head)
            return RawLeaf(node.head, tok.form, node.label, tok.lemma, tok.morph)
        return RawNode(node.label, tuple(conv(c) for c in node.children))

    return conv(tree.root)


def _validate_ctree(tree):
    problems = []
    n = len(tree.sentence)
    seen_positions = []
    if tree.root.positions != frozenset(range(1, n + 1)):
        problems.append('root yield does not cover the sentence')
    for node in iter_nodes(tree.root):
        if node.kind == TERMINAL:
            if node.children:
                problems.append(f'terminal {node.label!r} has children')
            seen_positions.append(node.head)
            if node.positions != frozenset((node.head,)):
                problems.append(f'terminal at {node.head} has a bad yield')
        elif node.kind == PRETERMINAL:
            if len(node.children) != 1 or node.children[0].kind != TERMINAL:
                problems.append(
                    f'preterminal {node.label!r} must dominate one terminal')
            if node.positions != frozenset((node.head,)):
                problems.append(f'preterminal {node.label!r} has a bad yield')
        elif node.kind == PROPER:
            if not node.children:
                problems.append(f'proper node {node.label!r} has no children')
                continue
            union = set()
            overlap = False
            for c in node.children:
                if c.kind == TERMINAL:
                    problems.append(
                        f'proper node {node.label!r} dominates a bare terminal')
                if union & c.positions:
                    overlap = True
                union |= c.positions
            if overlap:
                problems.append(f'children of {node.label!r} overlap')
            if union != set(node.positions):
                problems.append(
                    f'yield of {node.label!r} is not the union of its children')
            head_children = [c for c in node.children if c.head == node.head]
            if len(head_children) != 1:
                problems.append(
                    f'{node.label!r} has {len(head_children)} head children')
        else:
            problems.append(f'unknown node kind {node.kind!r}')
        if node.head not in node.positions:
            problems.append(f'head of {node.label!r} outside its yield')
    if sorted(seen_positions) != list(range(1, n + 1)):
        problems.append('terminals do not enumerate positions 1..L')
    return problems


def _validate_heads(sentence, heads, problems):
    n = len(sentence)
    if len(heads) != n:
        problems.append(f'head vector length {len(heads)} != {n} tokens')
        return None
    roots = [i + 1 for i, h in enumerate(heads) if h == 0]
    if len(roots) != 1:
        problems.append(f'expected exactly one root word, found {len(roots)}')
    for m, h in enumerate(heads, 1):
        if h == m:
            problems.append(f'token {m} is its own head')
        if not 0 <= h <= n:
            problems.append(f'head {h} of token {m} out of range')
    # cycle check: follow heads upward from each token
    for m in range(1, n + 1):
        seen = set()
        v = m
        while v != 0:
            if v in seen:
                problems.append(f'cycle through token {m}')
                break
            seen.add(v)
            v = heads[v - 1] if 1 <= v <= n else 0
    return roots[0] if len(roots) == 1 else None


def validate(tree):
    """Collect invariant violations; returns a list of messages, empty
    when the tree is well formed.  Never raises."""
    problems = []
    if isinstance(tree, CTree):
        return _validate_ctree(tree)
    if isinstance(tree, HeadOrderedDTree):
        heads = [0] * len(tree.sentence)
        for arc in tree.arcs:
            if not 1 <= arc.modifier <= len(tree.sentence):
                problems.append(f'modifier {arc.modifier} out of range')
                continue
            if heads[arc.modifier - 1] != 0:
                problems.append(f'token {arc.modifier} has several heads')
            heads[arc.modifier - 1] = arc.head
            if arc.order_index < 1:
                problems.append(
                    f'arc {arc.head}->{arc.modifier} has index < 1')
        root = _validate_heads(tree.sentence, tuple(heads), problems)
        if root is not None and root != tree.root:
            problems.append(f'declared root {tree.root} but head vector says {root}')
        for h, arcs in tree.modifiers_by_head().items():
            by_index = {}
            for arc in arcs:
                by_index.setdefault(arc.order_index, set()).add(arc.label)
            for j, labels in sorted(by_index.items()):
                if len(labels) > 1:
                    problems.append(
                        f'head {h} index {j} carries labels {sorted(labels)}')
        return problems
    # plain DTree or anything exposing .sentence/.heads
    _validate_heads(tree.sentence, tuple(tree.heads), problems)
    return problems
