"""Core data types: sentences, constituent trees, dependency trees.

Words live in the Sentence.  Constituent trees (CTree) have preterminal
and proper nodes, each with an explicit head position; unlexicalized
trees coming out of treebank readers are RawNodes over Token leaves and
must go through headrules.lexicalize first.  There is one dependency-tree
type, DTree, a labeled head vector, with two kinds of label: encoded
strings, or (label, order index) pairs.  The order index is the step on
the head's spine at which the modifier attaches, so a DTree with pair
labels is a head-ordered dependency tree.

Positions are 1-based throughout; head 0 in a DTree marks the root word.
"""

from dataclasses import dataclass

from .errors import TreeStructureError

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
class RawNode:
    """Unlexicalized constituent; children are RawNode or Token, a Token
    standing for a preterminal whose label is its pos."""
    label: str
    children: tuple


@dataclass(frozen=True)
class CNode:
    """Constituent-tree node.  kind is preterminal (a word's tag, no
    children; the word is in the tree's Sentence) or proper.

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


def preterminal(pos_tag, position):
    return CNode(pos_tag, position, frozenset((position,)), (), PRETERMINAL)


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
class DTree:
    """heads[i] is the head of position i+1, 0 for the root word.
    labels[i] labels the arc into position i+1 and is one of two kinds:
    an encoded string (ROOT_LABEL or the hn spine at the root slot), or a
    (label, order index) pair with None at the root slot, which makes
    the tree head-ordered."""
    sentence: Sentence
    heads: tuple[int, ...]
    labels: tuple

    def root(self):
        return self.heads.index(0) + 1

    def arcs(self):
        """(head, modifier, label) per arc, by ascending modifier."""
        for m, h in enumerate(self.heads, 1):
            if h != 0:
                yield h, m, self.labels[m - 1]

    def dependents(self):
        """head -> its modifiers in ascending order, over arcs only: 0,
        the root word's head, has no entry."""
        by_head = {}
        for m, h in enumerate(self.heads, 1):
            if h != 0:
                by_head.setdefault(h, []).append(m)
        return by_head


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


def _descendant_sets(tree):
    children = tree.dependents()
    desc = {}

    def collect(v):
        acc = {v}
        for c in children.get(v, ()):
            acc |= collect(c)
        desc[v] = acc
        return acc

    collect(tree.root())
    return desc


def is_projective(tree):
    """Projectivity of the arc structure: for every arc, all positions
    strictly between head and modifier descend from the head.  Order
    indices are ignored; see is_nested for them."""
    desc = _descendant_sets(tree)
    for h, m, _ in tree.arcs():
        lo, hi = (h, m) if h < m else (m, h)
        for between in range(lo + 1, hi):
            if between not in desc[h]:
                return False
    return True


def head_outward(h, modifiers):
    """Modifier positions of head h split by side, (left, right), each
    sorted from the head outward."""
    return (sorted((m for m in modifiers if m < h), reverse=True),
            sorted(m for m in modifiers if m > h))


def is_nested(tree):
    """Order indices of a head-ordered DTree never decrease moving
    outward on either side of a head: if m1 is closer to h than m2 (same
    side), index(m1) <= index(m2)."""
    labels = tree.labels
    for h, mods in tree.dependents().items():
        for side in head_outward(h, mods):
            for closer, farther in zip(side, side[1:]):
                if labels[closer - 1][1] > labels[farther - 1][1]:
                    return False
    return True


def spine(tree, h):
    """The nodes headed by h, topmost first, the preterminal last."""
    if not 1 <= h <= len(tree.sentence):
        raise TreeStructureError(f'position {h} outside the sentence')
    node = tree.root
    while node.head != h:
        node = next(c for c in node.children if h in c.positions)
    path = [node]
    while node.kind != PRETERMINAL:
        node = next(c for c in node.children if c.head == h)
        path.append(node)
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
    """Project a CTree back to the RawNode form the treebank readers
    return (labels, tags and forms; head positions dropped)."""

    def conv(node):
        if node.kind == PRETERMINAL:
            tok = tree.sentence.token(node.head)
            return Token(node.head, tok.form, node.label, tok.lemma, tok.morph)
        return RawNode(node.label, tuple(conv(c) for c in node.children))

    return conv(tree.root)


def _validate_ctree(tree):
    problems = []
    n = len(tree.sentence)
    # with each yield checked below, this means preterminals enumerate 1..L
    if tree.root.positions != frozenset(range(1, n + 1)):
        problems.append('root yield does not cover the sentence')
    for node in iter_nodes(tree.root):
        if node.kind == PRETERMINAL:
            if node.children:
                problems.append(f'preterminal {node.label!r} has children')
            if node.positions != frozenset((node.head,)):
                problems.append(f'preterminal {node.label!r} has a bad yield')
        elif node.kind == PROPER:
            if not node.children:
                problems.append(f'proper node {node.label!r} has no children')
                continue
            union = set()
            overlap = False
            for c in node.children:
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
    return problems


def _validate_heads(sentence, heads):
    n = len(sentence)
    if len(heads) != n:
        return [f'head vector length {len(heads)} != {n} tokens']
    problems = []
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
    return problems


def validate(tree):
    """Collect invariant violations; returns a list of messages, empty
    when the tree is well formed.  Never raises.  A DTree with pair
    labels must also give every arc an index >= 1 and every step of a
    head one label."""
    if isinstance(tree, CTree):
        return _validate_ctree(tree)
    problems = _validate_heads(tree.sentence, tuple(tree.heads))
    steps = {}
    for m, (h, label) in enumerate(zip(tree.heads, tree.labels), 1):
        if h != 0 and isinstance(label, tuple):
            name, j = label
            if j < 1:
                problems.append(f'arc {h}->{m} has index < 1')
            steps.setdefault((h, j), set()).add(name)
    for (h, j), names in sorted(steps.items()):
        if len(names) > 1:
            problems.append(
                f'head {h} index {j} carries labels {sorted(names)}')
    return problems
