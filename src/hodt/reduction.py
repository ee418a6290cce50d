"""Conversion between constituent trees and head-ordered dependency trees.

ctree_to_dtree walks the constituent tree bottom-up keeping one counter
per head word (how far up that word's spine we are); every non-head child
of a constituent becomes an arc labeled with the constituent label and the
current counter value.  dtree_to_ctree inverts this: per head word, one
constituent per distinct order index, built in increasing index order.
Both are linear in the number of nodes.

recover_order turns arbitrary predicted (label, index) pairs into a valid
head-ordered tree: same-index modifiers of a head are forced to share a
label, indices are lowered where they would break nesting (continuous
mode), and index values are compacted to 1..J.
"""

from dataclasses import dataclass

from .errors import TreeStructureError
from .trees import (
    CTree, DTree, head_outward, is_continuous, is_nested, is_projective,
    postorder_proper, preterminal, proper, strip_unaries)


def ctree_to_dtree(tree):
    """Reduce a constituent tree to a head-ordered dependency tree: a
    DTree whose labels are (constituent label, order index) pairs.

    Unary constituents advance their head's counter but emit no arcs, so
    order indices can have gaps when the input is not unaryless.
    Preterminals are not counted: the first constituent above a word's
    preterminal is step 1.
    """
    n = len(tree.sentence)
    heads = [0] * n
    labels = [None] * n
    next_index = {}
    for node in postorder_proper(tree.root):
        h = node.head
        j = next_index.get(h, 1)
        for child in node.children:
            if child.head != h:
                heads[child.head - 1] = h
                labels[child.head - 1] = (node.label, j)
        next_index[h] = j + 1
    return DTree(tree.sentence, tuple(heads), tuple(labels))


def _dep_postorder(root, dependents):
    out = []
    stack = [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(dependents.get(v, ()))
    out.reverse()
    return out


def dtree_to_ctree(dtree):
    """Rebuild the constituent tree encoded by a head-ordered d-tree.

    Rejects trees where two same-index arcs of a head disagree on the
    label; run recover_order first on predicted input.
    """
    sentence = dtree.sentence
    pairs = dtree.labels
    dependents = dtree.dependents()
    root = dtree.root()
    psi = {}
    for h in _dep_postorder(root, dependents):
        node = preterminal(sentence.pos(h), h)
        classes = {}
        for m in dependents.get(h, ()):
            classes.setdefault(pairs[m - 1][1], []).append(m)
        for j in sorted(classes):
            group = classes[j]
            labels = {pairs[m - 1][0] for m in group}
            if len(labels) != 1:
                raise TreeStructureError(
                    f'head {h}, step {j}: conflicting labels {sorted(labels)}')
            (label,) = labels
            node = proper(label, h, [node] + [psi[m] for m in group])
        psi[h] = node
    return CTree(psi[root], sentence)


@dataclass
class RepairStats:
    """What recover_order had to change; all zero on already-valid input.

    tokens_changed counts the modifiers that at least one repair touched,
    so it is zero exactly when total() is and never exceeds it."""
    labels_changed: int = 0
    indices_lowered: int = 0
    indices_clamped: int = 0
    tokens_changed: int = 0

    def total(self):
        return self.labels_changed + self.indices_lowered + self.indices_clamped


def recover_order(tree, continuous_mode=False):
    """Turn per-token (label, index) pairs into a valid head-ordered tree.

    tree is a DTree whose labels are (label, order index) pairs, None at
    the root slot, and so is the tree returned.  Total on any tree-shaped
    input: bad indices are clamped to >= 1, same-index conflicts resolve
    to the label of the modifier closest to the head (ties toward the
    left modifier), and in continuous mode an index is lowered to its
    outer neighbour's value wherever nesting would break.  Indices are
    finally compacted to 1..J per head.  Returns (tree, RepairStats);
    idempotent.
    """
    stats = RepairStats()
    given = {}
    index = {}
    for _, m, (label, idx) in tree.arcs():
        idx = int(idx)
        if idx < 1:
            stats.indices_clamped += 1
        given[m] = (label, idx)
        index[m] = max(idx, 1)
    pairs = [None] * len(tree.heads)
    for h, positions in tree.dependents().items():
        if continuous_mode:
            for side in head_outward(h, positions):
                cap = None  # index of the next modifier outward
                for m in reversed(side):
                    if cap is not None and index[m] > cap:
                        index[m] = cap
                        stats.indices_lowered += 1
                    cap = index[m]
        classes = {}
        for m in positions:
            classes.setdefault(index[m], []).append(m)
        ranks = {j: rank for rank, j in enumerate(sorted(classes), 1)}
        for j, members in classes.items():
            # closest modifier wins the label; equidistant -> the left one
            winner = min(members, key=lambda m: (abs(h - m), m > h))
            label = given[winner][0]
            for m in members:
                if given[m][0] != label:
                    stats.labels_changed += 1
                # compaction to 1..J keeps the order, so it is no repair
                if given[m] != (label, index[m]):
                    stats.tokens_changed += 1
                pairs[m - 1] = (label, ranks[j])
    return DTree(tree.sentence, tree.heads, tuple(pairs)), stats


@dataclass
class RoundtripReport:
    """Per-tree diagnostics produced by roundtrip_check."""
    roundtrip_equal: bool
    continuous: bool
    projective: bool
    nested: bool
    binary_input: bool
    strictly_ordered: bool

    @property
    def equivalence_ok(self):
        """Continuity must coincide with projectivity plus nesting."""
        return self.continuous == (self.projective and self.nested)

    @property
    def ok(self):
        return (self.roundtrip_equal and self.equivalence_ok
                and (not self.binary_input or self.strictly_ordered))


def roundtrip_check(tree):
    """Check the conversion laws on one constituent tree."""
    stripped = strip_unaries(tree)
    dtree = ctree_to_dtree(tree)
    rebuilt = dtree_to_ctree(dtree)
    strictly = all(
        len({dtree.labels[m - 1][1] for m in mods}) == len(mods)
        for mods in dtree.dependents().values())
    binary = all(
        len(n.children) == 2 for n in postorder_proper(stripped.root))
    return RoundtripReport(
        roundtrip_equal=rebuilt == stripped,
        continuous=is_continuous(tree),
        projective=is_projective(dtree),
        nested=is_nested(dtree),
        binary_input=binary,
        strictly_ordered=strictly)
