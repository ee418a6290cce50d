"""Head-child selection by rule tables.

Rule files are plain text, one directive or rule per line:

    # comment
    default right           # fallback direction (default: left)
    S   right-to-left  VP S SBAR
    NP  right-to-left  NN NNS NP

A rule line reads: for a parent with this label, try each candidate label
in priority order, scanning the children in the given direction; the first
match wins.  Several lines for the same parent are tried in file order.
When nothing matches (or the parent has no rules) the fallback direction
picks the first or last child, so a table with no rules heads every node
by its leftmost (default left) or rightmost (default right) child.
"""

from dataclasses import dataclass, field

from .errors import HeadRuleError, TreeStructureError, read_utf8
from .trees import CTree, Sentence, Token, preterminal, proper

LEFT_TO_RIGHT = 'left-to-right'
RIGHT_TO_LEFT = 'right-to-left'


@dataclass(frozen=True)
class HeadRuleSet:
    default_direction: str = 'left'
    rules: dict = field(default_factory=dict)


LEFTMOST = HeadRuleSet('left')
RIGHTMOST = HeadRuleSet('right')


def load_rules(source):
    """Parse a rule file from a path or an iterable of lines."""
    if isinstance(source, str):
        return load_rules(read_utf8(source, HeadRuleError).splitlines())
    default_direction = 'left'
    rules = {}
    for lineno, raw in enumerate(source, 1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        parts = line.split()
        if parts[0] == 'default':
            if len(parts) != 2 or parts[1] not in ('left', 'right'):
                raise HeadRuleError('default must be left or right', lineno)
            default_direction = parts[1]
        else:
            if len(parts) < 2 or parts[1] not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
                raise HeadRuleError(
                    f'expected "<parent> {LEFT_TO_RIGHT}|{RIGHT_TO_LEFT} '
                    f'<label...>", got {line!r}', lineno)
            if len(parts) < 3:
                raise HeadRuleError(
                    f'rule for {parts[0]!r} lists no candidate labels', lineno)
            rules.setdefault(parts[0], []).append((parts[1], tuple(parts[2:])))
    rules = {parent: tuple(entries) for parent, entries in rules.items()}
    return HeadRuleSet(default_direction, rules)


def find_head_child(rules, parent_label, child_labels):
    """Index of the head child among child_labels.  Total: always returns
    a valid index for a non-empty child list."""
    if not child_labels:
        raise TreeStructureError('cannot pick a head among zero children')
    n = len(child_labels)
    for direction, candidates in rules.rules.get(parent_label, ()):
        order = range(n) if direction == LEFT_TO_RIGHT else range(n - 1, -1, -1)
        for cand in candidates:
            for i in order:
                if child_labels[i] == cand:
                    return i
    return 0 if rules.default_direction == 'left' else n - 1


def _label_of(raw_child):
    return raw_child.pos if isinstance(raw_child, Token) else raw_child.label


def lexicalize(tree, rules):
    """Assign head positions to an unlexicalized tree, returning a CTree
    whose sentence is made of the tree's Token leaves."""
    leaves = []

    def build(node):
        if isinstance(node, Token):
            leaves.append(node)
            return preterminal(node.pos, node.position)
        if not node.children:
            raise TreeStructureError(
                f'constituent {node.label!r} has no children')
        kids = [build(c) for c in node.children]
        head_idx = find_head_child(
            rules, node.label, [_label_of(c) for c in node.children])
        return proper(node.label, kids[head_idx].head, kids)

    root = build(tree)
    leaves.sort(key=lambda leaf: leaf.position)
    if [leaf.position for leaf in leaves] != list(range(1, len(leaves) + 1)):
        raise TreeStructureError('leaf positions must enumerate 1..L')
    return CTree(root, Sentence(tuple(leaves)))
