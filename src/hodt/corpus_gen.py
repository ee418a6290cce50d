"""Synthetic constituent trees: random, exhaustive, and a toy treebank.

Everything here is a pure function of (config, seed, index) through the
splitmix64 streams in hodt.rng, so corpora are reproducible bit for bit.
gen_ctree draws a single tree (optionally discontinuous, optionally with
unary chains); enumerate_ctrees lists every unaryless tree over a small
sentence with every head choice; gen_toy_treebank expands a fixed little
grammar whose head conventions match TOY_HEAD_RULES.
"""

from dataclasses import dataclass
from itertools import product

from .rng import Rng
from .trees import CTree, Sentence, Token, preterminal, proper, is_continuous


POS_COUNT = 3        # POS tags P0.. of random trees
MAX_BRANCHING = 4    # children of a random non-binary constituent
MAX_UNARY_CHAIN = 2  # unary nodes stacked above one node


@dataclass(frozen=True)
class GenConfig:
    seed: int = 1
    label_count: int = 3
    discontinuity_probability: float = 0.0
    unary_probability: float = 0.0
    binary_only: bool = False


def _labels(cfg):
    return [f'Z{i}' for i in range(cfg.label_count)]


def _maybe_unary(cfg, rng, node):
    chain = 0
    while chain < MAX_UNARY_CHAIN and rng.chance(cfg.unary_probability):
        node = proper(rng.choice(_labels(cfg)), node.head, (node,))
        chain += 1
    return node


def _branching(cfg, rng, size):
    if cfg.binary_only:
        return 2
    return min(size, 2 + rng.below(MAX_BRANCHING - 1))


def _random_node(cfg, rng, positions, sentence, scatter):
    """A random subtree over the ascending `positions`.  The children
    split them into runs at random cuts, taken in order, or with scatter
    after a shuffle, so that children may be discontinuous."""
    if len(positions) == 1:
        tok = sentence.token(positions[0])
        return _maybe_unary(cfg, rng, preterminal(tok.pos, tok.position))
    k = _branching(cfg, rng, len(positions))
    if scatter:
        positions = list(positions)
        rng.shuffle(positions)
    cuts = list(range(1, len(positions)))
    rng.shuffle(cuts)
    bounds = [0] + sorted(cuts[:k - 1]) + [len(positions)]
    children = [
        _random_node(cfg, rng, sorted(positions[lo:hi]), sentence, scatter)
        for lo, hi in zip(bounds, bounds[1:])]
    head = children[rng.below(len(children))].head
    return _maybe_unary(cfg, rng, proper(rng.choice(_labels(cfg)), head, children))


def gen_ctree(cfg, length, index=0):
    """One random tree over `length` tokens; stream `index` of cfg.seed.

    With discontinuity_probability p, a fraction p of the trees is drawn
    with scattered children and redrawn (bounded retries) until actually
    discontinuous, so p=1 yields discontinuous trees essentially always
    once length permits.
    """
    rng = Rng(cfg.seed, stream=index)
    tokens = tuple(
        Token(i, f'w{i}', f'P{rng.below(POS_COUNT)}')
        for i in range(1, length + 1))
    sentence = Sentence(tokens)
    positions = list(range(1, length + 1))
    scatter = rng.chance(cfg.discontinuity_probability)
    tree = CTree(_random_node(cfg, rng, positions, sentence, scatter), sentence)
    attempts = 0
    while scatter and is_continuous(tree) and attempts < 40:
        attempts += 1
        tree = CTree(_random_node(cfg, rng, positions, sentence, scatter),
                     sentence)
    return tree


def _set_partitions(items):
    """All partitions of `items` (canonical order, first element leads)."""
    if len(items) == 1:
        yield [[items[0]]]
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def enumerate_ctrees(length, binary=False):
    """Every unaryless tree over `length` tokens with every head choice,
    continuous and discontinuous alike, over a one-label alphabet.
    Exhaustive and deterministic; the count explodes fast, hence the
    length cap (5, or 6 for binary trees)."""
    if not 1 <= length <= (6 if binary else 5):
        raise ValueError(f'refusing to enumerate trees over {length} tokens')
    sentence = Sentence(tuple(
        Token(i, f'w{i}', 'P') for i in range(1, length + 1)))
    memo = {}

    def subtrees(positions):
        if positions in memo:
            return memo[positions]
        items = sorted(positions)
        if len(items) == 1:
            result = [preterminal('P', items[0])]
        else:
            result = []
            for part in _set_partitions(items):
                if len(part) < 2 or (binary and len(part) != 2):
                    continue
                for combo in product(*(subtrees(frozenset(b)) for b in part)):
                    for head_child in combo:
                        result.append(proper('Z', head_child.head, combo))
        memo[positions] = result
        return result

    full = frozenset(range(1, length + 1))
    return [CTree(root, sentence) for root in subtrees(full)]


# --- toy treebank -----------------------------------------------------------

_TOY_VOCAB = {
    'D': ('the', 'a'),
    'N': ('dog', 'cat', 'bird', 'fish', 'horse'),
    'V': ('sees', 'likes', 'finds', 'chases'),
    'A': ('big', 'small', 'old'),
    'AV': ('quickly', 'often', 'slowly'),
}

TOY_HEAD_RULES = """\
# head rules matching the toy grammar of hodt.corpus_gen
default right
S left-to-right VP
NP right-to-left N
VP left-to-right V VP
ADVP left-to-right AV
"""


def _toy_sentence(rng):
    tokens = []

    def emit(pos):
        form = rng.choice(_TOY_VOCAB[pos])
        position = len(tokens) + 1
        tokens.append(Token(position, form, pos))
        return preterminal(pos, position)

    def noun_phrase():
        if rng.chance(0.6):
            kids = [emit('D')]
            if rng.chance(0.3):
                kids.append(emit('A'))
            kids.append(emit('N'))
            return proper('NP', kids[-1].head, kids)
        # bare noun: by convention an unary NP
        noun = emit('N')
        return proper('NP', noun.head, (noun,))

    def verb_phrase(depth):
        adverbs = []
        while len(adverbs) < 3 and rng.chance(0.35):
            adv = emit('AV')
            adverbs.append(proper('ADVP', adv.head, (adv,)))
        verb = emit('V')
        draw = rng.uniform()
        if draw < 0.5:
            core = proper('VP', verb.head, (verb, noun_phrase()))
        elif draw < 0.65 and depth < 2:
            core = proper('VP', verb.head, (verb, clause(depth + 1)))
        else:
            core = proper('VP', verb.head, (verb,))
        node = core
        for adv in reversed(adverbs):
            node = proper('VP', verb.head, (adv, node))
        return node

    def clause(depth):
        subject = noun_phrase()
        predicate = verb_phrase(depth)
        return proper('S', predicate.head, (subject, predicate))

    root = clause(0)
    return CTree(root, Sentence(tuple(tokens)))


def gen_toy_treebank(cfg, n, start=0):
    """n sentences from the fixed toy grammar, streams start..start+n-1 of
    cfg.seed; pass different `start` values for disjoint train/dev parts."""
    return [_toy_sentence(Rng(cfg.seed, stream=start + i)) for i in range(n)]
