"""Tree scoring: labeled bracket F1, exact match, attachment scores.

Brackets are (label, yield) pairs where the yield is a position set, so
discontinuous constituents compare exactly like continuous ones.
Matching is multiset-based per sentence (duplicate brackets count as
often as they appear) and micro-averaged over the corpus; there is no
legacy skip list, every sentence scores.  Gold and predicted corpora
must hold the same sentences, word for word, as EVALB checks its words.
Attachment scores compare the heads and labels of encoded trees as they
are given, so a prediction with several roots or a head cycle scores
by its heads like any other.
"""

from collections import Counter
from dataclasses import asdict, dataclass

from .trees import PROPER, iter_nodes


@dataclass(frozen=True)
class EvalConfig:
    punctuation_pos: frozenset = frozenset()
    ignore_root_labels: frozenset = frozenset()


@dataclass
class ScoreReport:
    precision: float
    recall: float
    f1: float
    exact: float
    matched: int
    gold_brackets: int
    pred_brackets: int
    sentences: int

    def to_dict(self):
        return asdict(self)


def brackets(tree, cfg):
    """Multiset of (label, yield) after the filters: punctuation
    positions removed from every yield, root-label skips applied from the
    top down, preterminals excluded, empty yields dropped."""
    punct = frozenset(
        p for p in range(1, len(tree.sentence) + 1)
        if tree.sentence.pos(p) in cfg.punctuation_pos)
    skipped = set()
    node = tree.root
    while node.kind == PROPER and node.label in cfg.ignore_root_labels:
        skipped.add(id(node))
        inner = [c for c in node.children if c.kind == PROPER]
        if len(inner) != 1:
            break
        node = inner[0]
    out = Counter()
    for node in iter_nodes(tree.root):
        if id(node) in skipped:
            continue
        if node.kind == PROPER:
            yld = node.positions - punct
            if yld:
                out[(node.label, frozenset(yld))] += 1
    return out


def _check_aligned(gold, pred):
    """Raise ValueError unless gold and pred hold the same sentences:
    as many, each of as many tokens with the same forms."""
    if len(gold) != len(pred):
        raise ValueError(
            f'corpora differ in length: {len(gold)} vs {len(pred)}')
    for i, (g, p) in enumerate(zip(gold, pred), 1):
        if len(g.sentence) != len(p.sentence):
            raise ValueError(
                f'sentence {i}: {len(g.sentence)} vs '
                f'{len(p.sentence)} tokens')
        for gt, pt in zip(g.sentence, p.sentence):
            if gt.form != pt.form:
                raise ValueError(
                    f'sentence {i}, token {gt.position}: '
                    f'{gt.form!r} vs {pt.form!r}')


def _score(pairs, cfg):
    matched = gold_total = pred_total = exact = n = 0
    for g, p in pairs:
        gb = brackets(g, cfg)
        pb = brackets(p, cfg)
        matched += sum((gb & pb).values())
        gold_total += sum(gb.values())
        pred_total += sum(pb.values())
        exact += int(gb == pb)
        n += 1
    precision = matched / pred_total if pred_total else 1.0
    recall = matched / gold_total if gold_total else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return ScoreReport(precision, recall, f1, exact / n if n else 1.0,
                       matched, gold_total, pred_total, n)


def evalb(gold, pred, cfg=EvalConfig()):
    """Micro-averaged LP/LR/F1 plus exact match."""
    gold = list(gold)
    pred = list(pred)
    _check_aligned(gold, pred)
    return _score(zip(gold, pred), cfg)


def attachment_scores(gold, pred, punctuation_pos=frozenset()):
    """(UAS, LAS) over non-punctuation tokens; the root token counts like
    any other (head 0, root-slot label)."""
    gold = list(gold)
    pred = list(pred)
    _check_aligned(gold, pred)
    total = uas = las = 0
    for g, p in zip(gold, pred):
        for m in range(1, len(g.sentence) + 1):
            if g.sentence.pos(m) in punctuation_pos:
                continue
            total += 1
            if g.heads[m - 1] == p.heads[m - 1]:
                uas += 1
                if g.labels[m - 1] == p.labels[m - 1]:
                    las += 1
    if not total:
        return 1.0, 1.0
    return uas / total, las / total
