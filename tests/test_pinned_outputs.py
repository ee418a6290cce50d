"""Byte-level pins of the treebank writers, the readers and the unary
feature extractor.

Each digest is the SHA-256 of an output on fixed generated banks with
discontinuities, unary chains, bare-preterminal roots, lemmas and
morphology.  They were taken before the tree layers were rewritten to
walk each tree once, and must not change while the file formats stay
the same."""

import hashlib
import json

import pytest

from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.headrules import RIGHTMOST, lexicalize
from hodt.treebank_io import (
    read_bracketed, read_export, write_bracketed, write_export,
    write_json_corpus)
from hodt.trees import PRETERMINAL, CTree, Sentence, Token, strip_unaries
from hodt.unary_recovery import (NULL_CLASS, _with_parents,
                                 extract_instances, featurize_node,
                                 unary_chains)


def _with_lemmas(tree, k):
    """The tree over a sentence that carries lemmas and morphology on
    some tokens, and on tree k a POS that differs from the preterminal
    label (the writers take the label)."""
    tokens = tuple(
        Token(t.position, t.form, t.pos if k % 5 else 'TAG',
              f'l{t.position}' if (t.position + k) % 2 else None,
              'Pl' if (t.position + k) % 3 == 0 else None)
        for t in tree.sentence)
    return CTree(tree.root, Sentence(tokens))


def _bank(disc):
    cfg = GenConfig(seed=5, discontinuity_probability=disc,
                    unary_probability=0.3)
    return [_with_lemmas(gen_ctree(cfg, 1 + i % 9, index=i), i)
            for i in range(60)]


DISC = _bank(0.5)
CONT = _bank(0.0)


def _sha(text):
    return hashlib.sha256(text.encode('utf-8')).hexdigest()


OUTPUTS = {
    'export3_disc': lambda: write_export(DISC),
    'export4_disc': lambda: write_export(DISC, version=4),
    'export3_cont': lambda: write_export(CONT),
    'bracketed_cont': lambda: write_bracketed(CONT),
    'json_disc': lambda: write_json_corpus(DISC),
    'json_cont': lambda: write_json_corpus(CONT),
    'read_export3_disc': lambda: write_json_corpus(
        lexicalize(t, RIGHTMOST) for t in read_export(write_export(DISC))),
    'read_export4_disc': lambda: write_json_corpus(
        lexicalize(t, RIGHTMOST)
        for t in read_export(write_export(DISC, version=4))),
    'read_bracketed_cont': lambda: write_json_corpus(
        lexicalize(t, RIGHTMOST)
        for t in read_bracketed(write_bracketed(CONT))),
}

PINNED = {
    'bracketed_cont':
        'ccb93ad45f40c03e8b628653f1f2ab4b50558d0d86918dbfbe0f513f4ca7a858',
    'export3_cont':
        '0f5f136c91c3c6a4d48b558f1c54fba2b87eebd725cdd1b7ef552ffb43d95f4f',
    'export3_disc':
        '310d564523217e09bda653e811c271514e8360486e2051f73ad8dfa487446228',
    'export4_disc':
        'b0c6c074c90b17cb48930b71de6ad7fb6da85939b7abe863a9c93f58c6cbcc93',
    'json_cont':
        '78fccc00e52ae36ab162224554a86b4dff9bd00d9b410b6727cfcdfe8732f4c9',
    'json_disc':
        'fc66962d055a6403fcce8642a1234c8283621de9f746934307fe3c36fce6378c',
    'read_bracketed_cont':
        '6ed55d991e0c466bf2e2540512610d9bace38f7e416c2043ba1882504db5dd78',
    'read_export3_disc':
        'cc867a5b62d93e57d4c44d010d0dd49ab9c2e7b71efa0329a36692ca6c9f9144',
    'read_export4_disc':
        'aa2fc2a6e36fcd6536c497ee29be57938776768245a517e8d9411c102929632d',
    'unary_disc':
        '9551f99ee471249dcabb7fa861001b2a166431c2b97387b086c4698ea6e463ea',
    'unary_toy':
        'f37b8ca783b3a34366e06102330867357cf49bf11762333751925aa8f4e55229',
}


@pytest.mark.parametrize('name', sorted(OUTPUTS))
def test_output_is_pinned(name):
    assert _sha(OUTPUTS[name]()) == PINNED[name]


UNARY_BANKS = {
    'toy': lambda: gen_toy_treebank(GenConfig(seed=3), 80),
    'disc': lambda: DISC,
}


@pytest.mark.parametrize('bank', sorted(UNARY_BANKS))
def test_unary_features_are_pinned(bank):
    # each node of each stripped tree: its features, symbol, preterminal
    # flag and gold class
    nodes = []
    for tree in UNARY_BANKS[bank]():
        chains = unary_chains(tree)
        stripped = strip_unaries(tree)
        nodes += [[featurize_node(stripped, node, parent, slot), node.label,
                   node.kind == PRETERMINAL,
                   chains.get(node.positions, NULL_CLASS)]
                  for node, parent, slot in _with_parents(stripped.root)]
    data = extract_instances(UNARY_BANKS[bank]())
    text = json.dumps({
        'instances': nodes,
        'classes': list(data.classes),
        'allowed': {s: sorted(c) for s, c in sorted(data.allowed.items())}})
    assert _sha(text) == PINNED['unary_' + bank]
