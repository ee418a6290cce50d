"""Constituent parsing as dependency parsing over head-ordered trees.

Constituent trees (continuous or not) convert losslessly to dependency
trees whose arcs carry a label and an attachment order index; parsing
then happens with plain dependency machinery and the tree is rebuilt.
See the README for the pipeline and the file formats.
"""

from .encoding import (DecodeResult, decode, encode_delta, encode_direct,
                       encode_hn, label_alphabet)
from .errors import (HeadRuleError, ModelFormatError, ToolkitError,
                     TreebankFormatError, TreeStructureError)
from .evaluation import EvalConfig, ScoreReport, attachment_scores, evalb
from .headrules import (HeadRuleSet, LEFTMOST, RIGHTMOST, lexicalize,
                        load_rules)
from .reduction import (RepairStats, RoundtripReport, ctree_to_dtree,
                        dtree_to_ctree, recover_order, roundtrip_check)
from .trees import (CNode, CTree, DTree, Sentence, Token, is_continuous,
                    is_nested, is_projective, strip_unaries, validate)

__version__ = '0.1.0'

__all__ = [
    'CNode', 'CTree', 'DTree', 'DecodeResult', 'EvalConfig',
    'HeadRuleError', 'HeadRuleSet', 'LEFTMOST', 'ModelFormatError',
    'RIGHTMOST', 'RepairStats', 'RoundtripReport', 'ScoreReport',
    'Sentence', 'Token', 'ToolkitError',
    'TreeStructureError', 'TreebankFormatError', 'attachment_scores',
    'ctree_to_dtree', 'decode', 'dtree_to_ctree', 'encode_delta',
    'encode_direct', 'encode_hn', 'evalb', 'is_continuous', 'is_nested',
    'is_projective', 'label_alphabet', 'lexicalize', 'load_rules',
    'recover_order', 'roundtrip_check', 'strip_unaries', 'validate',
    '__version__',
]
