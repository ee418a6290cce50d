"""Hashed linear models and averaged-perceptron training.

Features are strings; they land in a fixed-size weight vector through an
8-byte blake2b digest (unsalted, so runs and machines agree), optionally
conjoined with a small integer key (a class id, a direction bucket) by a
splitmix64 round.  No vocabulary is stored: collisions are accepted and
the training loop never materializes feature names.

Many feature strings repeat within a sentence (the bias, every template
of a fixed head or modifier, the POS-only and between-POS templates), so
each learner hashes a sentence's strings through `hash_distinct`, which
digests each distinct string once.  The digest of a string does not
depend on how many times it is met, so weights and outputs are the same
as hashing every string.

Averaging uses the running-totals trick: alongside w we keep
u = sum of t * delta over all updates, where t counts examples seen, and
the averaged vector is w - u / T.  A model trained for zero epochs stays
all-zero by construction.
"""

import json
import sys
from hashlib import blake2b

import numpy as np

from .errors import ModelFormatError, read_utf8
from .rng import GAMMA, MASK64, Rng

DIM_BITS = 22

_GAMMA_U64 = np.uint64(GAMMA)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def hash_features(texts):
    """uint64 array of digests for a list of feature strings: the first
    8 bytes of each string's blake2b digest, read little-endian."""
    return np.fromiter(
        (int.from_bytes(blake2b(text.encode('utf-8'), digest_size=8).digest(),
                        'little') for text in texts),
        dtype=np.uint64, count=len(texts))


def feature_hash(text):
    """Full 64-bit digest of one feature string."""
    return int(hash_features([text])[0])


def hash_distinct(texts):
    """hash_features of an iterable of feature strings, hashing each
    distinct string once: the strings are streamed into one row per
    distinct string, and the digests are gathered back in input order."""
    slot = {}
    rows = np.fromiter((slot.setdefault(text, len(slot)) for text in texts),
                       dtype=np.intp)
    return hash_features(list(slot))[rows]


def _mix_vec(x):
    """The splitmix64 finalizer, in place on a freshly computed x."""
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def conjoin(hashes, key):
    """Mix a key into each digest; key 0 is distinct from no conjunction."""
    with np.errstate(over='ignore'):  # wraparound mod 2**64 is the point
        shifted = hashes + np.uint64((key + 1) & MASK64) * _GAMMA_U64
        return _mix_vec(shifted)


def conjoin_grid(hashes, keys):
    """conjoin(hashes[..., :], key) for every key, with the keys on the
    second-to-last axis: (len(keys), len(hashes)) for a digest vector,
    (rows, len(keys), width) for a (rows, width) digest matrix.  keys of
    shape (rows, k) give each row its own keys."""
    with np.errstate(over='ignore'):
        mixed = (np.asarray(keys, dtype=np.uint64) + np.uint64(1)) * _GAMMA_U64
        return _mix_vec(hashes[..., None, :] + mixed[..., None])


class LinearModel:
    """A flat weight vector addressed by masked digests.

    meta is a caller-owned json-serializable dict (label alphabets,
    featurizer settings); it rides along in the model file.
    """

    def __init__(self, dim_bits=DIM_BITS, meta=None):
        if not 1 <= dim_bits <= 30:
            raise ValueError('dim_bits out of range')
        self.dim_bits = dim_bits
        self.mask = (1 << dim_bits) - 1
        self.weights = np.zeros(1 << dim_bits)
        self.meta = dict(meta or {})

    def indices(self, hashes):
        # a masked digest is below 2**30, so its bits read the same as intp
        return np.bitwise_and(hashes, np.uint64(self.mask)).view(np.intp)

    def score(self, hashes):
        return float(self.weights[self.indices(hashes)].sum())

    def to_json(self):
        nonzero = np.nonzero(self.weights)[0]
        return json.dumps({
            'kind': 'linear',
            'dim_bits': self.dim_bits,
            'meta': self.meta,
            'weights': [[int(i), self.weights[i]] for i in nonzero],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f'model file is not json: {exc}') from None
        if not isinstance(obj, dict) or obj.get('kind') != 'linear':
            raise ModelFormatError("expected a model with kind 'linear'")
        dim_bits = obj.get('dim_bits')
        if type(dim_bits) is not int or not 1 <= dim_bits <= 30:
            raise ModelFormatError(
                f'dim_bits must be an integer in 1..30, got {dim_bits!r}')
        if not isinstance(obj.get('meta'), dict):
            raise ModelFormatError('meta must be an object')
        weights = obj.get('weights')
        if not isinstance(weights, list):
            raise ModelFormatError('weights must be a list')
        model = cls(dim_bits, obj['meta'])
        for pair in weights:
            if (type(pair) is not list or len(pair) != 2
                    or type(pair[0]) is not int
                    or type(pair[1]) not in (int, float)
                    # false for NaN, infinities and ints beyond a float
                    or not abs(pair[1]) <= sys.float_info.max):
                raise ModelFormatError(
                    f'weights must be [index, finite number] pairs, '
                    f'got {pair!r}')
            i, value = pair
            if not 0 <= i <= model.mask:
                raise ModelFormatError(f'weight index {i} out of range')
            model.weights[i] = value
        return model

    def save(self, path):
        with open(path, 'w', encoding='utf-8') as f:
            f.write(self.to_json())
            f.write('\n')

    @classmethod
    def load(cls, path):
        text = read_utf8(path, ModelFormatError)
        try:
            return cls.from_json(text)
        except ModelFormatError as exc:
            raise ModelFormatError(f'{path}: {exc}') from None


class AveragedTrainer:
    """Perceptron updates against a LinearModel, averaged on finish."""

    def __init__(self, model):
        self.model = model
        self._totals = np.zeros_like(model.weights)
        self._tick = 0

    def begin_example(self):
        self._tick += 1

    def update_indices(self, idx, delta):
        """Add delta (scalar or per-feature array) at masked indices."""
        np.add.at(self.model.weights, idx, delta)
        np.add.at(self._totals, idx, np.multiply(delta, float(self._tick)))

    def average(self):
        """Replace the working weights with their running average."""
        if self._tick:
            # in place: no third dense vector at the learner's peak
            self._totals /= self._tick
            self.model.weights -= self._totals
        return self.model


def train(model, examples, epochs, seed, mistakes):
    """The averaged-perceptron epoch loop shared by every learner.

    Each epoch visits `examples` in an order reshuffled from `seed`.
    `mistakes(model, example)` decodes one example with the current
    weights and yields (gold indices, predicted indices) for each wrong
    part; the loop rewards the first and penalizes the second before
    asking for the next, so later parts of an example see the update."""
    trainer = AveragedTrainer(model)
    rng = Rng(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for i in order:
            trainer.begin_example()
            for gold, pred in mistakes(model, examples[i]):
                trainer.update_indices(gold, 1.0)
                trainer.update_indices(pred, -1.0)
    return trainer.average()
