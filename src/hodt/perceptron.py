"""Hashed linear models and averaged-perceptron training.

Features land in a fixed-size weight space through 64-bit digests.  A
string's digest is its 8-byte blake2b (unsalted, so runs and machines
agree); `mix`, the splitmix64 finalizer, combines digests and keys into
new ones.  No vocabulary is stored: collisions are accepted and the
training loop never materializes feature names.

`hash_features` takes a list of strings, copies one blake2b state per
string, appends the digests to one buffer and reads it as little-endian
uint64.  The parser hashes only the 7n + 6 part strings of a sentence
(its forms, POS tags and their neighbours) and mixes every arc
template's digest from those (`baseline_parser.sentence_atoms`); the
labeler builds its features from the arc digests and hashes no string.
The unary restorer, which hashes a whole training corpus in one call,
goes through `hash_distinct`, which digests each distinct string once.
`conjoin_grid` conjoins small integer keys (a label, a class) onto
digests by one more mix.

A model never holds a float per masked index.  A fresh LinearModel is
open: `indices` gives each masked index the next free slot the first
time it meets it, and `weights` (and the trainer's running totals) hold
one float per slot handed out, grown geometrically.  Slot 0 is never
handed out and holds 0.0.  The slot of an index is kept in an int32 map
over the whole masked space, an anonymous mmap: its pages are touched
only where indices land (16 MiB at the default 22 bits when all are),
and they go back to the OS when compaction drops the map, which a heap
block of that size freed by glibc need not do.  Every update adds to
one slot per masked index, in the order a dense vector would take it,
so the weights equal those of a dense vector bit for bit.  Averaging
uses the running-totals trick: alongside w we keep u = sum of t * delta
over all updates, where t counts examples seen, and the averaged vector
is w - u / T, element by element over the slots.  A model trained for
zero epochs stays all-zero by construction.

Averaging ends training: the model is then compacted, as a loaded model
is built, to `keys`, the sorted masked indices of its nonzero weights,
and `weights`, a 0.0 slot followed by their values.  `indices` then maps
a masked index to the slot of its weight, or to slot 0 when it has none,
so `weights[indices(h)]` reads the same values in both forms and every
score sums the same nonzero values in the same order.  The lookup is a
rank bitmap: one uint64 per block of 32 indices, whose low half flags
the indices of the block that have a weight and whose high half counts
the weights of the blocks before it.  The slot of an index is that count
plus the flags at or below it, times its own flag: one gather and a few
elementwise passes per digest, and 1 MiB per model at 22 bits, whatever
the number of weights.
"""

import json
import mmap
import sys
from hashlib import blake2b

import numpy as np

from .errors import ModelFormatError, read_utf8
from .rng import GAMMA, Rng

DIM_BITS = 22

# slots an open model holds before its first growth
_FIRST_SLOTS = 1 << 12

_GAMMA_U64 = np.uint64(GAMMA)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


# the empty 8-byte blake2b state; each digest starts from a copy of it,
# which is cheaper than building (and parsing the arguments of) a new one
_BLAKE2B_8 = blake2b(digest_size=8)


def hash_features(texts):
    """uint64 array of digests for a list of feature strings (a list,
    not any iterable: perfbench/tracer.py counts its length): the 8-byte
    blake2b digest of each string's UTF-8, read little-endian.

    Each digest updates a copy of _BLAKE2B_8, never the template itself.
    The digests go into one growing buffer rather than a b''.join of a
    list, which would hold a transient array of 80 bytes per string."""
    digests = bytearray()
    for text in texts:
        state = _BLAKE2B_8.copy()
        state.update(text.encode('utf-8'))
        digests += state.digest()
    return np.frombuffer(digests, dtype='<u8').astype(np.uint64)


def hash_distinct(texts):
    """(digests, rows) for an iterable of feature strings: the
    hash_features of each distinct string, in order of first appearance,
    and for each input string the row of its digest, so that
    digests[rows] is hash_features of the input.

    Used by the unary restorer, whose training corpus repeats most
    strings."""
    slot = {}
    rows = np.fromiter((slot.setdefault(text, len(slot)) for text in texts),
                       dtype=np.intp)
    return hash_features(list(slot)), rows


def mix(x):
    """The splitmix64 finalizer, in place on a freshly computed uint64
    array x, which it returns."""
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


def conjoin_grid(hashes, keys):
    """Each key mixed into each digest (key 0 is distinct from no
    conjunction), with the keys on the second-to-last axis: (len(keys),
    len(hashes)) for a digest vector, (rows, len(keys), width) for a
    (rows, width) digest matrix.  keys of
    shape (rows, k) give each row its own keys."""
    with np.errstate(over='ignore'):
        mixed = (np.asarray(keys, dtype=np.uint64) + np.uint64(1)) * _GAMMA_U64
        return mix(hashes[..., None, :] + mixed[..., None])


def _resized(array, size):
    """A zero-padded copy of a 1-d array, grown to size."""
    out = np.zeros(size, dtype=array.dtype)
    out[:array.size] = array
    return out


class LinearModel:
    """Weights addressed by masked digests: open (one slot per index
    seen) while training, compact (nonzero weights only) once averaged
    or loaded; see the module docstring.

    meta is a caller-owned json-serializable dict (label alphabets,
    featurizer settings); it rides along in the model file.
    """

    def __init__(self, dim_bits=DIM_BITS, meta=None):
        if not 1 <= dim_bits <= 30:
            raise ValueError('dim_bits out of range')
        self.dim_bits = dim_bits
        self.mask = (1 << dim_bits) - 1
        self.meta = dict(meta or {})
        self.keys = None  # open until compact()
        # the slot of each masked index, 0 until it is seen
        self._slot_of = np.frombuffer(mmap.mmap(-1, 4 << dim_bits),
                                      dtype=np.int32)
        self._used = 1  # slots handed out, slot 0 included
        size = min(_FIRST_SLOTS, self.mask + 2)
        self._slot_keys = np.zeros(size, dtype=np.intp)
        self.weights = np.zeros(size)

    def indices(self, hashes):
        """Where each digest's weight sits in `weights`: its slot, handed
        out on first sight in an open model; in a compact one, slot 0
        (which holds 0.0) for a digest with no weight."""
        # a masked digest is below 2**30, so its bits read the same as intp
        idx = np.bitwise_and(hashes, np.uint64(self.mask)).view(np.intp)
        if self.keys is None:
            return self._open_slots(idx)
        entry = self._lookup[idx >> 5]
        # shift the index's own flag to bit 63: what is left are the flags
        # of its block at or below it (the shift is at least 32, so the
        # count in the high half falls off)
        below = entry << (63 - (idx & 31)).view(np.uint64)
        slot = (entry >> np.uint64(32)).view(np.intp)
        slot += np.bitwise_count(below)
        slot *= (below >> np.uint64(63)).view(np.intp)
        return slot

    def _open_slots(self, idx):
        """The slots of masked indices, handing the indices not seen yet
        the next free slots, in ascending order of index."""
        slots = self._slot_of[idx].astype(np.intp)
        new = slots == 0
        if new.any():
            fresh, rank = np.unique(idx[new], return_inverse=True)
            first = self._used
            self._used += fresh.size
            if self._used > self.weights.size:
                size = min(max(self._used, 2 * self.weights.size),
                           self.mask + 2)
                self.weights = _resized(self.weights, size)
                self._slot_keys = _resized(self._slot_keys, size)
            self._slot_of[fresh] = np.arange(first, self._used)
            self._slot_keys[first:self._used] = fresh
            slots[new] = rank + first
        return slots

    def score(self, hashes):
        return float(self.weights[self.indices(hashes)].sum())

    def nonzero(self):
        """(indices, values) of the nonzero weights, indices ascending."""
        if self.keys is None:
            values = self.weights[1:self._used]
            kept = np.flatnonzero(values)
            keys = self._slot_keys[kept + 1]
            order = np.argsort(keys)
            return keys[order], values[kept[order]]
        return self.keys, self.weights[1:]

    def compact(self):
        """Keep only the nonzero weights, and drop the slot map."""
        self._set_compact(*self.nonzero())
        return self

    def _set_compact(self, keys, values):
        # dropping the map unmaps it, so its pages leave the process
        self._slot_of = self._slot_keys = None
        self.keys = keys
        self.weights = np.concatenate(([0.0], values))
        # one word per block of 32 indices: the low half flags the
        # indices that have a weight, the high half counts the weights
        # of the blocks before it; built in place, with one transient
        # array of the same size
        lookup = np.zeros((self.mask >> 5) + 1, dtype=np.uint64)
        np.bitwise_or.at(lookup, keys >> 5,
                         np.left_shift(np.uint64(1),
                                       (keys & 31).astype(np.uint64)))
        through = np.cumsum(np.bitwise_count(lookup), dtype=np.uint64)
        through <<= np.uint64(32)
        lookup[1:] |= through[:-1]
        self._lookup = lookup

    def to_json(self):
        keys, values = self.nonzero()
        return json.dumps({
            'kind': 'linear',
            'dim_bits': self.dim_bits,
            'meta': self.meta,
            'weights': [list(pair)
                        for pair in zip(keys.tolist(), values.tolist())],
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
        mask = (1 << dim_bits) - 1
        keys, values = [], []
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
            if not 0 <= i <= mask:
                raise ModelFormatError(f'weight index {i} out of range')
            if keys and i <= keys[-1]:
                raise ModelFormatError(
                    f'weight index {i} repeated' if i == keys[-1] else
                    f'weight index {i} after {keys[-1]}: '
                    f'indices must ascend')
            keys.append(i)
            values.append(float(value))
        keys = np.array(keys, dtype=np.intp)
        values = np.array(values)
        nonzero = values != 0  # a listed 0.0 is no weight, as in to_json
        model = cls.__new__(cls)
        model.dim_bits, model.mask, model.meta = dim_bits, mask, obj['meta']
        model._set_compact(keys[nonzero], values[nonzero])
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
    """Perceptron updates against a fresh (open) LinearModel, averaged
    and compacted on finish."""

    def __init__(self, model):
        if model.keys is not None:
            raise ValueError('a compact model cannot be trained')
        self.model = model
        self._totals = np.zeros_like(model.weights)
        self._tick = 0

    def begin_example(self):
        self._tick += 1

    def update_indices(self, idx, delta):
        """Add delta (scalar or per-feature array) at slots."""
        weights = self.model.weights
        if self._totals.size < weights.size:  # the model handed out more
            self._totals = _resized(self._totals, weights.size)
        np.add.at(weights, idx, delta)
        np.add.at(self._totals, idx, np.multiply(delta, float(self._tick)))

    def average(self):
        """Replace the working weights with their running average, and
        compact the model: training ends here."""
        if self._tick:
            # in place, over the slots that have totals (the rest were
            # never updated and stay 0.0)
            self._totals /= self._tick
            self.model.weights[:self._totals.size] -= self._totals
        self._totals = None
        return self.model.compact()


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
