"""Hashed linear models and averaged-perceptron training.

Features land in a fixed-size weight space through 64-bit digests.  A
string's digest is its 8-byte blake2b (unsalted, so runs and machines
agree); `mix`, the splitmix64 finalizer, combines digests and keys into
new ones.  No vocabulary is stored: collisions are accepted and the
training loop never materializes feature names.

`hash_features` takes a list of strings, copies one blake2b state per
string, appends the digests to one buffer and reads it as little-endian
uint64.  The parser hashes only the 7n + 6 part strings of each
sentence (its forms, POS tags and their neighbours) and mixes every arc
template's digest from those (`baseline_parser.block_atoms`); the
labeler builds its features from the arc digests and hashes no string of
its own.  The unary restorer hashes the feature strings of a tree's
nodes.  Each learner hashes a block of consecutive sentences or trees in
one call: `blocks` cuts a corpus into runs of at most BLOCK_CELLS table
entries, and `pieces` cuts a block's tables into per-tree arrays.  Parsing
hashes a block of one.  `conjoin_grid` conjoins small integer keys (a
label, a class) onto digests by one more mix.

A model never holds a float per masked index.  A fresh LinearModel is
open: `indices` gives each masked index the next free slot the first
time it meets it (the new indices of one call in ascending order), and
`weights` (and the trainer's running totals) hold one float per slot
handed out, grown geometrically.  Slot 0 is never handed out and holds
0.0.  The slot of an index is kept in an int32 map over the whole masked
space, an anonymous mmap: its pages are touched only where indices land
(16 MiB at the default 22 bits when all are), and they go back to the
OS when compaction drops the map, which a heap block of that size freed
by glibc need not do.  Every update adds to one slot per masked index,
in the order a dense vector would take it, so the weights equal those
of a dense vector bit for bit.  A slot is only an address: how many
tables each `indices` call covers changes the slot numbers, but not the
weights, since every slot takes its index's updates in the same order
and `nonzero` sorts by index.  Averaging
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

A model file is one line of JSON: `kind`, `dim_bits` and `meta` as
plain values, and the compact form as two base64 strings, `keys` (the
masked indices as little-endian int64) and `values` (their weights as
little-endian float64).  Loading decodes both and checks them with
whole-array numpy passes: equal counts, indices ascending and in range,
values finite.
"""

import base64
import json
import math
import mmap
from hashlib import blake2b

import numpy as np

from .errors import ModelFormatError, read_utf8
from .rng import GAMMA, Rng

DIM_BITS = 22

# table entries per block: the sentences, trees or nodes whose tables a
# learner builds at once, and each pass of baseline_parser's
# block_index_tables and score_matrix; the n^2 candidate arcs of a
# sentence of up to 43 tokens are one pass
BLOCK_CELLS = 1 << 16

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


def blocks(cells, limit=None):
    """Slices that cut a sequence of items, item i holding cells[i] table
    entries, into runs of consecutive items of at most `limit` entries
    each (BLOCK_CELLS, read at the call, by default); an item of more
    than `limit` entries is a run of its own."""
    if limit is None:
        limit = BLOCK_CELLS
    start = total = 0
    for i, size in enumerate(cells):
        if total + size > limit and i > start:
            yield slice(start, i)
            start, total = i, 0
        total += size
    if start < len(cells):
        yield slice(start, len(cells))


def pieces(array, ends):
    """array cut between consecutive ends into arrays of their own: a
    piece is a copy unless it is the whole array, so that no piece kept
    holds on to a larger array.  A learner cuts a block's tables into
    per-tree ones this way; views of the block arrays would keep them
    alive, interleaved on the heap with the freed arrays of each block's
    build."""
    return [array if b - a == len(array) else array[a:b].copy()
            for a, b in zip(ends, ends[1:])]


def _resized(array, size):
    """A zero-padded copy of a 1-d array, grown to size."""
    out = np.zeros(size, dtype=array.dtype)
    out[:array.size] = array
    return out


def _encoded(array, dtype):
    """The base64 of array's bytes as dtype."""
    data = array.astype(dtype, copy=False).tobytes()
    return base64.b64encode(data).decode('ascii')


def _decoded(obj, field, dtype):
    """The read-only array of dtype that obj[field], a base64 string
    of whole 8-byte items, holds."""
    text = obj.get(field)
    if not isinstance(text, str):
        raise ModelFormatError(f'{field} must be a base64 string')
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ModelFormatError(f'{field} is not base64: {exc}') from None
    if len(data) % 8:
        raise ModelFormatError(
            f'{field} holds {len(data)} bytes, not whole 8-byte items')
    return np.frombuffer(data, dtype=dtype)


def _fault(keys, values, i, mask):
    """The message for the entry at i of a model's keys and values, the
    first that is at fault."""
    key, value = int(keys[i]), float(values[i])
    if not math.isfinite(value):
        return (f'weights must be [index, finite number] pairs, '
                f'got {[key, value]!r}')
    if not 0 <= key <= mask:
        return f'weight index {key} out of range'
    before = int(keys[i - 1])
    return (f'weight index {key} repeated' if key == before else
            f'weight index {key} after {before}: indices must ascend')


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
            'keys': _encoded(keys, '<i8'),
            'values': _encoded(values, '<f8'),
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
        keys = _decoded(obj, 'keys', '<i8')
        values = _decoded(obj, 'values', '<f8')
        if keys.size != values.size:
            raise ModelFormatError(
                f'{keys.size} keys but {values.size} values')
        mask = (1 << dim_bits) - 1
        # the first entry that is not finite, out of range or not above
        # the one before it
        bad = ~np.isfinite(values)
        bad |= (keys < 0) | (keys > mask)
        bad[1:] |= keys[1:] <= keys[:-1]
        wrong = np.flatnonzero(bad)
        if wrong.size:
            raise ModelFormatError(_fault(keys, values, wrong[0], mask))
        nonzero = values != 0  # a stored 0.0 is no weight, as in to_json
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
    `mistakes(model, example)` decodes one whole example with the weights
    at its start and returns (gold indices, predicted indices) of all its
    wrong parts (index arrays of any shape), or None; the loop rewards
    the first and penalizes the second, one update per example (Collins,
    EMNLP 2002)."""
    trainer = AveragedTrainer(model)
    rng = Rng(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for i in order:
            trainer.begin_example()
            wrong = mistakes(model, examples[i])
            if wrong is not None:
                trainer.update_indices(wrong[0], 1.0)
                trainer.update_indices(wrong[1], -1.0)
    return trainer.average()
