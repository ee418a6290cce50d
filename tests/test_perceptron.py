import base64
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodt.baseline_parser import train_unlabeled
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.dep_labeler import train_labeler
from hodt.encoding import encode_direct
from hodt.errors import ModelFormatError
from hodt import perceptron
from hodt.perceptron import (AveragedTrainer, LinearModel, conjoin_grid,
                             hash_features)
from hodt.reduction import ctree_to_dtree
from hodt.rng import Rng
from hodt.trees import strip_unaries
from hodt.unary_recovery import extract_instances, train_unary


def test_feature_hash_is_stable():
    a, same, other = hash_features(['hp:VBZ', 'hp:VBZ', 'hp:VBD'])
    assert a == same
    assert a != other
    # a literal digest, the same in every process: fails if the hash
    # ever comes from the salted built-in hash() or another function,
    # which would silently change every trained model's features
    assert int(hash_features(['b'])[0]) == 8453121595177857668


def test_hash_features_vectorized_matches_scalar():
    feats = ['a', 'bc', 'def', 'a']
    arr = hash_features(feats)
    assert arr.dtype == np.uint64
    assert arr.tolist() == [int(hash_features([f])[0]) for f in feats]


def test_hash_features_is_the_blake2b_digest():
    # one blake2b block is 128 bytes: strings of exactly one block and of
    # more, an astral-plane character (four UTF-8 bytes) and the empty
    # string hold the copied state to a freshly built one
    feats = ['b', 'hp:VBZ', 'mf:Straße', '', 'x' * 128, 'é' * 64,
             'x' * 129, 'btw:' + 'NN ' * 100, 'mf:𝔘']
    assert [len(f.encode('utf-8')) for f in feats[4:7]] == [128, 128, 129]
    want = [int.from_bytes(hashlib.blake2b(f.encode('utf-8'),
                                           digest_size=8).digest(), 'little')
            for f in feats]
    assert [int(x) for x in hash_features(feats)] == want
    assert hash_features([]).dtype == np.uint64
    assert hash_features([]).shape == (0,)
    # a long call must leave the shared empty state untouched
    hash_features(['f%d' % i for i in range(5000)])
    assert int(hash_features(['b'])[0]) == 8453121595177857668


def test_conjoin_grid_broadcasts_over_rows():
    base = hash_features(['p', 'q', 'r', 's', 't', 'u']).reshape(2, 3)
    grid = conjoin_grid(base, range(4))
    assert grid.shape == (2, 4, 3)
    for r in range(2):
        assert np.array_equal(grid[r], conjoin_grid(base[r], range(4)))
    keys = np.array([[0, 2], [1, 3]])
    rows = conjoin_grid(base, keys)
    assert rows.shape == (2, 2, 3)
    for r in range(2):
        assert np.array_equal(rows[r], conjoin_grid(base[r], keys[r]))


def test_conjoin_changes_with_key():
    base = hash_features(['x', 'y'])
    grid = conjoin_grid(base, range(3))
    assert grid.shape == (3, 2)
    assert grid.dtype == np.uint64
    # every key gives new digests, and key 0 differs from no conjunction
    assert len(set(grid.ravel().tolist()) | set(base.tolist())) == 8
    for k in range(3):
        assert np.array_equal(grid[k], conjoin_grid(base, [k])[0])
    # an explicit key list picks out those rows of the full grid
    keys = [2, 0, 2]
    assert np.array_equal(conjoin_grid(base, keys), grid[keys])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 60))
@example([], 1)
@example([5, 70, 5], 10)
def test_blocks_cut_items_into_runs_of_at_most_the_limit(cells, limit):
    blocks = list(perceptron.blocks(cells, limit))
    # every item once, in order, in runs of at least one item
    assert [i for block in blocks for i in range(len(cells))[block]] \
        == list(range(len(cells)))
    assert all(block.stop > block.start for block in blocks)
    for block in blocks:
        total = sum(cells[block])
        assert total <= limit or block.stop - block.start == 1
        # as many items as fit: the next one would not
        if block.stop < len(cells):
            assert total + cells[block.stop] > limit


def test_pieces_hold_no_larger_array():
    array = np.arange(12).reshape(6, 2).copy()
    first, empty, rest = perceptron.pieces(array, [0, 2, 2, 6])
    assert first.tolist() == [[0, 1], [2, 3]]
    assert empty.shape == (0, 2)
    assert rest.tolist() == array[2:].tolist()
    assert first.base is None and rest.base is None
    # a piece that is the whole array is the array
    (whole,) = perceptron.pieces(array, [0, 6])
    assert whole is array


def test_model_score_and_update():
    model = LinearModel(dim_bits=12)
    hashes = hash_features(['f1', 'f2', 'f3'])
    assert model.score(hashes) == 0.0
    trainer = AveragedTrainer(model)
    trainer.begin_example()
    trainer.update_indices(model.indices(hashes), 1.0)
    assert model.score(hashes) == pytest.approx(3.0)


def test_averaging_favors_early_updates():
    # a weight set early persists through many ticks and so dominates the
    # average; one set at the end barely registers
    model = LinearModel(dim_bits=12)
    trainer = AveragedTrainer(model)
    early = hash_features(['early'])
    late = hash_features(['late'])
    trainer.begin_example()
    trainer.update_indices(model.indices(early), 1.0)
    for _ in range(9):
        trainer.begin_example()
    trainer.update_indices(model.indices(late), 1.0)
    trainer.average()
    assert model.score(early) > model.score(late)


def test_zero_epoch_model_is_all_zero():
    model = LinearModel(dim_bits=10)
    assert not model.weights.any()


def test_duplicate_features_accumulate():
    model = LinearModel(dim_bits=12)
    trainer = AveragedTrainer(model)
    trainer.begin_example()
    dup = hash_features(['same', 'same'])
    trainer.update_indices(model.indices(dup), 1.0)
    assert model.score(hash_features(['same'])) == pytest.approx(2.0)


def test_model_json_roundtrip(tmp_path):
    model = LinearModel(dim_bits=12, meta={'task': 'arcs', 'projective': True})
    trainer = AveragedTrainer(model)
    trainer.begin_example()
    trainer.update_indices(model.indices(hash_features(['f1', 'f2'])), 2.5)
    trainer.average()
    path = tmp_path / 'm.json'
    model.save(str(path))
    loaded = LinearModel.load(str(path))
    assert loaded.meta == model.meta
    assert np.array_equal(loaded.weights, model.weights)
    # byte determinism of serialization
    assert model.to_json() == loaded.to_json()


def test_model_load_rejects_garbage(tmp_path):
    bad = tmp_path / 'bad.json'
    bad.write_text('{not json', encoding='utf-8')
    with pytest.raises(ModelFormatError):
        LinearModel.load(str(bad))
    bad.write_text('{"kind": "other"}', encoding='utf-8')
    with pytest.raises(ModelFormatError):
        LinearModel.load(str(bad))


def test_rng_determinism_and_streams():
    a = Rng(1, stream=0)
    b = Rng(1, stream=0)
    c = Rng(1, stream=1)
    seq_a = [a.below(100) for _ in range(10)]
    seq_b = [b.below(100) for _ in range(10)]
    seq_c = [c.below(100) for _ in range(10)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_rng_shuffle_in_place_and_seeded():
    items = list(range(20))
    first = list(items)
    Rng(5).shuffle(first)
    second = list(items)
    Rng(5).shuffle(second)
    assert first == second
    assert sorted(first) == items


def _b64(values, dtype):
    return base64.b64encode(
        np.asarray(values, dtype=dtype).tobytes()).decode('ascii')


def _model_text(dim_bits, meta, keys, values):
    """A model file's text, written here without LinearModel."""
    return json.dumps({'kind': 'linear', 'dim_bits': dim_bits, 'meta': meta,
                       'keys': _b64(keys, '<i8'),
                       'values': _b64(values, '<f8')}, sort_keys=True)


def _entries(keys, values, /, **fields):
    """A 12-bit model object with these keys and values, and fields
    set over it."""
    return {'kind': 'linear', 'dim_bits': 12, 'meta': {},
            'keys': _b64(keys, '<i8'), 'values': _b64(values, '<f8'),
            **fields}


_ONE_KEY = _b64([1], '<i8')


@pytest.mark.parametrize('obj', [
    # the fields around the weights
    {'kind': 'linear', 'meta': {}, 'keys': '', 'values': ''},
    _entries([], [], dim_bits=40),
    _entries([], [], dim_bits=0),
    _entries([], [], dim_bits=12.0),
    _entries([], [], dim_bits=True),
    {'kind': 'linear', 'dim_bits': 12, 'keys': '', 'values': ''},
    _entries([], [], meta='arcs'),
    # a field missing, or not a string
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'values': ''},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'keys': ''},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[1, 2.0]]},
    _entries([], [], keys=[[1, 2.0]]),
    _entries([], [], keys=1),
    _entries([1], [2.0], values=2.0),
    _entries([1], [2.0], values=None),
    _entries([1], [2.0], values=[2.0]),
    # not base64
    _entries([1], [2.0], keys='not base64!'),
    _entries([1], [2.0], keys=_ONE_KEY.rstrip('=')),
    _entries([1], [2.0], keys=_ONE_KEY[:4] + '\n' + _ONE_KEY[4:]),
    _entries([1], [2.0], keys='\u00e9' + _ONE_KEY[1:]),
    # a truncated value, and bytes that are not whole items
    _entries([1], [2.0], values=_b64([2.0], '<f8')[:-4]),
    _entries([1], [2.0], keys=_b64([1] * 12, 'u1')),
    _entries([1], [2.0], values=_b64([1] * 7, 'u1')),
    # counts that differ
    _entries([1], []),
    _entries([1], [2.0, 3.0]),
    _entries([1, 2], [2.0]),
    # values that are not finite
    _entries([1], [float('inf')]),
    _entries([1], [-float('inf')]),
    _entries([1], [float('nan')]),
    _entries([1, 2], [1.0, float('nan')]),
    # indices out of range: past the mask, negative, a float's bits
    _entries([4096], [1.0]),
    _entries([-1], [1.0]),
    _entries([1, 1 << 62], [1.0, 1.0]),
    _entries([1], [1.0], keys=_b64([1.0], '<f8')),
    # indices repeated or descending
    _entries([5, 5], [1.0, 2.0]),
    _entries([6, 5], [1.0, 2.0]),
    _entries([1, 7, 6, 9], [1.0, 1.0, 1.0, 1.0]),
])
def test_model_from_json_rejects_bad_entries(obj):
    with pytest.raises(ModelFormatError):
        LinearModel.from_json(json.dumps(obj))


@pytest.mark.parametrize('obj, message', [
    (_entries([5, 5], [1.0, 2.0]), 'weight index 5 repeated'),
    (_entries([2, 6, 5], [1.0, 1.0, 2.0]),
     'weight index 5 after 6: indices must ascend'),
    (_entries([1, 4096], [1.0, 1.0]), 'weight index 4096 out of range'),
    (_entries([-3], [1.0]), 'weight index -3 out of range'),
    (_entries([1, 2], [1.0, float('inf')]),
     r'weights must be \[index, finite number\] pairs, got \[2, inf\]'),
    # the first entry at fault is named, whatever its fault
    (_entries([3, 2, 4096], [1.0, 1.0, float('nan')]),
     'weight index 2 after 3: indices must ascend'),
    (_entries([1, 4096, 4096], [1.0, float('nan'), 1.0]),
     r'weights must be \[index, finite number\] pairs, got \[4096, nan\]'),
    (_entries([1, 2], [1.0]), '2 keys but 1 values'),
    (_entries([], [], keys='AQ==AAAA'), 'keys is not base64: .+'),
    (_entries([], [], values='AAAA'),
     'values holds 3 bytes, not whole 8-byte items'),
    (_entries([], [], keys=None), 'keys must be a base64 string'),
])
def test_model_from_json_names_the_first_fault(obj, message):
    with pytest.raises(ModelFormatError, match=f'^{message}$'):
        LinearModel.from_json(json.dumps(obj))


def test_model_load_names_the_file(tmp_path):
    bad = tmp_path / 'parser.json'
    bad.write_text(_model_text(40, {}, [], []), encoding='utf-8')
    with pytest.raises(ModelFormatError) as err:
        LinearModel.load(str(bad))
    assert str(err.value).startswith(f'{bad}: dim_bits')
    bad.write_text(_model_text(12, {}, [5, 5], [1.0, 2.0]), encoding='utf-8')
    with pytest.raises(ModelFormatError) as err:
        LinearModel.load(str(bad))
    assert str(err.value) == f'{bad}: weight index 5 repeated'


def test_a_stored_zero_is_no_weight():
    model = LinearModel.from_json(
        _model_text(12, {}, [1, 2, 3], [0.5, 0.0, -0.0]))
    assert model.keys.tolist() == [1]
    assert model.nonzero()[1].tolist() == [0.5]
    assert model.to_json() == _model_text(12, {}, [1], [0.5])


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, -0.1, 1e308, -1e308, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 1.0]))


@st.composite
def _compact_weights(draw):
    """(dim_bits, sorted unique masked keys, nonzero finite values)."""
    dim_bits = draw(st.integers(1, 30))
    mask = (1 << dim_bits) - 1
    keys = draw(st.lists(st.one_of(st.integers(0, mask),
                                   st.sampled_from([0, mask])),
                         unique=True, max_size=60))
    values = draw(st.lists(_FLOATS.filter(bool), min_size=len(keys),
                           max_size=len(keys)))
    return dim_bits, sorted(keys), values


@settings(max_examples=200, deadline=None)
@given(_compact_weights())
@example((12, [0, 7, 4095], [5e-324, 1e308, 0.1]))
@example((30, [(1 << 30) - 1], [-1e308]))
@example((1, [], []))
def test_saved_weights_load_bit_for_bit(tmp_path_factory, case):
    dim_bits, keys, values = case
    meta = {'task': 'arcs', 'note': 'é'}
    model = LinearModel.from_json(_model_text(dim_bits, meta, keys, values))
    path = tmp_path_factory.mktemp('model') / 'm.json'
    model.save(str(path))
    loaded = LinearModel.load(str(path))
    assert loaded.meta == meta and loaded.dim_bits == dim_bits
    assert loaded.keys.tolist() == keys
    assert (loaded.weights.view(np.uint64).tolist()
            == [0] + np.array(values).view(np.uint64).tolist())
    again = path.with_name('again.json')
    loaded.save(str(again))
    assert again.read_bytes() == path.read_bytes()


def _weights_digest(model):
    """SHA-256 of the nonzero (index, value) pairs of a model."""
    keys, values = model.nonzero()
    digest = hashlib.sha256(keys.astype('<i8').tobytes())
    digest.update(values.astype('<f8').tobytes())
    return digest.hexdigest()


def _train_pinned(learner):
    toy = gen_toy_treebank(GenConfig(seed=7), 30)
    if learner == 'unary':
        return train_unary(extract_instances(toy), epochs=3, seed=2)
    if learner == 'arcs_nonprojective':
        disc = [gen_ctree(GenConfig(seed=7, discontinuity_probability=1.0),
                          8, index=i) for i in range(20)]
        corpus = [encode_direct(ctree_to_dtree(t)) for t in disc]
        return train_unlabeled(corpus, epochs=3, seed=2, projective=False)
    corpus = [encode_direct(ctree_to_dtree(strip_unaries(t))) for t in toy]
    if learner == 'labels':
        return train_labeler(corpus, epochs=3, seed=2)
    return train_unlabeled(corpus, epochs=3, seed=2, projective=True)


# Digests of the weights each learner produces on a small fixed corpus.
# A change to the training loops, the featurizers or the hashing that
# alters a single weight shows up here.
PINNED = {
    'arcs_projective':
        '00f9444c6a28aef182586a39984fcd0e49f816fe23b650697a38c9b7789e8a5a',
    'arcs_nonprojective':
        '7d052263e9b54490fce0f86640dd9d3235f98c19904f07d91eae2a2410a77cc5',
    'labels':
        'e86f99ba91c35fb5279a38ee5af4b8ae76926f425553b93fc524bd492d895ee4',
    'unary':
        '67142bf2b911ef8326cb658d17040290e8d5e10dfac1d794fcd7def53828aa27',
}


@pytest.mark.parametrize('learner', sorted(PINNED))
def test_trained_weights_are_pinned(learner):
    model = _train_pinned(learner)
    assert np.count_nonzero(model.weights)
    assert _weights_digest(model) == PINNED[learner]
    # the model file holds the same bytes, base64-encoded
    obj = json.loads(model.to_json())
    payload = hashlib.sha256(base64.b64decode(obj['keys']))
    payload.update(base64.b64decode(obj['values']))
    assert payload.hexdigest() == PINNED[learner]


def _arrays(*objects):
    return [a for obj in objects for a in vars(obj).values()
            if isinstance(a, np.ndarray)]


@pytest.mark.parametrize('learner', sorted(PINNED))
def test_runtime_models_hold_only_their_nonzero_weights(learner, tmp_path,
                                                        monkeypatch):
    # a dense model at 22 bits holds 32 MiB; a compact one a 1 MiB
    # lookup plus 16 bytes per nonzero weight; an open one, fresh or as
    # the epoch loop leaves it, an int32 slot map over the masked space
    # plus a few floats per slot handed out
    training = []
    average = AveragedTrainer.average

    def spy(trainer):
        training.append(_arrays(trainer, trainer.model))
        return average(trainer)

    monkeypatch.setattr(AveragedTrainer, 'average', spy)
    model = _train_pinned(learner)
    for arrays in (_arrays(LinearModel()), *training):
        assert [a.dtype for a in arrays if a.size >= 2**22] == [np.int32]
        assert sum(a.nbytes for a in arrays if a.size < 2**22) < 2 * 2**20
    path = tmp_path / 'model.json'
    model.save(str(path))
    for m in (model, LinearModel.load(str(path))):
        assert m.dim_bits == 22
        held = sum(a.nbytes for a in _arrays(m))
        assert held < 2 * 2**20


# Trains the parser on a small toy bank in a fresh process and prints how
# far that raised the process's peak RSS (VmHWM, as the benchmark reads
# it) above its peak before training.
_TRAIN_ONE = """
from hodt.baseline_parser import train_unlabeled
from hodt.corpus_gen import GenConfig, gen_toy_treebank
from hodt.encoding import encode_direct
from hodt.reduction import ctree_to_dtree
from hodt.trees import strip_unaries


def peak():
    with open('/proc/self/status') as status:
        for line in status:
            if line.startswith('VmHWM:'):
                return int(line.split()[1]) * 1024


corpus = [encode_direct(ctree_to_dtree(strip_unaries(t)))
          for t in gen_toy_treebank(GenConfig(seed=7), 60)]
before = peak()
train_unlabeled(corpus, epochs=2, seed=2)
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists('/proc/self/status'),
                    reason='reads VmHWM from /proc')
def test_training_a_learner_holds_no_dense_vector():
    # one dense vector of 2**22 floats is 32 MiB; a dense trainer holds
    # two (weights and totals), and touches all of both when it averages
    src = os.path.dirname(os.path.dirname(perceptron.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get('PYTHONPATH')))))
    done = subprocess.run([sys.executable, '-c', _TRAIN_ONE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 32 * 2**20


@pytest.mark.parametrize('learner', sorted(PINNED))
def test_compaction_keeps_the_model_bytes(learner, monkeypatch):
    seen = []
    compact = LinearModel.compact

    def spy(model):
        seen.append((model.keys is None, model.to_json(), model.nonzero()))
        return compact(model)

    monkeypatch.setattr(LinearModel, 'compact', spy)
    model = _train_pinned(learner)
    ((was_dense, text, (keys, values)),) = seen
    assert was_dense and model.keys is not None
    assert model.to_json() == text
    got_keys, got_values = model.nonzero()
    assert np.array_equal(got_keys, keys)
    assert np.array_equal(got_values, values)


def test_a_compact_model_cannot_be_trained():
    with pytest.raises(ValueError):
        AveragedTrainer(LinearModel(dim_bits=8).compact())


def _dense(dim_bits, weights):
    """An open model with weights[i] at masked index i.  The slot is
    handed out before the assignment, which would otherwise write into
    the `weights` that handing it out replaces."""
    model = LinearModel(dim_bits)
    for i, value in weights.items():
        slot = model.indices(np.array([i], dtype=np.uint64))
        model.weights[slot] = value
    return model


def _sums(model, digests):
    return model.weights[model.indices(digests)].sum(axis=-1)


@st.composite
def _weights_and_digests(draw):
    """(dim_bits, {index: weight}, (rows, width) uint64 digests) where
    some digests mask to weighted indices, 0 or the mask, some repeat."""
    dim_bits = draw(st.integers(1, 14))
    mask = (1 << dim_bits) - 1
    index = st.one_of(st.sampled_from([0, mask]), st.integers(0, mask))
    weights = draw(st.dictionaries(index, st.floats(-1e300, 1e300),
                                   max_size=40))
    high = st.integers(0, (1 << 64) - 1).map(lambda h: h & ~mask)
    hit = st.sampled_from(sorted(weights) or [0]).flatmap(
        lambda i: high.map(lambda h: h | i))
    digest = st.one_of(st.integers(0, (1 << 64) - 1), hit,
                       st.sampled_from([0, mask, (1 << 64) - 1]))
    width = draw(st.integers(1, 8))
    flat = draw(st.lists(digest, min_size=width, max_size=6 * width)
                .map(lambda d: d[:len(d) - len(d) % width]))
    digests = np.array(flat, dtype=np.uint64).reshape(-1, width)
    return dim_bits, weights, digests


@settings(max_examples=300, deadline=None)
@given(_weights_and_digests())
@example((12, {}, np.array([[0, 4095, 4095, 2**64 - 1]], dtype=np.uint64)))
@example((3, {0: 1.5, 7: -2.25}, np.array([[0, 7, 7, 8], [15, 15, 0, 1]],
                                            dtype=np.uint64)))
def test_compact_scores_equal_dense_scores(case):
    # the same nonzero weights summed in the same order: equal bit for
    # bit, not approximately
    dim_bits, weights, digests = case
    dense = _dense(dim_bits, weights)
    want = _sums(dense, digests)
    compact = _dense(dim_bits, weights).compact()
    loaded = LinearModel.from_json(dense.to_json())
    for model in (compact, loaded):
        assert model.keys.tolist() == sorted(
            i for i, w in weights.items() if w)
        assert (_sums(model, digests) == want).all()
        assert model.to_json() == dense.to_json()


def _reference_json(dim_bits, meta, epochs, examples):
    """to_json of the dense trainer: np.add.at on 2**dim_bits weights
    and totals at the masked digests, then w - u/T, then the indices of
    the nonzero weights."""
    mask = np.uint64((1 << dim_bits) - 1)
    w = np.zeros(1 << dim_bits)
    u = np.zeros(1 << dim_bits)
    tick = 0
    for _ in range(epochs):
        for updates in examples:
            tick += 1
            for digests, delta in updates:
                idx = (digests & mask).astype(np.intp)
                np.add.at(w, idx, delta)
                np.add.at(u, idx, np.multiply(delta, float(tick)))
    if tick:
        w = w - u / tick
    keys = np.flatnonzero(w)
    return _model_text(dim_bits, meta, keys, w[keys])


@st.composite
def _training_runs(draw):
    """(dim_bits, epochs, tables_first, examples): each example a list
    of (digests, delta) updates, delta a scalar or one value per digest.
    The digests come from a few masked indices in drawn order, each
    under several high halves, so that digests repeat within an update
    and distinct digests mask to one index."""
    dim_bits = draw(st.integers(1, 14))
    mask = (1 << dim_bits) - 1
    pool = draw(st.lists(st.integers(0, mask), min_size=1, max_size=12))
    digest = st.builds(lambda i, high: (high & ~mask) | i,
                       st.sampled_from(pool),
                       st.sampled_from([0, 1 << 40, (1 << 64) - 1]))
    value = st.one_of(st.sampled_from([1.0, -1.0, 0.5]),
                      st.floats(-1e3, 1e3))
    update = st.lists(digest, min_size=1, max_size=6).flatmap(
        lambda d: st.tuples(
            st.just(np.array(d, dtype=np.uint64)),
            st.one_of(value, st.lists(value, min_size=len(d),
                                      max_size=len(d)).map(np.array))))
    examples = draw(st.lists(st.lists(update, max_size=3), max_size=6))
    return dim_bits, draw(st.integers(0, 3)), draw(st.booleans()), examples


@settings(max_examples=300, deadline=None)
@given(_training_runs())
@example((4, 2, True, [[(np.array([9, 25, 9], dtype=np.uint64), 1.0)],
                       [(np.array([3, 9], dtype=np.uint64), -0.5)]]))
@example((14, 0, True, [[(np.array([7, 2], dtype=np.uint64), 1.0)]]))
def test_open_training_equals_the_dense_reference(run):
    # the slots are handed out in first-seen order, either as the
    # learners do (every table before the first update) or as each
    # update comes; the model must serialize as the dense trainer's
    # bit for bit
    dim_bits, epochs, tables_first, examples = run
    meta = {'task': 'reference'}
    model = LinearModel(dim_bits, meta)
    if tables_first:
        tables = [[model.indices(d) for d, _ in updates]
                  for updates in examples]
    trainer = AveragedTrainer(model)
    for _ in range(epochs):
        for k, updates in enumerate(examples):
            trainer.begin_example()
            for j, (digests, delta) in enumerate(updates):
                idx = tables[k][j] if tables_first else model.indices(digests)
                trainer.update_indices(idx, delta)
    assert trainer.average().to_json() == _reference_json(
        dim_bits, meta, epochs, examples)


def test_zero_epoch_compact_model_scores_zero():
    model = perceptron.train(LinearModel(dim_bits=12), [], 0, 1, None)
    assert model.keys.size == 0 and model.nonzero()[1].size == 0
    digests = np.array([[0, 4095, 2**64 - 1], [7, 7, 7]], dtype=np.uint64)
    assert (_sums(model, digests) == _sums(LinearModel(12), digests)).all()
    assert model.to_json() == LinearModel(12).to_json()
