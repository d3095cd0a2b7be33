import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relidistill as rd
from relidistill.errors import ConfigError
from relidistill.seeding import AUGMENT, INIT, derive_rng, keyed_uniform

GAMMA = 0x9E3779B97F4A7C15
MASK = 2**64 - 1


def mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_uniform(seed: int, key: tuple, row: int, lane: int) -> float:
    """One entry of ``keyed_uniform`` in Python integers, which never wrap."""
    k0, k1 = (int(w) for w in np.random.SeedSequence([seed, *key]).generate_state(2, np.uint64))
    stream = mix64((row * GAMMA + k0) & MASK) ^ k1
    bits = mix64((stream + (lane + 1) * GAMMA) & MASK)
    return ((bits >> 12) + 0.5) / 2**52


seeds = st.integers(0, 2**70)
row_sets = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20, unique=True)


class TestKeyedUniform:
    @settings(max_examples=200, deadline=None)
    @given(seeds, st.integers(0, 2**32), row_sets, st.integers(1, 40), st.randoms())
    def test_entry_depends_only_on_key_row_and_lane(self, seed, iteration, rows, width, rnd):
        full = keyed_uniform(seed, AUGMENT, iteration, rows=np.array(rows, dtype=np.uint64),
                             width=width)
        assert full.shape == (len(rows), width) and full.dtype == np.float64
        picked = rnd.sample(range(len(rows)), rnd.randint(1, len(rows)))
        narrow = rnd.randint(1, width)
        part = keyed_uniform(seed, AUGMENT, iteration,
                             rows=np.array([rows[i] for i in picked], dtype=np.uint64),
                             width=narrow)
        assert np.array_equal(part, full[picked, :narrow])

    def test_splitmix64_output(self):
        # SplitMix64 seeded with 0 first outputs 0xE220A8397B1DCDAF.
        assert mix64(GAMMA) == 0xE220A8397B1DCDAF

    @settings(max_examples=200, deadline=None)
    @given(seeds, st.lists(st.integers(0, 2**32), max_size=3), row_sets, st.integers(1, 9))
    def test_matches_integer_reference(self, seed, key, rows, width):
        u = keyed_uniform(seed, *key, rows=np.array(rows, dtype=np.uint64), width=width)
        expected = [[reference_uniform(seed, key, r, j) for j in range(width)] for r in rows]
        assert np.array_equal(u, np.array(expected))

    @settings(max_examples=200, deadline=None)
    @given(seeds, st.lists(st.integers(0, 2**32), max_size=3), row_sets)
    def test_open_unit_interval(self, seed, key, rows):
        u = keyed_uniform(seed, *key, rows=np.array(rows, dtype=np.uint64), width=64)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_moments_and_lane_independence(self):
        u = keyed_uniform(6, AUGMENT, 0, 0, rows=np.arange(2000), width=100)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.002
        # Neighbouring rows and neighbouring lanes are uncorrelated.
        assert abs(np.corrcoef(u[:-1].ravel(), u[1:].ravel())[0, 1]) < 0.01
        assert abs(np.corrcoef(u[:, :-1].ravel(), u[:, 1:].ravel())[0, 1]) < 0.01

    def test_every_key_part_matters(self):
        rows = np.arange(8)
        base = keyed_uniform(6, AUGMENT, 0, 5, rows=rows, width=4)
        for other in (
            keyed_uniform(7, AUGMENT, 0, 5, rows=rows, width=4),
            keyed_uniform(6 + 2**64, AUGMENT, 0, 5, rows=rows, width=4),
            keyed_uniform(6, AUGMENT, 1, 5, rows=rows, width=4),
            keyed_uniform(6, AUGMENT, 0, 6, rows=rows, width=4),
            keyed_uniform(6, AUGMENT, 0, rows=rows, width=4),
            keyed_uniform(6, AUGMENT, 0, 5, rows=rows + 8, width=4),
        ):
            assert not np.any(other == base)

    def test_empty_rows(self):
        assert keyed_uniform(0, rows=np.arange(0), width=3).shape == (0, 3)

    @pytest.mark.parametrize(
        "seed, key, rows",
        [(-1, (AUGMENT,), [0]), (0, (AUGMENT, -2), [0]), (0, (AUGMENT,), [3, -1]),
         (1.5, (AUGMENT,), [0]), (True, (AUGMENT,), [0]), (np.float64(2.0), (AUGMENT,), [0]),
         (0, (AUGMENT, 0.5), [0]), (0, (AUGMENT, False), [0]), (0, (AUGMENT,), [True])],
    )
    def test_negative_components_rejected(self, seed, key, rows):
        # Fractional and bool components were floored by int(): 1.5 and True
        # both gave seed 1's stream.
        with pytest.raises(ConfigError, match=r"^(seed|key\[1\]|rows|row indices) must "):
            keyed_uniform(seed, *key, rows=np.array(rows), width=2)

    def test_rows_must_be_integer_indices(self):
        with pytest.raises(ConfigError):
            keyed_uniform(0, rows=np.array([0.5]), width=2)
        with pytest.raises(ConfigError):
            keyed_uniform(0, rows=np.zeros((2, 2), dtype=np.int64), width=2)


def test_numpy_integers_are_the_python_ints():
    assert np.array_equal(derive_rng(np.int64(3), np.uint8(INIT)).random(4),
                          derive_rng(3, INIT).random(4))
    ints = rd.make_blobs(40, 4, 3, 0.5, seed=6)
    numpy_ints = rd.make_blobs(np.int64(40), np.int32(4), np.uint16(3), 0.5, seed=np.int64(6))
    assert numpy_ints.sample_ids == ints.sample_ids
    assert np.array_equal(numpy_ints.features, ints.features)
    assert np.array_equal(numpy_ints.true_labels, ints.true_labels)


# Checks no other test reaches: (call, the exception it raises, that
# exception's message).
ARGUMENT_CHECKS = [
    pytest.param(lambda: derive_rng(1.5), ConfigError, "seed must be an integer, got 1.5",
                 id="derive-rng-fractional-seed"),
    pytest.param(lambda: derive_rng(True), ConfigError, "seed must be an integer, got True",
                 id="derive-rng-bool-seed"),
    pytest.param(lambda: derive_rng(0, INIT, 2.0), ConfigError,
                 "key[1] must be an integer, got 2.0", id="derive-rng-float-key"),
    pytest.param(lambda: keyed_uniform(1.9, AUGMENT, rows=[0], width=2), ConfigError,
                 "seed must be an integer, got 1.9", id="keyed-uniform-fractional-seed"),
    pytest.param(lambda: keyed_uniform(0, AUGMENT, rows=[0], width=-1), ConfigError,
                 "width must be at least 0, got -1", id="keyed-uniform-negative-width"),
    pytest.param(lambda: keyed_uniform(0, AUGMENT, rows=[0], width=2.5), ConfigError,
                 "width must be an integer, got 2.5", id="keyed-uniform-fractional-width"),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_CHECKS)
def test_argument_checks(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message
