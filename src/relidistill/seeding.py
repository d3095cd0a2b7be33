"""Deterministic randomness keyed by (master seed, purpose, indices).

Every random draw in the package is a function of one master seed, a
purpose constant and optional indices (sample index, iteration, view,
...), never of call order, batch composition or worker scheduling,
which is what makes whole pipeline runs bit-reproducible. Two
primitives share that keying:

- :func:`derive_rng` gives a ``numpy`` Generator from
  ``numpy.random.SeedSequence`` for sequential draws (weight init,
  shuffles, tie-breaks, simulation).
- :func:`keyed_uniform` gives a block of uniforms whose entry for
  (row, lane) is a counter-based hash of the key, the row and the lane
  (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC
  2011), so any subset of rows can be drawn alone and gets the same
  values it would get inside a larger draw.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Purpose namespaces. Changing a value silently reseeds every stream
# derived under it, so these are frozen.
INIT = 0
SHUFFLE = 1
MODE_TIE = 2
AUGMENT = 3
TEACHER_SIM = 4
BLOBS = 5
ENSEMBLE = 6

# SplitMix64's stream increment and finaliser multipliers (Steele et
# al., OOPSLA 2014). Arithmetic stays on uint64 arrays, which wrap
# modulo 2**64 without a warning.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _seed_sequence(master_seed: int, key) -> np.random.SeedSequence:
    parts = [int(master_seed), *(int(k) for k in key)]
    if any(p < 0 for p in parts):
        raise ConfigError(f"seed components must be non-negative, got {parts}")
    return np.random.SeedSequence(parts)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for ``(master_seed, *key)``; stable across processes."""
    return np.random.default_rng(_seed_sequence(master_seed, key))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output finaliser, a bijection on uint64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def keyed_uniform(master_seed: int, *key: int, rows, width: int) -> np.ndarray:
    """Uniforms in the open interval (0, 1), shape ``(len(rows), width)``.

    Entry (i, j) depends only on (master_seed, *key, rows[i], j): two
    64-bit key words come from ``SeedSequence`` once per call, each row
    index is hashed into the seed of its own SplitMix64 stream, and lane
    j is that stream's (j + 1)-th output. The top 52 bits of an output
    map to (k + 0.5) / 2**52, so neither 0 nor 1 can occur.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ConfigError(f"rows must be a 1-D array of sample indices, got {rows!r}")
    if rows.size and rows.min() < 0:
        raise ConfigError(f"row indices must be non-negative, got {int(rows.min())}")
    k0, k1 = _seed_sequence(master_seed, key).generate_state(2, np.uint64)
    stream = _mix64(rows.astype(np.uint64) * _GAMMA + k0) ^ k1
    lanes = np.arange(1, width + 1, dtype=np.uint64) * _GAMMA
    bits = _mix64(stream[:, None] + lanes[None, :])
    return ((bits >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52
