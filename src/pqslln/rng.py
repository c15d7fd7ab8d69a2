"""Deterministic stream derivation for the parallel Monte Carlo engine.

Every replication draws from its own counter-based Philox stream whose key is
a pure function of (master_seed, stream index, role).  Scheduling therefore
cannot change any draw: workers only decide *when* a replication is computed,
never *what* it computes.

Roles keep logically distinct streams apart: the plain path, the independent
copy used for symmetrization, and the batched probe and oracle draws.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ROLE_PATH = 0
ROLE_COPY = 1
ROLE_PROBE = 90


def splitmix64(x: int) -> int:
    """Finalizer of the splitmix64 generator; a 64-bit avalanche mix."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def check_seed(master_seed: int) -> int:
    """`master_seed` if it is an unsigned 64-bit value; any other seed would
    alias one that is, since stream_key reads only 64 bits of it."""
    if not 0 <= master_seed <= _MASK64:
        raise ConfigError(f"master seed must be in [0, 2^64), got {master_seed}")
    return master_seed


def stream_key(master_seed: int, stream: int, role: int = ROLE_PATH) -> int:
    """128-bit Philox key from (master_seed, stream, role)."""
    lo = splitmix64((master_seed & _MASK64) ^ splitmix64(stream & _MASK64))
    hi = splitmix64(lo ^ splitmix64((role & _MASK64) ^ _GOLDEN))
    return (hi << 64) | lo


def generator(master_seed: int, stream: int, role: int = ROLE_PATH,
              skip: int = 0) -> np.random.Generator:
    """The stream (master_seed, stream, role), past its first `skip` uniforms.
    A uniform (see open_uniforms) takes one 64-bit word and Philox gives 4
    words per counter step, so the skip is one counter jump and at most 3
    words."""
    gen = np.random.Generator(np.random.Philox(key=stream_key(master_seed, stream, role)))
    if skip:
        steps, words = divmod(skip, 4)
        gen.bit_generator.advance(steps)
        gen.bit_generator.random_raw(words)
    return gen


def open_uniforms(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill `out` with uniforms in (0, 1]: never zero, so survival inversion
    cannot blow up."""
    u = gen.random(out=out)
    return np.subtract(1.0, u, out=u)
