"""The stream of ``np.random.default_rng(seed).uniform``, drawn without
``numpy.random``.

``doubles(seed, n)`` gives the first n doubles in [0, 1) that
``default_rng(seed)`` draws: numpy's SeedSequence pool mixing, the PCG64
128-bit LCG with its XSL-RR output, then ``(x >> 11) * 2**-53``.  NEP 19
keeps these bit-generator streams stable across numpy releases, and
``Draws`` scales them as ``Generator.uniform`` does.

All n states come at once by jump-ahead (Brown, "Random number generation
with arbitrary strides", 1994): state_k = a**k * s + S_k * c mod 2**128,
with S_k = sum_{j<k} a**j, held as (hi, lo) uint64 arrays.  The table of
S_k does not depend on the seed, so it is the only thing kept between
calls.
"""

from __future__ import annotations

import functools

import numpy as np

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier


def _seed_state(seed: int) -> tuple[int, int]:
    """The LCG state before the first draw, and the increment, that
    ``PCG64(SeedSequence(seed))`` starts from."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & M32
        value = value * hash_const & M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (MIX_MULT_L * x - MIX_MULT_R * y) & M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    hash_const, out = INIT_B, []
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & M32
        value = value * hash_const & M32
        out.append(value ^ value >> 16)
    w = [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]
    init_state, inc = w[0] << 64 | w[1], (w[2] << 65 | w[3] << 1 | 1) & M128
    # pcg64_srandom_r: step from 0, add the initial state, step again
    return ((inc + init_state) * MULTIPLIER + inc) & M128, inc


def _muladd(hi: np.ndarray, lo: np.ndarray, c: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * c + d mod 2**128, elementwise, for c and d below 2**128."""
    c0, c1 = np.uint64(c & M32), np.uint64(c >> 32 & M32)
    x0, x1 = lo & M32, lo >> 32
    p01, p10 = x0 * c1, x1 * c0
    mid = (x0 * c0 >> 32) + (p01 & M32) + (p10 & M32)
    prod = lo * np.uint64(c & M64)
    out_lo = prod + np.uint64(d & M64)
    out_hi = (x1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
              + hi * np.uint64(c & M64) + lo * np.uint64(c >> 64)
              + np.uint64(d >> 64) + (out_lo < prod))
    return out_hi, out_lo


@functools.lru_cache(maxsize=1)
def _table(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of S_k for k = 1 .. 2**bits, read-only."""
    if bits == 0:
        table = (np.zeros(1, np.uint64), np.ones(1, np.uint64))
    else:  # S_(m+j) = a**m * S_j + S_m, for j = 1 .. m
        hi, lo = _table(bits - 1)
        s_m = int(hi[-1]) << 64 | int(lo[-1])
        table = tuple(np.concatenate(pair) for pair in
                      zip((hi, lo), _muladd(hi, lo, pow(MULTIPLIER, len(lo), 1 << 128), s_m)))
    for t in table:
        t.flags.writeable = False
    return table


def doubles(seed: int, n: int) -> np.ndarray:
    """The first n doubles in [0, 1) of ``np.random.default_rng(seed)``."""
    s, c = _seed_state(seed)
    hi, lo = (t[:n] for t in _table(max(n - 1, 0).bit_length()))
    # a**k * s + S_k * c = S_k * ((a - 1) * s + c) + s, as a**k - 1 = (a - 1) * S_k
    hi, lo = _muladd(hi, lo, ((MULTIPLIER - 1) * s + c) & M128, s)
    x, rot = hi ^ lo, hi >> 58  # XSL-RR
    x = x >> rot | x << ((64 - rot) & 63)
    return (x >> 11) * (1.0 / 9007199254740992.0)


class Draws:
    """A reader of a stream of doubles from its start, with the
    ``uniform(low, high, size)`` of a fresh ``numpy.random.Generator``."""

    __slots__ = ("_doubles", "_at")

    def __init__(self, stream: np.ndarray):
        self._doubles, self._at = stream, 0

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        end = self._at + size
        if end > len(self._doubles):
            raise IndexError(f"stream of {len(self._doubles)} doubles read to {end}")
        d, self._at = self._doubles[self._at:end], end
        return low + (high - low) * d
