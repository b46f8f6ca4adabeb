"""Deterministic input-set generators.

Each paper benchmark ran on a reference input (Table 1); the analogs run on
seeded synthetic inputs with matching character: English-like token text
(tex/perl/gcc sources), run-heavy binary (compress), and structured mixed
data.  Every generator is a pure function of (size, seed).
"""

from __future__ import annotations

import functools

# numpy loads its random module lazily; importing it here keeps that
# one-time cost out of the digest of every forked engine worker
from numpy.random import default_rng

_WORDS = (
    "the of and to in is that it was for on are as with his they at be "
    "this have from or one had by word but not what all were we when your "
    "can said there use an each which she do how their if will up other "
    "about out many then them these so some her would make like him into "
    "time has look two more write go see number no way could people my "
    "than first water been call who oil its now find long down day did get "
    "come made may part over new sound take only little work know place "
    "year live me back give most very after thing our just name good "
    "sentence man think say great where help through much before line "
    "right too mean old any same tell boy follow came want show also "
    "around form three small set put end does another well large must big "
    "even such because turn here why ask went men read need land different "
    "home us move try kind hand picture again change off play spell air "
    "away animal house point page letter mother answer found study still "
    "learn should america world"
).split()

_PUNCTUATION = [". ", ", ", "; ", "! ", "? ", ": ", " - "]


def text_input(size: int, seed: int = 0) -> bytes:
    """English-like token stream: words, digits, punctuation, newlines."""
    if size < 0:
        raise ValueError("size must be non-negative")
    rng = default_rng(seed)
    parts = []
    length = 0
    column = 0
    while length < size:
        roll = rng.random()
        if roll < 0.78:
            token = _WORDS[int(rng.integers(len(_WORDS)))] + " "
        elif roll < 0.90:
            token = str(int(rng.integers(0, 10000))) + " "
        else:
            token = _PUNCTUATION[int(rng.integers(len(_PUNCTUATION)))]
        column += len(token)
        if column > 68:
            token = token.rstrip() + "\n"
            column = 0
        parts.append(token)
        length += len(token)
    return "".join(parts).encode("latin-1")[:size]


def binary_runs(size: int, seed: int = 0, mean_run: int = 6) -> bytes:
    """Run-heavy binary data (what RLE-style compressors eat)."""
    if size < 0:
        raise ValueError("size must be non-negative")
    if mean_run < 1:
        raise ValueError("mean_run must be >= 1")
    rng = default_rng(seed)
    out = bytearray()
    while len(out) < size:
        byte = int(rng.integers(0, 64))  # small alphabet -> long runs
        run = 1 + int(rng.geometric(1.0 / mean_run))
        out.extend(bytes([byte]) * run)
    return bytes(out[:size])


def mixed_input(size: int, seed: int = 0) -> bytes:
    """Alternating text and binary sections (document-with-images shape)."""
    if size < 0:
        raise ValueError("size must be non-negative")
    rng = default_rng(seed)
    out = bytearray()
    section = 0
    while len(out) < size:
        chunk = int(rng.integers(200, 800))
        if section % 2 == 0:
            out.extend(text_input(chunk, seed=seed + section + 1))
        else:
            out.extend(binary_runs(chunk, seed=seed + section + 1))
        section += 1
    return bytes(out[:size])


INPUT_KINDS = {
    "text": text_input,
    "binary": binary_runs,
    "mixed": mixed_input,
}


@functools.lru_cache(maxsize=64)
def make_input(kind: str, size: int, seed: int = 0) -> bytes:
    """Dispatch on input *kind* (``text``/``binary``/``mixed``).

    Generators are pure and return immutable bytes, so results are
    memoised: artifact digests hash the input on every store lookup.

    Raises:
        KeyError: on an unknown kind.
    """
    if kind not in INPUT_KINDS:
        raise KeyError(f"unknown input kind {kind!r}; known: {sorted(INPUT_KINDS)}")
    return INPUT_KINDS[kind](size, seed)
