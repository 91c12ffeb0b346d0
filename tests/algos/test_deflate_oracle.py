"""DEFLATE byte identity: the tokenizer matches a frozen oracle.

Round trips alone cannot catch a search change that still decodes but
emits other bytes, which would move every simulated write size.  So
``_lz77_tokens`` is held token for token to the frozen hash-chain walk
in ``_lz77_oracle.py``, and ``deflate()`` output is pinned by SHA-256
on the workload inputs the benchmarks compress.
"""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _lz77_oracle import lz77_tokens
from repro.algos import deflate
from repro.algos.deflate import _lz77_tokens
from repro.units import PAGE_SIZE
from repro.workloads import make_text


def _examples(tier1: int) -> int:
    """``tier1`` examples, or the nightly profile's wider count."""
    nightly = settings.get_profile("nightly")
    return nightly.max_examples if settings.default is nightly else tier1


@st.composite
def _seeded(draw, letters):
    """Up to 40 KiB of seeded bytes over ``letters`` byte values.

    With 1, 2, 4 or 16 letters every 3-byte key has a long occurrence
    list, so the 32/64-deep candidate cap and the nearest-first tie
    rule decide the match; 256 letters is plain random bytes.  Past
    32 KiB some candidates fall outside the window.  Drawing a seed
    and a size, not the bytes, keeps large inputs cheap to generate.
    """
    size = draw(st.integers(0, 40 * 1024)
                | st.integers(33 * 1024, 40 * 1024))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    alphabet = rng.sample(range(256), letters)
    return bytes(rng.choice(alphabet) for _ in range(size))


@st.composite
def _noisy_repeats(draw):
    """A short block repeated with a few flipped bytes.

    Matches run to the 258-byte cap or stop at a flipped byte, and
    several candidates tie on length, so the nearest-first rule and
    the match-length extension both decide tokens.
    """
    block = draw(st.binary(min_size=1, max_size=64))
    size = draw(st.integers(1, 40 * 1024))
    data = bytearray((block * (size // len(block) + 1))[:size])
    for spot in draw(st.lists(st.integers(0, size - 1), max_size=64)):
        data[spot] ^= 0x5A
    return bytes(data)


def _deep_chain(depth):
    """The best match for the last ``abc`` is ``depth`` candidates back.

    The oldest of ``depth`` earlier ``abc`` shares a long tail with the
    last one; the others share only the key.  At depth 32/33 (greedy)
    and 64/65 (lazy) this pins the candidate cap exactly.
    """
    rng = random.Random(depth)
    tail = bytes(rng.randrange(170, 256) for _ in range(40))
    # Each filler ends in its own byte, so no match can run across the
    # next ``abc`` and hide it from the search.
    fillers = [bytes(rng.randrange(170, 256) for _ in range(5))
               + bytes([100 + index]) for index in range(depth - 1)]
    return b"abc" + tail + b"".join(b"abc" + f for f in fillers) \
        + b"abc" + tail


def _window_edge(distance):
    """Random bytes whose only long repeat is ``distance`` back."""
    rng = random.Random(distance)
    head = bytes(rng.randrange(256) for _ in range(distance))
    return head + head[:64]


_INPUTS = st.one_of(st.sampled_from([1, 2, 4, 16, 256]).flatmap(_seeded),
                    st.binary(max_size=2048),
                    _noisy_repeats())


@settings(max_examples=_examples(10), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_INPUTS, lazy=st.booleans())
@example(data=_deep_chain(32), lazy=False)
@example(data=_deep_chain(33), lazy=False)
@example(data=_deep_chain(64), lazy=True)
@example(data=_deep_chain(65), lazy=True)
@example(data=_window_edge(32 * 1024), lazy=True)
@example(data=_window_edge(32 * 1024 + 1), lazy=False)
@example(data=b"\x00" * 70_000, lazy=True)
@example(data=b"ab" * 20_000, lazy=False)
@example(data=bytes(range(256)) * 160, lazy=True)
def test_property_tokens_match_oracle(data, lazy):
    assert _lz77_tokens(data, lazy) == lz77_tokens(data, lazy)


# SHA-256 of the deflate() outputs of make_text pages: the first four
# PAGE_SIZE pages of make_text(4 * PAGE_SIZE, seed), one digest over
# the per-page outputs in order.  Levels 6 and 9 share one search.
PAGE_DIGESTS = {
    (101, 1): "a05ecc47ebe45d7c5de66f8c72cf2ec4"
              "824c3f1c5ec78682c034dea1eee62660",
    (101, 6): "6c549c34706360cb62730b6c8b9f8a67"
              "8d80262a44dfb70fcbe058c986f2f714",
    (101, 9): "6c549c34706360cb62730b6c8b9f8a67"
              "8d80262a44dfb70fcbe058c986f2f714",
    (9001, 1): "e84101d01a9570295e45a95e2a3e8e66"
               "a6f4d2fb588bc6e3961fb14bc621dff9",
    (9001, 6): "92ae0532b702980a7710ce62f23d1b61"
               "63ebc36684c646187a23869da9bff4b2",
    (9001, 9): "92ae0532b702980a7710ce62f23d1b61"
               "63ebc36684c646187a23869da9bff4b2",
}

# deflate() of the fig1 real-bytes input, make_text(256 KiB):
# level -> (compressed bytes, SHA-256).
FIG1_DIGESTS = {
    1: (82125, "e1e984e777a3a7caca59aafd05bbd8d6"
               "0486ae60374a90ea5a31471cc2d5ac4d"),
    6: (63799, "79f220147a6e242eb8929f473279ffd7"
               "900bba0e27fac0a175a3bd4c334f496e"),
    9: (63799, "79f220147a6e242eb8929f473279ffd7"
               "900bba0e27fac0a175a3bd4c334f496e"),
}


@pytest.mark.parametrize("seed,level", sorted(PAGE_DIGESTS))
def test_page_outputs_are_pinned(seed, level):
    text = make_text(4 * PAGE_SIZE, seed=seed)
    digest = hashlib.sha256()
    for start in range(0, len(text), PAGE_SIZE):
        digest.update(deflate(text[start:start + PAGE_SIZE], level))
    assert digest.hexdigest() == PAGE_DIGESTS[(seed, level)]


@pytest.fixture(scope="module")
def fig1_text():
    return make_text(256 * 1024)


@pytest.mark.parametrize("level", sorted(FIG1_DIGESTS))
def test_fig1_output_is_pinned(fig1_text, level):
    compressed = deflate(fig1_text, level)
    assert (len(compressed), hashlib.sha256(compressed).hexdigest()) \
        == FIG1_DIGESTS[level]
