"""DEFLATE correctness, including cross-validation against zlib."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import (
    BitWriter,
    canonical_codes,
    compression_ratio,
    deflate,
    inflate,
)
from repro.algos.deflate import _CLC_ORDER, _fixed_literal_lengths


def _zlib_raw_compress(data: bytes, level: int = 6) -> bytes:
    compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    return compressor.compress(data) + compressor.flush()


CASES = [
    b"",
    b"a",
    b"ab",
    b"aaa",
    b"abcabcabcabc" * 100,
    b"the quick brown fox jumps over the lazy dog " * 50,
    bytes(range(256)) * 4,
    b"\x00" * 100_000,                      # long zero run (RLE matches)
]


@pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
@pytest.mark.parametrize("level", [0, 1, 6])
class TestRoundtrip:
    def test_self_roundtrip(self, data, level):
        assert inflate(deflate(data, level)) == data

    def test_zlib_decodes_our_output(self, data, level):
        assert zlib.decompress(deflate(data, level), wbits=-15) == data


@pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
@pytest.mark.parametrize("zlevel", [1, 6, 9])
def test_we_decode_zlib_output(data, zlevel):
    assert inflate(_zlib_raw_compress(data, zlevel)) == data


class TestRandomData:
    def test_incompressible_data_roundtrips(self):
        rng = random.Random(42)
        data = bytes(rng.randrange(256) for _ in range(20_000))
        for level in (0, 1, 6):
            assert inflate(deflate(data, level)) == data

    def test_structured_data_compresses_well(self):
        data = (b"timestamp=1699999999 level=INFO msg=request served\n"
                * 500)
        assert compression_ratio(data) > 10.0

    def test_random_data_does_not_explode(self):
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(10_000))
        # Dynamic Huffman on noise should cost at most a few percent.
        assert len(deflate(data, 6)) < len(data) * 1.05


class TestStoredBlocks:
    def test_level0_emits_stored_blocks(self):
        data = b"hello world"
        compressed = deflate(data, 0)
        # BTYPE=00: the first byte's bits 1-2 are zero (BFINAL=1).
        assert compressed[0] & 0b110 == 0
        assert data in compressed      # stored verbatim

    def test_stored_block_splitting_beyond_64k(self):
        data = bytes([i % 251 for i in range(200_000)])
        assert inflate(deflate(data, 0)) == data

    def test_empty_input_valid_stream(self):
        compressed = deflate(b"", 6)
        assert zlib.decompress(compressed, wbits=-15) == b""


class TestErrors:
    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            deflate(b"x", level=17)

    def test_corrupt_stored_header_detected(self):
        compressed = bytearray(deflate(b"hello world hello", 0))
        compressed[2] ^= 0xFF          # clobber LEN
        with pytest.raises((ValueError, EOFError)):
            inflate(bytes(compressed))

    def test_truncated_stream_detected(self):
        compressed = deflate(b"some reasonably long input " * 20, 6)
        with pytest.raises((ValueError, EOFError)):
            inflate(compressed[:len(compressed) // 2])


# -- hand-packed streams with out-of-range codes ----------------------------

def _write_symbols(writer, symbols, lengths):
    codes = canonical_codes(lengths)
    for symbol in symbols:
        writer.write_huffman_code(codes[symbol], lengths[symbol])


def _fixed_block(literal_symbols):
    """One final fixed-Huffman block of literal/length symbols."""
    writer = BitWriter()
    writer.write_bits(1, 1)                  # BFINAL
    writer.write_bits(1, 2)                  # BTYPE=01
    _write_symbols(writer, literal_symbols, _fixed_literal_lengths())
    return writer.getvalue()


def _dynamic_block(lit_lengths, dist_lengths, codes):
    """One final dynamic block; ``codes`` is [(alphabet, symbol)].

    Every code length is 0, 1 or 2 and is sent as its own
    code-length symbol (no run-length codes), which keeps the header
    easy to check by hand.
    """
    clc_lengths = [0] * 19
    clc_lengths[0], clc_lengths[1], clc_lengths[2] = 1, 2, 2
    hclen = _CLC_ORDER.index(1) + 1
    writer = BitWriter()
    writer.write_bits(1, 1)                  # BFINAL
    writer.write_bits(2, 2)                  # BTYPE=10
    writer.write_bits(len(lit_lengths) - 257, 5)
    writer.write_bits(len(dist_lengths) - 1, 5)
    writer.write_bits(hclen - 4, 4)
    for symbol in _CLC_ORDER[:hclen]:
        writer.write_bits(clc_lengths[symbol], 3)
    _write_symbols(writer, lit_lengths + dist_lengths, clc_lengths)
    alphabets = {"lit": lit_lengths, "dist": dist_lengths}
    for alphabet, symbol in codes:
        _write_symbols(writer, [symbol], alphabets[alphabet])
    return writer.getvalue()


def _lit_lengths(size, *symbols):
    """A ``size``-entry literal/length alphabet: 4 symbols, 2 bits each."""
    return [2 if symbol in symbols else 0 for symbol in range(size)]


def _dist_lengths(size, *symbols):
    """A ``size``-entry distance alphabet: 2 symbols, 1 bit each."""
    return [1 if symbol in symbols else 0 for symbol in range(size)]


class TestOutOfRangeCodes:
    """Symbols 286/287 and distances 30/31 exist in the code space but
    are invalid in a stream.  zlib rejects them (a dynamic header that
    declares them already fails there); inflate raises ValueError."""

    @pytest.mark.parametrize("symbol", [286, 287])
    def test_fixed_block_length_symbol(self, symbol):
        stream = _fixed_block([ord("a"), symbol, 256])
        with pytest.raises(zlib.error):
            zlib.decompress(stream, wbits=-15)
        with pytest.raises(ValueError, match="literal/length"):
            inflate(stream)

    def test_dynamic_block_length_symbol(self):
        stream = _dynamic_block(
            _lit_lengths(288, ord("a"), 256, 257, 287),
            _dist_lengths(30, 0, 29),
            [("lit", ord("a")), ("lit", 287), ("lit", 256)])
        with pytest.raises(zlib.error):
            zlib.decompress(stream, wbits=-15)
        with pytest.raises(ValueError, match="literal/length"):
            inflate(stream)

    @pytest.mark.parametrize("dcode", [30, 31])
    def test_dynamic_block_distance_symbol(self, dcode):
        stream = _dynamic_block(
            _lit_lengths(286, ord("a"), 256, 257, 258),
            _dist_lengths(32, 0, dcode),
            [("lit", ord("a")), ("lit", 257), ("dist", dcode),
             ("lit", 256)])
        with pytest.raises(zlib.error):
            zlib.decompress(stream, wbits=-15)
        with pytest.raises(ValueError, match="distance code"):
            inflate(stream)

    def test_hand_packed_dynamic_block_is_valid(self):
        # The same packing with in-range codes decodes: 'a', then a
        # length-3 match at distance 1.
        stream = _dynamic_block(
            _lit_lengths(286, ord("a"), 256, 257, 258),
            _dist_lengths(30, 0, 29),
            [("lit", ord("a")), ("lit", 257), ("dist", 0), ("lit", 256)])
        assert zlib.decompress(stream, wbits=-15) == b"aaaa"
        assert inflate(stream) == b"aaaa"


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=4096),
       level=st.sampled_from([0, 1, 6]))
def test_property_roundtrip(data, level):
    assert inflate(deflate(data, level)) == data


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=4096))
def test_property_zlib_interop(data):
    assert zlib.decompress(deflate(data, 6), wbits=-15) == data
    assert inflate(_zlib_raw_compress(data)) == data


@settings(max_examples=20, deadline=None)
@given(text=st.text(alphabet="abcdef ", min_size=100, max_size=2000))
def test_property_repetitive_text_shrinks(text):
    data = text.encode()
    # A 7-symbol alphabet must compress (entropy < 3 bits/byte).
    assert len(deflate(data, 6)) < len(data)
