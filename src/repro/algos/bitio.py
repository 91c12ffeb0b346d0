"""Bit-level I/O in DEFLATE's LSB-first order (RFC 1951 §3.1.1)."""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Packs bits least-significant-first into a byte stream.

    Bits accumulate in one int and are flushed to the output eight
    bytes at a time (``int.to_bytes``), instead of a Python-level loop
    appending one byte per eight bits — the dominant cost when emitting
    millions of Huffman codes.  DEFLATE's token emitter runs the same
    accumulator inline on these slots for a whole block, then stores
    it back.
    """

    __slots__ = ("_out", "_bitbuf", "_bitcount")

    def __init__(self):
        self._out = bytearray()
        self._bitbuf = 0
        self._bitcount = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` of ``value``, LSB first."""
        if nbits < 0:
            raise ValueError(f"negative bit count {nbits}")
        if value < 0 or (nbits < 63 and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._bitbuf |= value << self._bitcount
        self._bitcount += nbits
        if self._bitcount >= 64:
            self._out.extend(
                (self._bitbuf & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
            )
            self._bitbuf >>= 64
            self._bitcount -= 64

    def write_huffman_code(self, code: int, nbits: int) -> None:
        """Write a Huffman code, which DEFLATE packs MSB-first."""
        reversed_code = 0
        for _ in range(nbits):
            reversed_code = (reversed_code << 1) | (code & 1)
            code >>= 1
        self.write_bits(reversed_code, nbits)

    def _drain_whole_bytes(self) -> None:
        nbytes = self._bitcount >> 3
        if nbytes:
            nbits = nbytes << 3
            self._out.extend(
                (self._bitbuf & ((1 << nbits) - 1)).to_bytes(
                    nbytes, "little"
                )
            )
            self._bitbuf >>= nbits
            self._bitcount -= nbits

    def align_to_byte(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        self._drain_whole_bytes()
        if self._bitcount:
            self._out.append(self._bitbuf & 0xFF)
            self._bitbuf = 0
            self._bitcount = 0

    def write_bytes(self, data: bytes) -> None:
        """Write whole bytes (must be byte-aligned)."""
        if self._bitcount & 7:
            raise ValueError("write_bytes requires byte alignment")
        self._drain_whole_bytes()
        self._out.extend(data)

    def getvalue(self) -> bytes:
        """Finish the stream (flushing a partial byte) and return it."""
        self.align_to_byte()
        return bytes(self._out)


class BitReader:
    """Reads bits least-significant-first from a byte stream."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._bitbuf = 0
        self._bitcount = 0

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` (LSB-first) as an integer."""
        if nbits < 0:
            raise ValueError(f"negative bit count {nbits}")
        while self._bitcount < nbits:
            if self._pos >= len(self._data):
                raise EOFError("bit stream exhausted")
            self._bitbuf |= self._data[self._pos] << self._bitcount
            self._pos += 1
            self._bitcount += 8
        value = self._bitbuf & ((1 << nbits) - 1)
        self._bitbuf >>= nbits
        self._bitcount -= nbits
        return value

    def read_bit(self) -> int:
        """Read a single bit."""
        return self.read_bits(1)

    def align_to_byte(self) -> None:
        """Discard bits up to the next byte boundary."""
        self._bitbuf = 0
        self._bitcount = 0

    def read_bytes(self, count: int) -> bytes:
        """Read whole bytes (must be byte-aligned)."""
        if self._bitcount:
            raise ValueError("read_bytes requires byte alignment")
        if self._pos + count > len(self._data):
            raise EOFError("byte stream exhausted")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return bytes(chunk)

    @property
    def exhausted(self) -> bool:
        """True when no complete byte and no buffered bits remain."""
        return self._pos >= len(self._data) and self._bitcount == 0
