"""Frozen reference LZ77 tokenizer for the DEFLATE byte-identity tests.

This is the hash-chain walk ``repro.algos.deflate`` used before its
search was rewritten, kept verbatim as a test oracle: the production
tokenizer must emit exactly these tokens for every input, so every
compressed size in the simulation stays what it was.  It is slow and
must not be imported by the package.
"""

from typing import List, Optional, Tuple

_WINDOW_SIZE = 32 * 1024
_MIN_MATCH = 3
_MAX_MATCH = 258

Token = Tuple[int, int]


def lz77_tokens(data: bytes, lazy: bool) -> List[Token]:
    """Greedy (or one-step lazy) LZ77 with a zlib-style hash-chain walk.

    A token is ``(-1, byte)`` for a literal or ``(length, distance)``.
    """
    n = len(data)
    tokens: List[Token] = []
    head: dict = {}      # 3-byte hash -> most recent position
    prev = [0] * n       # chain of earlier positions with same hash
    max_chain = 64 if lazy else 32
    view = memoryview(data)

    def insert(pos: int) -> Optional[int]:
        """Insert position into the chains; return previous head."""
        if pos + _MIN_MATCH > n:
            return None
        key = data[pos] | (data[pos + 1] << 8) | (data[pos + 2] << 16)
        older = head.get(key)
        head[key] = pos
        if older is not None:
            prev[pos] = older
        else:
            prev[pos] = -1
        return older

    def find_match(pos: int, chain_start: Optional[int]) -> Tuple[int, int]:
        """Best (length, distance) at ``pos``; (0, 0) if none."""
        best_len = 0
        best_dist = 0
        limit = min(_MAX_MATCH, n - pos)
        if limit < _MIN_MATCH or chain_start is None:
            return 0, 0
        candidate = chain_start
        chains = 0
        while candidate >= 0 and chains < max_chain:
            distance = pos - candidate
            if distance > _WINDOW_SIZE:
                break
            if (best_len == 0 or
                    data[candidate + best_len] == data[pos + best_len]):
                length = 0
                while (length + 32 <= limit and
                       view[candidate + length:candidate + length + 32]
                       == view[pos + length:pos + length + 32]):
                    length += 32
                while (length < limit and
                       data[candidate + length] == data[pos + length]):
                    length += 1
                if length > best_len:
                    best_len = length
                    best_dist = distance
                    if length >= limit:
                        break
            candidate = prev[candidate]
            chains += 1
        if best_len >= _MIN_MATCH:
            return best_len, best_dist
        return 0, 0

    pos = 0
    while pos < n:
        chain = insert(pos)
        length, distance = find_match(pos, chain)
        if lazy and 0 < length < _MAX_MATCH and pos + 1 < n:
            next_chain = head.get(
                data[pos + 1] | (data[pos + 2] << 8) |
                (data[pos + 3] << 16)
                if pos + 3 < n else -1
            )
            next_len, _ = find_match(pos + 1, next_chain)
            if next_len > length:
                tokens.append((-1, data[pos]))
                pos += 1
                continue
        if length:
            tokens.append((length, distance))
            for offset in range(1, length):
                insert(pos + offset)
            pos += length
        else:
            tokens.append((-1, data[pos]))
            pos += 1
    return tokens
