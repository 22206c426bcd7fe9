"""Stable content hashing for guest memory.

Python's built-in ``hash`` is salted for strings and unstable across
interpreter versions; recordings store state hashes, so we use an explicit
FNV-1a fold over 64-bit-wrapped words instead. The same functions hash
pages, whole address spaces, thread contexts and kernel digests, so every
"states equal?" question in the library is answered consistently.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: entries each contexts-digest memo may hold; one that reaches its cap
#: is cleared, so a long run's memos never outgrow these
WORD_MEMO_CAP = 1 << 14
STATE_MEMO_CAP = 1 << 11

# The memos are shared by every engine and checkpoint in the process:
# an entry is a pure function of its key, so what another caller left
# there can change no digest, only how soon it is answered.
#: plain ``int`` / ``str`` value -> ``hash_structure(value)``
_WORD_MEMO: Dict[object, int] = {}
#: plain thread state tuple -> ``hash_structure(state)``
_STATE_MEMO: Dict[tuple, int] = {}
#: ``hash_structure``'s sequence fold before its length and elements
_SEQ_SEED = ((0x9E3779B97F4A7C15 ^ 0x7E57) * _FNV_PRIME) & _MASK64
_PLAIN = frozenset({int, str})


def fnv1a_words(words: Iterable[int], seed: int = _FNV_OFFSET) -> int:
    """FNV-1a over a sequence of integers (each wrapped to 64 bits)."""
    value = seed
    prime = _FNV_PRIME
    mask = _MASK64
    for word in words:
        value = ((value ^ (word & mask)) * prime) & mask
    return value


def combine_hashes(parts: Iterable[int]) -> int:
    """Order-sensitive combination of already-computed 64-bit hashes."""
    return fnv1a_words(parts, seed=0x9E3779B97F4A7C15)


def fold_page_table(pages, sorted_keys=None) -> int:
    """Hash a ``{page_no: Page}`` table in sorted page order.

    Bit-identical to ``combine_hashes`` over the interleaved
    ``(page_no, page.content_hash())`` sequence — recordings store these
    digests, so the fold must never change. ``sorted_keys`` lets callers
    that cache the sorted page list skip the re-sort.
    """
    if sorted_keys is None:
        sorted_keys = sorted(pages)
    value = 0x9E3779B97F4A7C15
    prime = _FNV_PRIME
    mask = _MASK64
    for page_no in sorted_keys:
        value = ((value ^ (page_no & mask)) * prime) & mask
        value = ((value ^ (pages[page_no].content_hash() & mask)) * prime) & mask
    return value


def hash_structure(obj) -> int:
    """Hash nested tuples/lists/dicts/ints/strs deterministically.

    Used for kernel and sync digests, where the state is plain data but
    not flat, and as the reference :func:`contexts_digest` must equal.
    Dicts are folded in sorted-key order.
    """
    # The int and tuple/list cases inline their folds (bit-identical to
    # fnv1a_words/combine_hashes).
    if isinstance(obj, bool):
        return fnv1a_words([3 if obj else 5])
    if isinstance(obj, int):
        value = ((_FNV_OFFSET ^ (obj & _MASK64)) * _FNV_PRIME) & _MASK64
        return ((value ^ 0x11) * _FNV_PRIME) & _MASK64
    if obj is None:
        return fnv1a_words([0x71AF, 0x13])
    if isinstance(obj, str):
        return fnv1a_words(obj.encode(), seed=0x811C9DC5)
    if isinstance(obj, (tuple, list)):
        prime = _FNV_PRIME
        mask = _MASK64
        value = ((0x9E3779B97F4A7C15 ^ 0x7E57) * prime) & mask
        value = ((value ^ len(obj)) * prime) & mask
        for x in obj:
            value = ((value ^ hash_structure(x)) * prime) & mask
        return value
    if isinstance(obj, dict):
        parts = [0xD1C7, len(obj)]
        for key in sorted(obj, key=repr):
            parts.append(hash_structure(key))
            parts.append(hash_structure(obj[key]))
        return combine_hashes(parts)
    if isinstance(obj, frozenset):
        return combine_hashes(sorted(hash_structure(x) for x in obj))
    raise TypeError(f"cannot hash structure of type {type(obj).__name__}")


def contexts_digest(contexts: Mapping[int, object]) -> int:
    """``hash_structure`` of every context's ``state_tuple()`` in tid order.

    Bit-identical to ``hash_structure([contexts[tid].state_tuple() for tid
    in sorted(contexts)])`` — the divergence check runs it at every epoch
    end — with the folds inlined and two memos by value: a thread's whole
    state tuple (an unchanged or re-replayed thread costs one lookup) and
    each word. Only plain ``int`` and ``str`` values are memo keys: a
    ``bool`` equals ``1`` as a key, so a state holding anything else goes
    to ``hash_structure`` whole.
    """
    memo = _STATE_MEMO
    prime = _FNV_PRIME
    mask = _MASK64
    value = ((_SEQ_SEED ^ len(contexts)) * prime) & mask
    for tid in sorted(contexts):
        state = contexts[tid].state_tuple()
        if _plain(state):
            folded = memo.get(state)
            if folded is None:
                folded = _fold(state)
                if len(memo) >= STATE_MEMO_CAP:
                    memo.clear()
                memo[state] = folded
        else:
            folded = hash_structure(state)
        value = ((value ^ folded) * prime) & mask
    return value


def _plain(state: tuple) -> bool:
    """Whether ``state`` holds only plain ints and strs, directly or in
    tuples one level down."""
    kinds = set(map(type, state))
    if tuple in kinds:
        kinds.discard(tuple)
        for x in state:
            if type(x) is tuple:
                kinds.update(map(type, x))
    return kinds <= _PLAIN


def _fold(seq: tuple) -> int:
    """``hash_structure(seq)`` for a plain tuple, its words via the memo."""
    memo = _WORD_MEMO
    prime = _FNV_PRIME
    mask = _MASK64
    words = list(map(memo.get, seq))
    if None in words:
        for index, word in enumerate(words):
            if word is None:
                x = seq[index]
                if type(x) is tuple:
                    word = _fold(x)
                else:
                    if type(x) is int:  # hash_structure's int case
                        word = ((_FNV_OFFSET ^ (x & mask)) * prime) & mask
                        word = ((word ^ 0x11) * prime) & mask
                    else:
                        word = hash_structure(x)
                    if len(memo) >= WORD_MEMO_CAP:
                        memo.clear()
                    memo[x] = word
                words[index] = word
    value = ((_SEQ_SEED ^ len(seq)) * prime) & mask
    for word in words:
        value = ((value ^ word) * prime) & mask
    return value
