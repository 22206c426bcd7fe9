"""Tests for stable hashing primitives."""

from hypothesis import given, settings, strategies as st

from repro.isa.context import ThreadContext, ThreadStatus
from repro.memory import hashing
from repro.memory.hashing import (
    combine_hashes, contexts_digest, fnv1a_words, hash_structure,
)
from tests.conftest import examples


class TestFnv:
    def test_known_stability(self):
        # Pin the value: recordings persist hashes, so the function must
        # never change silently.
        assert fnv1a_words([1, 2, 3]) == fnv1a_words([1, 2, 3])
        assert fnv1a_words([]) == 0xCBF29CE484222325

    def test_order_sensitivity(self):
        assert fnv1a_words([1, 2]) != fnv1a_words([2, 1])

    def test_negative_values_wrap(self):
        assert fnv1a_words([-1]) == fnv1a_words([(1 << 64) - 1])

    def test_combine_order_sensitive(self):
        assert combine_hashes([1, 2]) != combine_hashes([2, 1])

    @given(st.lists(st.integers(), max_size=50))
    def test_deterministic(self, words):
        assert fnv1a_words(words) == fnv1a_words(list(words))

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=20))
    def test_result_fits_64_bits(self, words):
        assert 0 <= fnv1a_words(words) < (1 << 64)


class TestHashStructure:
    def test_primitives(self):
        assert hash_structure(5) == hash_structure(5)
        assert hash_structure(5) != hash_structure(6)
        assert hash_structure("a") != hash_structure("b")
        assert hash_structure(None) == hash_structure(None)
        assert hash_structure(True) != hash_structure(1)

    def test_tuples_and_lists_equivalent(self):
        assert hash_structure((1, 2)) == hash_structure([1, 2])

    def test_nesting_matters(self):
        assert hash_structure([1, [2, 3]]) != hash_structure([[1, 2], 3])

    def test_dict_order_independent(self):
        assert hash_structure({"a": 1, "b": 2}) == hash_structure({"b": 2, "a": 1})

    def test_dict_value_sensitive(self):
        assert hash_structure({"a": 1}) != hash_structure({"a": 2})

    def test_empty_containers_distinct_lengths(self):
        assert hash_structure([]) != hash_structure([0])

    def test_unhashable_type_raises(self):
        import pytest

        with pytest.raises(TypeError):
            hash_structure(object())

    @given(
        st.recursive(
            st.one_of(st.integers(), st.text(max_size=5), st.none(), st.booleans()),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=3), inner, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_property_deterministic(self, structure):
        assert hash_structure(structure) == hash_structure(structure)


class TestIncrementalHashProperty:
    """The cached running content hash must be indistinguishable from a
    from-scratch FNV-1a fold, for any interleaving of writes, block
    writes, hash queries, snapshots and restores."""

    @staticmethod
    def _reference_hash(space):
        """Recompute the space digest with no caches: raw page words."""
        from repro.memory.hashing import combine_hashes, fnv1a_words

        parts = []
        pages = space.pages
        for page_no in sorted(pages):
            parts.append(page_no)
            parts.append(fnv1a_words(pages[page_no].words))
        return combine_hashes(parts)

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("write"),
                    st.integers(min_value=0, max_value=255),
                    st.integers(min_value=0, max_value=2**64 - 1),
                ),
                st.tuples(
                    st.just("write_block"),
                    st.integers(min_value=0, max_value=200),
                    st.lists(
                        st.integers(min_value=0, max_value=2**32),
                        min_size=1,
                        max_size=80,
                    ),
                ),
                st.tuples(st.just("hash")),
                st.tuples(st.just("snapshot")),
                st.tuples(st.just("restore")),
                st.tuples(st.just("take_dirty")),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_scratch(self, ops):
        from repro.memory.address_space import AddressSpace

        space = AddressSpace()
        space.map_range(0, 256)
        snapshots = []
        for op in ops:
            if op[0] == "write":
                space.write(op[1], op[2])
            elif op[0] == "write_block":
                space.write_block(op[1], op[2])
            elif op[0] == "hash":
                # interleaved queries exercise the cache-then-mutate path
                assert space.content_hash() == self._reference_hash(space)
            elif op[0] == "snapshot":
                snap = space.snapshot()
                snapshots.append(snap)
                assert snap.content_hash() == self._reference_hash(space)
            elif op[0] == "restore" and snapshots:
                space = AddressSpace.from_snapshot(snapshots[-1])
            elif op[0] == "take_dirty":
                space.take_dirty()
        assert space.content_hash() == self._reference_hash(space)
        for snap in snapshots:
            snap.release()

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=127),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_snapshot_hash_is_frozen(self, writes):
        """A snapshot's digest never changes, no matter what the live
        space does afterwards."""
        from repro.memory.address_space import AddressSpace

        space = AddressSpace()
        space.map_range(0, 128)
        for addr, value in writes[: len(writes) // 2]:
            space.write(addr, value)
        snap = space.snapshot()
        frozen = snap.content_hash()
        for addr, value in writes[len(writes) // 2 :]:
            space.write(addr, value)
            assert snap.content_hash() == frozen
        assert space.content_hash() == self._reference_hash(space)
        snap.release()


def _reference(contexts):
    """The contexts digest as ``hash_structure`` defines it."""
    return hash_structure([contexts[tid].state_tuple() for tid in sorted(contexts)])


def _clear_memos():
    hashing._WORD_MEMO.clear()
    hashing._STATE_MEMO.clear()


_REGISTER = st.one_of(
    st.integers(min_value=-(2**70), max_value=-1),
    st.integers(min_value=2**64, max_value=2**70),
    st.just(0),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def _contexts(draw):
    contexts = {}
    for tid in draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True)):
        # a few drawn registers, the rest zero: the kinds of word matter
        drawn = draw(st.lists(_REGISTER, max_size=8))
        contexts[tid] = ThreadContext(
            tid=tid,
            pc=draw(st.integers(0, 200)),
            registers=drawn + [0] * (32 - len(drawn)),
            status=draw(st.sampled_from(ThreadStatus)),
            call_stack=draw(st.lists(st.integers(0, 200), max_size=3)),
            retired=draw(st.integers(0, 10**6)),
            spawn_count=draw(st.integers(0, 3)),
            syscall_count=draw(st.integers(0, 5)),
        )
    return contexts


class TestContextsDigest:
    """``contexts_digest`` is ``hash_structure`` over the state tuples,
    bit for bit, whatever its memos already hold."""

    @given(_contexts())
    @settings(max_examples=examples(40), deadline=None)
    def test_equals_the_reference_cold_and_warm(self, contexts):
        _clear_memos()
        assert contexts_digest(contexts) == _reference(contexts)
        assert contexts_digest(contexts) == _reference(contexts)

    def test_a_bool_never_takes_an_int_entry(self):
        # False == 0 and True == 1 as dict keys, but they hash differently
        for bit in (0, 1):
            ints = {1: ThreadContext(tid=1, pc=0, registers=[bit] * 32)}
            bools = {1: ThreadContext(tid=1, pc=0, registers=[bool(bit)] * 32)}
            _clear_memos()
            assert contexts_digest(ints) == _reference(ints)
            assert contexts_digest(bools) == _reference(bools) != _reference(ints)

    def test_pinned_value(self):
        # Recordings store these digests: a silent change to the kernel
        # or to hash_structure itself must fail here.
        contexts = {
            2: ThreadContext(
                tid=2, pc=40, registers=list(range(-16, 16)),
                status=ThreadStatus.EXITED, retired=77, parent=1,
            ),
            1: ThreadContext(
                tid=1, pc=17, registers=[0] * 29 + [-1, 1 << 64, 5],
                status=ThreadStatus.BLOCKED, call_stack=[3, 9], retired=120,
                spawn_count=2, syscall_count=4,
            ),
        }
        for _ in range(2):
            _clear_memos()
            assert contexts_digest(contexts) == 0x51E6B4C5E25FE478
            assert _reference(contexts) == 0x51E6B4C5E25FE478

    def test_memos_stay_within_their_caps(self):
        # each memo fills up to its cap, is cleared, and never outgrows it
        _clear_memos()
        peak = 0
        for base in range(0, hashing.WORD_MEMO_CAP + 64, 32):
            contexts = {0: ThreadContext(tid=0, pc=0, registers=list(range(base, base + 32)))}
            assert contexts_digest(contexts) == _reference(contexts)
            peak = max(peak, len(hashing._WORD_MEMO))
        assert hashing.WORD_MEMO_CAP - 64 < peak <= hashing.WORD_MEMO_CAP
        assert len(hashing._WORD_MEMO) < 128
        _clear_memos()
        peak = 0
        for pc in range(hashing.STATE_MEMO_CAP + 8):
            contexts_digest({0: ThreadContext(tid=0, pc=pc, registers=[0] * 32)})
            peak = max(peak, len(hashing._STATE_MEMO))
        assert peak == hashing.STATE_MEMO_CAP
        assert len(hashing._STATE_MEMO) < 16
        _clear_memos()
