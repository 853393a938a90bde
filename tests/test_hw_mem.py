"""Tests for simulated physical memory."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw.mem import PAGE_SIZE, PhysAccessError, PhysicalMemory


class TestConstruction:
    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            PhysicalMemory(100)
        with pytest.raises(ValueError):
            PhysicalMemory(0)

    def test_num_frames(self):
        assert PhysicalMemory(16 * PAGE_SIZE).num_frames == 16


class TestWordAccess:
    def test_store_load_roundtrip(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        mem.store_u64(0x100, 0xDEADBEEF_CAFEBABE)
        assert mem.load_u64(0x100) == 0xDEADBEEF_CAFEBABE

    def test_little_endian(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(0, 0x0102030405060708)
        assert mem.load_u8(0) == 0x08
        assert mem.load_u8(7) == 0x01

    def test_store_truncates_to_64_bits(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(0, 1 << 70 | 5)
        assert mem.load_u64(0) == 5

    def test_misaligned_word_rejected(self):
        mem = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(PhysAccessError, match="misaligned"):
            mem.load_u64(4)
        with pytest.raises(PhysAccessError):
            mem.store_u64(1, 0)

    def test_out_of_range(self):
        mem = PhysicalMemory(PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.load_u64(PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.load_u8(PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.read(PAGE_SIZE - 4, 8)

    @given(st.integers(0, 63), st.integers(0, 2**64 - 1))
    def test_word_roundtrip_property(self, slot, value):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(slot * 8, value)
        assert mem.load_u64(slot * 8) == value


class TestBulk:
    def test_read_write(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write(10, b"hello world")
        assert mem.read(10, 11) == b"hello world"

    def test_zero_frame(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        mem.write(PAGE_SIZE, b"\xff" * PAGE_SIZE)
        mem.zero_frame(PAGE_SIZE)
        assert mem.read(PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_zero_frame_alignment(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        with pytest.raises(PhysAccessError):
            mem.zero_frame(100)

    def test_frame_words(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.store_u64(8, 42)
        words = mem.frame_words(0)
        assert len(words) == 512
        assert words[1] == 42
        assert words[0] == 0

    @given(st.lists(st.tuples(st.integers(0, 3 * 512 - 1),
                              st.integers(0, 2**64 - 1)), max_size=40),
           st.integers(0, 2))
    def test_frame_words_equals_512_word_loads(self, stores, frame):
        mem = PhysicalMemory(3 * PAGE_SIZE)
        for slot, value in stores:
            mem.store_u64(slot * 8, value)
        base = frame * PAGE_SIZE
        assert mem.frame_words(base) == [
            mem.load_u64(base + 8 * i) for i in range(512)]

    def test_frame_words_rejects_bad_frames(self):
        mem = PhysicalMemory(2 * PAGE_SIZE)
        with pytest.raises(PhysAccessError, match="misaligned"):
            mem.frame_words(8)
        with pytest.raises(PhysAccessError, match="outside"):
            mem.frame_words(2 * PAGE_SIZE)
        with pytest.raises(PhysAccessError, match="outside"):
            mem.frame_words(-PAGE_SIZE)


class TestBacking:
    def test_fresh_memory_reads_zero_everywhere(self):
        mem = PhysicalMemory(64 * PAGE_SIZE)
        assert mem.is_zero_range(0, mem.size)
        assert mem.read(mem.size - 16, 16) == bytes(16)

    def test_read_returns_an_immutable_copy(self):
        mem = PhysicalMemory(PAGE_SIZE)
        mem.write(0, b"abcd")
        data = mem.read(0, 4)
        mem.write(0, b"wxyz")
        assert type(data) is bytes and data == b"abcd"

    def test_forked_child_store_is_invisible_to_parent(self):
        """`prove --jobs N` forks workers that replay scenarios into
        memories the parent may hold: a child's stores must stay in the
        child (bytearray semantics; a MAP_SHARED mapping would leak)."""
        mem = PhysicalMemory(4 * PAGE_SIZE)
        mem.store_u64(0x10, 0xAAAA)
        pid = os.fork()
        if pid == 0:  # child: sees the parent's image, writes its own
            ok = mem.load_u64(0x10) == 0xAAAA
            mem.store_u64(0x10, 0xBBBB)
            mem.store_u64(2 * PAGE_SIZE, 0xCCCC)  # a never-touched page
            mem.zero_frame(PAGE_SIZE)
            os._exit(0 if ok and mem.load_u64(0x10) == 0xBBBB else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert mem.load_u64(0x10) == 0xAAAA
        assert mem.load_u64(2 * PAGE_SIZE) == 0
