"""Sparse memory tests, including a property-based store/load check."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemAccessError
from repro.sim.memory import PAGE_SIZE, Memory


def test_uninitialised_memory_reads_zero():
    memory = Memory()
    assert memory.load_byte(0x1234) == 0
    assert memory.load_word(0x1234) == 0
    assert memory.resident_pages == 0


def test_byte_store_load():
    memory = Memory()
    memory.store_byte(100, 0xAB)
    assert memory.load_byte(100) == 0xAB


def test_byte_store_masks_to_8_bits():
    memory = Memory()
    memory.store_byte(0, 0x1FF)
    assert memory.load_byte(0) == 0xFF


def test_word_store_load_signed():
    memory = Memory()
    memory.store_word(64, -123456)
    assert memory.load_word(64) == -123456


def test_word_is_little_endian():
    memory = Memory()
    memory.store_word(0, 0x0A0B0C0D)
    assert [memory.load_byte(i) for i in range(4)] == [0x0D, 0x0C, 0x0B, 0x0A]


def test_cross_page_word_access():
    memory = Memory()
    address = PAGE_SIZE - 2
    memory.store_word(address, 0x11223344)
    assert memory.load_word(address) == 0x11223344
    assert memory.resident_pages == 2


def test_bulk_bytes_round_trip():
    memory = Memory()
    payload = bytes(range(200))
    memory.store_bytes(5000, payload)
    assert memory.load_bytes(5000, 200) == payload


def test_cstring_load():
    memory = Memory()
    memory.store_bytes(0x400, b"hello\x00world")
    assert memory.load_cstring(0x400) == b"hello"


def test_unterminated_cstring_raises():
    memory = Memory()
    memory.store_bytes(0, b"\x01" * 16)
    with pytest.raises(MemAccessError):
        memory.load_cstring(0, limit=8)


def test_addresses_wrap_to_32_bits():
    memory = Memory()
    memory.store_byte(0x1_0000_0010, 7)
    assert memory.load_byte(0x10) == 7


@given(
    st.integers(min_value=0, max_value=(1 << 32) - 4),
    st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
)
def test_word_round_trip_property(address, value):
    memory = Memory()
    memory.store_word(address, value)
    assert memory.load_word(address) == value


@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=255),
), max_size=50))
def test_last_write_wins_property(writes):
    memory = Memory()
    expected = {}
    for address, value in writes:
        memory.store_byte(address, value)
        expected[address] = value
    for address, value in expected.items():
        assert memory.load_byte(address) == value


def test_word_views_alias_their_pages():
    memory = Memory()
    memory.store_word(0x2008, -5)
    pages, words = memory.page_tables()
    assert sorted(pages) == sorted(words) == [0x2]
    assert words[0x2][2] == -5
    words[0x2][3] = 0x1234_5678
    assert memory.load_word(0x200C) == 0x1234_5678


def test_export_restore_round_trip_keeps_views_in_sync():
    memory = Memory()
    memory.store_word(0x1000, 11)
    memory.store_byte(0x5FFF, 0x80)
    exported = memory.export_pages()
    assert sorted(exported) == [0x1, 0x5]
    assert all(isinstance(page, bytes) for page in exported.values())

    other = Memory()
    pages, words = other.page_tables()
    other.store_word(0x9000, 1)  # replaced wholesale by the restore
    other.restore_pages(exported)
    assert other.export_pages() == exported
    # the tables handed out before the restore are the live ones
    assert sorted(pages) == sorted(words) == [0x1, 0x5]
    assert words[0x1][0] == 11
    words[0x1][0] = 12
    assert other.load_word(0x1000) == 12
    assert memory.load_word(0x1000) == 11  # no sharing with the source


def test_restore_rejects_short_pages():
    with pytest.raises(ValueError, match="expected 4096"):
        Memory().restore_pages({0: b"\x00" * 12})
