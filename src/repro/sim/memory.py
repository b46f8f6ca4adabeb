"""Sparse paged byte-addressable memory.

The simulated machine has a 32-bit address space; only touched 4 KiB pages
are materialised.  Multi-byte accesses are little-endian and may cross page
boundaries (handled generically, byte by byte, since they are rare).

Next to each page :class:`Memory` keeps a native ``int32`` view of the same
bytes (``memoryview(page).cast("i")``).  The compiled simulation core
(:mod:`repro.sim.compile`) indexes those views and the pages directly for
aligned words and for bytes on resident pages, and calls the methods below
for everything else; :meth:`Memory.page_tables` hands both tables out.
The views are native-endian, so the compiled core reads words through
them only on little-endian hosts.  Both tables only ever change through
this class, so a view never outlives or misses its page.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..errors import MemAccessError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDRESS_MASK = 0xFFFF_FFFF


class Memory:
    """Sparse paged memory with word/byte accessors."""

    __slots__ = ("_pages", "_words")

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        #: page number -> native int32 view of that page's bytes
        self._words: Dict[int, memoryview] = {}

    def _page(self, address: int) -> bytearray:
        page_number = address >> PAGE_SHIFT
        page = self._pages.get(page_number)
        if page is None:
            page = self._add_page(page_number, bytearray(PAGE_SIZE))
        return page

    def _add_page(self, page_number: int, page: bytearray) -> bytearray:
        self._pages[page_number] = page
        self._words[page_number] = memoryview(page).cast("i")
        return page

    def page_tables(
        self,
    ) -> Tuple[Dict[int, bytearray], Dict[int, memoryview]]:
        """``(pages, words)``: page number -> page bytes, and page number
        -> native int32 view of the same bytes.

        Callers read and write through the returned objects but never
        add or remove entries; pages are created by the store methods and
        replaced only by :meth:`restore_pages`, which updates both dicts
        in place, so the pair stays valid for the memory's lifetime.
        """
        return self._pages, self._words

    # -- whole-memory export (checkpoints) ---------------------------------

    def export_pages(self) -> Dict[int, bytes]:
        """An immutable copy of every resident page, by page number."""
        return {number: bytes(page) for number, page in self._pages.items()}

    def restore_pages(self, pages: Mapping[int, bytes]) -> None:
        """Replace the whole memory with *pages* (from :meth:`export_pages`).

        The page tables are updated in place, so references obtained from
        :meth:`page_tables` see the restored bytes.
        """
        self._words.clear()
        self._pages.clear()
        for number, data in pages.items():
            if len(data) != PAGE_SIZE:
                raise ValueError(
                    f"page {number:#x} holds {len(data)} bytes, "
                    f"expected {PAGE_SIZE}"
                )
            self._add_page(number, bytearray(data))

    # -- byte access -------------------------------------------------------

    def load_byte(self, address: int) -> int:
        """Unsigned byte at *address*."""
        address &= ADDRESS_MASK
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            return 0
        return page[address & PAGE_MASK]

    def store_byte(self, address: int, value: int) -> None:
        """Store the low 8 bits of *value* at *address*."""
        address &= ADDRESS_MASK
        self._page(address)[address & PAGE_MASK] = value & 0xFF

    # -- word access -------------------------------------------------------

    def load_word(self, address: int) -> int:
        """Signed 32-bit little-endian load."""
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                return 0
            raw = int.from_bytes(page[offset : offset + 4], "little")
        else:
            raw = 0
            for i in range(4):
                raw |= self.load_byte(address + i) << (8 * i)
        return raw - 0x1_0000_0000 if raw & 0x8000_0000 else raw

    def store_word(self, address: int, value: int) -> None:
        """Little-endian store of the low 32 bits of *value*."""
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        raw = value & 0xFFFF_FFFF
        if offset <= PAGE_SIZE - 4:
            self._page(address)[offset : offset + 4] = raw.to_bytes(4, "little")
        else:
            for i in range(4):
                self.store_byte(address + i, raw >> (8 * i))

    # -- bulk access ---------------------------------------------------------

    def load_bytes(self, address: int, length: int) -> bytes:
        """Read *length* bytes starting at *address*."""
        return bytes(self.load_byte(address + i) for i in range(length))

    def store_bytes(self, address: int, data: bytes) -> None:
        """Write *data* starting at *address*."""
        for i, byte in enumerate(data):
            self.store_byte(address + i, byte)

    def load_cstring(self, address: int, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated byte string (without the terminator).

        Raises:
            MemAccessError: if no terminator is found within *limit* bytes.
        """
        out = bytearray()
        for i in range(limit):
            byte = self.load_byte(address + i)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise MemAccessError(f"unterminated string at 0x{address:x}")

    @property
    def resident_pages(self) -> int:
        """Number of materialised 4 KiB pages (memory footprint metric)."""
        return len(self._pages)
