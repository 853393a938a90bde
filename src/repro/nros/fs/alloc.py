"""On-disk block allocation bitmap."""

from __future__ import annotations

from repro.nros.drivers.block import BLOCK_SIZE, BlockDriver

BITS_PER_BLOCK = BLOCK_SIZE * 8


class NoSpace(Exception):
    """The volume is full."""


class BlockBitmap:
    """A bitmap covering every block on the device, stored on disk.

    The bitmap is loaded into memory at mount and written back block-wise
    on change (write-through)."""

    def __init__(self, dev: BlockDriver, start_block: int, num_blocks: int,
                 covered_blocks: int) -> None:
        self.dev = dev
        self.start_block = start_block
        self.num_blocks = num_blocks
        self.covered_blocks = covered_blocks
        self._bits = bytearray()
        for i in range(num_blocks):
            self._bits += dev.read(start_block + i)

    @staticmethod
    def blocks_needed(covered_blocks: int) -> int:
        return (covered_blocks + BITS_PER_BLOCK - 1) // BITS_PER_BLOCK

    def is_set(self, block: int) -> bool:
        self._check(block)
        return bool(self._bits[block // 8] & (1 << (block % 8)))

    def set(self, block: int) -> None:
        self._check(block)
        self._bits[block // 8] |= 1 << (block % 8)
        self._flush_for(block)

    def clear(self, block: int) -> None:
        self._check(block)
        self._bits[block // 8] &= ~(1 << (block % 8))
        self._flush_for(block)

    def alloc(self) -> int:
        """Find, mark, and return a free block."""
        for block in range(self.covered_blocks):
            if not self.is_set(block):
                self.set(block)
                return block
        raise NoSpace("no free blocks")

    def free(self, block: int) -> None:
        if not self.is_set(block):
            raise ValueError(f"double free of block {block}")
        self.clear(block)

    def count_free(self) -> int:
        return sum(1 for b in range(self.covered_blocks) if not self.is_set(b))

    def _check(self, block: int) -> None:
        if not 0 <= block < self.covered_blocks:
            raise ValueError(f"block {block} out of bitmap range")

    def _flush_for(self, block: int) -> None:
        index = (block // 8) // BLOCK_SIZE
        start = index * BLOCK_SIZE
        self.dev.write(self.start_block + index,
                       bytes(self._bits[start : start + BLOCK_SIZE]))
