"""A serial console: the kernel's log output device."""

from __future__ import annotations


class SerialPort:
    """Byte-oriented output with line assembly."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.lines: list[str] = []

    def write_byte(self, byte: int) -> None:
        if not 0 <= byte <= 0xFF:
            raise ValueError(f"not a byte: {byte}")
        if byte == 0x0A:  # newline flushes a line
            self.lines.append(self._buffer.decode("utf-8", errors="replace"))
            self._buffer.clear()
        else:
            self._buffer.append(byte)

    def write(self, text: str) -> None:
        for byte in text.encode("utf-8"):
            self.write_byte(byte)

    def flush(self) -> None:
        if self._buffer:
            self.lines.append(self._buffer.decode("utf-8", errors="replace"))
            self._buffer.clear()
