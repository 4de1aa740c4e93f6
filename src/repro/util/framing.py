"""One bounded reader for every one-shot container decoder.

A decoder is a schema over :class:`Reader` and calls ``end()`` where its
layout fixes the end.  A read past the end, or of a negative length,
raises ``CorruptStreamError("<name>: truncated <what> ...")``.
:func:`verify` and :func:`cap` are the shared checksum and output rules.
"""

from __future__ import annotations

import struct

from repro.errors import ChecksumMismatchError, CorruptStreamError, OutputOverflowError

__all__ = ["Reader", "verify", "cap"]


class Reader:
    """A bounds-checked cursor over one container ``blob``."""

    def __init__(self, blob: "bytes | memoryview", name: str) -> None:
        self.blob, self.name, self.pos = blob, name, 0

    def take(self, n: int, what: str = "payload") -> "bytes | memoryview":
        """The next ``n`` bytes."""
        start = self.pos
        if n < 0 or start + n > len(self.blob):
            raise CorruptStreamError(f"{self.name}: truncated {what} ({n} byte(s) "
                                     f"wanted at offset {start} of {len(self.blob)})")
        self.pos = start + n
        return self.blob[start:self.pos]

    def unpack(self, fmt: struct.Struct, what: str = "header") -> tuple:
        """The next ``fmt.size`` bytes, unpacked."""
        return fmt.unpack(self.take(fmt.size, what))

    def magic(self, expected: bytes) -> None:
        """Consume ``expected``; anything else is not this container."""
        got = bytes(self.take(len(expected), "magic"))
        if got != expected:
            raise CorruptStreamError(f"{self.name}: bad magic {got!r}")

    def rest(self, trailer: int = 0, what: str = "payload") -> "bytes | memoryview":
        """Everything but the last ``trailer`` bytes."""
        return self.take(len(self.blob) - self.pos - trailer, what)

    def end(self) -> None:
        """The layout ends here: a byte left over is an error."""
        if self.pos != len(self.blob):
            raise CorruptStreamError(
                f"{self.name}: {len(self.blob) - self.pos} trailing byte(s)")


def verify(kind: str, stored: int, actual: int) -> None:
    """A stored checksum must equal the recomputed one."""
    if stored != actual:
        raise ChecksumMismatchError(kind, stored, actual)


def cap(declared: int, max_output: "int | None", name: str) -> None:
    """A declared output size must fit the caller's limit."""
    if max_output is not None and declared > max_output:
        raise OutputOverflowError(
            f"{name}: declared size {declared} exceeds max_output {max_output}")
