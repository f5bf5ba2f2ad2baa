"""An ``array``/mmap-backed contiguous storage backend.

Elements live in one machine-addressable block (:class:`array.array` of a
fixed typecode), optionally loaded from / flushed to a file through
``mmap`` — the representation behind the Contiguous Container concept.
The façade, :class:`ContiguousVector`, is a plain
:class:`~repro.sequences.vector.Vector` with a different
``storage_factory``: it models exactly the same concepts, obeys exactly
the same invalidation rules, and differs only in the capability record
its storage publishes (``contiguous=True``), which is what bulk-copy
dispatch and the T-backends bench key on.

The price of contiguity is a fixed element type: values must fit the
array typecode (machine integers by default, ``"d"`` for floats).  A
value that does not fit raises :class:`~repro.sequences.storage.
StorageError` rather than silently degrading to boxed storage.
"""

from __future__ import annotations

import mmap
import os
from array import array
from typing import Any, ClassVar, Iterable, Optional

from ...concepts import models as _models
from ...concepts.builtins import (
    BackInsertionSequence,
    ContiguousContainer,
    RandomAccessContainer,
    Sequence,
)
from ...concepts.complexity import constant
from ..storage import Storage, StorageCapabilities, StorageError
from ..vector import Vector, VectorIterator


class ContiguousStorage(Storage):
    """One contiguous ``array.array`` block, optionally file-backed.

    With a ``path`` the block is initialised by mmap'ing the file's
    current contents and ``flush()`` writes the block back; without one
    it is purely RAM-resident.  Either way every element occupies a
    fixed-width slot in a single allocation, so ``slice`` is one
    ``memcpy``-style operation instead of a per-element loop.
    """

    capabilities = StorageCapabilities(
        name="contig", contiguous=True, persistent=False,
        random_access=constant(), io_cost_per_op=0.0,
    )

    def __init__(self, items: Iterable[Any] = (), *,
                 typecode: str = "q",
                 path: Optional[str] = None) -> None:
        self._typecode = typecode
        self._path = path
        self._block: array = array(typecode)
        if path is not None and os.path.exists(path) and os.path.getsize(path):
            try:
                with open(path, "rb") as fh:
                    with mmap.mmap(fh.fileno(), 0,
                                   access=mmap.ACCESS_READ) as view:
                        self._block.frombytes(view[:])
            except (OSError, ValueError) as exc:
                raise StorageError(
                    f"cannot map contiguous store {path!r}: {exc}"
                ) from exc
        self.extend(items)

    def _coerce(self, value: Any) -> Any:
        try:
            probe = array(self._typecode, [value])
        except (TypeError, OverflowError, ValueError) as exc:
            raise StorageError(
                f"value {value!r} does not fit contiguous typecode "
                f"{self._typecode!r}"
            ) from exc
        return probe[0]

    # -- index protocol -----------------------------------------------------------

    def length(self) -> int:
        return len(self._block)

    def get(self, index: int) -> Any:
        return self._block[index]

    def set(self, index: int, value: Any) -> None:
        self._block[index] = self._coerce(value)

    def insert(self, index: int, value: Any) -> None:
        self._block.insert(index, self._coerce(value))

    def erase(self, index: int) -> None:
        del self._block[index]

    def append(self, value: Any) -> None:
        self._block.append(self._coerce(value))

    def slice(self, start: int, stop: int) -> list[Any]:
        return self._block[start:stop].tolist()

    def clear(self) -> None:
        del self._block[:]

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        if self._path is None:
            return
        try:
            with open(self._path, "wb") as fh:
                fh.write(self._block.tobytes())
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StorageError(
                f"cannot flush contiguous store {self._path!r}: {exc}"
            ) from exc

    def close(self) -> None:
        self.flush()


class ContiguousVectorIterator(VectorIterator):
    """Random-access iterator over a :class:`ContiguousVector`."""

    value_type: type = int


class ContiguousVector(Vector):
    """A :class:`Vector` whose elements live in one contiguous block.

    Same interface, same concepts, same invalidation rules — only the
    representation (and therefore the capability record) differs."""

    value_type: type = int
    iterator: type = ContiguousVectorIterator
    storage_factory: ClassVar[type] = ContiguousStorage


# Contiguity is a nominal promise of the representation; declare it (the
# structural side of Random Access Container is inherited from Vector and
# re-verified by the declarations below).
_models.declare(RandomAccessContainer, ContiguousVector)
_models.declare(Sequence, ContiguousVector)
_models.declare(BackInsertionSequence, ContiguousVector)
_models.declare(ContiguousContainer, ContiguousVector)
