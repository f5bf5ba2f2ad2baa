"""Dense matrices: the ``A · I -> A`` and ``A · A^{-1} -> I`` instances of
Fig. 5, and the operands of the CLA-CRM mixed-precision kernels."""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

Scalar = Union[int, float, complex]


class SingularMatrixError(ValueError):
    """Inverse of a (numerically) singular matrix was requested — the
    witness that square matrices under multiplication form a Monoid but not
    a Group; only the invertible ones (GL(n)) have inverses."""


class Matrix:
    """A real (float64) dense matrix."""

    dtype: type = np.float64

    def __init__(self, rows: Iterable[Iterable[Scalar]]) -> None:
        self.data = np.asarray(
            rows if isinstance(rows, np.ndarray) else [list(r) for r in rows],
            dtype=self.dtype,
        )
        if self.data.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Matrix":
        out = cls.__new__(cls)
        out.data = np.asarray(arr, dtype=cls.dtype)
        return out

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_array(np.eye(n, dtype=cls.dtype))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_array(np.zeros((rows, cols), dtype=cls.dtype))

    def identity_like(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("identity_like requires a square matrix")
        return type(self).identity(self.data.shape[0])

    # -- ring-ish operations -----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return type(self).from_array(self.data + self._peer(other))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return type(self).from_array(self.data - self._peer(other))

    def __neg__(self) -> "Matrix":
        return type(self).from_array(-self.data)

    def _peer(self, other: "Matrix") -> np.ndarray:
        """``other``'s entries, once it is a matrix of this one's shape."""
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a matrix, got {type(other).__name__}")
        if self.data.shape != other.data.shape:
            raise ValueError(
                f"shape mismatch: {self.data.shape} vs {other.data.shape}")
        return other.data

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a matrix, got {type(other).__name__}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ValueError(
                f"shape mismatch: {self.data.shape} @ {other.data.shape}"
            )
        result = type(self) if self.dtype == other.dtype else (
            ComplexMatrix if np.iscomplexobj(self.data) or
            np.iscomplexobj(other.data) else Matrix
        )
        return result.from_array(self.data @ other.data)

    def __mul__(self, s: Scalar) -> "Matrix":
        return type(self).from_array(self.data * s)

    __rmul__ = __mul__

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise SingularMatrixError("only square matrices can be inverted")
        try:
            inv = np.linalg.inv(self.data)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from exc
        # numpy happily "inverts" some nearly-singular matrices; verify.
        if not np.allclose(self.data @ inv, np.eye(self.data.shape[0]),
                           atol=1e-8):
            raise SingularMatrixError("matrix is numerically singular")
        return type(self).from_array(inv)

    # -- predicates --------------------------------------------------------------

    def is_square(self) -> bool:
        return self.data.shape[0] == self.data.shape[1]

    def is_identity(self, tol: float = 1e-9) -> bool:
        return self.is_square() and bool(
            np.allclose(self.data, np.eye(self.data.shape[0]), atol=tol)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.data.shape)  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.allclose(self.data, other.data)
        )

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.data.tolist()!r})"


class ComplexMatrix(Matrix):
    """A complex (complex128) dense matrix — the left operand of CLA-CRM."""

    dtype = np.complex128
