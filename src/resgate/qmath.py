"""Dense complex operator algebra on the (charge two-level) x (Fock) space.

Everything here is a plain numpy complex128 array; dimensions stay small
(a few dozen), so dense storage and LAPACK eigensolves are the right
tool.  Charge basis order is fixed as index 0 = ground |0>, index 1 =
excited |a>; tensor products are charge-major, i.e. kron(charge_op,
fock_op), so composite index i = charge * fock_dim + n holds |charge>|n>.
The master-equation rhs in scattering relies on this layout: on the flat
view of rho (entry (i, j) at i * dim + j), c rho c^dagger is a shift by
dim + 1 and sigma_- rho sigma_+, which moves the excited block onto the
ground block, a shift by fock_dim * (dim + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# A "matrix" throughout this package is a 2-D complex128 ndarray.
ComplexMatrix = np.ndarray


def annihilation_op(fock_dim: int) -> ComplexMatrix:
    """Truncated annihilation operator: a[n-1, n] = sqrt(n)."""
    if fock_dim < 2:
        raise ValueError(f"fock_dim must be >= 2, got {fock_dim}")
    return np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), 1).astype(complex)


def sigma_minus() -> ComplexMatrix:
    """Charge lowering operator |0><a| in the {|0>, |a>} basis."""
    out = np.zeros((2, 2), dtype=complex)
    out[0, 1] = 1.0
    return out


def sigma_plus() -> ComplexMatrix:
    """Charge raising operator |a><0|."""
    return sigma_minus().conj().T


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Tensor product; thin alias so call sites read as operator algebra."""
    return np.kron(a, b)


def hermiticity_error(m: ComplexMatrix) -> float:
    """max |M - M^dagger|, entrywise."""
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True)
class HilbertSpace:
    """Composite space (charge 2-level) x (Fock truncated at fock_dim)."""

    fock_dim: int
    charge_dim: int = 2

    def __post_init__(self) -> None:
        if self.charge_dim != 2:
            raise ValueError("charge space is a fixed two-level system")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")

    @property
    def dim(self) -> int:
        return self.charge_dim * self.fock_dim

    def cavity_op(self) -> ComplexMatrix:
        """Annihilation operator embedded in the composite space."""
        return kron(np.eye(2, dtype=complex), annihilation_op(self.fock_dim))

    def charge_lower_op(self) -> ComplexMatrix:
        """sigma_minus embedded in the composite space."""
        return kron(sigma_minus(), np.eye(self.fock_dim, dtype=complex))

    def fock_tail_projector(self, levels: int = 2) -> ComplexMatrix:
        """Projector on the top `levels` Fock states (truncation monitor)."""
        diag = np.zeros(self.fock_dim)
        diag[-levels:] = 1.0
        return kron(np.eye(2, dtype=complex), np.diag(diag).astype(complex))


@dataclass
class DensityMatrix:
    space: HilbertSpace
    matrix: ComplexMatrix

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match space dim {self.space.dim}"
            )

    @classmethod
    def ground(cls, space: HilbertSpace) -> "DensityMatrix":
        """|0> x |vacuum> as a density matrix."""
        m = np.zeros((space.dim, space.dim), dtype=complex)
        m[0, 0] = 1.0
        return cls(space, m)

    @classmethod
    def pure(cls, space: HilbertSpace, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        if v.shape[0] != space.dim:
            raise ValueError("state vector length does not match space dimension")
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("zero state vector")
        v = v / n
        return cls(space, np.outer(v, v.conj()))

    def trace_error(self) -> float:
        return float(abs(np.trace(self.matrix).real - 1.0) + abs(np.trace(self.matrix).imag))

    def hermiticity_error(self) -> float:
        return hermiticity_error(self.matrix)

    def min_eigenvalue(self) -> float:
        # eigvalsh on the Hermitian part; the anti-Hermitian residue is
        # separately bounded by hermiticity_error.
        h = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(h)[0])

    def fock_tail(self, levels: int = 2) -> float:
        """Population of the top `levels` Fock states."""
        return float(
            np.trace(self.matrix @ self.space.fock_tail_projector(levels)).real
        )
