"""Dense complex operator algebra on the (charge two-level) x (Fock) space.

Everything here is a plain numpy complex128 array; dimensions stay small
(a few dozen), so dense storage and LAPACK eigensolves are the right
tool.  The charge space is always two-level, index 0 = ground |0>, index
1 = excited |a>, so the composite dimension is 2 * fock_dim.  Tensor
products are charge-major, i.e. np.kron(charge_op, fock_op), so composite
index i = charge * fock_dim + n holds |charge>|n>, and the diagonal of a
density matrix is the ground block's Fock populations followed by the
excited block's (HilbertSpace.fock_tail_levels picks them there).  The
master-equation rhs in scattering relies on this layout: on the flat view
of rho (entry (i, j) at i * dim + j), c rho c^dagger is a shift by dim + 1
and sigma_- rho sigma_+, which moves the excited block onto the ground
block, a shift by fock_dim * (dim + 1).
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


@dataclass(frozen=True)
class HilbertSpace:
    """Composite space (charge 2-level) x (Fock truncated at fock_dim)."""

    fock_dim: int

    def __post_init__(self) -> None:
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")

    @property
    def dim(self) -> int:
        return 2 * self.fock_dim

    def cavity_op(self) -> ComplexMatrix:
        """Annihilation operator embedded in the composite space."""
        return np.kron(np.eye(2, dtype=complex), annihilation_op(self.fock_dim))

    def charge_lower_op(self) -> ComplexMatrix:
        """sigma_minus embedded in the composite space."""
        return np.kron(sigma_minus(), np.eye(self.fock_dim, dtype=complex))

    def fock_tail_levels(self) -> np.ndarray:
        """Mask of the composite indices whose population monitors the Fock
        truncation: the top two Fock levels of both charge blocks."""
        return np.arange(self.dim) % self.fock_dim >= self.fock_dim - 2


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

    def min_eigenvalue(self) -> float:
        # eigvalsh reads one triangle: the master kernel keeps rho exactly Hermitian
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def fock_tail(self) -> float:
        """Population of HilbertSpace.fock_tail_levels (truncation monitor)."""
        return float(np.diagonal(self.matrix).real[self.space.fock_tail_levels()].sum())
