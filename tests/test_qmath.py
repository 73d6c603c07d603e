import math

import numpy as np
import pytest

from resgate.qmath import (
    DensityMatrix,
    HilbertSpace,
    annihilation_op,
    sigma_minus,
)


def test_annihilation_matrix_elements():
    a = annihilation_op(6)
    for n in range(1, 6):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n))
    assert np.count_nonzero(a) == 5


def test_annihilation_rejects_tiny_dim():
    with pytest.raises(ValueError):
        annihilation_op(1)


def test_number_operator_spectrum():
    a = annihilation_op(8)
    n_op = a.conj().T @ a
    assert np.allclose(np.diag(n_op), np.arange(8))


def test_commutator_on_kept_levels():
    # [a, a^dagger] = 1 except in the top truncated level
    a = annihilation_op(10)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(np.diag(comm)[:-1], 1.0)


def test_charge_operators():
    sm = sigma_minus()
    assert sm[0, 1] == 1.0 and np.count_nonzero(sm) == 1
    assert np.allclose(sm @ sm, 0.0)


def test_space_layout_charge_major():
    space = HilbertSpace(4)
    assert space.dim == 8
    c = space.cavity_op()
    # cavity op acts identically in both charge blocks
    assert np.allclose(c[:4, :4], annihilation_op(4))
    assert np.allclose(c[4:, 4:], annihilation_op(4))
    assert np.allclose(space.charge_lower_op(), np.kron(sigma_minus(), np.eye(4)))


def test_fock_tail_counts_top_levels():
    # populations 1, 2, 4, ... on the diagonal: the top two Fock levels of
    # both charge blocks (indices 3, 4, 8, 9) and nothing else
    space = HilbertSpace(5)
    assert np.flatnonzero(space.fock_tail_levels()).tolist() == [3, 4, 8, 9]
    rho = DensityMatrix(space, np.diag(2.0 ** np.arange(space.dim)))
    assert rho.fock_tail() == 2.0**3 + 2.0**4 + 2.0**8 + 2.0**9


def test_ground_state():
    space = HilbertSpace(3)
    rho = DensityMatrix.ground(space)
    assert np.trace(rho.matrix) == 1.0
    assert rho.matrix[0, 0] == 1.0
    assert rho.fock_tail() == 0.0
    assert rho.min_eigenvalue() == 0.0

