from __future__ import annotations

import dataclasses
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from _oracles import master_run
from resgate.device import reference_device
from resgate.pulse import TimeGrid, default_grid, gaussian_pulse
from resgate.qmath import DensityMatrix, HilbertSpace
from resgate.scattering import scatter_all_states, scatter_batch


def pytest_configure(config):
    # hypothesis writes the constants it finds in the code under test (at
    # collection) and, on a failure, a patch under its home directory,
    # ./.hypothesis by default, whatever a test's database setting: give it
    # a temporary one for the session
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


@pytest.fixture(scope="session")
def ref():
    return reference_device()


@pytest.fixture(scope="session")
def ref_tau(ref):
    return 10.0 / ref.kappa


@pytest.fixture(scope="session")
def ref_pulse(ref, ref_tau):
    return gaussian_pulse(ref_tau, default_grid(ref_tau, ref.kappa))


@pytest.fixture(scope="session")
def meanfield_ref_runs(ref, ref_pulse):
    """Meanfield reflection of the reference pulse at every amplitude the
    suite checks, {alpha: {label: result}}.  One batch: a meanfield run
    costs about as much alone as in a batch of 18, and each batch element
    equals its single run byte for byte."""
    alphas = (1e-3, 0.1, 0.2, 0.25, 0.5, 1.0)
    runs = scatter_batch(ref_pulse, [(a, ref) for a in alphas], backend="meanfield")
    return dict(zip(alphas, runs))


@pytest.fixture(scope="session")
def master_hygiene():
    """(label, trace_drift, min_eigenvalue, fock_tail) for every
    density-matrix propagation performed through the shared fixtures.
    Dipole-free reflect rows are not propagated (see _reflect_batch), so
    they are not listed."""
    return []


def _decay_run(ref, master_hygiene, label, space, grid, vec, name, op):
    # no dipole, no drive: (grid times, Re tr(rho op) on the grid)
    records, rho, drift = master_run(
        space, 0.0, ref, grid, np.zeros(grid.n_samples), DensityMatrix(space, np.outer(vec, vec.conj())),
        {name: op},
    )
    master_hygiene.append((label, drift, rho.min_eigenvalue(), rho.fock_tail()))
    return grid.times(), records[name].real


@pytest.fixture(scope="session")
def photon_decay_run(ref, master_hygiene):
    # one photon: <n> must follow exp(-kappa t)
    space = HilbertSpace(16)
    grid = TimeGrid(0.0, 5.0 / ref.kappa / 256, 257)
    vec = np.zeros(space.dim)
    vec[1] = 1.0
    n_op = space.cavity_op().conj().T @ space.cavity_op()
    return _decay_run(ref, master_hygiene, "photon_decay", space, grid, vec, "n", n_op)


@pytest.fixture(scope="session")
def charge_decay_run(ref, master_hygiene):
    # excited charge, empty cavity: P_a must follow exp(-t/T1).  The
    # coarse step is chosen so the fastest Fock decay (15 kappa at
    # fock_dim 16) stays inside the RK4 stability region.
    space = HilbertSpace(16)
    grid = TimeGrid(0.0, 5.0 * ref.t1 / 1024, 1025)
    vec = np.zeros(space.dim)
    vec[space.fock_dim] = 1.0
    pa = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.fock_dim):
        pa[space.fock_dim + k, space.fock_dim + k] = 1.0
    return _decay_run(ref, master_hygiene, "charge_decay", space, grid, vec, "pa", pa)


@pytest.fixture(scope="session")
def master_half_runs(ref, ref_pulse, master_hygiene):
    """Density-matrix reflection of the reference pulse at alpha = 0.5."""
    runs = scatter_all_states(ref_pulse, 0.5, ref, backend="master", fock_dim=16)
    for lab in ("00", "01"):
        d = runs[lab].diagnostics
        master_hygiene.append(
            (f"reflect_{lab}", d["trace_drift"], d["min_eigenvalue"], d["fock_tail"])
        )
    return {lab: runs[lab] for lab in ("00", "01", "11")}


@pytest.fixture(scope="session")
def master_in_range_runs(ref, ref_pulse, master_hygiene):
    """Density-matrix reflection at alpha = 0.25, where meanfield reports
    every state inside its validity bound.  Fock 8 leaves a peak
    truncation tail of 1.4e-12 (state 01) at this amplitude."""
    runs = scatter_all_states(ref_pulse, 0.25, ref, backend="master", fock_dim=8)
    for lab in ("00", "01"):
        d = runs[lab].diagnostics
        master_hygiene.append(
            (f"reflect_in_range_{lab}", d["trace_drift"], d["min_eigenvalue"], d["fock_tail"])
        )
    return {lab: runs[lab] for lab in ("00", "01", "11")}


@pytest.fixture(scope="session")
def bare_lab_frame_runs(ref, ref_pulse, master_hygiene):
    """(alpha, fock_dim, {detuning / kappa: records}): the density matrix
    of the dipole-free cavity (g_eff = 0) driven by alpha times the
    reference pulse, propagated in the lab frame at detunings 0 and
    0.3 kappa, recording <c> and the population of the top two Fock
    levels.  The reference for the bare-cavity recurrence; fock 8 leaves a
    truncation error below 3e-15 of peak at this amplitude."""
    alpha, fock_dim = 0.1, 8
    space = HilbertSpace(fock_dim)
    top_two = np.diag((np.arange(space.dim) % fock_dim >= fock_dim - 2).astype(complex))
    runs = {}
    for det in (0.0, 0.3):
        records, rho, drift = master_run(
            space,
            0.0,
            dataclasses.replace(ref, detuning=det * ref.kappa),
            ref_pulse.grid,
            alpha * ref_pulse.envelope,
            DensityMatrix.ground(space),
            {"tail": top_two},
        )
        master_hygiene.append((f"bare_lab_frame_{det}", drift, rho.min_eigenvalue(), rho.fock_tail()))
        runs[det] = records
    return alpha, fock_dim, runs


_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report():
    """Collector for the one-line-per-criterion summary printed at the end."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
