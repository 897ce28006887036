import gc
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import relaxbench as rb
from relaxbench import diagnostics

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def grid64():
    return rb.SpatialGrid((64,), (1.0,))


@pytest.fixture(scope="session")
def grid128():
    return rb.SpatialGrid((128,), (1.0,))


@pytest.fixture(scope="session")
def grid256():
    return rb.SpatialGrid((256,), (1.0,))


@pytest.fixture(scope="session")
def grid2d():
    return rb.SpatialGrid((32, 32), (1.0, 1.0))


@pytest.fixture
def process_pools(monkeypatch):
    """Report 64 usable CPUs, so a ladder takes the worker-process path on any host, and
    record how many workers each ForkedJobs forks as its block is entered."""
    started, forked = [], []
    fork, enter = os.fork, diagnostics.ForkedJobs.__enter__

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def recorded_enter(pool):
        forked.clear()
        entered = enter(pool)
        if forked:
            started.append(len(forked))
        return entered

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(diagnostics.ForkedJobs, "__enter__", recorded_enter)
    return started


def assert_no_child_process():
    """No child process of this one is left, running or unreaped, and no object stays gc-frozen."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


def sine_mode(grid, mode=1, amplitude=1.0, offset=0.0):
    pts = grid.points()
    prof = np.ones(grid.ns)
    for j in range(grid.d):
        prof = prof * np.sin(2.0 * np.pi * mode * pts[j] / grid.lengths[j])
    return (offset + amplitude * prof)[None]


def four_block_2d():
    """k = 1, m = 2, d = 2 system whose blocks m11, m12, m21, m22 all vary in x.

    m21_j = m12_j^T and m22_j is symmetric, so diag(1, I) symmetrizes every
    symbol; the source -K z with K positive definite is dissipative.
    """
    def s(x):
        return np.sin(2.0 * np.pi * x[0])

    def c(x):
        return np.cos(2.0 * np.pi * x[1])

    def axis(scale, a, b):
        def m12(x):
            return scale * np.stack([1.0 + a * s(x) * c(x), 0.5 + b * c(x)])[None]

        def m21(x):
            return np.swapaxes(m12(x), 0, 1)

        def m22(x):
            off = np.full(x.shape[1], 0.1)
            return scale * np.array([[0.3 * c(x), off], [off, -0.2 * s(x)]])

        def m11(x):
            return scale * (0.1 * s(x) + a * c(x)).reshape(1, 1, -1)

        return m12, m21, m22, m11

    ax1, ax2 = axis(1.0, 0.2, 0.1), axis(0.8, 0.1, -0.1)
    kmat = np.array([[2.0, 0.5], [0.5, 1.0]])
    return rb.RelaxationSystem(
        k=1, m=2, d=2,
        m12=(ax1[0], ax2[0]), m21=(ax1[1], ax2[1]), m22=(ax1[2], ax2[2]), m11=(ax1[3], ax2[3]),
        q=lambda x, u, z: -kmat @ z, q_nu=lambda x, u, z: -kmat, name="four-block-2d",
    )
