import threading

import numpy as np
import pytest

from skipdiff import GaussianMixture, default_schedule, parallel, standard_normal_mixture


@pytest.fixture(scope="session")
def sched50():
    return default_schedule(50)


@pytest.fixture(scope="session")
def std_normal_1d():
    return standard_normal_mixture(1)


@pytest.fixture(scope="session")
def bimodal_1d():
    return GaussianMixture(weights=[0.5, 0.5], means=[[-2.0], [2.0]], variances=[1.0, 1.0])


@pytest.fixture(scope="session")
def bimodal_2d():
    return GaussianMixture(
        weights=[0.5, 0.5],
        means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
        variances=[1.0, 1.0],
    )


@pytest.fixture
def round_calls(monkeypatch):
    """The (thread, x shape, rows) of each later parallel round, in order: the
    stand-in for the scheduler's evaluate() records its call and calls the
    real evaluate()."""
    calls = []
    real = parallel.evaluate

    def recording(d, s, x, t):
        calls.append((threading.get_ident(), np.shape(x), np.size(t)))
        return real(d, s, x, t)
    monkeypatch.setattr(parallel, "evaluate", recording)
    return calls


@pytest.fixture
def shuffle_rounds(monkeypatch):
    """Call with a seed to stack the rows of every later parallel round in a
    random order: the stand-in for the scheduler's evaluate() permutes the
    stacked rows, calls the real evaluate() and un-permutes its result."""
    real = parallel.evaluate

    def install(seed):
        rng = np.random.default_rng(seed)

        def shuffled(d, s, x, t):
            perm = rng.permutation(len(t))
            return real(d, s, x[perm], t[perm])[np.argsort(perm)]
        monkeypatch.setattr(parallel, "evaluate", shuffled)
    return install
