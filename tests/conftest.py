import numpy as np
import pytest

import dhym_lab as dl


@pytest.fixture(scope="session")
def torus1():
    """n=1, N=32, identity metric."""
    return dl.build_torus(1, 32, [1.0])


@pytest.fixture(scope="session")
def torus1_fine():
    return dl.build_torus(1, 64, [1.0])


@pytest.fixture(scope="session")
def torus2():
    return dl.build_torus(2, 16, np.eye(2))


def cos_axis(geom, axis, amplitude=1.0, k=1):
    """amplitude * cos(k * coordinate along one real axis), full grid."""
    c = geom.axis_coordinate(axis)
    return amplitude * np.broadcast_to(np.cos(k * c), geom.shape).copy()


@pytest.fixture(scope="session")
def small_flow_run(torus1_fine):
    """delta=0.05 perturbation of F_hat = omega at N=64, run over [0, 2].

    Fixed step 1/512 with samples every 1/16 time unit; reused by the
    monitor tests.
    """
    geom = torus1_fine
    base = dl.BaseCurvature.proportional(geom, 1.0)
    hat = float(np.arctan(1.0))
    u0 = dl.bandlimited_noise(geom, 2, 1.0, 7)
    u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup
    return dl.run_fixed(geom, base, hat, u0, dt=1.0 / 512, n_steps=2 * 512,
                        sample_every=32)


def fails_on_call(step, k):
    """A stepper that raises FlowDiverged on its k-th call and calls step
    otherwise, and the list of step sizes it was called with."""
    calls = []

    def wrapped(state, h):
        calls.append(h)
        if len(calls) == k:
            raise dl.FlowDiverged("step diverged: forced")
        return step(state, h)

    return wrapped, calls
