import numpy as np
import pytest

from anelastic_lab.acoustic import assemble_operator
from anelastic_lab.grids import Grid
from anelastic_lab.hydrostatics import PotentialSpec, build_profile, constant_profile
from anelastic_lab.params import ScalingParams
from anelastic_lab.primitive import PrimitiveState, row_blocks, run_primitive


def stacked_run(init, prof, params, times):
    """run_primitive's trajectory and its samples, streamed into one stacked state
    local to the caller: its rho, mom and q are (n_samples, n) arrays, its t the times."""
    stack = np.empty((3, len(times), prof.grid.n))

    def keep(rows, block):
        stack[:, rows] = block.fields

    traj = run_primitive(init, prof, params, times, [keep])
    return traj, PrimitiveState.of(stack, traj.times)


def feed(samples, consume):
    """Hand consume(rows, block) every row_blocks block of stacked samples, as a
    streamed run does; returns consume."""
    for rows in row_blocks(samples.t.size):
        consume(rows, PrimitiveState.of(samples.fields[:, rows], samples.t[rows]))
    return consume


@pytest.fixture(scope="session")
def params():
    return ScalingParams()


@pytest.fixture(scope="session")
def radial_grid():
    return Grid("radial", 256, 16.0, 12.0)


@pytest.fixture(scope="session")
def radial_profile(radial_grid, params):
    return build_profile(PotentialSpec(), params, radial_grid)


@pytest.fixture(scope="session")
def flat_profile(radial_grid, params):
    return constant_profile(params, radial_grid)


@pytest.fixture(scope="session")
def cart_grid():
    return Grid("cartesian", 16, 8.0, 6.0)


@pytest.fixture(scope="session")
def cart_profile(cart_grid, params):
    return build_profile(PotentialSpec(), params, cart_grid)


@pytest.fixture(scope="session")
def operator(radial_profile):
    """Variable-coefficient acoustic operator at n = 256."""
    return assemble_operator(radial_profile)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)
