import numpy as np
import pytest

import klgauss as kg


@pytest.fixture(scope="session")
def quadratic_family():
    return kg.builtin_problem("quadratic")


@pytest.fixture(scope="session")
def double_well_family():
    return kg.builtin_problem("double-well")


@pytest.fixture(scope="session")
def shifted_family():
    return kg.builtin_problem("shifted-double-well")


@pytest.fixture(scope="session")
def double_well_modes(double_well_family):
    return kg.find_modes(double_well_family.v1_limit, double_well_family.v2)


@pytest.fixture(scope="session")
def shifted_modes(shifted_family):
    return kg.find_modes(shifted_family.v1_limit, shifted_family.v2)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def _integrate_every_box(integrate, lo, hi, spec, widths=None):
    """The Simpson oracle's box policy without the face check: each round
    integrates every box left and widens x1.5 those that fail the tail
    check, up to spec.max_expand times (no rounds for an explicit box).
    ``integrate`` is as in measure.oracle_integrals; the boxes are taken as
    valid, and integrated one at a time.  Without ``widths`` every box has
    spec's resolution.  With them, box i takes the first Simpson rung n
    with SIMPSON_POINTS_PER_WIDTH * (widest side) / widths[i] <= n - 1, the
    last where none does, and is integrated again one rung up while its
    rel_error exceeds SIMPSON_REL_TOL short of the last rung; a widened box
    keeps its refinements.  Returns per box its last GridIntegral or
    exception, and the number of integrations in each round."""
    from klgauss.measure import SIMPSON_POINTS_PER_WIDTH, SIMPSON_REL_TOL
    from klgauss.quadrature import BoxTooSmallError, GridIntegral, _grid_resolution, _simpson_rungs

    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    d = lo.shape[1]
    rungs = [_grid_resolution(d, spec.points_per_dim)] if widths is None else list(_simpson_rungs(d))
    up = [0] * len(lo)
    out = [None] * len(lo)
    rounds = []
    todo = list(range(len(lo)))
    for _ in range(1 if spec.box is not None else spec.max_expand + 1):
        count, failed = 0, []
        for i in todo:
            r = 0
            if widths is not None:
                need = SIMPSON_POINTS_PER_WIDTH * float(np.max(hi[i] - lo[i])) / widths[i]
                r = next((k for k, n in enumerate(rungs) if need <= n - 1), len(rungs) - 1)
            r = min(r + up[i], len(rungs) - 1)
            while True:
                count += 1
                result = integrate(np.array([i]), lo[[i]], hi[[i]], rungs[r])[0]
                out[i] = result
                if not isinstance(result, GridIntegral):
                    break
                if result.boundary_ratio > spec.tail_tol:
                    failed.append(i)
                    out[i] = BoxTooSmallError(f"boundary ratio {result.boundary_ratio:.2e}")
                    break
                if widths is None or result.rel_error <= SIMPSON_REL_TOL or r == len(rungs) - 1:
                    break
                r, up[i] = r + 1, up[i] + 1
        rounds.append(count)
        todo = failed
        if not todo:
            break
        center = 0.5 * (lo[todo] + hi[todo])
        lo[todo] = center + 1.5 * (lo[todo] - center)
        hi[todo] = center + 1.5 * (hi[todo] - center)
    return out, rounds


@pytest.fixture(scope="session")
def integrate_every_box():
    return _integrate_every_box


@pytest.fixture(scope="session")
def assert_same_integrals():
    """assert_same_integrals(got, want): every GridIntegral field and grid,
    and every exception type, of two lists of oracle results agree."""

    def check(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            if isinstance(b, Exception):
                continue
            for name in ("value", "log_value", "error_estimate", "boundary_ratio"):
                assert getattr(a, name) == getattr(b, name)
            assert np.array_equal(a.grid.lo, b.grid.lo)
            assert np.array_equal(a.grid.hi, b.grid.hi)
            assert a.grid.points_per_dim == b.grid.points_per_dim

    return check
