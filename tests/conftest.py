import os
from pathlib import Path

import numpy as np
import pytest

from layup.plan import Action, DrapingPlan, check_abs, check_rel
from layup.sheet_state import SheetGeometry, SheetState


def src_env() -> dict:
    """This process's environment with the checkout's `src/` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def meets(kinds, cs) -> bool:
    """Whether a plan of these action kinds passes check_abs and check_rel for `cs`."""
    plan = DrapingPlan(tuple(Action(k, 1 if k in ("path", "refinement") else None)
                             for k in kinds))
    return all(check_abs(plan, c) for c in cs.abs) and all(check_rel(plan, c) for c in cs.rel)


def make_state(geom, sectors=None, t=0) -> SheetState:
    """A state of `geom` from {sector id: (mu, sigma, n)}; other sectors are sentinels.

    `mu` holds the six means (mu1 then mu2); `sigma` both 3x3 covariances,
    or one 3x3 matrix that both take.
    """
    k = geom.sector_count
    mu, sigma, count = np.zeros((k, 6)), np.zeros((k, 2, 3, 3)), np.zeros(k, dtype=int)
    for sector, (m, s, n) in (sectors or {}).items():
        mu[sector - 1], sigma[sector - 1], count[sector - 1] = m, s, n
    return SheetState(geom, mu, sigma, count, t)


@pytest.fixture
def square_geom():
    half = 150.0
    poly = np.array([[half, half], [-half, half], [-half, -half], [half, -half]])
    return SheetGeometry(center=np.zeros(2), polygon=poly, sector_count=8)


@pytest.fixture
def two_sector_geom():
    half = 100.0
    poly = np.array([[half, half], [-half, half], [-half, -half], [half, -half]])
    return SheetGeometry(center=np.zeros(2), polygon=poly, sector_count=2)
