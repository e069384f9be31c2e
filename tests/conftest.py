import numpy as np
import pytest

from layup.sheet_state import SheetGeometry, SheetState


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
