import sys
from pathlib import Path

import pytest

# make the oracle module importable from any test
sys.path.insert(0, str(Path(__file__).parent))

from jfft.material import isotropic_material


@pytest.fixture(scope="session")
def solid_material():
    """Solid-phase parameters used throughout the experiments."""
    return isotropic_material(2.0 / 3.0, 0.5)


@pytest.fixture
def bands(monkeypatch):
    """Forces K into row bands and counts them.

    ``bands.force(rows)`` makes every K application cut its ``n x n`` grid
    into ``ceil(n / rows)`` bands, whatever the band rule says.
    ``bands.count`` is the number of strain passes made since, one per
    band of each K application.
    """
    from jfft import fem, operators

    class Bands:
        count = 0

        def force(self, rows):
            monkeypatch.setattr(operators, "_band_count",
                                lambda n, loads: -(-n // rows))

    recorder = Bands()
    strain_pass = fem.sym_gradient_into

    def counted(*args):
        recorder.count += 1
        strain_pass(*args)

    monkeypatch.setattr(fem, "sym_gradient_into", counted)
    return recorder
