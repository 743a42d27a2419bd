import sys
from pathlib import Path

import pytest

# make the oracle module importable from any test
sys.path.insert(0, str(Path(__file__).parent))

from jfft.material import MaterialModel


@pytest.fixture(scope="session")
def solid_material():
    """Solid-phase parameters used throughout the experiments."""
    return MaterialModel(2.0 / 3.0, 0.5)


@pytest.fixture
def bands(monkeypatch):
    """Forces K into row bands and counts them.

    ``bands.force(rows)`` makes every K application and right-hand side
    cut its ``n x n`` grid into ``ceil(n / rows)`` bands, whatever the band
    rule says.  ``bands.count`` is the number of strain passes run since,
    one per band of each K application: every strain pass that
    ``fem.prepare_sym_gradient`` prepares counts each time it runs, so a
    K prepared once and run many times counts once per application.
    ``bands.adjoints`` counts the adjoint passes of
    ``fem.prepare_sym_gradient_adjoint`` the same way, one per band of
    each K application and each right-hand side, which makes no strain
    pass.
    """
    from jfft import fem, operators

    class Bands:
        count = 0
        adjoints = 0

        def force(self, rows):
            monkeypatch.setattr(operators, "_band_count",
                                lambda n, loads: -(-n // rows))

    recorder = Bands()

    def counted(name, counter):
        prepare = getattr(fem, name)

        def prepare_counted(*args):
            run_pass = prepare(*args)

            def run():
                setattr(recorder, counter, getattr(recorder, counter) + 1)
                run_pass()

            return run

        monkeypatch.setattr(fem, name, prepare_counted)

    counted("prepare_sym_gradient", "count")
    counted("prepare_sym_gradient_adjoint", "adjoints")
    return recorder
