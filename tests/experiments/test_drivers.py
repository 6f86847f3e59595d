"""Experiment drivers are pure functions of their seed.

The paper-shape checks on the drivers' output are rows of
``tests/integration/test_paper_claims.py``.
"""

from repro.experiments import run_experiment


def test_drivers_respect_seed():
    a = run_experiment("fig7", scale="ci", seed=1)
    b = run_experiment("fig7", scale="ci", seed=1)
    assert a.series_by_name("read tcp").ys == b.series_by_name("read tcp").ys
