"""Fixtures shared across test modules."""

import functools

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="session")
def tiny_result():
    """``experiment_id -> ExperimentResult`` at tiny scale, each
    experiment run once per session: the figure gate and the tests
    that read one experiment's rows share the run."""
    @functools.lru_cache(maxsize=None)
    def run(experiment_id):
        return get_experiment(experiment_id).run("tiny")
    return run
