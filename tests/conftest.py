"""Shared fixtures and the acceptance-criteria terminal report.

Acceptance tests call record_criterion() before asserting; the collected
lines are printed as their own terminal section after the test summary so
every criterion shows one explicit PASS/FAIL line regardless of how the
individual assertions land.
"""

import copy

import numpy as np
import pytest

from fednoise import federation
from fednoise.harness import materialize_config, run_from_config

ACCEPT_LINES = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPT_LINES.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPT_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, passed, detail in sorted(ACCEPT_LINES):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[ACCEPT] criterion {number}: {status} - {detail}")


def run_with_history(*args, **kwargs):
    """run_federation(*args, **kwargs) and the tuple of global networks after
    each round, in round order, read off a spy patched over federation._round."""
    history = []
    real = federation._round

    def spy(*round_args):
        nets, metrics = real(*round_args)
        history.append(nets)
        return nets, metrics

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(federation, "_round", spy)
        result = federation.run_federation(*args, **kwargs)
    return result, history


# Desk-scale reference setup shared by the behavioral acceptance checks:
# 10k training samples in 32 dimensions over 10 classes, 100 clients with
# 5 sampled per round, 5 local epochs, 150 rounds.
_GRID_BASE = {
    "dataset": {"n_train": 10000, "n_test": 2000, "num_classes": 10, "dim": 32},
    "federation": {
        "num_clients": 100,
        "clients_per_round": 5,
        "rounds": 150,
        "local_epochs": 5,
        "batch_size": 60,
        "lr": 0.15,
    },
}


@pytest.fixture(scope="session")
def grid():
    """Per-round accuracy curves for reference runs, cached for the session.

    grid(method, noise_kind, ratio, seed, **lsr_overrides) returns the
    150-entry test-accuracy array for that configuration, computing it on
    first use and reusing it afterwards so criteria can share runs.
    """
    cache = {}

    def run(method, noise_kind, ratio, seed, **lsr_overrides):
        key = (method, noise_kind, ratio, seed, tuple(sorted(lsr_overrides.items())))
        if key not in cache:
            raw = copy.deepcopy(_GRID_BASE)
            raw["seed"] = seed
            raw["noise"] = {"kind": noise_kind, "ratio": ratio}
            raw["federation"]["method"] = method
            if lsr_overrides:
                raw["lsr"] = dict(lsr_overrides)
            result, _ = run_from_config(materialize_config(raw))
            cache[key] = np.array([m.test_accuracy for m in result.metrics])
        return cache[key]

    return run
