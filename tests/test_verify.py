"""verify's stacked suites against the per-trial loops of util: the same
check names, order and pass flags, and measured values equal bit for bit."""
import numpy as np
import pytest

from thermoforge import verify
from util import reference_oracle_excess, reference_suite_numerics

SEEDS = range(10)
TRIALS = (1, 20, verify.TRIAL_CHUNK + 1)


def fields(results):
    return [(r.name, r.passed, r.measured.hex(), r.tolerance) for r in results]


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_numerics_matches_per_trial_loop(seed, trials):
    assert fields(verify.suite_numerics(seed, trials)) == fields(
        reference_suite_numerics(seed, trials))


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_majorization_matches_per_trial_oracle_loop(seed, trials, monkeypatch):
    got = verify.suite_majorization(seed, trials)
    monkeypatch.setattr(verify, "_oracle_excess", reference_oracle_excess)
    assert fields(got) == fields(verify.suite_majorization(seed, trials))


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_excess_matches_per_trial_loop(seed, trials):
    # suite_majorization takes at most 200 oracle trials, one chunk; called
    # directly, TRIAL_CHUNK + 1 trials cross a chunk boundary.  Both loops
    # leave the rng in one state.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert verify._oracle_excess(rng, trials).hex() == reference_oracle_excess(ref, trials).hex()
    assert rng.integers(1 << 62) == ref.integers(1 << 62)


def test_chunks_cover_the_trials():
    c = verify.TRIAL_CHUNK
    assert verify._chunks(0) == []
    assert verify._chunks(1) == [1]
    assert verify._chunks(c) == [c]
    assert verify._chunks(2 * c + 3) == [c, c, 3]
