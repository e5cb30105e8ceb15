"""verify's stacked suites against the per-trial loops of util: the same
check names, order and pass flags, and measured values equal bit for bit.
The generators suite is checked against one norm per generator, and the
cooling suite against one diagonal run per check and D.
At TRIAL_CHUNK + 1 trials the numerics and majorization loops cross a
chunk boundary; the compiler and channels loops, which run trials // 4
trials, cross one at 4 * TRIAL_CHUNK + 4, run for seed 0 alone."""
import numpy as np
import pytest

from thermoforge import verify
from util import (
    reference_oracle_excess,
    reference_suite_channels_trials,
    reference_suite_compiler_trials,
    reference_suite_cooling,
    reference_suite_generators,
    reference_suite_majorization,
    reference_suite_numerics,
)

SEEDS = range(10)
TRIALS = (1, 20, verify.TRIAL_CHUNK + 1)
QUARTER_CASES = [(seed, trials) for seed in SEEDS for trials in TRIALS] + [
    (0, 4 * verify.TRIAL_CHUNK + 4)]


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
def test_majorization_matches_per_trial_loop(seed, trials):
    assert fields(verify.suite_majorization(seed, trials)) == fields(
        reference_suite_majorization(seed, trials))


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_per_generator_loop(seed, trials):
    assert fields(verify.suite_generators(seed, trials)) == fields(
        reference_suite_generators(seed, trials))


@pytest.mark.parametrize("seed", SEEDS)
def test_cooling_matches_per_check_runs(seed):
    # the suite reads its trials nowhere; its seed orders the gates
    assert fields(verify.suite_cooling(seed, 20)) == fields(reference_suite_cooling(seed, 20))


@pytest.mark.parametrize("seed, trials", QUARTER_CASES)
def test_compiler_matches_per_trial_loop(seed, trials):
    got = verify.suite_compiler(seed, trials)
    worst_rt, count_ok = reference_suite_compiler_trials(seed, trials)
    assert fields(got[:2]) == fields([
        verify.CheckResult("exact_roundtrip_error", worst_rt < 1e-8, worst_rt, 1e-8),
        verify.CheckResult("exact_gate_count_bound", count_ok, float(count_ok), 1.0)])


@pytest.mark.parametrize("seed, trials", QUARTER_CASES)
def test_channels_matches_per_trial_loop(seed, trials):
    got = verify.suite_channels(seed, trials)
    want = reference_suite_channels_trials(seed, trials)
    names = ("apply_to_trace_preserving", "apply_to_positive", "gibbs_fixed_point")
    tolerances = (1e-12, 1e-10, 1e-10)
    assert fields(got[:3]) == fields([
        verify.CheckResult(name, value < tol, value, tol)
        for name, value, tol in zip(names, want, tolerances)])


def test_worst_gaps_start_below_zero():
    # The triangle gap and the oracle excess are negative on working code;
    # each check reports its largest gap rather than a floor of 0.0.
    checks = {r.name: r for r in verify.run_suites("all", 0, 20)}
    for name in ("trace_distance_triangle", "to_oracle_upper_bound"):
        assert checks[name].passed and checks[name].measured < 0.0


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_excess_matches_per_trial_loop(seed, trials):
    # suite_majorization takes at most 200 oracle trials, one chunk; called
    # directly, TRIAL_CHUNK + 1 trials cross a chunk boundary.  Both loops
    # leave the rng in one state.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert verify._oracle_excess(rng, trials).hex() == reference_oracle_excess(ref, trials).hex()
    assert rng.integers(1 << 62) == ref.integers(1 << 62)


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'thermal'"):
        verify.run_suites("thermal", 0, 1)


def test_chunks_cover_the_trials():
    c = verify.TRIAL_CHUNK
    assert verify._chunks(0) == []
    assert verify._chunks(1) == [1]
    assert verify._chunks(c) == [c]
    assert verify._chunks(2 * c + 3) == [c, c, 3]
