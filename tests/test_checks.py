import sys

import numpy as np
import pytest

from boswit import oracle, witness
from boswit.checks import run_checks


def _per_job_search_bound(seed):
    """The product_search_bound numbers from one search call per job:
    (max_abs_error, search_gap, samples)."""
    rng = np.random.default_rng(seed)
    violation = 0.0
    worst_gap = 0.0
    count = 0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        tensor = witness.correlation_tensor(oracle.random_pure_state(n, rng))
        bound = witness.t_max(tensor)
        for offset in range(3):
            res = oracle.product_overlap_search(tensor, iterations=6, seed=seed + offset)
            violation = max(violation, res.best - bound)
            worst_gap = max(worst_gap, res.gap)
            count += 1
    return max(0.0, violation), worst_gap, count


@pytest.mark.parametrize("seed", (7, 8, 9))
def test_product_search_bound_matches_a_per_job_loop(seed):
    reports, passed = run_checks("roundtrip", seed=seed)
    (rep,) = [r for r in reports if r.check_name == "product_search_bound"]
    err, gap, count = _per_job_search_bound(seed)
    assert (rep.max_abs_error.hex(), rep.search_gap.hex(), rep.samples) == (err.hex(), gap.hex(), count)
    assert rep.passed and passed


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_check_all_peak_memory(boswit_peak_rss):
    # The check itself peaks near 43 MB; building the joint blocks of the
    # N = 1..8 Bloch stacks, which that check does not read, takes it to
    # ~68 MB.
    code, peak_mb = boswit_peak_rss("check", "all", "--seed", "7")
    assert code == 0
    assert peak_mb < 55
