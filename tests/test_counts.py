"""Every count argument goes through `tail_models.check_count`: an integer
(a numbers.Integral that is not a bool, so numpy integers pass) in [lo, hi].
Anything else raises the site's documented error before any work, with a
message that names the argument: ConfigError for a config or a CLI flag,
ValueError for a library function."""

from fractions import Fraction

import numpy as np
import pytest

from pqslln import banach_lp as lp
from pqslln import criteria as cr
from pqslln import mc_engine as mc
from pqslln import oracles as orc
from pqslln import rng
from pqslln import tail_models as tm
from pqslln.errors import ConfigError

MAX = tm.MAX_COUNT
PARETO = tm.pareto(2.0)
SPARSE = orc.DiscreteLaw(((Fraction(0), Fraction(9, 10)), (Fraction(1), Fraction(1, 10))))


def _config(**counts):
    return mc.ExperimentConfig(model=tm.rademacher(), p=1.5, q=0.5,
                               **{"n_max": 1024, "replications": 2, "master_seed": 0, **counts})


# site id -> (argument name, lo, hi, error, the site called with a count, a valid count)
SITES = {
    "config-n_max": ("n_max", 1 << 10, MAX, ConfigError, lambda v: _config(n_max=v), 2048),
    "config-replications": ("replications", 2, MAX, ConfigError,
                            lambda v: _config(replications=v), 3),
    "config-master_seed": ("master seed", 0, rng.MAX_SEED, ConfigError,
                           lambda v: _config(master_seed=v), 7),
    "check_seed": ("master seed", 0, rng.MAX_SEED, ConfigError, rng.check_seed, 7),
    "run_paths-workers": ("--workers", 1, mc.MAX_WORKERS, ConfigError,
                          lambda v: mc.run_paths(_config(), workers=v), 2),
    "dense-n_upto": ("n_upto", 1, MAX, ValueError,
                     lambda v: mc.dense_ratio_moments(PARETO, [(1.0, 0.5)], v, 10, 0), 3),
    "dense-replications": ("replications", 1, MAX, ValueError,
                           lambda v: mc.dense_ratio_moments(PARETO, [(1.0, 0.5)], 3, v, 0), 10),
    "dense-master_seed": ("master_seed", 0, rng.MAX_SEED, ValueError,
                          lambda v: mc.dense_ratio_moments(PARETO, [(1.0, 0.5)], 3, 10, v), 7),
    "series-n_max": ("n_max", 1000, cr.SERIES_N_LIMIT, ValueError,
                     lambda v: cr.truncated_series(PARETO, 0.5, v), 1000),
    "classify-series_n_max": ("series_n_max", 1000, MAX, ValueError,
                              lambda v: cr.classify_slln(PARETO, 0.5, 0.5, series_n_max=v), 1000),
    "expectation-series_n_max": ("series_n_max", 1000, MAX, ValueError,
                                 lambda v: cr.series_expectation_criterion(
                                     PARETO, 0.5, 0.25, series_n_max=v), 1000),
    "marcus_pisier-n": ("n", 1, MAX, ValueError,
                        lambda v: lp.marcus_pisier_check(PARETO, v, 1.2, [1.0], 10), 4),
    "marcus_pisier-replications": ("replications", 1, MAX, ValueError,
                                   lambda v: lp.marcus_pisier_check(PARETO, 4, 1.2, [1.0], v), 10),
    "marcus_pisier-master_seed": ("master_seed", 0, rng.MAX_SEED, ValueError,
                                  lambda v: lp.marcus_pisier_check(PARETO, 4, 1.2, [1.0], 10,
                                                                   master_seed=v), 7),
    "exact_series-n_limit": ("n_limit", 1, 12, ValueError,
                             lambda v: orc.exact_series_small(orc.rademacher_law(), 1.0, 1.0, v),
                             3),
    "lemma_max-n": ("n", 1, MAX, ValueError, lambda v: orc.lemma_max_check(SPARSE, v, 1), 10),
}

BAD = {"true": lambda lo, hi: True, "float": lambda lo, hi: 2.5,
       "float64": lambda lo, hi: np.float64(4), "string": lambda lo, hi: "4",
       "below": lambda lo, hi: lo - 1, "above": lambda lo, hi: hi + 1}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("site", SITES)
def test_a_count_outside_the_rule_is_rejected_by_name(site, bad):
    # True used to run as 1 (workers, n_limit, lemma_max n), 2.5 raised a raw
    # TypeError (n_max, replications, n_upto, n_limit), and master_seed=-1
    # in marcus_pisier_check aliased 2^64 - 1
    name, lo, hi, error, call, _ = SITES[site]
    value = BAD[bad](lo, hi)
    with pytest.raises(error) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name} must be an integer at least ")
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_counts_as_the_int(site):
    *_, call, good = SITES[site]
    assert repr(call(np.int64(good))) == repr(call(good))


def test_the_message_writes_large_bounds_as_powers():
    cases = [(("n_max", 1000, 1 << 10), "n_max must be an integer at least 2^10 and at most 2^53, "
                                        "got 1000"),
             (("master_seed", -1, 0, rng.MAX_SEED),
              "master_seed must be an integer at least 0 and at most 2^64 - 1, got -1"),
             (("n_limit", 13, 1, 12),
              "n_limit must be an integer at least 1 and at most 12, got 13"),
             (("n", 999, 1000, 5000),
              "n must be an integer at least 10^3 and at most 5000, got 999"),
             (("n", 1024, 1, 1023), "n must be an integer at least 1 and at most 1023, got 1024")]
    for args, message in cases:
        with pytest.raises(ValueError) as info:
            tm.check_count(*args)
        assert str(info.value) == message
    assert tm.check_count("n", np.uint8(7), 1) == 7 and type(tm.check_count("n", 7, 1)) is int
