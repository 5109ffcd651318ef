"""Fixed sizes and priors of the workloads.

Plain literals only: the fresh-process set-up probe imports this module and
must pay for nothing but mdpcal itself.
"""

# Prior of the Bayes-risk runs and the 111-point threshold grid of the
# MC-basin acceptance criterion.
MC_PRIOR = (2.0, 0.5, 8.0)  # lambda_, gamma_rate, truncation
MC_GRID = tuple(0.5 + 0.05 * i for i in range(111))

# mc_wide: many short replicates, so per-replicate set-up dominates.
WIDE = {"m_alternatives": 2000, "m_null": 2000, "n": 500}
WIDE_CYCLE = ("sign", "ks", "sign")

# mc_long: few long replicates, so generation, sorting and memory dominate.
LONG = {"m_alternatives": 200, "m_null": 200, "n": 20_000}
LONG_CYCLE = ("exponent", "sign", "ks")

# Prior-exponent probe of the exponent-recovery acceptance criterion.
EXPONENT_LAMBDAS = (1.0, 2.0)
EXPONENT_GAMMA_RATE = 1.0
EXPONENT_TRUNCATION = 8.0
EXPONENT_RADII = (0.2, 0.1, 0.05, 0.03, 0.02)
EXPONENT_M = 1_000_000

# data_tests: one round runs each of these once.  The small operations come
# twice so that the median falls inside the n = 1e4 sample block and p90
# inside the n = 1e5 block, away from any boundary between operation sizes.
DATA_CYCLE = (("halfspace", 50), ("halfspace", 50), ("sample", 10_000), ("sample", 10_000),
              ("halfspace", 1_000), ("counts", 10_000), ("sample", 100_000))


def exponent_priors():
    """(lambda_, gamma_rate, truncation) of every prior-exponent probe."""
    return [(lam, EXPONENT_GAMMA_RATE, EXPONENT_TRUNCATION) for lam in EXPONENT_LAMBDAS]


def priors_for(workload):
    """Priors whose inverse-CDF sampler the workload builds during set-up."""
    if workload == "mc_wide":
        return [MC_PRIOR]
    if workload == "mc_long":
        return [MC_PRIOR] + exponent_priors()
    return []
