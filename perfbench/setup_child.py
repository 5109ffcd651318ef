"""Fresh-process set-up probe for one workload.

Usage: python setup_child.py <workload>

Imports what the workload's first operation needs, finishes the lazy set-up
(the prior samplers of the MC workloads), prints ``ready`` and exits.  The
parent times the span from spawning this process to reading that line.
Only the standard library, ``specs`` and mdpcal are imported here.
"""

import sys

import specs


def main() -> int:
    workload = sys.argv[1]
    if workload == "cli_closed_form":
        import mdpcal.cli  # noqa: F401
    else:
        import mdpcal
        for lam, rate, trunc in specs.priors_for(workload):
            prior = mdpcal.PriorSpec(lambda_=lam, gamma_rate=rate, truncation=trunc)
            # A one-replicate call builds and caches the inverse-CDF sampler.
            mdpcal.mc_bayes_risk(prior, mdpcal.McConfig(1, 1, 1, 0, (0.0,)), "sign")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
