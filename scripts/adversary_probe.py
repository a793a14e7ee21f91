#!/usr/bin/env python3
"""Run a fixed set of grid_worst_case searches and fingerprint their results.

Usage: python scripts/adversary_probe.py

The set has 150 searches. 90 are the instances of the benchmark's adversary
workload at seeds 1-15: per seed, one instance of each of its six (notion,
atom count) strata, drawn the way the workload draws them. The other 60 are
random DP instances (up to 4 and 8 atoms), random EOpp instances (up to 10)
and predictive parity on the random DP instances, at seeds 100-103 and
alpha in {0.05, 0.15, 1.0}.

Prints one line per search: the contamination's sorted JSON and the
``repr`` of its excess, or the class of the package error the search
raised. The last line is the SHA-256 of all lines before it. Two checkouts
whose searches agree bit for bit print the same digest.
"""

import hashlib
import itertools
import json

import numpy as np

from fairnoise import families
from fairnoise.attacks import grid_worst_case
from fairnoise.errors import FairnoiseError

#: the adversary workload's (notion, atom count) strata and search settings
STRATA = tuple((notion, n) for notion in ("eopp", "dp") for n in (7, 9, 11))
STRATA_MAX_ATOMS = 12
STRATA_RESOLUTION = 10
STRATA_GRID = 21

#: (notion, instance generator, max_atoms) of the random instances
RANDOM_CASES = (
    ("dp", families.random_dp_instance, 4),
    ("dp", families.random_dp_instance, 8),
    ("eopp", families.random_eopp_instance, 10),
    ("predictive_parity", families.random_dp_instance, 4),
    ("predictive_parity", families.random_dp_instance, 8),
)


def strata_searches(seeds):
    """Per seed, one search per stratum: (dist, alpha, hypotheses, notion, kwargs)."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for notion, n_atoms in STRATA:
            generate = families.random_eopp_instance if notion == "eopp" else families.random_dp_instance
            for _ in range(1000):
                dist, h = generate(rng, max_atoms=STRATA_MAX_ATOMS)
                if len(dist.atoms) == n_atoms:
                    break
            else:
                raise RuntimeError(f"no {notion} instance with {n_atoms} atoms in 1000 draws")
            alpha = float(rng.uniform(0.01, 0.2))
            yield dist, alpha, [h], notion, {"resolution": STRATA_RESOLUTION, "grid_n": STRATA_GRID}


def random_searches():
    """The random instances at seeds 100-103, each searched at every alpha."""
    for notion, generate, max_atoms in RANDOM_CASES:
        for seed in range(100, 104):
            dist, h = generate(np.random.default_rng(seed), max_atoms=max_atoms)
            for alpha in (0.05, 0.15, 1.0):
                yield dist, alpha, [h], notion, {"resolution": 4}


def all_searches():
    """The 150 searches: the strata at seeds 1-15, then the random instances."""
    return itertools.chain(strata_searches(range(1, 16)), random_searches())


def probe_lines(searches):
    """One line per search, in order."""
    for dist, alpha, hypotheses, notion, kwargs in searches:
        try:
            q, excess = grid_worst_case(dist, alpha, hypotheses, notion, **kwargs)
        except FairnoiseError as exc:
            yield type(exc).__name__
        else:
            yield f"{json.dumps(q.to_json_dict(), sort_keys=True)} {excess!r}"


def digest(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def main() -> int:
    lines = []
    for line in probe_lines(all_searches()):
        print(line)
        lines.append(line)
    print(digest(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
