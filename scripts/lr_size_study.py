"""Monte Carlo size study for the bootstrap likelihood-ratio test.

Draws samples from the null that the alternative nests (standard normal, or
Student t with nu = 5 for skew_t), runs the parametric-bootstrap LR test of
that null against the skewed alternative on each, and reports the empirical
rejection rate at a nominal level.  With a correctly calibrated test the
rate should sit inside the binomial band around the nominal level.

Example:
    python scripts/lr_size_study.py --alt skew_normal --reps 200 --boot 199
    python scripts/lr_size_study.py --alt skew_t --reps 200 --boot 199
"""

import argparse
import math
import sys
import time

import numpy as np

from flexdist.infer import NESTED_PAIRS, FitConfig, lr_test

# loose optimizer tolerances: each replicate is refit hundreds of times and
# the LR statistic only needs ~1e-3 accuracy to rank against its bootstrap
FAST = FitConfig(restarts=1, xatol=3e-4, fatol=1e-4, maxiter=250)

# each alternative's null, and a draw of n points from it
NULLS = {alt: null for null, alt in NESTED_PAIRS}
DRAWS = {"normal": lambda rng, n: rng.normal(size=n),
         "t": lambda rng, n: rng.standard_t(5.0, size=n)}


def rejection_rate(alt, n, reps, boot, alpha, seed, config=FAST, progress=None):
    null = NULLS[alt]
    root = np.random.default_rng(seed)
    hits = 0
    for i in range(reps):
        data_rng, boot_rng = root.spawn(2)
        x = DRAWS[null](data_rng, n)
        res = lr_test(x, null, alt, boot, rng=boot_rng, config=config)
        hits += res.p_value <= alpha
        if progress and (i + 1) % progress == 0:
            print(f"  {i + 1:>4}/{reps}  running rate {hits / (i + 1):.4f}",
                  file=sys.stderr)
    return hits / reps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alt", default="skew_normal", choices=sorted(NULLS))
    ap.add_argument("--n", type=int, default=200, help="sample size per replicate")
    ap.add_argument("--reps", type=int, default=500, help="Monte Carlo replicates")
    ap.add_argument("--boot", type=int, default=500, help="bootstrap refits per test")
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    rate = rejection_rate(args.alt, args.n, args.reps, args.boot,
                          args.alpha, args.seed, progress=50)
    dt = time.perf_counter() - t0
    se = math.sqrt(args.alpha * (1 - args.alpha) / args.reps)
    print(f"{NULLS[args.alt]} vs {args.alt}: n={args.n} reps={args.reps} B={args.boot}")
    print(f"rejection rate {rate:.4f} at nominal {args.alpha}"
          f" (binomial SE {se:.4f}), {dt:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
