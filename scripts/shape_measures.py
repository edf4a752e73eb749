"""Print quantile-based shape measures across the distribution catalog.

For each family/parameter combination this tabulates the Arnold-Groeneveld
skewness 1 - 2F(mode) and the octile kurtosis, illustrating that the two
measures respond to different aspects of shape: tail weight moves the
kurtosis column while leaving AG skewness at zero for symmetric members.

    python scripts/shape_measures.py           # the table, at four decimals
    python scripts/shape_measures.py --exact   # each row's mode, AG skewness,
                                               # octile kurtosis and first four
                                               # raw moments as repr

The --exact lines show whether two checkouts agree to the bit; put the
checkout's src first on PYTHONPATH to measure it.
"""

import argparse
import sys

from flexdist.infer import distribution_for
from flexdist.measures import ag_skewness, moment, quantile_kurtosis

CATALOG = [
    ("normal", {"mu": 0, "sigma": 1}),
    ("t", {"mu": 0, "sigma": 1, "nu": 5}),
    ("t", {"mu": 0, "sigma": 1, "nu": 2}),
    ("skew_normal", {"mu": 0, "sigma": 1, "delta": 1}),
    ("skew_normal", {"mu": 0, "sigma": 1, "delta": 5}),
    ("skew_t", {"mu": 0, "sigma": 1, "nu": 2, "delta": 2}),
    ("sas_normal", {"mu": 0, "sigma": 1, "delta": -0.5, "eta": 0.5}),
    ("sas_normal", {"mu": 0, "sigma": 1, "delta": -1.0, "eta": 0.5}),
    ("twopiece_normal", {"mu": 0, "sigma": 1, "delta": 2, "scaling": "isf"}),
    ("twopiece_normal", {"mu": 0, "sigma": 1, "delta": 0.5, "scaling": "epsilon"}),
    ("twopiece_t", {"mu": 0, "sigma": 1, "nu": 2, "delta": 2, "scaling": "isf"}),
]


def main(argv=()):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exact", action="store_true",
                        help="print each row's mode, AG skewness, octile kurtosis and "
                             "raw moments of orders 1 to 4 (inf where one diverges) as repr")
    exact = parser.parse_args(argv).exact
    if not exact:
        print(f"{'family':<18}{'params':<38}{'AG skew':>10}{'oct kurt':>10}")
    for family, params in CATALOG:
        d = distribution_for(family, params)
        shape = {k: v for k, v in params.items() if k not in ("mu", "sigma")}
        tag = ", ".join(f"{k}={v}" for k, v in shape.items()) or "-"
        if exact:
            print(family, tag, repr(d.mode()), repr(ag_skewness(d)),
                  repr(quantile_kurtosis(d)), *(repr(moment(d, r)) for r in range(1, 5)),
                  sep="\t")
        else:
            print(f"{family:<18}{tag:<38}"
                  f"{ag_skewness(d):>10.4f}{quantile_kurtosis(d):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
