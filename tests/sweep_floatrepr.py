"""Sweep random 64-bit patterns through the float64 text kernel against float.__repr__.

    PYTHONPATH=src python3 tests/sweep_floatrepr.py [--count N] [--seed S]

Every finite double among N uniformly random 64-bit patterns (default
10^6), and the edge table of test_floatrepr.py, is written by
`floatrepr.repr_join` and by float.__repr__.  Prints the number of values
compared and of mismatches, the first few mismatches, and exits 1 if there
is any.  It runs in CI, not in the tier-1 suite.
"""

import argparse
import sys

import numpy as np

from apspec.floatrepr import repr_join
from test_floatrepr import _edge_values

BATCH = 1 << 18


def mismatches(values: np.ndarray) -> list[tuple[str, str]]:
    """(kernel, repr) for each value of `values` the two write differently."""
    got = repr_join(values, "\n")
    want = "\n".join(map(float.__repr__, values.tolist()))
    if got == want:
        return []
    return [(a, b) for a, b in zip(got.split("\n"), want.split("\n")) if a != b]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**6, help="random patterns to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    edges = _edge_values()
    bad = mismatches(np.concatenate([edges, -edges]))
    compared = 2 * len(edges)
    for start in range(0, args.count, BATCH):
        bits = rng.integers(0, 2**64, size=min(BATCH, args.count - start), dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        compared += len(values)
        bad += mismatches(values)
    print(f"{compared} values compared, {len(bad)} mismatches")
    for got, want in bad[:10]:
        print(f"  kernel {got} repr {want}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
