"""Strict vs non-strict dichotomy of the diagonal model, over a ladder.

With a single seminorm level the transported family xi_k = e_k / k keeps
both two-sided constants pinned at 1 along the whole ladder.  Adding a
second level makes the top constant grow like N^2, which is exactly the
trend the verdict machinery is built to catch.
"""
import argparse

from rieszlab import strictness_report
from rieszlab.spaces import number_operator_rule


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ladder", default="8,16,32,64,128")
    args = ap.parse_args()
    ladder = tuple(int(p) for p in args.ladder.split(","))

    for levels in (1, 2):
        report = strictness_report(number_operator_rule(levels), ladder)
        print(f"levels = {levels}: verdict {report.verdict}")
        print(f"  lower constants {report.lower}")
        for q, vals in sorted(report.upper.items()):
            print(f"  upper level {q}: {vals} (slope "
                  f"{report.upper_slopes.get(q, float('nan')):.3f})")
        print()


if __name__ == "__main__":
    main()
