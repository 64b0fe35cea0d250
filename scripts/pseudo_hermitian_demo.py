"""Intertwined operator pair demo: real spectrum without normality.

Builds H = T^{-1} H_sa T for the diagonal transform T = diag(k) and a
seeded unitary eigenvector frame, then prints the residuals that certify
the construction and the growth trend showing the probe directions e_N
leaving every bounded admissibility ball.
"""
import argparse

import numpy as np

from rieszlab import (demo_pair, demo_transform, density_diagnostic,
                      eigen_residual, nonnormality, spectrum_residual,
                      weak_similarity_residual)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=100)
    args = ap.parse_args()

    pair = demo_pair(args.dim, psi_seed=args.seed)
    print(f"eigen residual:      {eigen_residual(pair):.3e}")
    print(f"spectrum residual:   {spectrum_residual(pair):.3e}")
    print(f"non-normality:       {nonnormality(pair.hamiltonian):.3e}")

    # Row t holds re xi, im xi, re eta and im eta of pair t, the stream
    # order of drawing the pairs one by one.
    draws = np.random.default_rng(args.seed).standard_normal(
        (args.pairs, 4, args.dim))
    units = draws[:, 0::2] + 1j * draws[:, 1::2]
    units /= np.linalg.norm(units, axis=2, keepdims=True)
    xi, eta = units.transpose(1, 2, 0)
    worst = float(np.max(weak_similarity_residual(pair, xi, eta),
                         initial=0.0))
    print(f"weak similarity, worst of {args.pairs} pairs: {worst:.3e}")

    trend = density_diagnostic(demo_transform, (8, 16, 32, 64))
    print(f"||T^H e_N|| over ladder {trend.ladder}: {trend.norms}")
    print(f"trend: {trend.flag} (slope {trend.slope:.3f})")


if __name__ == "__main__":
    main()
