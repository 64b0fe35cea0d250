"""Sobolev family on a line grid: its Gram matrices.

Builds xi_n by applying the Sobolev triplet's scaling S_-1, the inverse
square root of I - d^2/dx^2, to the first M Hermite functions, then
prints the residuals that make this family a transported copy of an
orthonormal system: the quadrature Gram of the sources and the modified
level-1 Gram of the family, and the plain Gram, which is not the
identity.  Optionally dumps the family to a plot-ready CSV.
"""
import argparse

import numpy as np

from rieszlab import (LineGrid, SampledFunction, hermite_gram, level_gram,
                      save_function_csv, sobolev_basis)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--half-width", type=float, default=20.0)
    ap.add_argument("--points", type=int, default=1024)
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--dump", help="CSV path for the first family column")
    args = ap.parse_args()

    grid = LineGrid(args.half_width, args.points)
    fam = sobolev_basis(grid, args.count)
    eye = np.eye(args.count)

    gram = hermite_gram(grid, args.count)
    print(f"hermite quadrature Gram defect: {np.max(np.abs(gram - eye)):.3e}")
    modified = level_gram(fam, 1)
    print(f"modified level-1 Gram defect:   "
          f"{np.max(np.abs(modified - eye)):.3e}")
    hilbert = fam.family.conj().T @ fam.family
    print(f"plain Gram largest entry off 1: "
          f"{np.max(np.abs(np.diag(hilbert) - 1)):.3e} "
          f"(the family is not orthonormal in the middle space)")

    if args.dump:
        values = fam.family[:, 0] / np.sqrt(grid.spacing)
        save_function_csv(args.dump, SampledFunction(grid, values))
        print(f"wrote first family column to {args.dump}")


if __name__ == "__main__":
    main()
