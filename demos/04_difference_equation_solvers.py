"""Green functions and resolvent kernels for linear difference equations.

Solves a diagonal scaling recurrence on the 2-D lattice through its Green
function, a fractional-order Volterra equation through the resolvent of its
Weyl symbol (also on a 1281-coefficient kernel window, against the closed
form), and a partial-axes Volterra equation in C^2 whose vector kernel
acts on axis 2 only, checking residuals against the reported error ledger.
"""

import numpy as np

from zlattice import Box, green_function, residual, solve
from zlattice.fixtures import (
    gaussian_table,
    scaling_pencil,
    weyl_fractional_problem,
)
from zlattice.fractional import cesaro, cesaro_values
from zlattice.lattice import SequenceTable, nonneg_orthant
from zlattice.solver import MixedAxesSymbol, MixedAxesTerm


def main():
    # A u(k+1, l+1) - u(k, l) = f(k, l), A = diag(2, 3)
    P = scaling_pencil()
    G = green_function(P, (1.0, 1.0), Box((0, 0), (14, 14)))
    diag = [np.asarray(G.table.at((j, j)))[0, 0].real for j in range(1, 5)]
    print("Green function diagonal (expect 2^-j):", np.round(diag, 6))

    f = gaussian_table(2, 10)
    sol = solve(P, f, (1.0, 1.0), Box((0, 0), (16, 16)), Box((0, 0), (12, 12)))
    rep = residual(P, sol.u, f, Box((1, 1), (10, 10)))
    print(f"2-D solve: residual {rep['max_residual']:.3e}, ledger {sol.ledger:.3e}")

    # fractional Volterra equation driven by a unit impulse
    S = weyl_fractional_problem(0.5, np.eye(1))
    d = SequenceTable.delta(1)
    fsol = solve(S, d, (1.3,), Box((0,), (80,)), Box((0,), (48,)))
    frep = residual(S, fsol.u, d, Box((4,), (32,)))
    print(
        f"Weyl order-0.5 solve: residual {frep['max_residual']:.3e}, "
        f"ledger {fsol.ledger:.3e}"
    )
    # the same problem on the kernel window 0:1280: the series recursion runs in
    # blocks of 61 coefficients, and its kernel is G(k) = c^0.5(k - 1)
    S = weyl_fractional_problem(0.5, np.eye(1), kernel_len=1400)
    lsol = solve(S, d, (1.3,), Box((0,), (1280,)), Box((0,), (1280,)))
    exact = np.concatenate(([0.0], cesaro_values(0.5, 1279)))
    err = np.max(np.abs(lsol.u.values - exact))
    print(
        f"Weyl order-0.5 kernel on 0:1280: max error {err:.3e} against c^0.5(k - 1), "
        f"largest entry ledger {np.max(lsol.kernel.aliasing):.3e}, ledger {lsol.ledger:.3e}"
    )

    # u(k) + A (a *_2 u)(k) = delta(k) in C^2, with a vector kernel a on axis 2
    # and the alpha = 0 Cesaro kernel (the delta) on axis 1; that kernel's
    # envelope bounds a tail that is zero, and the ledger reports that bound
    k = np.arange(4)
    a = SequenceTable(
        nonneg_orthant(1), Box((0,), (3,)), np.stack([0.5**k, 0.25 * 0.5**k], -1), "vector", 2
    )
    A = np.array([[0.3, 0.1], [0.0, 0.2]])
    M = MixedAxesSymbol(
        2, 2, (MixedAxesTerm(cesaro(0.0, 0), (1,), np.eye(2)), MixedAxesTerm(a, (2,), A)), np.eye(2)
    )
    d2 = SequenceTable.delta(2)
    msol = solve(M, d2, (1.2, 1.2), Box((0, 0), (24, 24)), Box((0, 0), (12, 12)))
    mrep = residual(M, msol.u, d2, Box((0, 0), (8, 8)))
    print(
        f"vector kernel on axis 2: residual {mrep['max_residual']:.3e}, "
        f"ledger {msol.ledger:.3e}"
    )


if __name__ == "__main__":
    main()
