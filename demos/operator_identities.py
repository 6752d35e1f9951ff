"""Operator-engine walkthrough: build a representation, verify identities.

Shows the truncated ladder operators, stored as bands (offset d holds the
entries M[j+d, j]), the quadratures, and the windowed
verification of every operator identity the algebra satisfies, including
a deliberate negative control.
"""

import numpy as np

from deformalg import (
    Band,
    CaseId,
    build_rep,
    commutator,
    eval_K,
    lie_hamilton_rhs,
    make_case,
    quadratures,
    verify_window,
)


def main():
    q = 0.7
    K = make_case(CaseId.ARIK_COON, q=q)
    D = 32
    rep = build_rep(K, D)
    quads = quadratures(rep)

    print(f"geometric deformation q = {q}, dimension D = {D}")
    print("lowering-operator weights sqrt(K(n)), n = 1..5:",
          np.round(rep.mat_a.diagonals[-1][:5].real, 6))

    levels = np.array([eval_K(K, n) for n in range(D + 1)])
    delta = Band.diagonal(levels[1:] - levels[:-1])
    hdiag = Band.diagonal(0.5 * (levels[:-1] + levels[1:]))
    nn = np.arange(D, dtype=float)
    rhs_x, rhs_p = lie_hamilton_rhs(rep, quads)

    checks = [
        ("a'a = diag K(n)            ", rep.mat_ad @ rep.mat_a, Band.diagonal(levels[:D])),
        ("[a, a'] = K(N+1) - K(N)    ", commutator(rep.mat_a, rep.mat_ad), delta),
        ("H = (K(N) + K(N+1))/2      ", quads.mat_H, hdiag),
        ("[x, p] = (i/2) dK          ", quads.mat_xp, 0.5j * delta),
        ("[x, p] = (i/2) q^N         ", quads.mat_xp,
         0.5j * Band.diagonal(q**nn)),
        ("[x, H] = equation of motion", commutator(quads.mat_x, quads.mat_H), rhs_x),
        ("[p, H] = equation of motion", commutator(quads.mat_p, quads.mat_H), rhs_p),
    ]
    print(f"\n  {'identity':<30} {'residual':>12}  pass")
    for name, lhs, rhs in checks:
        report = verify_window(lhs, rhs, margin=3, tol=1e-10, name=name)
        print(f"  {name:<30} {report.max_abs_residual:>12.3e}  {report.passed}")

    # negative control: feed the checker a wrong spectrum
    wrong = Band.diagonal([0.5 * ((n + 0.1) + (n + 1.1)) for n in range(D)])
    bad = verify_window(quads.mat_H, wrong, name="wrong spectrum control")
    print(f"\n  negative control (spectrum shifted by 0.1): residual "
          f"{bad.max_abs_residual:.3e}, pass = {bad.passed}")


if __name__ == "__main__":
    main()
