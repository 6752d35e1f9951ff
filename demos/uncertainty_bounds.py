"""Uncertainty bounds, the quadratic diagnostic, and the spectrum inversion.

Demonstrates the Robertson bound on number and random states, the
diagnostic that real states violate, the case-specific bounds, the
Planck-scale rescaling, and Hamiltonian-to-level round trips.
"""

from deformalg import (
    CaseId,
    build_rep,
    hamiltonian_eigenvalue,
    invert_number,
    kempf_rescale,
    make_case,
    number_state,
    quadratures,
    random_state,
    truncation_safe,
    uncertainty_product,
    uncertainty_report,
)


def main():
    D = 24
    print("classical case: the quadratic diagnostic is NOT a lower bound")
    K = make_case(CaseId.CLASSICAL)
    rep = build_rep(K, D)
    quads = quadratures(rep)
    print(f"  {'n':>2} {'product':>10} {'robertson':>10} {'diagnostic':>11}  violated")
    for n in range(4):
        r = uncertainty_report(number_state(D, n), rep, quads)
        print(
            f"  {n:>2} {r.product:>10.6f} {r.robertson_bound:>10.6f}"
            f" {r.square_sum_bound:>11.6f}  {r.square_sum_violated}"
        )

    print("\ngeometric case q = 0.5: case bound q^n/8 on number states")
    q = 0.5
    K = make_case(CaseId.ARIK_COON, q=q)
    rep = build_rep(K, D)
    quads = quadratures(rep)
    print(f"  {'n':>2} {'product':>10} {'case bound':>11} {'margin':>10}")
    for n in range(5):
        r = uncertainty_report(number_state(D, n), rep, quads)
        print(f"  {n:>2} {r.product:>10.6f} {r.case_bound:>11.6f} {r.margin_case:>10.6f}")

    print("\nRobertson inequality on truncation-safe random states:")
    worst = min(
        uncertainty_product(truncation_safe(random_state(D, 100 + k), 3), quads).product
        - uncertainty_report(truncation_safe(random_state(D, 100 + k), 3), rep, quads).robertson_bound
        for k in range(50)
    )
    print(f"  min(product - bound) over 50 seeded states: {worst:.3e}")

    print("\nPlanck-scale rescaling x' = sqrt(1+q) x:")
    rescaled = kempf_rescale(quads, q)
    vac = uncertainty_product(number_state(D, 0), rescaled)
    print(f"  vacuum product before: 0.25, after: {vac.product:.6f} (= (1+q)/4)")

    print("\nspectrum inversions (level from Hamiltonian eigenvalue):")
    for n in (0, 3, 7):
        h = hamiltonian_eigenvalue(K, n)
        print(f"  geometric q=0.5: h({n}) = {h:.6f} -> n = {invert_number(K, h):.12f}")
    Kq = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
    for n in (0, 3, 7):
        h = hamiltonian_eigenvalue(Kq, n)
        print(f"  quadratic a=1 b=2: h({n}) = {h:.6f} -> n = {invert_number(Kq, h):.12f}")


if __name__ == "__main__":
    main()
