"""Symbolic engine walkthrough: parsing, normal forms, oracle cross-check.

Normal-orders textbook expressions, prints their canonical coefficient
tables, and cross-checks the composed normal forms against direct truncated
operator products.
"""

from deformalg import (
    CaseId,
    expr_to_matrix,
    make_case,
    nf_equal,
    nf_to_matrix,
    normal_order,
    parse_expr,
)
from deformalg.fockrep import scaled_max_residual
from deformalg.symorder import BUILTIN_IDENTITIES, parse_identity


def show_normal_form(text, K, n_max=5):
    nf = normal_order(parse_expr(text), K)
    print(f"  {text!r} normal-orders to offsets {list(nf.support())}")
    for d in nf.support():
        values = [nf.coefficient(d)(n) for n in range(max(0, -d), n_max)]
        pretty = ", ".join(f"{v.real:.6g}{'+' if v.imag >= 0 else ''}{v.imag:.6g}i" for v in values)
        print(f"    d = {d:+d}: c_d(n) = [{pretty}, ...]")


def main():
    K = make_case(CaseId.ARIK_COON, q=0.5)
    print(f"case: geometric deformation q = {K.q}")
    for text in ("a*ad", "ad^2*a^2", "comm(N,ad)", "comm(x,p)", "H"):
        show_normal_form(text, K)

    print("\nidentity decisions (normal forms compared on an integer grid):")
    pairs = [
        ("comm(x,p)", "(i/2)*(K(N+1)-K(N))"),
        ("H", "(1/2)*(K(N)+K(N+1))"),
        ("a*ad - q*ad*a", "1"),  # the defining relation of this case
        ("a*ad", "ad*a"),  # false: ordering matters
    ]
    for left, right in pairs:
        report = nf_equal(
            normal_order(parse_expr(left), K), normal_order(parse_expr(right), K)
        )
        print(f"  {left!r} == {right!r}: {report.passed} (deviation {report.max_abs_residual:.3e})")

    print("\nbuiltin identities against the matrix oracle (D = 16, window margin 3):")
    for name, identity in BUILTIN_IDENTITIES.items():
        lhs, rhs = parse_identity(identity)
        residual = scaled_max_residual(
            expr_to_matrix(lhs, K, 16), expr_to_matrix(rhs, K, 16), margin=3
        )
        print(f"  {name}: matrix residual {residual:.3e}")

    print("\nnormal-ordered realizations are exact where truncation is not:")
    D = 10
    M = nf_to_matrix(normal_order(parse_expr("x*p - p*x"), K), D)
    direct = expr_to_matrix(parse_expr("x*p - p*x"), K, D)
    # the corner entry (D-1, D-1) is the last entry of the diagonal, offset 0
    print(f"  corner entry, realization: {M.diagonals[0][-1]:.6f}")
    print(f"  corner entry, truncated commutator: {direct.diagonals[0][-1]:.6f}")


if __name__ == "__main__":
    main()
