"""Three independent derivations of the chain scalars (u, v).

For the lossless N-NOPA chain the static transfer collapses to two scalars
u and v.  This script computes them from the rotation form of
``closed_form`` and shows two oracles -- cofactor determinants of the
loop-elimination matrix (checked against the scalar recurrences) and
brute-force matrix inversion -- agreeing with it while N grows.  The sign of
u*v picks the optimal output phases, and the optimal squeezing per
quadrature pair is 2 (|u| - |v|)^2.
"""

from nopanet import (
    PassiveNetwork,
    closed_form,
    determinant_path,
    extract_uv,
    static_coefficients,
    static_transfer,
)


def main():
    x, y = 0.078, 1.0
    coeffs = static_coefficients(x, y)
    print(f"x={x}, y={y}  (h1={coeffs.h1:.6f}, h2={coeffs.h2:.6f})")
    print()
    header = f"{'N':>3} {'u (rotation)':>18} {'v (rotation)':>18} {'det gap':>10} {'matrix gap':>10} {'V_opt':>12}"
    print(header)
    for n in range(2, 11):
        r = closed_form(coeffs, n)
        u_d, v_d = determinant_path(coeffs, n)
        u_m, v_m = extract_uv(static_transfer(coeffs, PassiveNetwork.cfb(n)))
        det_gap = max(abs(r.u - u_d), abs(r.v - v_d))
        mat_gap = max(abs(r.u - u_m), abs(r.v - v_m))
        print(
            f"{n:3d} {r.u:18.12f} {r.v:18.12f} {det_gap:10.1e} {mat_gap:10.1e} "
            f"{r.v_opt:12.6f}"
        )


if __name__ == "__main__":
    main()
