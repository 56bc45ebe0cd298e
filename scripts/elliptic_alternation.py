#!/usr/bin/env python3
"""Print the tower matrices H_n for the trace-zero supersingular Frobenius.

Even levels are diagonal with alternating Phi-products, odd levels are
anti-diagonal; the script factors each entry into Phi's for readability.
"""

import argparse

from iwkit import FrobeniusData, divide_distinguished, h_n, phi


def factor_into_phis(entry, prime, n_max):
    if entry.is_zero():
        return "0"
    sign = ""
    f = entry
    parts = []
    for k in range(n_max, 0, -1):
        pk = phi(k, prime=prime, precision=entry.precision,
                 degree_cap=entry.degree_cap)
        while True:
            quot, rem = divide_distinguished(f, pk)
            if rem.is_zero() and not quot.is_zero():
                parts.append(f"Phi_{k}")
                f = quot
            else:
                break
    const = f.coeffs[0]
    if const == f.q - 1:
        sign = "-"
    elif const != 1 or f.degree() not in (0, None):
        sign = f"[{f}] * "
    return sign + (" ".join(reversed(parts)) or "1")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--prime", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=4)
    args = ap.parse_args()

    frob = FrobeniusData.elliptic(args.prime, 24)
    for n in range(args.n_max + 1):
        h = h_n(frob, n, degree_cap=args.prime**max(args.n_max, 1) + 8)
        print(f"H_{n}:")
        for i in range(2):
            cells = [factor_into_phis(h.entry(i, j), args.prime, args.n_max)
                     for j in range(2)]
            print(f"  [ {cells[0]:>16}   {cells[1]:>16} ]")


if __name__ == "__main__":
    main()
