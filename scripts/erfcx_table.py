#!/usr/bin/env python3
"""Generate the scaled complementary error function table in effx.numerics.

effx evaluates erfcx(x) = exp(x**2) * erfc(x) for x >= 0 as h(t) / (x + K),
where t = (x - K) / (x + K) maps [0, inf] onto [-1, 1] and
h(t) = (x + K) * erfcx(x) is smooth on [-1, 1], with h(-1) = K and
h(1) = 1 / sqrt(pi). This is the change of variable of Schonfelder (1978),
"Chebyshev expansions for the error and related functions", Math. Comp. 32.

[-1, 1] is cut into PIECES equal pieces. On each, h is fitted in mpmath by
a Chebyshev interpolant of degree DEGREE and written as float64 monomial
coefficients in the piece's local variable w = (t + 1) * PIECES / 2 - piece
in [0, 1]. numerics.py holds the table transposed: row k has the
coefficient of w**(DEGREE - k) for every piece, so that each Horner step
gathers from one contiguous row.

The shape sets the cost of every Gaussian tail in effx: each degree is one
Horner step over the whole array. With K = 2.5, 32 pieces of degree 6 keep
the relative error near 1e-15 on [0, inf]; K = 4 needs degree 8 (16 pieces)
for the same, and degree 6 at K = 4 gives 1e-14.

Usage: python scripts/erfcx_table.py
    prints the table as the Python literal that numerics.py holds
"""

import mpmath

K = 2.5
PIECES = 32
DEGREE = 6
DIGITS = 40


def _h(t):
    if t == 1:
        return 1 / mpmath.sqrt(mpmath.pi)
    x = mpmath.mpf(K) * (1 + t) / (1 - t)
    return (x + K) * mpmath.erfc(x) * mpmath.exp(x * x)


def table() -> list[list[float]]:
    """DEGREE + 1 rows, highest power first, of PIECES coefficients each."""
    rows = []
    with mpmath.workdps(DIGITS):
        width = mpmath.mpf(2) / PIECES
        for piece in range(PIECES):
            start = -1 + piece * width
            poly = mpmath.chebyfit(lambda w: _h(start + width * w), [0, 1], DEGREE + 1)
            rows.append([float(c) for c in poly])
    return [list(power) for power in zip(*rows)]


def main():
    print(f"# {PIECES} pieces x degree {DEGREE}; generated by scripts/erfcx_table.py")
    print(f"_ERFCX_K = {K!r}")
    print("_ERFCX_POLY = np.array(")
    print("    [")
    for row in table():
        print("        [")
        for i in range(0, len(row), 3):
            print("            " + " ".join(f"{c!r}," for c in row[i : i + 3]))
        print("        ],")
    print("    ]")
    print(")")


if __name__ == "__main__":
    main()
