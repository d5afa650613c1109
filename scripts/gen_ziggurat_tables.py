#!/usr/bin/env python3
"""Prints the Ziggurat layer tables of runtime::gaussian_source as C++.

    python3 scripts/gen_ziggurat_tables.py

The 128-layer layout is Doornik's ZIGNOR (2005): layer edges x[i] of the
unnormalised density f(x) = exp(-x^2 / 2) such that every layer (the base
one including the tail beyond R) has area V. The edges are computed in
60-digit decimal arithmetic and printed as correctly rounded hex-float
literals, so the tables, and with them every fast-path draw, are the same
on every platform. Paste the output into src/mmtag/runtime/gaussian_source.cpp.
"""

from decimal import Decimal, getcontext

getcontext().prec = 60

LAYERS = 128
R = Decimal("3.442619855899")        # start of the tail
V = Decimal("9.91256303526217e-3")  # area of each layer


def density(x):
    return (-(x * x) / 2).exp()


def main():
    x = [Decimal(0)] * (LAYERS + 1)
    x[0] = V / density(R)
    x[1] = R
    for i in range(2, LAYERS):
        x[i] = (-2 * (V / x[i - 1] + density(x[i - 1])).ln()).sqrt()
    f = [density(edge) for edge in x]

    def emit(name, values, comment):
        print(f"// {comment}")
        print(f"const std::array<double, {LAYERS + 1}> {name}{{")
        for start in range(0, len(values), 3):
            row = ", ".join(float(v).hex() for v in values[start:start + 3])
            print(f"    {row},")
        print("};")

    emit("ziggurat_x", x, "x[i]: right edge of layer i; x[128] = 0.")
    print()
    emit("ziggurat_f", f, "f[i] = exp(-x[i]^2 / 2).")


if __name__ == "__main__":
    main()
