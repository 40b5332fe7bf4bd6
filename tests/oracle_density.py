"""Brute-force reference values for the bump-profile moments.

Run directly to regenerate the frozen constants used in test_density.py /
test_energy.py.  Everything here is deliberately independent of the package:
plain trapezoid rules at high resolution, so the numbers can be trusted to
~1e-12 relative without sharing any code with the implementation under test.
The large-m values of mu, which need more than that, and both moments on
MOMENT_GRID, which the tests hold to 1e-15 relative, are integrated by mpmath
at 50 digits (`mu_mpmath`, `self_moment_mpmath`).  So are the Gauss-Legendre
rules (`gauss_legendre_mpmath`), each of whose nodes and weights the tests hold
to the nearest double.  mpmath is needed only to regenerate these.
"""

import textwrap

import numpy as np


def delta1_quartic(x, sigma0=0.5):
    c = 15.0 / (8.0 * sigma0)
    t = 2.0 * x / sigma0
    return np.where(np.abs(t) < 1.0, c * (1.0 - t**2) ** 2, 0.0)


def delta1_sextic(x, sigma0=0.5):
    c = 35.0 / (16.0 * sigma0)
    t = 2.0 * x / sigma0
    return np.where(np.abs(t) < 1.0, c * (1.0 - t**2) ** 3, 0.0)


def mu_trapz(delta1, m, sigma0=0.5, n=1_000_001):
    x = np.linspace(-sigma0 / 2, sigma0 / 2, n)
    return np.trapezoid(delta1(x, sigma0) * np.exp(m * x), x)


def self_moment_trapz(delta1, m, sigma0=0.5, n=4001):
    # 2D trapezoid of delta1(s) delta1(t) exp(-m|s-t|); the kernel kink sits on
    # grid diagonals, so plain trapezoid converges ~h^2 -- n=4001 gives ~1e-9,
    # Richardson over n and 2n-1 sharpens it to ~1e-12.
    def raw(nn):
        s = np.linspace(-sigma0 / 2, sigma0 / 2, nn)
        ds = s[1] - s[0]
        ker = np.exp(-m * np.abs(s[:, None] - s[None, :]))
        f = delta1(s, sigma0)[:, None] * delta1(s, sigma0)[None, :] * ker
        w = np.ones(nn)
        w[0] = w[-1] = 0.5
        return float(np.einsum("i,ij,j->", w, f, w) * ds * ds)

    a, b = raw(n), raw(2 * n - 1)
    return b + (b - a) / 3.0


def mu_mpmath(power, m, sigma0=0.5):
    """mu(m) = C_p (sigma0/2) integral_{-1}^{1} (1 - s^2)^p e^{m sigma0 s / 2} ds."""
    import mpmath as mp

    mp.mp.dps = 50
    k = mp.mpf(m) * sigma0 / 2
    norm = mp.quad(lambda s: (1 - s * s) ** power, [-1, 1])
    return mp.quad(lambda s: (1 - s * s) ** power * mp.exp(k * s), [-1, 0, 1]) / norm


def self_moment_mpmath(power, m, sigma0=0.5):
    """self_moment(m) = integral P(t) J(t) dt / (integral P)^2 with P(s) = (1 - s^2)^p
    and J(t) = integral_{-1}^{1} P(s) e^{-k|t - s|} ds, k = m sigma0/2: the
    inner integral split at the kernel kink s = t, the outer one over the
    smooth J."""
    import mpmath as mp

    mp.mp.dps = 50
    k = mp.mpf(m) * sigma0 / 2
    norm = mp.quad(lambda s: (1 - s * s) ** power, [-1, 1])

    def inner(t):
        return mp.quad(lambda s: (1 - s * s) ** power * mp.exp(-k * abs(t - s)), [-1, t, 1])

    return mp.quad(lambda t: (1 - t * t) ** power * inner(t), [-1, 0, 1]) / norm**2


def gauss_legendre_mpmath(n):
    """The n-point Gauss-Legendre rule's nodes x >= 0, ascending, and their
    weights 2 / ((1 - x^2) P_n'(x)^2), at 50 digits: Newton on mpmath's
    P_n from the cosine asymptotic start cos(pi (k - 1/4) / (n + 1/2)), with
    P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1); for odd n the middle node is
    0 exactly."""
    import mpmath as mp

    mp.mp.dps = 50

    def slope(x):
        return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)

    nodes = [mp.mpf(0)] if n % 2 else []
    for k in range(n // 2, 0, -1):
        x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            step = mp.legendre(n, x) / slope(x)
            x -= step
            if abs(step) < mp.mpf(10) ** -45:
                break
        nodes.append(x)
    return nodes, [2 / ((1 - x * x) * slope(x) ** 2) for x in nodes]


# the rules the package builds: the FEM load (2p + 4 = 8, 10), the stress
# route (24), the cb-closed-form check (48) and the tests (40)
GAUSS_SIZES = (1, 2, 3, 8, 10, 24, 40, 48)

# m at sigma0 = 0.5: m sigma0/2 runs 0.025..64, across the in-bump kernel's
# switch from series to closed form at 8 (m = 31, 32)
MOMENT_GRID = (0.1, 1.0, 4.0, 16.0, 31.0, 32.0, 48.0, 64.0, 256.0)


if __name__ == "__main__":
    for name, d1 in [("quartic", delta1_quartic), ("sextic", delta1_sextic)]:
        print(f"profile={name} sigma0=0.5")
        print(f"  norm   = {np.trapezoid(d1(np.linspace(-0.25, 0.25, 1_000_001)), np.linspace(-0.25, 0.25, 1_000_001)):.15f}")
        for m in (1.0, 2.0, 0.5):
            print(f"  mu(m={m})        = {mu_trapz(d1, m):.15f}")
        for m in (1.0, 2.0):
            print(f"  self_moment(m={m}) = {self_moment_trapz(d1, m):.15f}")
        for m in (64.0, 128.0, 256.0, 1024.0, 2860.0):
            print(f"  mu(m={m}) [mpmath] = {float(mu_mpmath(2 if name == 'quartic' else 3, m))!r}")
    def block(values):  # a tuple's body, wrapped under its opening parenthesis
        body = ", ".join(repr(float(v)) for v in values) + ("," * (len(values) == 1))
        return "\n         ".join(textwrap.wrap(body, 79))

    print("GAUSS_LEGENDRE = {  # n: (nodes x >= 0, ascending; their weights)")
    for n in GAUSS_SIZES:
        nodes, weights = gauss_legendre_mpmath(n)
        print(f"    {n}: (\n        ({block(nodes)}),\n        ({block(weights)})),")
    print("}")
    print("MOMENTS = {  # (mu, self_moment)")
    for name, power in (("quartic", 2), ("sextic", 3)):
        for m in MOMENT_GRID:
            pair = float(mu_mpmath(power, m)), float(self_moment_mpmath(power, m))
            print(f"    ({name!r}, {m!r}): ({pair[0]!r}, {pair[1]!r}),", flush=True)
    print("}")
