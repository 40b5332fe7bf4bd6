import math
from types import SimpleNamespace

import numpy as np
import pytest

from acfield.ac import ac_energy, ac_hessian_structured, method1, method2, stability_spectrum
from acfield.cauchy_born import (
    cb_cell_field,
    cb_cell_fields,
    cb_forces,
    cb_hessian_structured,
    cb_total_energy,
    cell_state,
)
from acfield.density import (
    BumpProfile,
    _bump_moments,
    _leggauss,
    check_separated,
    gauss_on_interval,
    mu,
    quartic_bump,
    self_moment,
    sextic_bump,
)
from acfield.energy import (
    energy_periodic,
    forces_periodic,
    hessian_periodic_structured,
)
from acfield.field import eval_green_periodic
from acfield.lattice import ChainConfig, first_diff, homogeneous, positions
from oracle_stress import cb_stress_function, rho, stress_periodic

# Frozen reference values from tests/oracle_density.py (brute-force trapezoid,
# 1e6 points for mu, Richardson-extrapolated 2D trapezoid for self_moment).
MU_QUARTIC_M1 = 1.004472043554214
MU_QUARTIC_M2 = 1.017981621651718
MU_QUARTIC_M05 = 1.001116555949270
MU_SEXTIC_M1 = 1.003477158310150
SELF_QUARTIC_M1 = 0.900130121592294
SELF_QUARTIC_M2 = 0.814921384310684
SELF_SEXTIC_M1 = 0.911362874279205
# Large-m mu from oracle_density.mu_mpmath (mpmath, 50 digits), sigma0 = 0.5;
# every m here is past the switch to the closed form (m sigma0/2 >= 8).
MU_LARGE_M = {
    ("quartic", 64.0): 13410.825632766198,
    ("quartic", 128.0): 16431774779.426096,
    ("quartic", 256.0): 1.7015771562278494e+23,
    ("quartic", 1024.0): 6.677738471579286e+104,
    ("quartic", 2860.0): 6.7744526236356185e+302,
    ("sextic", 64.0): 4840.12229174298,
    ("sextic", 128.0): 3268329615.5418344,
    ("sextic", 256.0): 1.7752453440462003e+22,
    ("sextic", 1024.0): 1.804630242321787e+103,
    ("sextic", 2860.0): 6.60454225134043e+300,
}
# Both moments on oracle_density.MOMENT_GRID (mpmath, 50 digits), sigma0 = 0.5:
# m sigma0/2 runs 0.025..64, across the series/closed-form switch at 8.
MOMENTS = {  # (mu, self_moment)
    ("quartic", 0.1): (1.0000446436321997, 0.9892661713848744),
    ("quartic", 1.0): (1.004472043554215, 0.9001301215924918),
    ("quartic", 4.0): (1.0734430519421174, 0.678605984684607),
    ("quartic", 16.0): (2.7950629791976973, 0.31087689725651246),
    ("quartic", 31.0): (24.79443752840807, 0.17623977545500516),
    ("quartic", 32.0): (29.338339900748103, 0.17116420413152902),
    ("quartic", 48.0): (544.5174408753209, 0.11671139776718606),
    ("quartic", 64.0): (13410.825632766198, 0.08827568480260847),
    ("quartic", 256.0): (1.7015771562278494e+23, 0.022305120142485164),
    ("sextic", 0.1): (1.0000347227154396, 0.9905507671849426),
    ("sextic", 1.0): (1.00347715831015, 0.91136287427941),
    ("sextic", 4.0): (1.0568345050273353, 0.708229729863574),
    ("sextic", 16.0): (2.288159582056317, 0.34383948553310817),
    ("sextic", 31.0): (14.978012827778954, 0.19882307262503238),
    ("sextic", 32.0): (17.38766991340701, 0.19322003366471724),
    ("sextic", 48.0): (245.38032578016006, 0.1325421479727273),
    ("sextic", 64.0): (4840.12229174298, 0.10048987395365756),
    ("sextic", 256.0): (1.7752453440462003e+22, 0.025471127503124583),
}
# oracle_density.gauss_legendre_mpmath (mpmath, 50 digits) on GAUSS_SIZES,
# each value rounded once to the nearest double
GAUSS_LEGENDRE = {  # n: (nodes x >= 0, ascending; their weights)
    1: (
        (0.0,),
        (2.0,)),
    2: (
        (0.5773502691896257,),
        (1.0,)),
    3: (
        (0.0, 0.7745966692414834),
        (0.8888888888888888, 0.5555555555555556)),
    8: (
        (0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363),
        (0.362683783378362, 0.31370664587788727, 0.22238103445337448,
         0.10122853629037626)),
    10: (
        (0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
         0.8650633666889845, 0.9739065285171717),
        (0.29552422471475287, 0.26926671930999635, 0.21908636251598204,
         0.1494513491505806, 0.06667134430868814)),
    24: (
        (0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
         0.4337935076260451, 0.5454214713888396, 0.6480936519369755, 0.7401241915785544,
         0.820001985973903, 0.8864155270044011, 0.9382745520027328, 0.9747285559713095,
         0.9951872199970213),
        (0.12793819534675216, 0.1258374563468283, 0.12167047292780339,
         0.1155056680537256, 0.10744427011596563, 0.09761865210411388,
         0.08619016153195327, 0.0733464814110803, 0.05929858491543678,
         0.04427743881741981, 0.028531388628933663, 0.0123412297999872)),
    40: (
        (0.03877241750605082, 0.11608407067525521, 0.1926975807013711,
         0.2681521850072537, 0.3419940908257585, 0.413779204371605, 0.4830758016861787,
         0.5494671250951282, 0.6125538896679802, 0.6719566846141796, 0.7273182551899271,
         0.7783056514265194, 0.8246122308333117, 0.8659595032122595, 0.9020988069688743,
         0.9328128082786765, 0.9579168192137917, 0.9772599499837743, 0.990726238699457,
         0.9982377097105593),
        (0.0775059479784248, 0.07703981816424797, 0.07611036190062624,
         0.07472316905796826, 0.07288658239580406, 0.07061164739128678,
         0.0679120458152339, 0.06480401345660104, 0.06130624249292894,
         0.05743976909939155, 0.05322784698393682, 0.04869580763507223,
         0.04387090818567327, 0.038782167974472016, 0.033460195282547844,
         0.0279370069800234, 0.02224584919416696, 0.01642105838190789,
         0.010498284531152813, 0.004521277098533191)),
    48: (
        (0.03238017096286936, 0.0970046992094627, 0.1612223560688917,
         0.22476379039468905, 0.28736248735545555, 0.34875588629216075,
         0.4086864819907167, 0.4669029047509584, 0.523160974722233, 0.5772247260839727,
         0.6288673967765136, 0.6778723796326639, 0.7240341309238146, 0.7671590325157404,
         0.8070662040294426, 0.8435882616243935, 0.8765720202742479, 0.9058791367155696,
         0.9313866907065543, 0.9529877031604309, 0.9705915925462473, 0.9841245837228269,
         0.9935301722663508, 0.9987710072524261),
        (0.06473769681268392, 0.06446616443595009, 0.06392423858464819,
         0.06311419228625402, 0.062039423159892665, 0.06070443916589388,
         0.059114839698395635, 0.057277292100403214, 0.055199503699984165,
         0.05289018948519367, 0.05035903555385447, 0.04761665849249048,
         0.04467456085669428, 0.04154508294346475, 0.03824135106583071,
         0.03477722256477044, 0.03116722783279809, 0.027426509708356948,
         0.02357076083932438, 0.01961616045735553, 0.015579315722943849,
         0.01147723457923454, 0.0073275539012762625, 0.0031533460523058385)),
}
PROFILES = {"quartic": quartic_bump(0.5), "sextic": sextic_bump(0.5)}


def test_profile_normalization():
    for prof in (quartic_bump(0.5), sextic_bump(0.5), quartic_bump(0.8)):
        x, w = gauss_on_interval(-prof.half_width, prof.half_width, 24)
        assert np.sum(w * prof.delta1(x)) == pytest.approx(1.0, rel=1e-14)


def test_profile_values():
    prof = quartic_bump(0.5)
    assert prof.delta1(0.0) == pytest.approx(15.0 / 4.0)  # C = 15/(8*0.5) = 3.75
    assert prof.delta1(0.25) == 0.0
    assert prof.delta1(0.3) == 0.0
    # even function, gradient odd
    xs = np.linspace(-0.3, 0.3, 41)
    assert np.allclose(prof.delta1(xs), prof.delta1(-xs))
    assert np.allclose(prof.grad_delta1(xs), -prof.grad_delta1(-xs))


def test_profile_gradient_fd():
    for prof in (quartic_bump(0.5), sextic_bump(0.5)):
        xs = np.linspace(-0.24, 0.24, 17)
        h = 1e-6
        fd = (prof.delta1(xs + h) - prof.delta1(xs - h)) / (2 * h)
        assert np.allclose(prof.grad_delta1(xs), fd, atol=2e-6)


def test_mu_against_frozen_oracle():
    q = quartic_bump(0.5)
    assert mu(q, 1.0) == pytest.approx(MU_QUARTIC_M1, rel=1e-12)
    assert mu(q, 2.0) == pytest.approx(MU_QUARTIC_M2, rel=1e-12)
    assert mu(q, 0.5) == pytest.approx(MU_QUARTIC_M05, rel=1e-12)
    assert mu(sextic_bump(0.5), 1.0) == pytest.approx(MU_SEXTIC_M1, rel=1e-12)


@pytest.mark.parametrize("name, m", sorted(MU_LARGE_M))
def test_mu_at_large_m_against_frozen_oracle(name, m):
    # GL-24 missed by 5.1e-11 (quartic) and 5.2e-10 (sextic) at m = 128 and
    # by 2.7e-5 and 1.1e-4 at m = 256; at m = 2860, e^{m sigma0/2} alone
    # overflows although mu does not
    prof = {"quartic": quartic_bump(0.5), "sextic": sextic_bump(0.5)}[name]
    assert mu(prof, m) == pytest.approx(MU_LARGE_M[name, m], rel=5e-15, abs=0.0)
    assert mu(prof, -m) == mu(prof, m)


@pytest.mark.parametrize("m, match", [(3000.0, "exceeds the largest double"),
                                      (1e4, "exceeds the largest double"),
                                      (np.inf, "finite m"), (np.nan, "finite m")])
def test_mu_raises_where_it_has_no_finite_value(m, match):
    with pytest.raises(ValueError, match=match):
        mu(quartic_bump(0.5), m)


@pytest.mark.parametrize("n", sorted(GAUSS_LEGENDRE))
def test_gauss_rules_are_the_nearest_doubles(n):
    # the bound, equal doubles, was fixed before measuring; numpy's leggauss
    # weights missed mpmath by up to 7.9e-15 relative at n = 8, 1.2e-13 at
    # n = 24 and 1.3e-12 at n = 48
    nodes, weights = (np.array(v) for v in GAUSS_LEGENDRE[n])
    x, w = _leggauss(n)
    half = n // 2
    assert x.size == w.size == n
    assert np.array_equal(x[half:], nodes) and np.array_equal(w[half:], weights)
    assert np.array_equal(x[:n - half], -nodes[::-1])
    assert np.array_equal(w[:n - half], weights[::-1])


@pytest.mark.parametrize("n", [0, -3, 2.5, 8.0, "8", None])
def test_gauss_rule_needs_a_positive_integer_size(n):
    with pytest.raises(ValueError, match="Gauss rule"):
        gauss_on_interval(0.0, 1.0, n)


# at sigma0 = 0.5, mu(1483) = 1.51e154 is finite but its square is not; the
# Hessians' prefactors (mu^2 m^2 / eps^2 and m mu^2 eps / 2) exceed the
# largest double earlier, from m = 1445 and 1470 on homogeneous(10, 1.1)
MU_SQUARED_ENTRY_POINTS = {
    "energy_periodic": energy_periodic,
    "forces_periodic": forces_periodic,
    "hessian_periodic_structured":
        lambda cfg, p, m: hessian_periodic_structured(cfg, p, m).dense(),
    "cb_hessian_structured": lambda cfg, p, m: cb_hessian_structured(cfg, p, m).dense(),
    "ac_hessian_structured":
        lambda cfg, p, m: ac_hessian_structured(cfg, method1(4), p, m).dense(),
    "cb_total_energy": cb_total_energy,
    "ac_energy": lambda cfg, p, m: ac_energy(cfg, method1(4), p, m),
    "stability_spectrum": lambda cfg, p, m: stability_spectrum(cfg, method2(4), p, m),
}
CURVATURE_ENTRY_POINTS = ("ac_hessian_structured", "cb_hessian_structured",
                          "hessian_periodic_structured", "stability_spectrum")


@pytest.mark.parametrize("entry, m", [(e, m) for m in (1483.0, 1480.0)
                                      for e in sorted(MU_SQUARED_ENTRY_POINTS)]
                         + [(e, 1420.0) for e in CURVATURE_ENTRY_POINTS])
def test_mu_squared_overflow_raises_naming_m(entry, m):
    # each raised a bare OverflowError from mu**2 at m = 1483; at m = 1480
    # the Hessian routes returned inf or NaN entries and stability_spectrum
    # raised LinAlgError
    call = MU_SQUARED_ENTRY_POINTS[entry]
    cfg = homogeneous(10, 1.1)
    if m == 1483.0:
        with pytest.raises(ValueError, match=r"mu\(m\)\^2 at m = 1483\.0 exceeds"):
            call(cfg, quartic_bump(0.5), m)
    elif m == 1480.0 and entry in CURVATURE_ENTRY_POINTS:
        with pytest.raises(ValueError, match=r"Hessian prefactor at m = 1480\.0 exceeds"):
            call(cfg, quartic_bump(0.5), m)
    else:
        assert np.all(np.isfinite(call(cfg, quartic_bump(0.5), m)))


@pytest.mark.parametrize("name, m", sorted(MOMENTS))
def test_moments_against_frozen_mpmath_oracle(name, m):
    # the bound, 1e-15 relative, was fixed before measuring; the GL-24 mu
    # missed it by up to 4.1e-15 and the 48 x 2 x 32-node self_moment loop
    # by up to 1.1e-14 on this grid
    mu_ref, self_ref = MOMENTS[name, m]
    assert mu(PROFILES[name], m) == pytest.approx(mu_ref, rel=1e-15, abs=0.0)
    assert self_moment(PROFILES[name], m) == pytest.approx(self_ref, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_moments_are_exactly_the_unit_mass_at_m_zero(name):
    # at m = 0 both moments are (integral delta1)^n = 1, formed in exact
    # integers and rounded once (GL-24 gave 0.9999999999999992 for the
    # quartic, 0.9999999999999993 for the sextic, and the self_moment loop
    # 0.9999999999999954 for both)
    assert mu(PROFILES[name], 0.0) == 1.0
    assert self_moment(PROFILES[name], 0.0) == 1.0


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("m", [1e50, 1e300])
def test_self_moment_at_huge_m_meets_its_asymptote(name, m):
    # 2 integral P^2 / (kappa I_0^2), P = (1 - t^2)^p, kappa = m sigma0/2,
    # with a relative correction O(kappa^-2) below any double; a fixed
    # 2^-200 unit keeps fewer than 53 bits of it past kappa ~ 1e44
    p, kappa = PROFILES[name].power, m * PROFILES[name].half_width
    i0 = 2 ** (2 * p + 1) * math.factorial(p) ** 2 / math.factorial(2 * p + 1)
    i2 = 2 ** (4 * p + 1) * math.factorial(2 * p) ** 2 / math.factorial(4 * p + 1)
    expected = 2 * i2 / (kappa * i0**2)
    assert self_moment(PROFILES[name], m) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("m", [np.inf, -np.inf, np.nan, -1.0, -1e-300])
def test_self_moment_raises_off_its_domain(m):
    # a NaN m gave NaN and an infinite one 0.0, silently
    with pytest.raises(ValueError, match="finite m >= 0"):
        self_moment(quartic_bump(0.5), m)


def test_mu_even_and_at_least_one():
    q = quartic_bump(0.5)
    assert mu(q, -1.0) == mu(q, 1.0)
    for m in (0.1, 0.7, 3.0):
        assert mu(q, m) >= 1.0


def test_self_moment_against_frozen_oracle():
    q = quartic_bump(0.5)
    assert self_moment(q, 1.0) == pytest.approx(SELF_QUARTIC_M1, rel=1e-10)
    assert self_moment(q, 2.0) == pytest.approx(SELF_QUARTIC_M2, rel=1e-10)
    assert self_moment(sextic_bump(0.5), 1.0) == pytest.approx(SELF_SEXTIC_M1, rel=1e-10)


def test_rho_total_charge():
    # integral of rho over one period = eps*(2N+1) = 2 regardless of displacement
    rng = np.random.default_rng(2)
    u = rng.normal(0, 0.02, 13)
    u -= u.mean()
    cfg = ChainConfig(6, 1.1, u)
    prof = quartic_bump(0.5)
    n = 200_001
    x = np.linspace(0.0, cfg.L, n)
    vals = rho(cfg, prof, x)
    total = np.trapezoid(vals, x)
    assert total == pytest.approx(2.0, rel=1e-7)


def test_rho_peak_value_and_periodicity():
    cfg = homogeneous(5, 1.2)
    prof = quartic_bump(0.5)
    y = positions(cfg)
    # at an atom position rho = eps*delta_eps(0) = delta1(0)
    assert rho(cfg, prof, float(y[3])) == pytest.approx(prof.delta1(0.0), rel=1e-12)
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(rho(cfg, prof, xs), rho(cfg, prof, xs + cfg.L), rtol=1e-12)


def test_rho_compact_support():
    cfg = homogeneous(5, 1.2)
    prof = quartic_bump(0.5)
    y = positions(cfg)
    mid = 0.5 * (y[3] + y[4])  # midpoint between atoms, outside every bump
    assert rho(cfg, prof, mid) == 0.0


def test_rho_returns_an_array_for_any_array_input():
    # a float only for a scalar x, as the field evaluators do: a one-element
    # array gives a one-element array and an empty one an empty array
    cfg = homogeneous(5, 1.2)
    prof = quartic_bump(0.5)
    y = positions(cfg)
    one = rho(cfg, prof, np.array([y[3]]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == rho(cfg, prof, float(y[3]))
    empty = rho(cfg, prof, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_non_finite_points_raise():
    # the one neighbour search of rho, the kernel fields and the stresses
    # (density._neighbours) rejects NaN and infinite points: rho gave 0.0 at
    # NaN, the periodic field NaN at inf and the stress NaN at NaN; so do
    # the comparison fields (field._cell_fields), which gave NaN
    cfg = homogeneous(20, 1.1)
    prof = quartic_bump(0.5)
    routes = [lambda x: rho(cfg, prof, x),
              lambda x: eval_green_periodic(cfg, prof, 1.0, x),
              stress_periodic(cfg, prof, 1.0),
              cb_stress_function(cell_state(cfg, prof, 1.0, 3)),
              lambda x: cb_cell_field(cell_state(cfg, prof, 1.0, 3), x),
              lambda x: cb_cell_fields(cfg, prof, 1.0, np.tile(x, (cfg.n_atoms, 1)))]
    for bad in (np.nan, np.inf, -np.inf):
        for route in routes:
            for x in (bad, np.array([0.0, bad])):
                with pytest.raises(ValueError, match="not finite"):
                    route(x)


def test_nonoverlap_pair_identity():
    # For separated bumps the interaction integral collapses to
    # mu^2 exp(-(m/eps) |y_j - y_i|).  Oracle: 2D Gauss-Legendre.
    m = 1.0
    prof = quartic_bump(0.5)
    cfg = homogeneous(4, 1.1)
    eps = cfg.eps
    y = positions(cfg)
    yi, yj = float(y[4]), float(y[5])
    w = prof.half_width * eps
    xs, ws = gauss_on_interval(yi - w, yi + w, 40)
    zs, wz = gauss_on_interval(yj - w, yj + w, 40)
    di = prof.delta1((xs - yi) / eps) / eps
    dj = prof.delta1((zs - yj) / eps) / eps
    ker = np.exp(-(m / eps) * np.abs(zs[:, None] - xs[None, :]))
    quad = float(np.einsum("i,ij,j->", wz * dj, ker, ws * di))
    muv = mu(prof, m)
    closed = muv**2 * np.exp(-(m / eps) * (yj - yi))
    assert quad == pytest.approx(closed, rel=1e-8)


def test_separation_check():
    prof = quartic_bump(0.5)
    # strain 1.1 > sigma0: fine
    check_separated(homogeneous(4, 1.1), prof)
    # strain 0.4 < sigma0 = 0.5: overlapping bumps must raise
    with pytest.raises(ValueError, match="overlap"):
        check_separated(homogeneous(4, 0.4), prof)
    # a NaN strain is never shown separated, as a NaN row never passes a check
    with pytest.raises(ValueError, match="overlap"):
        check_separated(SimpleNamespace(_s=np.array([1.1, math.nan, 1.1])), prof)


# every chain entry point whose closed forms assume separated bumps
CHAIN_ENTRY_POINTS = {
    "check_separated": lambda cfg, prof: check_separated(cfg, prof),
    "rho": lambda cfg, prof: rho(cfg, prof, 0.0),
    "eval_green_periodic": lambda cfg, prof: eval_green_periodic(cfg, prof, 1.0, 0.0),
    "energy_periodic": lambda cfg, prof: energy_periodic(cfg, prof, 1.0),
    "forces_periodic": lambda cfg, prof: forces_periodic(cfg, prof, 1.0),
    "hessian_periodic": lambda cfg, prof: hessian_periodic_structured(cfg, prof, 1.0),
    "cb_total_energy": lambda cfg, prof: cb_total_energy(cfg, prof, 1.0),
    "cb_forces": lambda cfg, prof: cb_forces(cfg, prof, 1.0),
    "cb_hessian": lambda cfg, prof: cb_hessian_structured(cfg, prof, 1.0),
}


@pytest.mark.parametrize("entry", CHAIN_ENTRY_POINTS)
def test_separation_is_strict_at_contact(entry):
    # min strain == sigma0 exactly: neighbouring supports touch, which is
    # contact for every chain entry point as for the Cauchy-Born CellState;
    # strain 0.4 < sigma0 = 0.5 overlaps
    call = CHAIN_ENTRY_POINTS[entry]
    cfg = homogeneous(10, 0.7)
    prof = quartic_bump(float(np.min(first_diff(cfg))))
    with pytest.raises(ValueError, match="touch or overlap"):
        call(cfg, prof)
    with pytest.raises(ValueError, match="touch or overlap"):
        call(homogeneous(10, 0.4), quartic_bump(0.5))
    with pytest.raises(ValueError, match="overlapping"):
        cell_state(cfg, prof, 1.0, 0)
    call(homogeneous(10, 0.7), quartic_bump(0.69))


# the models' energies and forces, each of which reads the stretch
STRETCH_READERS = {
    "energy_periodic": lambda cfg, prof: energy_periodic(cfg, prof, 1.0),
    "forces_periodic": lambda cfg, prof: forces_periodic(cfg, prof, 1.0),
    "cb_total_energy": lambda cfg, prof: cb_total_energy(cfg, prof, 1.0),
    "ac_energy": lambda cfg, prof: ac_energy(cfg, method1(9), prof, 1.0),
}


@pytest.mark.parametrize("stretch", [math.inf, math.nan])
@pytest.mark.parametrize("entry", STRETCH_READERS)
def test_non_finite_stretch_raises(entry, stretch):
    call = STRETCH_READERS[entry]
    assert np.all(np.isfinite(call(homogeneous(20, 1.1), quartic_bump(0.5))))
    with pytest.raises(ValueError, match="F must be finite and positive"):
        call(homogeneous(20, stretch), quartic_bump(0.5))


@pytest.mark.parametrize("sigma0, power, field", [
    (0.5, 2.0, "power"),
    (0.5, 2.5, "power"),
    (0.5, 1, "power"),
    (math.inf, 2, "sigma0"),
    (math.nan, 2, "sigma0"),
    (0.0, 2, "sigma0"),
])
def test_bump_profile_validates_at_construction(sigma0, power, field):
    with pytest.raises(ValueError, match=field):
        BumpProfile(sigma0, power)


@pytest.mark.parametrize("int_first", [True, False])
def test_bump_profile_result_does_not_depend_on_call_order(int_first):
    # equal profiles are one key of the moments' cache, so a float power
    # once answered from the integer profile's entry; it is refused at
    # construction, whatever ran before
    _bump_moments.cache_clear()
    cfg = homogeneous(4, 1.1)
    for power in ((2, 2.0) if int_first else (2.0, 2)):
        if isinstance(power, float):
            with pytest.raises(ValueError, match="power must be an integer"):
                energy_periodic(cfg, BumpProfile(0.5, power), 1.0)
        else:
            assert energy_periodic(cfg, BumpProfile(0.5, power), 1.0) == \
                energy_periodic(cfg, quartic_bump(0.5), 1.0)


def test_sextic_is_c2_at_support_edge():
    # near the support edge the sextic gradient vanishes ~h^2 (C2), the
    # quartic only ~h (C1): check the one-sided scaling exponents
    e = 0.25
    h = 1e-4
    gs = [abs(sextic_bump(0.5).grad_delta1(e - s)) for s in (h, 2 * h)]
    assert gs[1] / gs[0] == pytest.approx(4.0, rel=1e-3)
    gq = [abs(quartic_bump(0.5).grad_delta1(e - s)) for s in (h, 2 * h)]
    assert gq[1] / gq[0] == pytest.approx(2.0, rel=1e-3)
