"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines;
each criterion is also an ordinary assertion, so plain pytest reports the
same outcomes.  Expected values are closed forms derived by hand from the
conjugate derivatives, or directional properties checked end to end; no
tolerance here is looser than the one stated next to it.
"""

import dataclasses
import json
import zlib

import numpy as np

from entromin import (
    CertificateError,
    Density,
    build_core_certificate,
    build_direction_functions,
    build_qri_certificate,
    build_rule,
    builtin_entropy,
    constant_density,
    dual_gradient,
    dual_hessian,
    dual_value,
    fenchel_young_gap,
    gibbs_overshoot,
    instance_from_density,
    linearly_independent_on,
    monomial_basis,
    piecewise_flat_basis,
    pulse_density,
    reconstruct,
    solve_dual,
    verify_core_certificate,
)
from entromin.certificates import MarginInterval
from entromin.cli import main
from entromin.quadrature import nodes_in

RULE = build_rule((0.0, 1.0), (0.5,))
PULSE = pulse_density(0.5)
RIGHT_PULSE = Density(lambda s: 1.0 - PULSE(s), PULSE.breakpoints)   # 1 on (0.5, 1]
INF = float("inf")


def report(number, ok, detail):
    line = f"[acceptance] criterion {number:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def single_constraint(entropy_name, b=0.5):
    return instance_from_density(
        builtin_entropy(entropy_name), monomial_basis(1), RULE, constant_density(b)
    )


def pulse_instance(entropy_name, basis, rule=RULE):
    return instance_from_density(builtin_entropy(entropy_name), basis, rule, PULSE)


# mu solving (f*)'(mu) = 1/2, worked out from each conjugate derivative
ORACLES = [
    ("l2_norm", 0.5),                               # v = 1/2
    ("boltzmann_shannon", 1.0 - np.log(2.0)),       # e^(v-1) = 1/2
    ("translated_boltzmann_shannon", np.log(0.5)),  # e^v = 1/2
    ("burg", -2.0),                                 # -1/v = 1/2
    ("cosh", np.sinh(0.5)),                         # arcsinh(v) = 1/2
    ("fermi_dirac", 0.0),                           # expit(v) = 1/2
]


def test_criterion_1_closed_form_dual_oracles():
    worst = 0.0
    max_iters = 0
    for name, mu_star in ORACLES:
        solution = solve_dual(single_constraint(name))
        worst = max(worst, abs(float(solution.multipliers[0]) - mu_star))
        max_iters = max(max_iters, solution.iterations)
        if not solution.converged:
            report(1, False, f"{name} did not converge")
    report(1, worst <= 1e-9 and max_iters <= 25,
           f"worst |mu - oracle| = {worst:.2e} (<= 1e-9), max iterations "
           f"{max_iters} (<= 25) over {len(ORACLES)} entropies")


def test_criterion_2_stationarity_survives_refinement():
    fine_rule = build_rule((0.0, 1.0), (0.5,), panels_per_segment=16)
    worst_base = 0.0
    worst_fine = 0.0
    for n in (2, 4, 6):
        inst = pulse_instance("translated_boltzmann_shannon", monomial_basis(n))
        solution = solve_dual(inst)
        assert solution.converged
        worst_base = max(worst_base, solution.residual_inf)
        fine = pulse_instance("translated_boltzmann_shannon", monomial_basis(n), fine_rule)
        refreshed = float(np.max(np.abs(dual_gradient(fine, solution.multipliers))))
        worst_fine = max(worst_fine, refreshed)
    report(2, worst_base <= 1e-8 and worst_fine <= 1e-6,
           f"residual {worst_base:.2e} (<= 1e-8); at doubled resolution "
           f"{worst_fine:.2e} (<= 1e-6) for n in (2, 4, 6)")


BENCHMARKS = [
    ("translated_boltzmann_shannon", lambda n=2: monomial_basis(n), PULSE),
    ("translated_boltzmann_shannon", lambda n=4: monomial_basis(n), PULSE),
    ("translated_boltzmann_shannon", lambda n=6: monomial_basis(n), PULSE),
    ("translated_boltzmann_shannon", lambda: piecewise_flat_basis(2, 0.5), PULSE),
    ("translated_boltzmann_shannon", lambda: piecewise_flat_basis(4, 0.5), PULSE),
    ("translated_boltzmann_shannon", lambda: piecewise_flat_basis(6, 0.5), PULSE),
    ("l2_norm", lambda: monomial_basis(3), PULSE),
    ("fermi_dirac", lambda: monomial_basis(2), constant_density(0.5)),
]


def test_criterion_3_duality_gap_audit():
    worst = 0.0
    cases = 0
    for name, make_basis, rho in BENCHMARKS:
        inst = instance_from_density(builtin_entropy(name), make_basis(), RULE, rho)
        solution = solve_dual(inst)
        assert solution.converged, f"{name} benchmark did not converge"
        primal = reconstruct(inst, solution.multipliers)
        worst = max(worst, abs(primal.duality_gap))
        cases += 1
    for name, _ in ORACLES:
        solution = solve_dual(single_constraint(name))
        assert solution.converged
        primal = reconstruct(single_constraint(name), solution.multipliers)
        worst = max(worst, abs(primal.duality_gap))
        cases += 1
    report(3, worst <= 1e-8, f"worst |gap| = {worst:.2e} (<= 1e-8) over {cases} "
                             f"converged benchmarks")


def _feasible_sampler(name, n, rng):
    if name == "burg":
        # keep the dual field strictly negative: big negative constant term
        def draw():
            phi = rng.uniform(-0.2, 0.2, n)
            phi[0] = rng.uniform(-3.0, -1.5)
            return phi
        return draw
    return lambda: rng.uniform(-0.5, 0.5, n)


def test_criterion_4_derivative_consistency():
    cases = [
        ("translated_boltzmann_shannon", monomial_basis(2), PULSE),
        ("translated_boltzmann_shannon", monomial_basis(4), PULSE),
        ("translated_boltzmann_shannon", piecewise_flat_basis(4, 0.5), PULSE),
        ("l2_norm", monomial_basis(3), PULSE),
        ("fermi_dirac", monomial_basis(2), constant_density(0.5)),
        ("burg", monomial_basis(2), constant_density(0.5)),
        ("cosh", monomial_basis(2), constant_density(0.5)),
    ]
    worst_grad = worst_hess = worst_eig = 0.0
    for name, basis, rho in cases:
        inst = instance_from_density(builtin_entropy(name), basis, RULE, rho)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        draw = _feasible_sampler(name, basis.n, rng)
        for _ in range(20):
            phi = draw()
            grad = dual_gradient(inst, phi)
            hess = dual_hessian(inst, phi)
            worst_eig = max(worst_eig, float(np.linalg.eigvalsh(hess)[-1]))
            fd_grad = np.empty_like(grad)
            fd_hess = np.empty_like(hess)
            for k in range(basis.n):
                h = 1e-6
                e = np.zeros(basis.n)
                e[k] = h
                fd_grad[k] = (dual_value(inst, phi + e) - dual_value(inst, phi - e)) / (2 * h)
                fd_hess[:, k] = (dual_gradient(inst, phi + e)
                                 - dual_gradient(inst, phi - e)) / (2 * h)
            gscale = max(1.0, float(np.max(np.abs(grad))))
            hscale = max(1.0, float(np.max(np.abs(hess))))
            worst_grad = max(worst_grad, float(np.max(np.abs(fd_grad - grad))) / gscale)
            worst_hess = max(worst_hess, float(np.max(np.abs(fd_hess - hess))) / hscale)
    report(4, worst_grad <= 1e-5 and worst_hess <= 1e-4 and worst_eig <= 1e-10,
           f"gradient FD error {worst_grad:.2e} (<= 1e-5), hessian FD error "
           f"{worst_hess:.2e} (<= 1e-4), max eigenvalue {worst_eig:.2e} (<= 1e-10)")


FY_U_BOX = {
    "l2_norm": (-20.0, 20.0),
    "boltzmann_shannon": (0.0, 20.0),
    "translated_boltzmann_shannon": (0.0, 20.0),
    "burg": (1e-6, 20.0),
    "cosh": (-10.0, 10.0),
    "fermi_dirac": (0.0, 1.0),
}
FY_V_BOX = {
    "l2_norm": (-10.0, 10.0),
    "boltzmann_shannon": (-10.0, 10.0),
    "translated_boltzmann_shannon": (-10.0, 10.0),
    "burg": (-10.0, -1e-6),
    "cosh": (-10.0, 10.0),
    "fermi_dirac": (-10.0, 10.0),
}
FY_V_EQ = {name: (-4.0, 4.0) for name in FY_U_BOX}
FY_V_EQ["burg"] = (-4.0, -0.05)


def test_criterion_5_fenchel_young_suite():
    worst_neg = 0.0
    worst_eq = 0.0
    rng = np.random.default_rng(20240501)
    for name in FY_U_BOX:
        spec = builtin_entropy(name)
        ulo, uhi = FY_U_BOX[name]
        vlo, vhi = FY_V_BOX[name]
        u = ulo + (uhi - ulo) * rng.random(10_000)
        v = vlo + (vhi - vlo) * rng.random(10_000)
        gap = fenchel_young_gap(spec, u, v)
        worst_neg = min(worst_neg, float(np.min(gap)))
        elo, ehi = FY_V_EQ[name]
        ve = elo + (ehi - elo) * rng.random(10_000)
        eq_gap = fenchel_young_gap(spec, spec.f_star_d1(ve), ve)
        worst_eq = max(worst_eq, float(np.max(np.abs(eq_gap))))
    report(5, worst_neg >= -1e-12 and worst_eq <= 1e-8,
           f"most negative gap {worst_neg:.2e} (>= -1e-12), worst equality-pair "
           f"|gap| {worst_eq:.2e} (<= 1e-8), 10^4 pairs per entropy")


def test_criterion_6_core_certificate_with_negative_control():
    worst_p2 = 0.0
    all_pass = True
    for n in (2, 4, 6):
        inst = pulse_instance("translated_boltzmann_shannon",
                              piecewise_flat_basis(n, 0.5))
        cert = build_core_certificate(inst, PULSE, 0.0, INF)
        inside = 0.0 <= cert.margin.lo < cert.margin.hi <= 0.5
        rep = verify_core_certificate(inst, PULSE, cert, trials=100, seed=2024 + n)
        worst_p2 = max(worst_p2, rep.worst_p2_residual)
        all_pass &= inside and rep.p1_passes == 100 and rep.p2_passes == 100
        # negative control: on the right pulse the scanned margin lies right of
        # the split, where independence fails
        right = instance_from_density(inst.entropy, inst.basis, RULE, RIGHT_PULSE)
        try:
            build_core_certificate(right, RIGHT_PULSE, 0.0, INF)
            all_pass = False
        except CertificateError as err:
            all_pass &= err.hypothesis == "linear independence"
        assert not linearly_independent_on(inst.basis, RULE, (0.5, 1.0)).independent
    report(6, all_pass and worst_p2 <= 1e-8,
           f"margin in [0, 1/2], 100/100 directions for n in (2, 4, 6), worst "
           f"moment shift error {worst_p2:.2e} (<= 1e-8); dependence on [1/2, 1] "
           f"detected")


def test_criterion_7_qri_certificate():
    """The pulse certified on the domain band [0, inf); on [0, 1], whose ends
    it touches, both certificates fail `[margin interval]`."""
    ok = True
    details = []
    for n in (2, 3, 4):
        inst = pulse_instance("boltzmann_shannon", monomial_basis(n))
        cert = build_qri_certificate(inst, PULSE, 0.0, INF)
        ok &= cert.eps > 0.0 and cert.moment_match_residual <= 1e-8
        for build in (build_core_certificate, build_qri_certificate):
            try:
                build(inst, PULSE, 0.0, 1.0)
                ok = False
            except CertificateError as err:
                ok &= err.hypothesis == "margin interval"
        details.append(f"n={n}: m={cert.m}, eps={cert.eps:.2e}")
    rho = constant_density(0.5)
    inst = instance_from_density(builtin_entropy("boltzmann_shannon"),
                                 monomial_basis(3), RULE, rho)
    cert = build_qri_certificate(inst, rho, 0.0, 1.0)
    grid = np.linspace(0, 1, 2001)
    identity = bool(np.all(cert.y(grid) == rho(grid)))
    ok &= identity
    report(7, ok, "; ".join(details) + f" on [0, inf), [margin interval] on [0, 1]; "
                                       f"interior density returned unchanged: {identity}")


def test_criterion_8_direction_function_orthogonality():
    setups = [
        (piecewise_flat_basis(2, 0.5), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
        (piecewise_flat_basis(4, 0.5), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
        (piecewise_flat_basis(6, 0.5), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
        (monomial_basis(2), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
        (monomial_basis(3), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
        (monomial_basis(4), MarginInterval(0.00025, 0.49975, 1.0, 1.0)),
    ]
    rng = np.random.default_rng(88)
    worst = 0.0
    for basis, margin in setups:
        unit = build_direction_functions(basis, RULE, margin)
        for _ in range(50):
            eta = rng.standard_normal(basis.n)
            directions = dataclasses.replace(unit, coeffs=eta[:, None] * unit.coeffs)
            # <y_k, a_j> audited: the y_k evaluated afresh at the margin nodes
            nodes, weights = nodes_in(unit.rule, margin.lo, margin.hi)
            defect = (directions(nodes) * weights) @ basis(nodes).T - np.diag(eta)
            worst = max(worst, float(np.max(np.abs(defect))))
    report(8, worst <= 1e-8,
           f"worst inner-product defect {worst:.2e} (<= 1e-8) over 50 seeded "
           f"directions x {len(setups)} basis/interval setups")


def test_criterion_9_gibbs_taming_directional():
    overshoot = {}
    converged = True
    for label, basis in (("monomial", monomial_basis(6)),
                         ("piecewise", piecewise_flat_basis(6, 0.5))):
        inst = pulse_instance("translated_boltzmann_shannon", basis)
        solution = solve_dual(inst)
        converged &= solution.converged
        primal = reconstruct(inst, solution.multipliers)
        overshoot[label] = gibbs_overshoot(primal, PULSE, (0.4, 0.6))
    ok = converged and overshoot["piecewise"] < overshoot["monomial"]
    report(9, ok, f"overshoot monomial {overshoot['monomial']:.4f} vs piecewise "
                  f"{overshoot['piecewise']:.4f} on [0.4, 0.6] (directional claim; "
                  f"emitted CSVs support visual comparison only)")


COMPARE_INI = """
[problem]
entropy = translated_boltzmann_shannon

[basis_a]
kind = monomial
n = 6

[basis_b]
kind = piecewise_flat
n = 6
split = 0.5

[rho]
kind = pulse
split = 0.5

[compare]
window = 0.4 0.6

[output]
dir = {out}
"""


def test_criterion_10_byte_identical_compare_runs(tmp_path):
    identical = True
    paths = []
    for run in ("one", "two"):
        ini = tmp_path / f"{run}.ini"
        ini.write_text(COMPARE_INI.format(out=str(tmp_path / run)))
        assert main(["compare", "--config", str(ini)]) == 0
        paths.append(tmp_path / run)
    for name in ("solution_a.csv", "solution_b.csv", "comparison.json"):
        identical &= (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()
    payload = json.loads((paths[0] / "comparison.json").read_text())
    report(10, identical and payload["overshoot_b"] < payload["overshoot_a"],
           "two compare runs with identical config emit byte-identical "
           "CSV and JSON artifacts")
