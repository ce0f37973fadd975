"""Correctness oracle, kept apart from the code it checks.

`numeric_full` is checked against a plain dense trace-row solve of a
Lindblad generator built here from the raw parameters, `numeric_projected`
against the same solve on the seven-level model built here, the closed
forms against their formulas, and every output file against the rows in
memory after reading it back.  Nothing here calls `liouvillian`, `subspace`
or `analytic`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from eitcool import physics, sweep

NUMERIC_RTOL = 1e-8
FORMULA_RTOL = 1e-12


def _unit(d: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((d, d), dtype=complex)
    out[i, j] = 1.0
    return out


def steady_nbar(h: np.ndarray, jumps, number: np.ndarray) -> float:
    """Mean of `number` (the diagonal of the phonon-number operator) in the
    steady state, from the column-stacked generator with row 0 replaced by
    the trace."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, op in jumps:
        opdop = op.conj().T @ op
        gen += rate * np.kron(op.conj(), op)
        gen -= 0.5 * rate * (np.kron(opdop.T, eye) + np.kron(eye, opdop))
    diag = (d + 1) * np.arange(d)
    gen[0, :] = 0.0
    gen[0, diag] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    populations = np.linalg.solve(gen, rhs)[diag].real
    return float(populations @ number)


def full_model(p: physics.CoolingParams, n_max: int, hamiltonian: str):
    """Hamiltonian, jumps and phonon numbers on (g, r, e) x Fock(n_max),
    internal index fastest."""
    dph = n_max + 1
    root = np.sqrt(np.arange(1, dph))
    x = np.diag(root, 1) + np.diag(root, -1)
    ident = np.eye(dph)
    h = np.kron(np.diag(p.nu * np.arange(dph)), np.eye(3)) - p.delta * np.kron(
        ident, _unit(3, 2, 2)
    )
    for level, omega, eta, phi in ((0, p.omega_g, p.eta_g, p.phi_g), (1, p.omega_r, p.eta_r, p.phi_r)):
        lam = eta * math.cos(phi)
        if hamiltonian == "full":
            w, v = np.linalg.eigh(x)
            kick = (v * np.exp(1j * lam * w)) @ v.T
        else:
            kick = ident + 1j * lam * x
        coupling = 0.5 * omega * np.kron(kick, _unit(3, 2, level))
        h = h + coupling + coupling.conj().T
    jumps = [
        (p.gamma_g, np.kron(ident, _unit(3, 0, 2))),
        (p.gamma_r, np.kron(ident, _unit(3, 1, 2))),
    ]
    return h, jumps, np.repeat(np.arange(dph), 3)


def _rotated(p: physics.CoolingParams):
    omega_b = math.hypot(p.omega_g, p.omega_r)
    omega_d = p.omega_g * p.omega_r / omega_b
    c2, s2 = (p.omega_r / omega_b) ** 2, (p.omega_g / omega_b) ** 2
    gamma_d = p.gamma_g * c2 + p.gamma_r * s2
    gamma_b = p.gamma_r * c2 + p.gamma_g * s2
    eta = p.eta_g * math.cos(p.phi_g) - p.eta_r * math.cos(p.phi_r)
    return omega_b, omega_d, gamma_d, gamma_b, eta


def projected_model(p: physics.CoolingParams):
    """The seven-level model on (d0, b0, e0, d1, b1, e1, d2)."""
    omega_b, omega_d, gamma_d, gamma_b, eta = _rotated(p)
    d0, b0, e0, d1, b1, e1, d2 = range(7)
    h = np.diag([0.0, 0.0, -p.delta, p.nu, p.nu, p.nu - p.delta, 2.0 * p.nu]).astype(complex)
    for lower, upper in ((b0, e0), (b1, e1)):
        h[lower, upper] = h[upper, lower] = 0.5 * omega_b
    for upper, lower in ((e1, d0), (e0, d1), (e1, d2)):
        h[upper, lower] += 0.5j * eta * omega_d
        h[lower, upper] -= 0.5j * eta * omega_d
    jumps = [
        (gamma_d, _unit(7, d0, e0)),
        (gamma_d, _unit(7, d1, e1)),
        (gamma_b, _unit(7, b0, e0)),
        (gamma_b, _unit(7, b1, e1)),
    ]
    return h, jumps, np.array([0, 0, 0, 1, 1, 1, 2])


def closed_forms(p: physics.CoolingParams) -> dict[str, float]:
    omega_b, omega_d, gamma_d, gamma_b, eta = _rotated(p)
    eq1 = (p.gamma_g + p.gamma_r) ** 2 / (16.0 * p.delta**2)
    recoil = (eta**2 * omega_d**2 / omega_b**2) * (0.5 + gamma_b / gamma_d)
    weak = (eta**2 * p.omega_g**2 / p.omega_r**2) * (0.5 + p.gamma_r / p.gamma_g)
    return {
        "eq1": eq1,
        "eq15": eq1 + recoil,
        "eq15_term1": eq1,
        "eq15_term2": recoil,
        "eq16": eq1 + weak,
        "eq17": eq1 + 0.375 * eta**2,
    }


def _close(got: float | None, want: float, rtol: float) -> bool:
    return got is not None and abs(got - want) <= rtol * abs(want)


def check_point(point, row) -> list[str]:
    """Every way in which one evaluated row disagrees with the oracle."""
    problems = []
    if sorted(row.flags) != sorted(point.expected_flags):
        problems.append(f"flags {list(row.flags)}, expected {list(point.expected_flags)}")
    forms = closed_forms(point.params)
    for est in point.estimators:
        got = row.nbar.get(est)
        if any(f.startswith(est + ":") for f in point.expected_flags):
            if got is not None:
                problems.append(f"{est} returned {got} at a point it must flag")
            continue
        if est == "numeric_full":
            want = steady_nbar(*full_model(point.params, point.n_max, point.hamiltonian))
            rtol = NUMERIC_RTOL
        elif est == "numeric_projected":
            want, rtol = steady_nbar(*projected_model(point.params)), NUMERIC_RTOL
        else:
            want, rtol = forms[est], FORMULA_RTOL
        if not _close(got, want, rtol):
            problems.append(f"{est} = {got}, reference {want}")
    if "eq15" in point.estimators:
        for name, got in (("eq15_term1", row.eq15_term1), ("eq15_term2", row.eq15_term2)):
            if not _close(got, forms[name], FORMULA_RTOL):
                problems.append(f"{name} = {got}, reference {forms[name]}")
    return problems


def _row_key(vary, value, nbar, term1, term2, flags) -> tuple:
    return (vary, value, dict(nbar), term1, term2, tuple(flags))


def read_back(spec: sweep.SweepSpec) -> list[tuple]:
    """The rows of a sweep's output file, as comparable keys."""
    if spec.fmt == "csv":
        return [
            _row_key(r.vary, r.value, r.nbar, r.eq15_term1, r.eq15_term2, r.flags)
            for r in sweep.read_csv(spec.output)
        ]
    with open(spec.output) as fh:
        payload = json.load(fh)
    return [
        _row_key(r["vary"], r["value"], r["nbar"], r["eq15_term1"], r["eq15_term2"], r["flags"])
        for r in payload["rows"]
    ]


def check_job(job, outcome) -> list[list[str]]:
    """One list of problems per point of the job; empty lists pass."""
    if isinstance(outcome, Exception):
        return [[f"raised {type(outcome).__name__}: {outcome}"]] * len(job.points)
    if len(outcome) != len(job.points):
        return [[f"{len(outcome)} rows for {len(job.points)} points"]] * len(job.points)
    written = read_back(job.spec) if job.spec is not None else None
    results = []
    for i, (point, row) in enumerate(zip(job.points, outcome)):
        problems = check_point(point, row)
        if job.spec is not None:
            if (row.vary, row.value) != (job.spec.vary, job.spec.grid[i]):
                problems.append(f"row {i} is ({row.vary}, {row.value})")
            key = _row_key(row.vary, row.value, row.nbar, row.eq15_term1, row.eq15_term2, row.flags)
            if i >= len(written) or written[i] != key:
                problems.append(f"{job.spec.fmt} output does not read back bit-exact")
        results.append(problems)
    return results
