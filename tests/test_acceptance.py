"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The heavy solver runs are shared through a session fixture and all of
them together take several minutes of one core, so they run in two
worker processes under one wall-clock budget:
OTSOURCE_ACCEPTANCE_SECONDS, 200 s by default.  The longest run
starts first and the runs for the cheapest criteria next, a run still
going when the budget ends is stopped, and a criterion whose runs did
not finish reports FAIL with "not run". Run the whole gate with, for
example,

    OTSOURCE_ACCEPTANCE_SECONDS=3600 python -m pytest tests/test_acceptance.py

Measured numbers for every criterion are printed.  A run of the whole
gate in which every heavy run finished also writes them to
tests/acceptance_report.txt; any other run leaves that file as it is.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from otsource._kernels import project_paraboloid
from otsource.assembly import BoundaryData, assemble_system, cg_solve
from otsource.diagnostics import (
    energy_breakdown,
    time_profiles,
    transport_energy,
)
from otsource.mesh import SpaceTimeMesh
from otsource.prox import (
    SourceModel,
    prox_source_l2l2,
    prox_source_l1l1,
    prox_transport,
)
from otsource.solver import SolverConfig, solve

REPORT = os.path.join(os.path.dirname(__file__), "acceptance_report.txt")
BUDGET_S = float(os.environ.get("OTSOURCE_ACCEPTANCE_SECONDS", "200"))

# worker processes for the heavy runs; each is started with one BLAS
# thread, because two processes that each spin a two-thread BLAS pool
# on two cores run about three times slower than one process alone
WORKERS = 2
ONE_THREAD_ENV = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

# solver configuration chosen for the blending case (criterion 5): the
# linear-growth source makes the minimizer a face, and the iterate's
# lateral drift along that face scales with gamma; 0.002 keeps the path
# on the blend while the energy converges identically
C5_GAMMA = 0.002
C5_BETA = 1e-3


class _Report:
    """The printed line of each criterion, by number.

    save() writes them to REPORT only for a run of all nine criteria in
    which every heavy run finished, so a partial run never replaces the
    report of a full one.
    """

    def __init__(self):
        self.lines = {}
        self.runs_finished = False

    def add(self, num, passed, detail):
        line = f"CRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}"
        print(line)
        self.lines[num] = line
        assert passed, line

    def save(self):
        if self.runs_finished and sorted(self.lines) == list(range(1, 10)):
            with open(REPORT, "w") as fh:
                fh.write("".join(self.lines[num] + "\n" for num in range(1, 10)))


def _mass_of(cells_grid):
    nx = cells_grid.shape[0]
    return float(cells_grid.sum()) / (nx * nx)


def _tris_from_cells(grid):
    return np.repeat(grid.T.ravel(), 2)


def _random_bump_pair(nx=4, cut=0.02):
    """Seeded random smooth bump, translated by a seeded random shift.

    Gives endpoints with genuine vacuum and bulk motion, on which the
    splitting converges linearly for every source model; equalizing the
    masses keeps the source-free model feasible.
    """
    rng = np.random.default_rng(42)
    c = (np.arange(nx) + 0.5) / nx
    X, Y = np.meshgrid(c, c, indexing="ij")
    cax, cay = rng.uniform(0.2, 0.35), rng.uniform(0.35, 0.65)
    dx, dy = rng.uniform(0.3, 0.45), rng.uniform(-0.15, 0.15)
    wa = rng.uniform(0.12, 0.18)
    ga = np.exp(-((X - cax) ** 2 + (Y - cay) ** 2) / (2 * wa * wa))
    gb = np.exp(-((X - cax - dx) ** 2 + (Y - cay - dy) ** 2) / (2 * wa * wa))
    ga[ga < cut] = 0.0
    gb[gb < cut] = 0.0
    gb *= ga.sum() / gb.sum()
    return ga, gb


def _two_square_pair(nx=32):
    ga = np.zeros((nx, nx))
    gb = np.zeros((nx, nx))
    ga[8:24, 8:24] = 1.0
    gb[8:24, 8:24] = 2.0
    return ga, gb


def _strip_pair(nx=64):
    ga = np.zeros((nx, nx))
    gb = np.zeros((nx, nx))
    ga[16:48, 30:34] = 1.0
    gb[16:48, 30:34] = 2.0
    return ga, gb


def _interior_rel_std(result):
    rows = time_profiles(result.state, result.mesh)
    inner = np.array([r.src_abs for r in rows[1:-1]])
    return float(inner.std() / inner.mean())


def _translation_pair(nx=32):
    """Indicator blob and its copy shifted by 8 cells = TRANSLATION_D."""
    ga = np.zeros((nx, nx))
    gb = np.zeros((nx, nx))
    ga[8:16, 12:20] = 1.0
    gb[16:24, 12:20] = 1.0
    return ga, gb


TRANSLATION_D = 0.25


def _solve_plan():
    """(key, endpoints, config) of every heavy run, in start order.

    Each run starts on the first free worker, in plan order.  c5, the
    longest run (nearly a quarter of the whole), goes first, so that it
    overlaps the rest; then a criterion's runs come in the order of
    the time they add: criterion 4 (c4), criterion 7 (c6_delta_1.0,
    c7_l2l2), criterion 6 (the other two deltas), criterion 3 and with
    it 1 (the four c3 runs, longest first, so that the two workers
    finish close together).  c5 completes criterion 5 and, with the
    runs up to c6_delta_10.0, criterion 8.  Solve times of one full
    gate with both workers busy on a two-core host, with the worker and
    the finishing time since the start:

        c5              80 s    1     81 s
        c4              23 s    2     24 s
        c6_delta_1.0    26 s    2     49 s
        c7_l2l2         23 s    2     73 s
        c6_delta_0.01   20 s    2     93 s
        c6_delta_10.0   20 s    1    101 s
        c3_l2huber      51 s    2    144 s
        c3_l1l1         35 s    1    135 s
        c3_l2l2         34 s    1    170 s
        c3_none         33 s    2    177 s

    The runs add up to about 345 s of one core there, so the 200 s
    budget leaves about 10% to spare; the host's speed drifts by more
    than that.  Started last, c3_l2huber ends 16 to 33 s after the
    other worker's last run.
    """
    plan = []

    # criterion 5: thin strip, intensities 1 -> 2, pure blending
    cfg5 = SolverConfig(
        nt=4,
        source=SourceModel("l2huber", beta=C5_BETA),
        delta=1.0,
        gamma=C5_GAMMA,
        max_iters=5000,
        fp_tol=1e-5,
    )
    plan.append(("c5", _strip_pair(), cfg5))

    # criterion 4: translated indicator blob, pure transport
    cfg4 = SolverConfig(
        nt=16, source=SourceModel("none"), max_iters=5000, fp_tol=1e-5
    )
    plan.append(("c4", _translation_pair(), cfg4))

    # criteria 6 and 7: two-square runs — delta sweep + model contrast;
    # criterion 7 reads delta = 1 and l2l2 only, so those go first
    pair = _two_square_pair()

    def c6_config(delta):
        return SolverConfig(
            nt=8,
            source=SourceModel("l2huber", beta=0.1),
            delta=delta,
            max_iters=3000,
            fp_tol=1e-5,
        )

    plan.append(("c6_delta_1.0", pair, c6_config(1.0)))
    cfg7 = SolverConfig(
        nt=8, source=SourceModel("l2l2"), delta=1.0, max_iters=3000, fp_tol=1e-5
    )
    plan.append(("c7_l2l2", pair, cfg7))
    for delta in (0.01, 10.0):
        plan.append((f"c6_delta_{delta}", pair, c6_config(delta)))

    # criterion 3: small-instance oracle, all four models, long reference;
    # longest first, so that the two workers finish close together
    bump = _random_bump_pair()  # equal masses: source=none is feasible
    for kind in ("l2huber", "l1l1", "l2l2", "none"):
        cfg = SolverConfig(
            nt=4,
            source=SourceModel(kind, beta=0.1),
            delta=1.0,
            max_iters=100_000,
            fp_tol=0.0,
        )
        plan.append((f"c3_{kind}", bump, cfg))
    return plan


class _OutOfBudget(Exception):
    pass


def _run_planned(job):
    """(key, result) of one planned run, result None if the deadline passed.

    job is (key, endpoints, config, deadline), the deadline a
    time.monotonic() value, which every process reads off one clock.
    """
    key, (ga, gb), cfg, deadline = job

    def check_budget(_entry):
        if time.monotonic() > deadline:
            raise _OutOfBudget

    bdata = BoundaryData(_tris_from_cells(ga), _tris_from_cells(gb))
    try:
        return key, solve(bdata, cfg, progress=check_budget)
    except _OutOfBudget:
        return key, None


@pytest.fixture(scope="session")
def report():
    rep = _Report()
    yield rep
    rep.save()


@pytest.fixture(scope="session")
def runs(report):
    """The heavy solver runs that finish within BUDGET_S, by key."""
    plan = _solve_plan()
    deadline = time.monotonic() + BUDGET_S
    jobs = [(key, pair, cfg, deadline) for key, pair, cfg in plan]
    out = {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        # map submits every job at once and the workers start on the
        # first two; spawned workers read the environment when they
        # start, so the thread limits apply to them, not to this process
        with pytest.MonkeyPatch.context() as mp:
            for name, value in ONE_THREAD_ENV.items():
                mp.setenv(name, value)
            results = pool.map(_run_planned, jobs)
        for key, result in results:
            if result is None:
                continue
            out[key] = result
            print(f"run {key}: {result.wall_seconds:.0f}s, {len(result.stats)} iterations")
    report.runs_finished = len(out) == len(plan)
    return out


def _require(report, runs, num, keys):
    """Report criterion num as FAIL unless every run it reads finished."""
    missing = [key for key in keys if key not in runs]
    if missing:
        report.add(
            num,
            False,
            f"not run: {', '.join(missing)} did not finish within the "
            f"{BUDGET_S:.0f}s budget (OTSOURCE_ACCEPTANCE_SECONDS)",
        )


# --------------------------------------------------------------- criterion 1


def test_criterion_01_mass_balance(report, runs):
    _require(report, runs, 1, [key for key, _, _ in _solve_plan()])
    worst = 0.0
    for result in runs.values():
        mesh = result.mesh
        mass = mesh.tri_area * max(
            float(np.sum(result.bdata.ua)), float(np.sum(result.bdata.ub))
        )
        defect = max(s.mass_balance_defect for s in result.stats)
        worst = max(worst, defect / mass)
    report.add(1, worst <= 1e-9, f"max mass-balance defect {worst:.2e} of total mass (<= 1e-9)")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_projection_prox_suite(report):
    rng = np.random.default_rng(7)
    n = 10_000
    a = rng.normal(0, 2, n)
    bx = rng.normal(0, 2, n)
    by = rng.normal(0, 2, n)

    pa, pbx, pby = project_paraboloid(a, bx, by)
    feas = float(np.max(pa + 0.25 * (pbx**2 + pby**2)))
    qa, qbx, qby = project_paraboloid(pa, pbx, pby)
    idem = max(
        float(np.max(np.abs(qa - pa))),
        float(np.max(np.abs(qbx - pbx))),
        float(np.max(np.abs(qby - pby))),
    )

    a2 = rng.normal(0, 2, n)
    bx2 = rng.normal(0, 2, n)
    by2 = rng.normal(0, 2, n)
    p2 = project_paraboloid(a2, bx2, by2)
    d_in = np.sqrt((a - a2) ** 2 + (bx - bx2) ** 2 + (by - by2) ** 2)
    d_out = np.sqrt((pa - p2[0]) ** 2 + (pbx - p2[1]) ** 2 + (pby - p2[2]) ** 2)
    expansive = float(np.max(d_out - d_in))

    gamma = 0.7
    m = np.column_stack([bx, by])
    ra, rm = prox_transport(a, m, gamma)
    ka, kbx, kby = project_paraboloid(a / gamma, bx / gamma, by / gamma)
    moreau = max(
        float(np.max(np.abs(ra + gamma * ka - a))),
        float(np.max(np.abs(rm[:, 0] + gamma * kbx - bx))),
        float(np.max(np.abs(rm[:, 1] + gamma * kby - by))),
    )

    # the pointwise closed forms: shrinkage for the squared penalty and
    # the soft threshold at gamma/2 for the absolute one
    zg = np.linspace(-3, 3, 1000)
    gam = 0.9
    l2 = prox_source_l2l2(zg, gam)
    e_l2 = float(np.max(np.abs(l2 - zg / (1.0 + gam))))
    l1 = prox_source_l1l1(zg, gam)
    l1_exact = np.where(
        np.abs(zg) <= 0.5 * gam, 0.0, zg - 0.5 * gam * np.sign(zg)
    )
    e_l1 = float(np.max(np.abs(l1 - l1_exact)))

    ok = (
        feas <= 1e-12
        and idem <= 1e-12
        and expansive <= 1e-12
        and moreau <= 1e-12
        and e_l2 <= 1e-12
        and e_l1 <= 1e-12
    )
    report.add(
        2,
        ok,
        f"feas {feas:.1e}, idem {idem:.1e}, nonexp slack {expansive:.1e}, "
        f"moreau {moreau:.1e}, l2l2 {e_l2:.1e}, l1l1 {e_l1:.1e} (all <= 1e-12)",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_03_small_instance_oracle(report, runs):
    # the fp_tol=1e-7 / 5000-cap run follows the identical trajectory,
    # so its stopping iterate is read off the reference trace: the first
    # residual below 1e-7 x initial, or the cap if never reached
    kinds = ("none", "l2l2", "l1l1", "l2huber")
    _require(report, runs, 3, [f"c3_{kind}" for kind in kinds])
    details = []
    ok = True
    for kind in kinds:
        result = runs[f"c3_{kind}"]
        energies = [s.energy for s in result.stats]
        resid = [s.fixed_point_residual for s in result.stats]
        r0 = resid[0]
        stop = next(
            (i for i, r in enumerate(resid[:5000]) if r <= 1e-7 * r0), 4999
        )
        ref = energies[-1]
        rel = abs(energies[stop] - ref) / max(abs(ref), 1e-30)
        ok &= rel <= 1e-3
        details.append(f"{kind} stop@{stop + 1} {rel:.2e}")
    report.add(3, ok, "energy(fp_tol=1e-7 run) vs energy(1e5): " + ", ".join(details) + " (<= 1e-3)")


# --------------------------------------------------------------- criterion 4


def test_criterion_04_translation_energy(report, runs):
    _require(report, runs, 4, ["c4"])
    result = runs["c4"]
    energy = result.stats[-1].energy
    exact = _mass_of(_translation_pair()[0]) * TRANSLATION_D**2
    rel = abs(energy - exact) / exact
    report.add(4, rel <= 0.10, f"energy {energy:.4e} vs M|d|^2 {exact:.4e}, rel {rel:.3f} (<= 0.10)")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_pure_blending(report, runs):
    _require(report, runs, 5, ["c5"])
    result = runs["c5"]
    mesh = result.mesh
    eb = energy_breakdown(result.state, result.config.source, result.config.delta, mesh)
    frac = eb.transport / eb.total

    ga, gb = _strip_pair()
    ua = _tris_from_cells(ga)
    ub = _tris_from_cells(gb)
    nt = mesh.nt
    tmid = ((np.arange(nt) + 0.5) / nt)[:, None, None]
    blend = (1.0 - tmid) * ua[:, None] + tmid * ub[:, None]
    # slab masses: sum of tet_volume * |rho - blend| over a slab, over ht
    dev = np.abs(mesh.prisms(result.state.rho) - blend)
    gap = mesh.tet_volume * dev.sum(axis=(1, 2)) * nt
    strip_mass = mesh.tri_area * float(np.sum(ua))
    gap_frac = float(gap.max()) / strip_mass

    ok = frac <= 0.05 and gap_frac <= 0.05 and result.wall_seconds < 600
    report.add(
        5,
        ok,
        f"transport {100 * frac:.2f}% of energy (<= 5%), max blend gap "
        f"{100 * gap_frac:.2f}% of strip mass (<= 5%), wall < 600s",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_delta_sweep(report, runs):
    deltas = (0.01, 1.0, 10.0)
    _require(report, runs, 6, [f"c6_delta_{delta}" for delta in deltas])
    acts = []
    zabs = []
    for delta in deltas:
        result = runs[f"c6_delta_{delta}"]
        te, _ = transport_energy(result.state, result.mesh)
        acts.append(te)
        rows = time_profiles(result.state, result.mesh)
        weights = result.mesh.time_weights()
        zabs.append(float(sum(w * r.src_abs for w, r in zip(weights, rows))))
    slack = 1.02
    mono_t = acts[0] * slack >= acts[1] and acts[1] * slack >= acts[2]
    mono_z = zabs[0] <= zabs[1] * slack and zabs[1] <= zabs[2] * slack
    report.add(
        6,
        mono_t and mono_z,
        f"transport action {acts[0]:.3e} >= {acts[1]:.3e} >= {acts[2]:.3e}, "
        f"int|z| {zabs[0]:.4f} <= {zabs[1]:.4f} <= {zabs[2]:.4f} (2% slack)",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_source_profile_flatness(report, runs):
    _require(report, runs, 7, ["c6_delta_1.0", "c7_l2l2"])
    huber = _interior_rel_std(runs["c6_delta_1.0"])
    l2l2 = _interior_rel_std(runs["c7_l2l2"])
    ok = huber <= 0.10 and l2l2 > huber
    report.add(
        7,
        ok,
        f"rel std of t->int|z|: l2huber {100 * huber:.2f}% (<= 10%), l2l2 {100 * l2l2:.2f}% (strictly larger)",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_08_convergence_contract(report, runs):
    keys = ("c4", "c5", "c6_delta_0.01", "c6_delta_1.0", "c6_delta_10.0", "c7_l2l2")
    _require(report, runs, 8, keys)
    details = []
    ok = True
    for key in keys:
        result = runs[key]
        r0 = result.stats[0].fixed_point_residual
        rend = result.stats[-1].fixed_point_residual
        rel = rend / r0
        energies = [s.energy for s in result.stats]
        stab = abs(energies[-1] - energies[-101]) / abs(energies[-1])
        case_ok = rel <= 1e-5 and stab <= 1e-4
        ok &= case_ok
        details.append(f"{key}: resid {rel:.1e}, stab {stab:.1e}")
    report.add(8, ok, "; ".join(details) + " (resid <= 1e-5, energy stab <= 1e-4)")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_fem_correctness(report):
    mesh = SpaceTimeMesh(2, 2, "neumann")
    system = assemble_system(mesh, 1.0)
    dense = system.matrix.toarray()
    sym = float(np.max(np.abs(dense - dense.T)))
    eigs = np.linalg.eigvalsh(dense)
    pd = float(eigs.min())

    # the space-time stiffness part annihilates constants
    stiff = mesh.stiffness_matrix()
    const = float(np.max(np.abs(stiff @ np.ones(dense.shape[0]))))

    rng = np.random.default_rng(3)
    x_true = rng.normal(size=dense.shape[0])
    rhs = system.matrix @ x_true
    x = cg_solve(system, rhs, tol=1e-12)
    resid = float(np.linalg.norm(system.matrix @ x - rhs) / np.linalg.norm(rhs))

    ok = sym <= 1e-14 and pd > 0 and const <= 1e-14 and resid <= 1e-12
    report.add(
        9,
        ok,
        f"symmetry {sym:.1e} (<= 1e-14), min eig {pd:.3e} (> 0), "
        f"stiffness@const {const:.1e} (<= 1e-14), cg residual {resid:.1e} (<= 1e-12)",
    )
