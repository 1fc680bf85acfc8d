"""Seeded inputs and the operation cycle of each benchmark workload.

Every input comes from ``numpy.random.default_rng(seed)``: the program under
test only sees the generated specs, radii, path systems, points and WoS
seeds.  A workload is one *cycle* of operations that the timed loop repeats
whole.  Operations of each group are spread evenly over the cycle (stratified
phases), so that a slow or fast stretch of the machine falls on every group
alike rather than on one kind of op.

Every call into the package goes through a module attribute at call time
(``A.max_on_circle(...)``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
COARSE = 64  # probes per circle scan, as in acceptance criterion 05
WOS_R = 8.0  # outer radius of the WoS domains, as in acceptance criterion 08
# moderate WoS calls cost more than any Carleman report, so that the tail
# latency lands among them rather than on the costliest random geometry
MODERATE_WALKS = 20_000
LARGE_WALKS = 100_000
# target sets per order n: the cost of a scan hinges on where its targets put
# the maximum, so one set per n left a run's op_p50_ms to a single draw
# (quartile spread 0.21 over seeds at equal machine speed); three sets bring
# that to about 0.07
SPECS_PER_N = 3


@dataclass
class Op:
    """One workload operation: a single call (or CLI invocation) whose output
    the oracles check after the timed loop."""

    kind: str
    label: str  # unique within the workload
    call: Callable[[dict], object]  # argument: latest output per label
    params: dict = field(default_factory=dict)  # inputs the oracle needs
    promised: bool = False  # output promised byte-identical for the seed
    # a reproduced defect this op runs into: "<error it reports>: <reason>"
    known_failure: str | None = None
    phase: float = 0.0


class CliRun(NamedTuple):
    """Output of an in-process CLI call."""

    code: int
    files: tuple  # bytes of each output file, None where none was written


def canon(out) -> bytes:
    """Byte form of an op's output, for determinism checks and digests."""
    if isinstance(out, CliRun):
        return b"\0".join([repr(out.code).encode()] + [f or b"<none>" for f in out.files])
    return repr(out).encode()


@dataclass
class Workload:
    ops: list  # one cycle, in run order
    warmup: Op  # run once during set-up, untimed


def _grid(rng, lo: float, hi: float, k: int) -> list:
    """k points of [lo, hi]: the midpoints of k equal strata, each moved by a
    seeded draw of at most 5% of the stratum width.  Every seed then covers
    the same zones at about the same cost."""
    w = (hi - lo) / k
    return [float(lo + (i + 0.5 + rng.uniform(-0.05, 0.05)) * w) for i in range(k)]


def _spread(rng, ops: list) -> list:
    """Give a group of ops stratified phases in a seeded order."""
    order = rng.permutation(len(ops))
    u = rng.uniform(0.0, 1.0, len(ops))
    for slot, i in enumerate(order):
        ops[i].phase = (slot + u[slot]) / len(ops)
    return ops


def _cycle(groups: list, tail: list = ()) -> list:
    """Interleave the phased groups; `tail` ops (dependent ones) go last."""
    ops = sorted((op for g in groups for op in g), key=lambda op: op.phase)
    return ops + list(tail)


# ---------------------------------------------------------------------------
# construct

def _random_poly(A, rng):
    """Complex polynomial of seeded degree 0..3 with decaying coefficients."""
    deg = int(rng.integers(0, 4))
    c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    c = c / (1.0 + np.arange(deg + 1))
    c[0] += 0.5 * np.sign(c[0].real or 1.0)  # keep the target away from 0
    return A.Polynomial([complex(v) for v in c])


def build_construct(A, rng, tmp: Path | None) -> Workload:
    groups, fits = [], []
    warm_spec = None
    for n in (2, 3, 4):
        consts = [
            Op("c_constant", "c_constant n=%d" % n, lambda _, n=n: A.c_constant(n), dict(n=n)),
            Op("d_constant", "d_constant n=%d" % n, lambda _, n=n: A.d_constant(n), dict(n=n)),
        ]
        groups.append(_spread(rng, consts))
        for k in range(SPECS_PER_N):
            tag = "n=%d s=%d" % (n, k)
            spec = A.Constructed(A.ConstructedF(n, tuple(_random_poly(A, rng) for _ in range(n))))
            warm_spec = warm_spec or spec
            scans = [
                Op("scan", "scan %s r=%.17g" % (tag, r),
                   lambda _, s=spec, r=r: A.max_on_circle(s, r, coarse=COARSE),
                   dict(n=n, r=r, spec=spec))
                for r in _grid(rng, 0.5, 6.0, 8)
            ]
            radii = _grid(rng, 0.5, 6.0, 6)
            traces = [
                Op("trace_ray", "trace_ray %s j=%d" % (tag, j),
                   lambda _, s=spec, j=j, radii=radii: A.trace_ray(s, j, radii),
                   dict(n=n, j=j, spec=spec))
                for j in range(1, n + 1)
            ]
            groups += [_spread(rng, scans), _spread(rng, traces)]
            # the order fit takes the scans from r = 2 on, the range of
            # acceptance criterion 05; below it log M(r) is dominated by the
            # targets rather than by r^n (and still bias the slope; see
            # oracles.check_construct_fit)
            keys = [op.label for op in scans if op.params["r"] >= 2.0]
            fits.append(
                Op("fit", "fit_order %s" % tag,
                   lambda latest, keys=keys: A.fit_order([latest[k] for k in keys if k in latest]),
                   dict(n=n, order=float(n), keys=keys))
            )
    warmup = Op("scan", "warm-up", lambda _: A.max_on_circle(warm_spec, 2.0, coarse=COARSE))
    return Workload(_cycle(groups, fits), warmup)


# ---------------------------------------------------------------------------
# classic

def build_classic(A, rng, tmp: Path | None) -> Workload:
    groups, fits = [], []
    for n in (2, 3, 4):
        spec = A.Classic(A.ClassicDCA(n))
        scans = []
        for r in range(5, 31):  # the README grid 5:30:1
            # max |f| on the circle is about e^{r^{n/2}}; past e^709 the
            # complex evaluation overflows and the quadrature reports
            # nonconvergence (n = 4, r >= 27)
            known = None
            if r ** (n / 2.0) > math.log(np.finfo(float).max):
                known = "QuadratureNonconvergence: eval_dca overflows past e^709"
            scans.append(
                Op("scan", "scan n=%d r=%d" % (n, r),
                   lambda _, s=spec, r=float(r): A.max_on_circle(s, r, coarse=COARSE),
                   dict(n=n, r=float(r)), known_failure=known)
            )
        far = []
        for nu in range(n):
            R = float(rng.uniform(30.0, 50.0))
            z = R * cmath.exp(2j * math.pi * nu / n)
            far.append(
                Op("far_ray", "far_ray n=%d nu=%d" % (n, nu),
                   lambda _, z=z, cfg=spec.cfg, nu=nu, n=n: (A.eval_dca(z, cfg), A.dca_asymptotic_value(nu, n)),
                   dict(n=n, nu=nu, R=R))
            )
        groups += [_spread(rng, scans), _spread(rng, far)]
        keys = [op.label for op in scans]
        fits.append(
            Op("fit", "fit_order n=%d" % n,
               lambda latest, keys=keys: A.fit_order([latest[k] for k in keys if k in latest]),
               dict(n=n, order=n / 2.0, tol=0.2))
        )
    cli = None
    if tmp is not None:
        csv, fit = tmp / "growth.csv", tmp / "orderfit.json"
        argv = ["--manifest", str(tmp / "growth_manifest.json"), "growth", "--f", "classic:2",
                "--radii", "5:30:1", "--out", str(csv), "--fit-out", str(fit)]
        cli = Op("cli_growth", "asymlab growth --f classic:2 --radii 5:30:1",
                 lambda _: _cli(A, argv, csv, fit), dict(order=1.0, tol=0.2, rows=26), promised=True)
        groups.append(_spread(rng, [cli]))
    warm_spec = A.Classic(A.ClassicDCA(2))
    warmup = Op("scan", "warm-up", lambda _: A.max_on_circle(warm_spec, 20.0, coarse=COARSE))
    return Workload(_cycle(groups, fits), warmup)


# ---------------------------------------------------------------------------
# domain

def random_system(A, seed: int, n: int):
    """Random admissible path system: n paths in disjoint angular corridors,
    each a short kinked polyline plus a ray (the algorithm of the test
    suite's make_random_system).  Also returns the corridor angles and gaps,
    from which interior points are placed without asking the program."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, TWO_PI)
    gaps = rng.uniform(1.0, 2.0, n)
    gaps = gaps / gaps.sum() * TWO_PI
    angles = base + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    min_gap = gaps.min()
    paths = []
    for th in angles:
        delta = rng.uniform(-0.2, 0.2) * min_gap
        r1 = rng.uniform(0.5, 2.0)
        paths.append(A.SegmentalPath([0j, r1 * cmath.exp(1j * (th + delta))], cmath.exp(1j * th)))
    return A.PathSystem(tuple(paths)), [float(a) for a in angles], [float(g) for g in gaps]


def _sector_point(rng, rho_lo, rho_hi, theta0, width):
    """Seeded point of the sector theta0 < arg < theta0 + width, kept 30% of
    the width away from its sides (a kinked path strays at most 20% of the
    narrowest corridor from its terminal angle)."""
    rho = rng.uniform(rho_lo, rho_hi)
    return complex(rho * cmath.exp(1j * (theta0 + width * rng.uniform(0.3, 0.7))))


def build_domain(A, rng, tmp: Path | None) -> Workload:
    systems = []  # (tag, system, exact sector openings or None)
    for n in (2, 3, 4):
        sysm, angles, gaps = random_system(A, int(rng.integers(0, 2**31)), n)
        systems.append(("kinked%d" % n, sysm, None, (angles[0], gaps[0])))
    for n in (2, 3, 4):
        systems.append(("rays%d" % n, A.PathSystem.equally_spaced_rays(n), [TWO_PI / n] * n,
                        (TWO_PI / n, TWO_PI / n)))
    quarter = A.PathSystem((A.SegmentalPath.ray(0.0), A.SegmentalPath.ray(math.pi / 2)))
    quarter_openings = [math.pi / 2, 1.5 * math.pi]
    systems.append(("quarter", quarter, quarter_openings, (0.0, math.pi / 2)))

    reports, sectors, slices, walks = [], [], [], []
    for tag, sysm, openings, (th0, width) in systems:
        # R1 lies below every kink vertex (at radius >= 0.5), so each
        # Carleman integral crosses all of its system's breakpoints
        R1, R = 0.25, float(rng.uniform(8.0, 16.0))
        base = dict(tag=tag, system=sysm, openings=openings)
        for j in range(1, sysm.n + 1):
            reports.append(
                Op("carleman_report", "carleman_report %s j=%d" % (tag, j),
                   lambda _, s=sysm, j=j, R1=R1, R=R: A.carleman_report(s, j, R1, R),
                   dict(base, j=j, R1=R1, R=R))
            )
        for t in np.exp(_grid(rng, math.log(0.3), math.log(20.0), 5)):
            t = float(t)
            sectors.append(
                Op("sector", "check_sector_inequality %s t=%.17g" % (tag, t),
                   lambda _, s=sysm, t=t: A.check_sector_inequality(s, t), dict(base, t=t))
            )
            slices.append(
                Op("slices", "angular_measure %s t=%.17g" % (tag, t),
                   lambda _, s=sysm, t=t: [A.angular_measure(s, j, t) for j in range(1, s.n + 1)],
                   dict(base, t=t))
            )
        # domain 1 is the corridor from the first path's angle across gap 0
        # kinked starts sit near radius 1, as in acceptance criterion 08, where
        # the Carleman bound is well below 1
        reps = 2 if tag == "quarter" else 1
        for i in range(reps):
            z1 = _sector_point(rng, 0.8, 1.5 if openings is None else 4.0, th0, width)
            cfg = A.WosConfig(MODERATE_WALKS, seed=int(rng.integers(0, 2**31)))
            walks.append(
                Op("wos", "wos %s #%d walks=%d" % (tag, i, cfg.n_walks),
                   lambda _, s=sysm, z1=z1, cfg=cfg: A.estimate_harmonic_measure(s, 1, WOS_R, z1, cfg),
                   dict(base, z1=z1, R=WOS_R, theta0=th0, width=width), promised=True)
            )
    z1 = _sector_point(rng, 2.0, 5.0, 0.0, math.pi / 2)
    cfg = A.WosConfig(LARGE_WALKS, seed=int(rng.integers(0, 2**31)))
    walks.append(
        Op("wos", "wos quarter large walks=%d" % cfg.n_walks,
           lambda _, z1=z1, cfg=cfg: A.estimate_harmonic_measure(quarter, 1, WOS_R, z1, cfg),
           dict(tag="quarter", system=quarter, openings=quarter_openings, z1=z1, R=WOS_R,
                theta0=0.0, width=math.pi / 2),
           promised=True)
    )
    groups = [_spread(rng, g) for g in (reports, sectors, slices, walks)]
    if tmp is not None:
        # two rays: domain 1 is the lower half plane
        z1 = _sector_point(rng, 1.0, 4.0, math.pi, math.pi)
        z1_text = "%.6f%+.6fi" % (z1.real, z1.imag)
        z1 = complex(z1_text.replace("i", "j"))
        seed = int(rng.integers(0, 2**31))
        out, csv = tmp / "domain.json", tmp / "slices.csv"
        argv = ["--manifest", str(tmp / "domain_manifest.json"), "domain", "--rays", "2",
                "--R1", "1", "--R", "8", "--radii", "1,4", "--wos", "--z1=" + z1_text,
                "--walks", str(MODERATE_WALKS), "--seed", str(seed), "--out", str(out), "--slices-out", str(csv)]
        check_out = tmp / "check.json"
        check_argv = ["--manifest", str(tmp / "check_manifest.json"), "check",
                      "--filter", "wos-dominance", "--out", str(check_out)]
        groups.append(_spread(rng, [
            Op("cli_domain", "asymlab domain --rays 2 --wos",
               lambda _: _cli(A, argv, csv, out),
               dict(n=2, R1=1.0, R=8.0, z1=z1, radii=(1.0, 4.0)), promised=True),
            Op("cli_check", "asymlab check --filter wos-dominance",
               lambda _: _cli(A, check_argv, check_out),
               known_failure="exit 2: the check starts WoS at 2i, outside domain 1 of two rays"),
        ]))
    rays2 = A.PathSystem.equally_spaced_rays(2)
    warmup = Op("carleman_report", "warm-up", lambda _: A.carleman_report(rays2, 1, 1.0, 10.0))
    return Workload(_cycle(groups), warmup)


def _cli(A, argv, *files) -> CliRun:
    """In-process CLI call in the run's temporary directory."""
    for f in files:
        f.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = A.cli.main(list(argv))
    return CliRun(code, tuple(f.read_bytes() if f.exists() else None for f in files))


BUILDERS = {"construct": build_construct, "classic": build_classic, "domain": build_domain}
