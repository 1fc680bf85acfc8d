"""Command-line front end.

Subcommands: construct (build a function spec), trace (ray residuals),
growth (circle scans + order fit), domain (angular measure and Carleman
bounds, optionally walk-on-spheres), check (bundled verification suite).

When a subcommand returns (exit 0 or 1), main writes a manifest/1 JSON
echoing the fully resolved configuration, so outputs are reproducible
from the manifest alone.  A CSV output path given as - means stdout.
Exit codes: 0 success, 1 verification failure, 2 usage error (bad
arguments or input files), 3 numerical nonconvergence, 4 internal error
(any other exception: a bug, reported with its type and traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys as _sys
import traceback
from dataclasses import asdict
from pathlib import Path

from .classic import ClassicDCA
from .construct import ConstructedF, c_constant, d_constant
from .geometry import (
    DegenerateRadiusError,
    PathSystem,
    _sector_pass,
    carleman_integral,
    carleman_report,
    check_sector_inequality,
)
from .growth import (
    Classic,
    Constructed,
    InsufficientDynamicRangeError,
    SPEC_KINDS,
    fit_order,
    max_on_circles,
    spec_from_json_dict,
    spec_to_json_dict,
    trace_rays,
)
from .quadrature import QuadratureNonconvergence
from .specs import UsageError, parse_complex
from .wos import WosConfig, estimate_harmonic_measure

_F = "%.17g"  # stable floating-point formatting for CSV
_MAX_RADII = 10**6  # longest a:b:step grid parse_radii builds


def parse_target(text: str):
    """Mini-language poly:c0,c1,...  |  series:@file  |  classic:n (from_cli)."""
    kind, sep, body = text.partition(":")
    if not sep or not body:
        raise UsageError("malformed spec %r (expected kind:payload)" % text)
    from_cli = getattr(SPEC_KINDS.get(kind), "from_cli", None)
    if from_cli is None:
        raise UsageError("unknown spec kind %r" % kind)
    return from_cli(body, lambda path: _read_input(path, spec_from_json_dict))


def parse_radii(text: str) -> list:
    """`a:b:step` grid of at most _MAX_RADII points, or comma list."""
    text = text.strip()
    if not text:
        raise UsageError("empty radii list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError("radii grid must be a:b:step")
        a, b, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
            raise UsageError("bad radii grid %r" % text)
        if (b - a) / step > _MAX_RADII:
            raise UsageError("radii grid %r has more than %d points" % (text, _MAX_RADII))
        # points a + k·step up to b, with a slop of b·1e-12 for rounding
        # that never reaches half a step; counted rather than accumulated,
        # since r += step stops advancing when step is below r's resolution;
        # rounded to 12 decimals, or to 10 places past the step's leading
        # digit where that is finer
        hi = min(b * (1 + 1e-12), b + step / 2)
        ndigits = max(12, 10 - math.floor(math.log10(step)))
        return [round(a + k * step, ndigits) for k in range(int((hi - a) // step) + 1)]
    out = [float(p) for p in text.split(",")]
    if not all(map(math.isfinite, out)):
        raise UsageError("radii must be finite: %r" % text)
    return out


def _read_input(path: str, parse):
    """parse applied to the JSON document in the file at path.  A document
    with missing keys or wrong types is a usage error, not an internal one."""
    d = json.loads(Path(path).read_text())
    try:
        return parse(d)
    except (KeyError, TypeError, AttributeError) as e:
        raise UsageError("malformed input file %s: %s: %s" % (path, type(e).__name__, e))


def _load_spec(args):
    if getattr(args, "spec", None):
        return _read_input(args.spec, spec_from_json_dict)
    if getattr(args, "f", None):
        return parse_target(args.f)
    raise UsageError("need --spec FILE or --f MINISPEC")


def _load_system(args) -> PathSystem:
    if getattr(args, "system", None):
        return _read_input(args.system, PathSystem.from_json_dict)
    if getattr(args, "rays", None):
        return PathSystem.equally_spaced_rays(args.rays)
    raise UsageError("need --system FILE or --rays N")


def _write_json(path: str, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _write_csv(path: str, header: str, lines) -> None:
    """The CSV of header and lines (strings without their newline) at
    path, or on stdout when path is -."""
    with contextlib.nullcontext(_sys.stdout) if path == "-" else open(path, "w") as out:
        out.write(header + "\n")
        for line in lines:
            out.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_construct(args) -> int:
    targets = [parse_target(t) for t in args.a]
    if len(targets) != args.n:
        raise UsageError("need exactly n = %d --a targets, got %d" % (args.n, len(targets)))
    cf = ConstructedF(args.n, tuple(targets))
    if args.n == 1:
        print("warning: n = 1 is degenerate (f is asymptotic to a_1 itself)")
    _write_json(args.out, spec_to_json_dict(Constructed(cf)))
    if args.n >= 2:
        print("c_%d = %.12g" % (args.n, c_constant(args.n)))
        print("d_%d = %.12g" % (args.n, d_constant(args.n)))
    print("wrote %s" % args.out)
    return 0


def cmd_trace(args) -> int:
    spec = _load_spec(args)
    if not isinstance(spec, Constructed):
        raise UsageError("trace needs a constructed funcspec")
    radii = parse_radii(args.radii)
    # every ray is evaluated, in one call, before the CSV is opened, so a
    # failure leaves no partial file
    rows = trace_rays(spec, range(1, spec.cf.n + 1), radii)
    _write_csv(args.out, "ray_index,r,log10_abs_residual",
               (("%d," + _F + "," + _F) % row for row in rows))
    return 0


def cmd_growth(args) -> int:
    spec = _load_spec(args)
    radii = parse_radii(args.radii)
    if len(radii) < 2:
        raise InsufficientDynamicRangeError("need several radii for a fit")
    samples = max_on_circles(spec, radii, coarse=args.coarse)
    # fitted before the CSV is opened, so a failed fit leaves no partial output
    fit = fit_order(samples)
    _write_csv(args.out, "r,log_max_mod,argmax_theta,domain_id", (
        (_F + "," + _F + "," + _F + ",%s")
        % (s.r, s.log_max_mod, s.argmax_theta, "" if s.domain_id is None else s.domain_id)
        for s in samples
    ))
    _write_json(args.fit_out, asdict(fit))
    print("rho_hat = %.6g" % fit.rho_hat)
    return 0


def cmd_domain(args) -> int:
    sysm = _load_system(args)
    radii = parse_radii(args.radii)
    if args.wos:  # a bad --z1, --walks or --seed is reported before any work
        z1 = parse_complex(args.z1)
        cfg = WosConfig(n_walks=args.walks, seed=args.seed)
    reports = [{"j": j, **asdict(carleman_report(sysm, j, args.R1, args.R, tol=args.tol))}
               for j in range(1, sysm.n + 1)]
    # one pass over the paths per radius gives the sector rows and the slices
    sector, per_radius = [], []
    for t in radii:
        (lhs, rhs, holds), slices = _sector_pass(sysm, t)
        sector.append({"t": t, "lhs": lhs, "rhs": rhs, "holds": holds})
        per_radius.append(slices)
    doc = {"carleman": reports, "sector_inequality": sector}
    if args.wos:
        est = estimate_harmonic_measure(sysm, args.j, args.R, z1, cfg)
        doc["wos"] = {"j": args.j, "z1": [z1.real, z1.imag], "seed": args.seed,
                      "n_walks": args.walks, **asdict(est)}
    _write_json(args.out, doc)
    # written domain by domain
    _write_csv(args.slices_out, "j,t,arc_start,arc_end,phi", (
        ("%d," + _F + "," + _F + "," + _F + "," + _F) % (j, t, a, b, phi)
        for j, slices in enumerate(zip(*per_radius), 1)
        for t, (arcs, phi) in zip(radii, slices) for a, b in arcs
    ))
    print("wrote %s and %s" % (args.out, Path(args.slices_out)))
    return 0


def _bundled_checks():
    """Named fast verification checks for `check`; each returns
    (measured, expected, tolerance_note, ok)."""

    def chk_constants():
        got = c_constant(2)
        want = math.sqrt(math.pi) / 2.0
        return got, want, "|diff| <= 1e-9", abs(got - want) <= 1e-9

    def chk_carleman_rays():
        sysm = PathSystem.equally_spaced_rays(2)
        rep = carleman_report(sysm, 1, 1.0, 10.0)
        want = (math.pi / 8.0) * 10.0
        return rep.logM_lower, want, "|diff| <= 1e-6", abs(rep.logM_lower - want) <= 1e-6

    def chk_sector():
        sysm = PathSystem.equally_spaced_rays(3)
        lhs, rhs, holds = check_sector_inequality(sysm, 2.0)
        return lhs, rhs, "lhs >= rhs", holds

    def chk_classic_order():
        spec = Classic(ClassicDCA(2))
        samples = max_on_circles(spec, [float(r) for r in range(5, 31)], coarse=64)
        fit = fit_order(samples)
        return fit.rho_hat, 1.0, "|diff| <= 0.2", abs(fit.rho_hat - 1.0) <= 0.2

    def chk_wos_dominance():
        sysm = PathSystem.equally_spaced_rays(2)
        z1 = -2j  # domain 1 of two rays is the lower half plane
        est = estimate_harmonic_measure(
            sysm, 1, 8.0, z1, WosConfig(n_walks=20000, seed=7)
        )
        bound = (8.0 / math.pi) * math.exp(
            -math.pi * carleman_integral(sysm, 1, abs(z1), 8.0)
        )
        ok = est.omega_hat <= bound + 3.0 * est.ci95_halfwidth
        return est.omega_hat, bound, "omega_hat <= bound + 3 ci95", ok

    return {
        "construct-constant": chk_constants,
        "carleman-rays": chk_carleman_rays,
        "sector-inequality": chk_sector,
        "classic-order": chk_classic_order,
        "wos-dominance": chk_wos_dominance,
    }


def cmd_check(args) -> int:
    checks = _bundled_checks()
    results = []
    failed = []
    for name, fn in checks.items():
        if args.filter and args.filter not in name:
            continue
        measured, expected, note, ok = fn()
        results.append(
            {
                "criterion": name,
                "measured": measured,
                "expected": expected,
                "tolerance": note,
                "pass": bool(ok),
            }
        )
        if not ok:
            failed.append(name)
    if not results:
        raise UsageError("filter %r matched no checks" % args.filter)
    _write_json(args.out, results)
    for r in results:
        print("%-24s %s" % (r["criterion"], "PASS" if r["pass"] else "FAIL"))
    if failed:
        print("failed: %s" % ", ".join(failed))
        return 1
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="asymlab")
    p.add_argument("--manifest", default="run_manifest.json", help="manifest/1 output path")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a constructed-function spec")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--a", action="append", default=[], help="target (poly:... or series:@file), repeat n times")
    c.add_argument("--out", default="funcspec.json")
    c.set_defaults(func=cmd_construct)

    t = sub.add_parser("trace", help="ray residual CSV for a constructed spec")
    t.add_argument("--spec")
    t.add_argument("--radii", required=True)
    t.add_argument("--out", default="-")
    t.set_defaults(func=cmd_trace)

    g = sub.add_parser("growth", help="circle scans and order fit")
    g.add_argument("--spec")
    g.add_argument("--f", help="inline spec (poly:..., classic:n, series:@file)")
    g.add_argument("--radii", required=True)
    g.add_argument("--coarse", type=int, default=128)
    g.add_argument("--out", default="growth.csv")
    g.add_argument("--fit-out", default="orderfit.json")
    g.set_defaults(func=cmd_growth)

    d = sub.add_parser("domain", help="angular measures and Carleman bounds")
    d.add_argument("--system", help="pathsystem/1 JSON file")
    d.add_argument("--rays", type=int, help="use n equally spaced rays")
    d.add_argument("--j", type=int, default=1)
    d.add_argument("--R1", type=float, default=1.0)
    d.add_argument("--R", type=float, required=True)
    d.add_argument("--radii", required=True, help="radii for sector checks and slice CSV")
    d.add_argument("--tol", type=float, default=1e-10)
    d.add_argument("--wos", action="store_true")
    d.add_argument("--z1", default="1+1i")
    d.add_argument("--walks", type=int, default=10000)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default="domain.json")
    d.add_argument("--slices-out", default="slices.csv")
    d.set_defaults(func=cmd_domain)

    k = sub.add_parser("check", help="bundled verification suite")
    k.add_argument("--filter", default="")
    k.add_argument("--out", default="check.json")
    k.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        rc = args.func(args)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        _write_json(args.manifest, {"format": "manifest/1", "command": args.command, "config": config})
        return rc
    except (UsageError, ValueError, FileNotFoundError) as e:
        print("error: %s" % e, file=_sys.stderr)
        return 2
    except (QuadratureNonconvergence, DegenerateRadiusError) as e:
        print("nonconvergence: %s" % e, file=_sys.stderr)
        return 3
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=_sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
