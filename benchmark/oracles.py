"""Independent oracles for the benchmark's outputs.

They run after the timed loop, with tracing off, and never feed a timing.
Each check returns a Verdict: whether the output meets its tolerance, and
the correct significant digits of every deterministic value it compared
(statistical WoS checks contribute no digits).

- construct: phi = (1/n) E_{1/n} in mpmath through its incomplete-gamma form
  phi(z) = (1/n) e^{z^n} [n δ_m0 - sum_k w_k^m Γ(k/n, z^n)/Γ(k/n)], assembled
  into log|f| and into the ray residual f - a_j; c_n = Γ(1 + 1/n) and
  d_n = Γ(2/n)/n; the order fit against its least-squares estimator,
  recomputed in mpmath from the scans it was given.
- classic: the entire power series of f at 30 digits plus the digits its
  alternating terms cancel; A_n = (2/n) Γ(s) sin(πs/2) with s = 2/n - 1 and
  the ray tail through Γ(s, -iS).
- domain: Carleman closed forms on sectors (I = ln(R/R1)/opening, and the
  exact product omega_bound * logM_lower == 1.0), the partition identity
  sum_j Phi_j(t) = 2π, the sector-inequality sum over kinked systems, and for
  WoS the sector closed form within 3 ci95 or Carleman dominance.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field

import mpmath as mp

DIGITS_CAP = 15.0
LOG_TOL = 1e-7  # accepted |error| of ln|f| (relative error of |f|)
CONST_TOL = 1e-10  # acceptance criterion 01
CLOSED_FORM_TOL = 1e-6  # acceptance criterion 07
WOS_CI = 3.0  # acceptance criteria 08 and 09: within 3 ci95


@dataclass
class Verdict:
    ok: bool
    digits: list = field(default_factory=list)
    note: str = ""


def digits(err: float, scale: float = 1.0) -> float:
    """Correct significant digits of a value with absolute error `err` and
    magnitude `scale`, capped at DIGITS_CAP."""
    err = abs(float(err))
    scale = abs(float(scale))
    if err == 0.0 or scale == 0.0:
        return DIGITS_CAP if err == 0.0 else 0.0
    return max(0.0, min(DIGITS_CAP, -math.log10(err / scale)))


# ---------------------------------------------------------------------------
# construct

def phi_mp(z, n: int):
    """phi(z) = (1/n) E_{1/n}(z) by the incomplete-gamma form.  m is the
    sector of z: z = e^{2πim/n} (z^n)^{1/n} with the principal root; for
    m != 0 the n branch factors sum to zero, which removes the e^{z^n} term
    that would otherwise cancel."""
    z = mp.mpc(z)
    w = z**n
    m = int(mp.nint((mp.arg(z) - mp.arg(w) / n) * n / (2 * mp.pi))) % n
    s = mp.mpc(0)
    for k in range(1, n):
        s += mp.expjpi(2 * mp.mpf(m * k) / n) * mp.gammainc(mp.mpf(k) / n, w) / mp.gamma(mp.mpf(k) / n)
    if m == 0:
        return mp.exp(w) * (n - s) / n
    return -mp.exp(w) * s / n


def _poly_mp(p, z):
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * z + mp.mpc(c)
    return acc


def f_mp(cf, z):
    """f(z) = sum_j phi(e^{-2πij/n} z) a_j(z) e^{-z^n}."""
    n = cf.n
    z = mp.mpc(z)
    tot = mp.mpc(0)
    for j in range(1, n + 1):
        tot += phi_mp(mp.expjpi(-2 * mp.mpf(j) / n) * z, n) * _poly_mp(cf.a_list[j - 1], z)
    return tot * mp.exp(-(z**n))


def residual_mp(cf, j0: int, r):
    """f - a_{j0} on ray j0.  The j0 term phi(r) a e^{-r^n} - a equals
    -(a/n) sum_k Γ(k/n, r^n)/Γ(k/n) exactly, so nothing cancels."""
    n = cf.n
    r = mp.mpf(r)
    z = r * mp.expjpi(2 * mp.mpf(j0) / n)
    s = mp.fsum(mp.gammainc(mp.mpf(k) / n, r**n) / mp.gamma(mp.mpf(k) / n) for k in range(1, n))
    tot = -_poly_mp(cf.a_list[j0 - 1], z) * s / n
    for j in range(1, n + 1):
        if j != j0:
            tot += phi_mp(mp.expjpi(-2 * mp.mpf(j) / n) * z, n) * _poly_mp(cf.a_list[j - 1], z) * mp.exp(-(z**n))
    return tot


def _log_abs_check(got: float, want) -> Verdict:
    err = abs(got - float(mp.log(abs(want))))
    return Verdict(err <= LOG_TOL, [digits(err)], "ln|f| error %.2e" % err)


def check_construct_scan(op, out, firsts, A) -> Verdict:
    with mp.workdps(40):
        want = f_mp(op.params["spec"].cf, out.r * mp.expj(out.argmax_theta))
    v = _log_abs_check(out.log_max_mod, want)
    v.ok = v.ok and out.r == op.params["r"]
    return v


def check_trace(op, out, firsts, A) -> Verdict:
    cf = op.params["spec"].cf
    worst, dig = 0.0, []
    with mp.workdps(40):
        for r, lg in out:
            want = float(mp.log10(abs(residual_mp(cf, op.params["j"], r))))
            err = abs(lg - want) * math.log(10.0)
            worst = max(worst, err)
            dig.append(digits(err))
    return Verdict(worst <= LOG_TOL and len(out) > 0, dig, "worst ln|f-a| error %.2e" % worst)


def check_constant(op, out, firsts, A) -> Verdict:
    n = op.params["n"]
    with mp.workdps(30):
        want = mp.gamma(1 + mp.mpf(1) / n) if op.kind == "c_constant" else mp.gamma(mp.mpf(2) / n) / n
    err = abs(out - float(want))
    return Verdict(err <= CONST_TOL, [digits(err, float(want))], "error %.2e" % err)


def order_fit_mp(points) -> tuple:
    """The documented estimator of fit_order, in mpmath: least-squares slope
    of ln ln M against ln r over the samples with ln M > 1, refit once with
    weight 0.1 on every point more than 2 rms below the line."""
    pts = [(mp.log(r), mp.log(lm)) for r, lm in points if lm > 1.0]
    w = [mp.mpf(1)] * len(pts)
    for _ in range(2):
        # weighted normal equations; fit_order scales rows by w, so the
        # squared residuals carry w^2
        W = [v * v for v in w]
        sw = mp.fsum(W)
        mx = mp.fsum(a * x for a, (x, _) in zip(W, pts)) / sw
        my = mp.fsum(a * y for a, (_, y) in zip(W, pts)) / sw
        sxy = mp.fsum(a * (x - mx) * (y - my) for a, (x, y) in zip(W, pts))
        sxx = mp.fsum(a * (x - mx) ** 2 for a, (x, _) in zip(W, pts))
        slope = sxy / sxx
        resid = [y - (my + slope * (x - mx)) for x, y in pts]
        rms = mp.sqrt(mp.fsum(e * e for e in resid) / len(resid))
        w = [mp.mpf("0.1") if e < -2 * rms else mp.mpf(1) for e in resid]
    return slope


def check_construct_fit(op, out, firsts, A) -> Verdict:
    """fit_order against its estimator recomputed from the scans it was
    given (each checked against phi by its own op).  Over r = 2..6 the
    targets' ln|a_j| shifts the slope of ln ln M away from n by up to ~0.4,
    so n itself is no tolerance; the distance is kept in the note."""
    samples = [firsts[k] for k in op.params["keys"] if k in firsts]
    with mp.workdps(30):
        want = order_fit_mp([(s.r, s.log_max_mod) for s in samples])
        want = float(want)
    err = abs(out.rho_hat - want)
    return Verdict(err <= 1e-9 * max(1.0, abs(want)), [digits(err, want)],
                   "rho_hat %.6f, estimator %.6f, order %g" % (out.rho_hat, want, op.params["order"]))


def check_fit(op, out, firsts, A) -> Verdict:
    err = abs(out.rho_hat - op.params["order"])
    return Verdict(err <= op.params["tol"], [], "rho_hat %.4f, order %g" % (out.rho_hat, op.params["order"]))


# ---------------------------------------------------------------------------
# classic

def dca_mp(z, n: int, dps: int = 30):
    """f(z) = sum_k (-1)^k z^{nk+1} / ((nk+1)(2k+1)!) with enough guard digits
    for terms as large as e^{|z|^{n/2}}."""
    extra = int(abs(z) ** (n / 2.0) / math.log(10.0)) + 10
    with mp.workdps(dps + extra):
        z = mp.mpc(z)
        zn = z**n
        term, tot, k = z, mp.mpc(0), 0
        eps = mp.mpf(10) ** (-(dps + extra))
        while True:
            tot += term / (n * k + 1)
            term = -term * zn / ((2 * k + 2) * (2 * k + 3))
            k += 1
            if k > 5 and abs(term) < eps * abs(tot):
                return +tot


def check_classic_scan(op, out, firsts, A) -> Verdict:
    n = op.params["n"]
    with mp.workdps(30):
        want = dca_mp(out.r * mp.expj(out.argmax_theta), n)
        v = _log_abs_check(out.log_max_mod, want)
    v.ok = v.ok and out.r == op.params["r"]
    return v


def a_n_mp(n: int):
    if n == 2:
        return mp.pi / 2
    s = mp.mpf(2) / n - 1
    return (mp.mpf(2) / n) * mp.gamma(s) * mp.sin(mp.pi * s / 2)


def check_far_ray(op, out, firsts, A) -> Verdict:
    """eval_dca on ray nu against u (A_n - tail) with
    tail = (2/n) Im[e^{iπs/2} Γ(s, -iS)], S = R^{n/2}; the asymptotic value
    against u A_n; and their gap against the bound (4/n) R^{1-n}."""
    n, nu, R = op.params["n"], op.params["nu"], op.params["R"]
    got, asym = out
    with mp.workdps(30):
        s = mp.mpf(2) / n - 1
        S = mp.mpf(R) ** (mp.mpf(n) / 2)
        tail = (mp.mpf(2) / n) * mp.im(mp.expjpi(s / 2) * mp.gammainc(s, mp.mpc(0, -S)))
        u = mp.expjpi(2 * mp.mpf(nu) / n)
        want_f = complex(u * (a_n_mp(n) - tail))
        want_a = complex(u * a_n_mp(n))
    ef, ea = abs(got - want_f), abs(asym - want_a)
    gap = abs(got - asym)
    bound = (4.0 / n) * R ** (1.0 - n)
    ok = ef <= LOG_TOL * abs(want_f) and ea <= 1e-8 and gap <= bound
    return Verdict(ok, [digits(ef, abs(want_f)), digits(ea, abs(want_a))],
                   "f error %.2e, A_n error %.2e, |f - A| %.2e <= %.2e" % (ef, ea, gap, bound))


def check_cli_growth(op, out, firsts, A) -> Verdict:
    code, (csv_bytes, fit_bytes) = out
    if code != 0 or csv_bytes is None or fit_bytes is None:
        return Verdict(False, [], "exit %s" % code)
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    rho = json.loads(fit_bytes)["rho_hat"]
    ok = len(rows) == op.params["rows"] and abs(rho - op.params["order"]) <= op.params["tol"]
    return Verdict(ok, [], "%d rows, rho_hat %.4f" % (len(rows), rho))


# ---------------------------------------------------------------------------
# domain

def sector_omega(z1: complex, R: float, theta0: float, width: float) -> float:
    """Harmonic measure of the arc |z| = R of the sector theta0 < arg z <
    theta0 + width, seen from z1: w = (e^{-i theta0} z1/R)^{π/width} maps
    it to the upper half disk, where the arc's measure is
    (2/π) arg((1 + w)/(1 - w))."""
    zeta = z1 * cmath.exp(-1j * theta0) / R
    w = abs(zeta) ** (math.pi / width) * cmath.exp(1j * cmath.phase(zeta) * math.pi / width)
    return (2.0 / math.pi) * cmath.phase((1 + w) / (1 - w))


def check_carleman(op, out, firsts, A) -> Verdict:
    p = op.params
    ok = out.omega_bound * out.logM_lower == 1.0 and out.integral_I > 0.0
    note = "product exact" if ok else "product %r" % (out.omega_bound * out.logM_lower)
    dig = []
    if p["openings"] is not None:
        want_i = math.log(p["R"] / p["R1"]) / p["openings"][p["j"] - 1]
        want_m = (math.pi / 8.0) * math.exp(math.pi * want_i)
        ei, em = abs(out.integral_I - want_i), abs(out.logM_lower - want_m)
        ok = ok and ei <= CLOSED_FORM_TOL * want_i and em <= CLOSED_FORM_TOL * want_m
        dig = [digits(ei, want_i), digits(em, want_m)]
        note += ", I error %.2e" % ei
    else:
        # Cauchy-Schwarz integrated over [R1, R]: sum_j I_j >= n^2/(2π) ln(R/R1)
        sysm = p["system"]
        sibs = [firsts.get(op.label.rsplit("j=", 1)[0] + "j=%d" % j) for j in range(1, sysm.n + 1)]
        if all(s is not None for s in sibs):
            total = sum(s.integral_I for s in sibs)
            low = sysm.n**2 / (2.0 * math.pi) * math.log(p["R"] / p["R1"])
            ok = ok and total >= low * (1.0 - 1e-9)
            note += ", sum I %.6g >= %.6g" % (total, low)
    return Verdict(ok, dig, note)


def check_sector(op, out, firsts, A) -> Verdict:
    lhs, rhs, holds = out
    n = op.params["system"].n
    ok = holds and lhs >= rhs * (1.0 - 1e-9) and rhs == n * n / (2.0 * math.pi)
    dig = []
    if op.params["openings"] is not None:
        want = sum(1.0 / a for a in op.params["openings"])
        ok = ok and abs(lhs - want) <= CLOSED_FORM_TOL * want
        dig = [digits(lhs - want, want)]
    return Verdict(ok, dig, "lhs %.6g, rhs %.6g" % (lhs, rhs))


def check_slices(op, out, firsts, A) -> Verdict:
    total = sum(sl.phi for sl in out)
    err = abs(total - 2.0 * math.pi)
    dig = [digits(err, 2.0 * math.pi)]
    ok = err <= CLOSED_FORM_TOL
    if op.params["openings"] is not None:
        for sl, want in zip(out, op.params["openings"]):
            dig.append(digits(sl.phi - want, want))
            ok = ok and abs(sl.phi - want) <= CLOSED_FORM_TOL
    return Verdict(ok, dig, "sum of Phi_j - 2π = %.2e" % (total - 2.0 * math.pi))


def _wos_closed_form(omega, ci95, z1, R, theta0, width) -> Verdict:
    want = sector_omega(z1, R, theta0, width)
    return Verdict(abs(omega - want) <= WOS_CI * ci95, [],
                   "omega %.5f vs closed form %.5f, 3 ci95 %.5f" % (omega, want, WOS_CI * ci95))


def check_wos(op, out, firsts, A) -> Verdict:
    p = op.params
    if p["openings"] is not None:
        return _wos_closed_form(out.omega_hat, out.ci95_halfwidth, p["z1"], p["R"], p["theta0"], p["width"])
    integral = A.carleman_integral(p["system"], 1, abs(p["z1"]), p["R"], tol=1e-8)
    bound = (8.0 / math.pi) * math.exp(-math.pi * integral)
    ok = out.omega_hat <= bound + WOS_CI * out.ci95_halfwidth
    return Verdict(ok, [], "omega %.5f vs Carleman bound %.5f" % (out.omega_hat, bound))


def check_cli_domain(op, out, firsts, A) -> Verdict:
    code, (csv_bytes, json_bytes) = out
    if code != 0 or csv_bytes is None or json_bytes is None:
        return Verdict(False, [], "exit %s" % code)
    p = op.params
    doc = json.loads(json_bytes)
    dig = []
    ok = all(s["holds"] for s in doc["sector_inequality"])
    for rep in doc["carleman"]:
        want = math.log(p["R"] / p["R1"]) / math.pi  # both domains are half planes
        ok = ok and rep["omega_bound"] * rep["logM_lower"] == 1.0
        ok = ok and abs(rep["integral_I"] - want) <= CLOSED_FORM_TOL * want
        dig.append(digits(rep["integral_I"] - want, want))
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    for row in rows:
        dig.append(digits(float(row["phi"]) - math.pi, math.pi))
    ok = ok and len(rows) == 2 * len(p["radii"])
    wos = doc["wos"]
    v = _wos_closed_form(wos["omega_hat"], wos["ci95_halfwidth"], p["z1"], p["R"], math.pi, math.pi)
    return Verdict(ok and v.ok, dig, v.note)


def check_cli_check(op, out, firsts, A) -> Verdict:
    code, (doc,) = out
    return Verdict(code == 0 and doc is not None, [], "exit %s" % code)


CHECKS = {
    ("construct", "scan"): check_construct_scan,
    ("construct", "trace_ray"): check_trace,
    ("construct", "c_constant"): check_constant,
    ("construct", "d_constant"): check_constant,
    ("construct", "fit"): check_construct_fit,
    ("classic", "scan"): check_classic_scan,
    ("classic", "fit"): check_fit,
    ("classic", "far_ray"): check_far_ray,
    ("classic", "cli_growth"): check_cli_growth,
    ("domain", "carleman_report"): check_carleman,
    ("domain", "sector"): check_sector,
    ("domain", "slices"): check_slices,
    ("domain", "wos"): check_wos,
    ("domain", "cli_domain"): check_cli_domain,
    ("domain", "cli_check"): check_cli_check,
}
