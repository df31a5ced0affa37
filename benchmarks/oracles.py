"""Output checks for the benchmark, computed independently of hcsos.

Every expected value here comes from the model's defining equations or
from closed forms, evaluated by this file; no hcsos compute routine is
called.  The one exception is the sweep CSV round trip, which by design
feeds the program's own reader and writer.

``check(op, stdout)`` returns None when the output of a successful call
is right, else the name of the first check it failed.
"""

from __future__ import annotations

import csv
import io
import json
import math

# bound before a traced run rebinds hcsos.cli.write_phase_csv
from hcsos.cli import read_phase_csv, write_phase_csv

RESIDUAL_TOL = 1e-10
BOUNDARY_TOL = 1e-9  # the program's Undetermined band around k s2^2 = 1
THRESHOLD_SKIP = 1e-6  # grid points this close to a threshold are not judged
FALSE_ALARM = 1e-9  # per sampled frequency compared; a run compares a few thousand

SWEEP_HEADER = ["k", "theta", "theta_cr", "branch", "x", "y", "s2", "kappa",
                "ks_value", "msw_value", "verdict"]


class CheckFailed(Exception):
    """An output disagrees with its oracle; the message names the check."""


def _require(cond: bool, name: str) -> None:
    if not cond:
        raise CheckFailed(name)


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def log_theta_cr(k: int) -> float:
    """log of ((k-1) k^k / 2^k)^(1/(k+1)), finite for every k >= 2."""
    return (math.log(k - 1) + k * math.log(k) - k * math.log(2.0)) / (k + 1)


def _symmetric_threshold(k: int, w: float) -> float:
    # on the symmetric branch y = 2 theta / (w + 1), so theta^(k+1) = w (w+1)^k / 2^k
    return math.exp((math.log(w) + k * math.log1p(w) - k * math.log(2.0)) / (k + 1))


def mu0_thresholds(k: int) -> tuple[float, float]:
    """Kesten-Stigum boundaries of mu0: w = sqrt(k) - 1 (h side) and its
    reciprocal (q side).  mu0 is Extreme strictly between them when
    theta_h < 1 < theta_q (k = 2, 3) and never otherwise."""
    r = math.sqrt(k) - 1.0
    return _symmetric_threshold(k, r), _symmetric_threshold(k, 1.0 / r)


def theta5_k2() -> float:
    s = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
    return ((2.0 + s) / (2.0 + 2.0 * math.sqrt(2.0))) ** (1.0 / 3.0)


def expected_mu0(k: int, theta: float) -> str | None:
    """Closed-form verdict of mu0, or None within THRESHOLD_SKIP of a threshold."""
    th_h, th_q = mu0_thresholds(k)
    if min(abs(theta - th_h), abs(theta - th_q)) <= THRESHOLD_SKIP:
        return None
    if th_h < 1.0 < th_q and th_h < theta < th_q:
        return "Extreme"
    return "NonExtreme"


def expected_mu12_k2(theta: float) -> str | None:
    t5 = theta5_k2()
    if min(abs(theta - t5), abs(theta - 1.0)) <= THRESHOLD_SKIP:
        return None
    return "Extreme" if t5 < theta < 1.0 else "Undetermined"


def below_theta_cr(k: int, theta: float) -> bool | None:
    """Whether the asymmetric pair exists; None too close to theta_cr to say."""
    gap = math.log(theta) - log_theta_cr(k)
    if abs(gap) < 1e-9:
        return None
    return gap < 0.0


def compatibility_residual(k: int, theta: float, x: float, y: float) -> float:
    """Scaled residual of x = (x^k + w)/(1 + w), y = theta (x^k + 1)/(1 + w),
    w = theta y^k."""
    w = theta * y**k
    xk = x**k
    rhs1 = (xk + w) / (1.0 + w)
    rhs2 = theta * (xk + 1.0) / (1.0 + w)
    r1 = abs(x - rhs1) / max(1.0, abs(x), abs(rhs1))
    r2 = abs(y - rhs2) / max(1.0, abs(y), abs(rhs2))
    return max(r1, r2)


def kernel(k: int, theta: float, x: float, y: float) -> list[list[float]]:
    """P = diag(lambda z)^-1 lambda diag(z) with z = (x^k, y^k, 1)."""
    lam = [[1.0, theta, 0.0], [theta, 0.0, theta], [0.0, theta, 1.0]]
    z = [x**k, y**k, 1.0]
    rows = []
    for i in range(3):
        lz = sum(lam[i][j] * z[j] for j in range(3))
        rows.append([lam[i][j] * z[j] / lz for j in range(3)])
    return rows


def stationary(k: int, theta: float, x: float, y: float) -> list[float]:
    """Reversible stationary law pi proportional to z * (lambda z)."""
    lam = [[1.0, theta, 0.0], [theta, 0.0, theta], [0.0, theta, 1.0]]
    z = [x**k, y**k, 1.0]
    pi = [z[i] * sum(lam[i][j] * z[j] for j in range(3)) for i in range(3)]
    total = sum(pi)
    return [p / total for p in pi]


def boundary_law_step(m: int, k: int, theta: float, z: list[float]) -> list[float]:
    """One step of the translation-invariant compatibility map, z_m pinned to 1."""
    def lam(i: int, j: int) -> float:
        if i == j and i % 2 == 0:
            return 1.0
        return theta if abs(i - j) == 1 else 0.0

    num = [sum(lam(i, j) * z[j] for j in range(m + 1)) for i in range(m + 1)]
    out = [(v / num[m]) ** k for v in num]
    out[m] = 1.0
    return out


# ---------------------------------------------------------------------------
# per-verb checks
# ---------------------------------------------------------------------------


def _check_verdict_values(k: int, v: dict) -> None:
    """The verdict must follow from the reported witness values."""
    _require(_close(v["ks_value"], k * v["s2"] ** 2, 1e-12), "ks_value=k*s2^2")
    _require(_close(v["msw_value"], k * v["kappa"] * v["gamma"], 1e-12),
             "msw_value=k*kappa*gamma")
    ks, msw = v["ks_value"], v["msw_value"]
    if v["measure"] == "mu0":
        if ks > 1.0 + BOUNDARY_TOL:
            rule = "NonExtreme"
        elif ks < 1.0 - BOUNDARY_TOL:
            rule = "Extreme"
        else:
            rule = "Undetermined"
    elif k == 2:
        rule = "Extreme" if msw < 1.0 - BOUNDARY_TOL else "Undetermined"
    else:
        rule = "NonExtreme" if ks > 1.0 + BOUNDARY_TOL else "Undetermined"
    _require(v["verdict"] == rule, "verdict-rule")


def _check_closed_form_verdict(k: int, theta: float, measure: str, verdict: str) -> None:
    if measure == "mu0":
        want = expected_mu0(k, theta)
    elif k == 2:
        want = expected_mu12_k2(theta)
    else:
        return
    _require(want is None or verdict == want, f"{measure}-closed-form-verdict")


def check_classify(op, stdout: str) -> None:
    k, theta = op.params["k"], op.params["theta"]
    verdicts = json.loads(stdout)
    exists = below_theta_cr(k, theta)
    measures = [v["measure"] for v in verdicts]
    if exists is not None:
        _require(measures == (["mu0", "mu1", "mu2"] if exists else ["mu0"]),
                 "measure-count")
    for v in verdicts:
        _check_verdict_values(k, v)
        _check_closed_form_verdict(k, theta, v["measure"], v["verdict"])


def check_tisgm(op, stdout: str) -> None:
    k, theta = op.params["k"], op.params["theta"]
    obj = json.loads(stdout)
    _require(math.isfinite(obj["theta_cr"]), "theta_cr-finite")
    _require(_close(obj["theta_cr"], math.exp(log_theta_cr(k)), 1e-12), "theta_cr")
    sols = obj["solutions"]
    exists = below_theta_cr(k, theta)
    if exists is not None and not obj["critical"]:
        _require(len(sols) == (3 if exists else 1), "solution-count")
    _require(sols[0]["branch"] == "Symmetric" and sols[0]["x"] == 1.0, "symmetric-first")
    if len(sols) == 3:
        up, low = sols[1], sols[2]
        _require(up["branch"] == "Upper" and up["x"] > 1.0, "upper-branch")
        _require(low["branch"] == "Lower" and low["x"] < 1.0, "lower-branch")
        _require(_close(up["x"] * low["x"], 1.0, 1e-12), "reciprocal-pair")
    for s in sols:
        _require(compatibility_residual(k, theta, s["x"], s["y"]) <= RESIDUAL_TOL,
                 "compatibility-residual")


def check_thresholds(op, stdout: str) -> None:
    k = op.params["k"]
    obj = json.loads(stdout)
    th_h, th_q = mu0_thresholds(k)
    want = {"theta1": th_h, "theta2": th_q, "theta5": theta5_k2()} if k == 2 else \
        {"theta3": th_h, "theta4": th_q}
    got = {t["name"]: t for t in obj["thresholds"]}
    _require(sorted(got) == sorted(want), "threshold-names")
    for name, value in want.items():
        _require(_close(got[name]["value"], value, 1e-10), f"{name}-value")
        _require(_close(got[name]["root_found"], value, 1e-10), f"{name}-root")


def check_iterate(op, stdout: str) -> None:
    p = op.params
    obj = json.loads(stdout)
    if obj["converged"]:
        z = obj["law"]
        _require(len(z) == p["m"] + 1 and z[-1] == 1.0 and min(z) > 0.0, "law-shape")
        step = boundary_law_step(p["m"], p["k"], p["theta"], z)
        # scaled like compatibility_residual: entries reach ~4e6 at m = 6,
        # where one ulp already exceeds tol
        residual = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(step, z))
        _require(residual <= 10.0 * p["tol"], "boundary-law-residual")
        _require(1 <= obj["iterations"] <= p["max_iter"], "iterations")
    else:
        _require(obj["iterations"] == p["max_iter"], "iterations-exhausted")
        _require(all(v > 0.0 and math.isfinite(v) for t in obj["tail"] for v in t),
                 "tail-positive")


def check_sweep(op, stdout: str) -> None:
    p = op.params
    k = p["k"]
    with open(p["out"], encoding="utf-8", newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == SWEEP_HEADER, "csv-header")
    points: dict[float, list[list[str]]] = {}
    for row in rows[1:]:
        _require(int(row[0]) == k, "csv-k")
        points.setdefault(float(row[1]), []).append(row)
    thetas = list(points)
    _require(len(thetas) == p["steps"], "grid-size")
    _require(thetas[0] == p["theta_min"] and thetas[-1] == p["theta_max"], "grid-ends")
    tc = math.exp(log_theta_cr(k))
    for theta, group in points.items():
        _require(_close(float(group[0][2]), tc, 1e-12), "theta_cr")
        if group[0][10] != "Critical":
            exists = below_theta_cr(k, theta)
            if exists is not None:
                _require(len(group) == (3 if exists else 1), "rows-per-point")
        for row in group:
            x, y, s2, ks = float(row[4]), float(row[5]), float(row[6]), float(row[8])
            _require(compatibility_residual(k, theta, x, y) <= RESIDUAL_TOL,
                     "compatibility-residual")
            _require(_close(ks, k * s2 * s2, 1e-12), "ks_value=k*s2^2")
            if row[10] != "Critical":
                measure = {"Symmetric": "mu0", "Upper": "mu1", "Lower": "mu2"}[row[3]]
                _check_closed_form_verdict(k, theta, measure, row[10])
    again = io.StringIO()
    write_phase_csv(read_phase_csv(io.StringIO(text)), again)
    _require(again.getvalue() == text, "csv-round-trip")


def _frequency_ok(f: float, q: float, n: int) -> bool:
    """Whether frequency f is consistent with probability q over n samples.

    The frequency is a mean of n independent per-sample averages in [0, 1],
    each with mean q and, whatever the correlations inside one tree,
    variance at most q (1 - q).  Bernstein's inequality then bounds
    P(|f - q| >= t) by 2 exp(-n t^2 / (2 q (1 - q) + 2 t / 3)); t is set so
    that bound is FALSE_ALARM.  For well-filled cells t is about 6.5 sigma;
    unlike a normal approximation it stays valid for cells expecting a
    handful of counts."""
    log_term = math.log(2.0 / FALSE_ALARM)
    b = 2.0 * log_term / 3.0
    t = (b + math.sqrt(b * b + 8.0 * n * log_term * q * (1.0 - q))) / (2.0 * n)
    return abs(f - q) <= t


def check_simulate(op, stdout: str) -> None:
    p = op.params
    with open(p["out"], encoding="utf-8") as fh:
        obj = json.load(fh)
    k, theta, n = p["k"], p["theta"], p["samples"]
    x, y = obj["solution"]["x"], obj["solution"]["y"]
    _require(compatibility_residual(k, theta, x, y) <= RESIDUAL_TOL,
             "compatibility-residual")
    _require(obj["inadmissible_edges"] == 0, "inadmissible-edges")
    pi = stationary(k, theta, x, y)
    _require(all(abs(a - b) <= 1e-9 for a, b in zip(obj["stationary"], pi)),
             "stationary")
    levels = obj["level_frequencies"]
    _require(len(levels) == p["depth"] + 1, "level-count")
    for freq in levels:
        for f, q in zip(freq, pi):
            _require(_frequency_ok(f, q, n), "level-frequency")
    P = kernel(k, theta, x, y)
    for i in range(3):
        for j in range(3):
            _require(_frequency_ok(obj["pair_frequencies"][i][j], pi[i] * P[i][j], n),
                     "pair-frequency")


CHECKS = {
    "sweep": check_sweep,
    "classify": check_classify,
    "tisgm": check_tisgm,
    "thresholds": check_thresholds,
    "iterate.converge": check_iterate,
    "iterate.oscillate": check_iterate,
    "simulate.deep": check_simulate,
    "simulate.wide": check_simulate,
}


def check(op, stdout: str) -> str | None:
    """None if the output of a successful call is right, else the check name."""
    try:
        CHECKS[op.kind](op, stdout)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, OverflowError, OSError) as exc:
        return f"unreadable-output:{type(exc).__name__}"
    return None
