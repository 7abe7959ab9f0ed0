"""Seeded inputs and output checks of the three benchmark workloads.

Each workload is a list of CLI invocations (``items``) drawn from fixed
strata in round-robin order, with positions inside a stratum taken from a
low-discrepancy sequence whose offsets come from the seed.  Any prefix of
the list therefore covers every stratum evenly, which keeps runs of
different seeds comparable.  The same seed gives the same items.

``strings``  find-string --lambda L --q Q                     (JSON)
``fiber``    fiber --q Q --steps 200                          (CSV)
``curves``   curve --lambda L --e2 E --samples 2048 --periods 2 --format csv

Known defects are run as *defect probes* outside the timed loop, so every
run shows them without counting a failed operation in the timed workload:
the ``fiber`` stratum (5/4, 3/2), where ``trace_fiber`` raises ValueError,
and the ``strings`` window of J(lambda) above lambda = -1, where
``find_string`` raises BracketError near the saddle boundary.

Everything from halfelastica is imported inside the functions, so loading
this module does not import the package before the worker times that
import.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

PLASTIC = 1.324717957244746  # R2 low-discrepancy sequence constant
GOLDEN = 0.6180339887498949

STEPS = 200
SAMPLES = 2048
PERIODS = 2.0
# Distinct items per run: a fixed planning rate (items per second, below
# the rate measured on a 2-core 2.1 GHz host) times --seconds.  The timed
# loop runs every distinct item once, then repeats them from the start until
# the time is up, so which items a run attempts (and which of them fail)
# depends only on the seed and --seconds, never on the host's speed.
PLANNING_RATE = {"strings": 6.0, "fiber": 0.8, "curves": 8.0}
# One cycle of the four curve strata in CRITERION_08_EVERY (in
# CRITERION_09_EVERY), chosen by the seed, gets the library-level checks of
# acceptance criterion 08 (09); the cheap output checks run on every item.
CRITERION_08_EVERY = 4
CRITERION_09_EVERY = 8

TOL_PERIOD = 1e-9
TOL_CONSERVATION = 1e-8
TOL_MOMENTUM = 1e-8
TOL_FRENET = 1e-6
TOL_ENDPOINT = 1e-3
SIDE_STRIDE = 4  # fiber rows between locus-side samples

# One fixed item per workload, run once after the import to finish lazy
# set-up; it is part of setup_s and never of the timed loop.
WARMUP = {
    "strings": ["find-string", "--lambda", "-1.01", "--q", "11/10"],
    "fiber": ["fiber", "--q", "11/10", "--steps", str(STEPS)],
    "curves": ["curve", "--lambda", "-1.3", "--e2", "2.3", "--samples",
               str(SAMPLES), "--periods", "2", "--format", "csv"],
}

EXTENSION = {"strings": "json", "fiber": "csv", "curves": "csv"}

# Problems that mean the outputs are not reproducible (the run is then not
# correct), as opposed to an item whose output fails a check (it counts as
# failed).
CHANGED_ON_REPEAT = "output differs from an earlier run of the item"
CHANGED_BY_TRACING = "untraced rerun gave different output"


def _sequence(rng: random.Random, dims: int):
    """Additive-recurrence sequence in [0, 1)^dims with seeded offsets."""
    if dims == 1:
        steps = (GOLDEN,)
    else:
        steps = (1.0 / PLASTIC, 1.0 / PLASTIC**2)
    offsets = [rng.random() for _ in steps]
    j = 0
    while True:
        yield tuple((o + (j + 1) * a) % 1.0 for o, a in zip(offsets, steps))
        j += 1


def simplest_rational(lo, hi) -> Fraction:
    """The rational with the smallest denominator in [lo, hi], 0 < lo <= hi,
    by continued-fraction descent in exact arithmetic."""
    lo, hi = Fraction(lo), Fraction(hi)
    whole = math.floor(lo)
    if math.ceil(lo) <= hi:
        return Fraction(math.ceil(lo))
    return whole + 1 / simplest_rational(1 / (hi - whole), 1 / (lo - whole))


def _rationals(lo: Fraction | float, hi: Fraction | float, max_den: int,
               include_hi: bool = False) -> list[Fraction]:
    out = set()
    for n in range(1, max_den + 1):
        for m in range(math.floor(lo * n), math.ceil(hi * n) + 1):
            f = Fraction(m, n)
            if lo < f < hi or (include_hi and f == hi):
                out.add(f)
    return sorted(out)


def _q_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# item generation
# ---------------------------------------------------------------------------


def _strings_lambda(stratum: int, u: float) -> float:
    from halfelastica import moduli

    if stratum == 0:
        return -2.0 + 1.0 * u * (1.0 - 1e-9)  # [-2, -1)
    lo, hi = ((-1.0, moduli.LAMBDA_EXCEPTIONAL) if stratum == 1 else
              (moduli.LAMBDA_EXCEPTIONAL, moduli.LAMBDA_CRITICAL - 5e-3))
    return lo + (hi - lo) * (0.005 + 0.99 * u)


def _window_q(lam: float, u: float) -> Fraction:
    """Simplest rational in a seeded window of J(lambda), with J capped to
    (chi, chi + 2) above lambda = -1."""
    from halfelastica import moduli

    chi = moduli.chi(lam)
    lo, hi = (1.0, chi) if lam <= -1.0 else (chi, chi + 2.0)
    centre = lo + (hi - lo) * (0.02 + 0.96 * u)
    half = 0.01 * (hi - lo)
    return simplest_rational(centre - half, centre + half)


def _attained_q(lam: float, u: float) -> Fraction | None:
    """Simplest rational between the oracle period-map values at two close
    seeded interior heights of the slice, so a crossing lies between them;
    None when it falls outside J(lambda), where the CLI refuses it (the
    slice dips below chi near lambda = -1)."""
    from halfelastica import moduli, periodmap

    a = moduli.a_lower(lam)
    span = moduli.eta_pm(lam)[1] - a
    e2 = a + span * (0.05 + 0.9 * u)
    p0 = periodmap.period_map_oracle((lam, e2))
    p1 = periodmap.period_map_oracle((lam, e2 + 1e-3 * span))
    q = simplest_rational(min(p0, p1), max(p0, p1))
    return q if q > moduli.chi(lam) else None


def _strings(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"strings/{seed}")
    seqs = [_sequence(rng, 2) for _ in range(3)]
    items = []
    for k in range(count):
        s = k % 3
        q = None
        while q is None:
            u_lam, u_q = next(seqs[s])
            lam = _strings_lambda(s, u_lam)
            q = _attained_q(lam, u_q) if s == 1 else _window_q(lam, u_q)
        items.append(_string_item(lam, q, s))
    return items


def _string_item(lam: float, q: Fraction, stratum: int) -> dict:
    return {"argv": ["find-string", "--lambda", repr(lam), "--q", _q_text(q)],
            "stratum": stratum, "lam": lam, "q": _q_text(q)}


def _fiber_pools() -> list[list[Fraction]]:
    from halfelastica import moduli

    chi_m1 = Fraction(moduli.chi(-1.0))
    return [_rationals(Fraction(1), chi_m1, 24),
            _rationals(chi_m1, Fraction(6, 5), 24, include_hi=True)]


def _fiber_item(q: Fraction, stratum: int) -> dict:
    return {"argv": ["fiber", "--q", _q_text(q), "--steps", str(STEPS)],
            "stratum": stratum, "q": _q_text(q)}


def _fiber(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"fiber/{seed}")
    pools = _fiber_pools()
    seqs = [_sequence(rng, 1) for _ in pools]
    items = []
    for k in range(count):
        s = k % len(pools)
        (u,) = next(seqs[s])
        items.append(_fiber_item(pools[s][int(u * len(pools[s]))], s))
    return items


def _curve_point(stratum: int, u_lam: float, u_e2: float) -> tuple[float, float]:
    from halfelastica import moduli

    lam_e, lam_c = moduli.LAMBDA_EXCEPTIONAL, moduli.LAMBDA_CRITICAL
    if stratum == 0:  # T-: between the lower time-like boundary and E
        lam = -2.0 + (lam_e - 0.01 + 2.0) * u_lam
        lo, hi = moduli.a_lower(lam), moduli.exceptional_c(lam)
    elif stratum == 1:  # T+: above E (or the lower boundary) up to eta+
        lam = -2.0 + (lam_c - 5e-3 + 2.0) * u_lam
        lo = (moduli.exceptional_c(lam) if lam < lam_e
              else moduli.a_lower(lam))
        hi = moduli.eta_pm(lam)[1]
    elif stratum == 2:  # S: between eta- and the light-like height b0
        lam = -2.0 + 0.95 * u_lam
        lo, hi = moduli.eta_pm(lam)[0], moduli.b0(lam)
    else:  # L: on the light-like curve
        lam = -2.0 + 0.95 * u_lam
        return lam, moduli.b0(lam)
    return lam, lo + (hi - lo) * (0.05 + 0.9 * u_e2)


def _curves(seed: int, count: int) -> list[dict]:
    from halfelastica import moduli

    rng = random.Random(f"curves/{seed}")
    seqs = [_sequence(rng, 2) for _ in range(4)]
    offset = rng.randrange(CRITERION_09_EVERY)
    expected = ("T-", "T+", "S", "L")
    items = []
    for k in range(count):
        s = k % 4
        lam, e2 = _curve_point(s, *next(seqs[s]))
        region = moduli.classify_region(lam, e2).region.value
        if region != expected[s]:
            raise RuntimeError(f"curves stratum {expected[s]} drew a point "
                               f"in region {region}: ({lam!r}, {e2!r})")
        items.append({
            "argv": ["curve", "--lambda", repr(lam), "--e2", repr(e2),
                     "--samples", str(SAMPLES), "--periods", "2",
                     "--format", "csv"],
            "stratum": s, "lam": lam, "e2": e2,
            "criterion_08": (k // 4 + offset) % CRITERION_08_EVERY == 0,
            "criterion_09": (k // 4 + offset) % CRITERION_09_EVERY == 0,
        })
    return items


GENERATORS = {"strings": _strings, "fiber": _fiber, "curves": _curves}


def pool_size(workload: str, seconds: float) -> int:
    """Number of distinct items of a run of ``seconds``; at least one cycle
    of the strata."""
    return max(4, math.ceil(PLANNING_RATE[workload] * seconds))


def generate(workload: str, seed: int, count: int) -> list[dict]:
    return GENERATORS[workload](seed, count)


def defect_probes(workload: str, seed: int, count: int = 6) -> list[dict]:
    """Seeded items from the regions of the two known defects."""
    if workload == "strings":
        rng = random.Random(f"strings-defect/{seed}")
        seq = _sequence(rng, 2)
        out = []
        for _ in range(count):
            u_lam, u_q = next(seq)
            lam = _strings_lambda(1, u_lam)
            out.append(_string_item(lam, _window_q(lam, u_q), 1))
        return out
    if workload == "fiber":
        rng = random.Random(f"fiber-defect/{seed}")
        pool = _rationals(Fraction(5, 4), Fraction(3, 2), 24)
        seq = _sequence(rng, 1)
        return [_fiber_item(pool[int(next(seq)[0] * len(pool))], 2)
                for _ in range(count)]
    return []


# ---------------------------------------------------------------------------
# output checks (run outside the timed loop)
# ---------------------------------------------------------------------------


def check(workload: str, item: dict, data: bytes) -> tuple[list[str], int]:
    """Problems found in one item's CLI output, and its work units (strings,
    fiber points or curve samples)."""
    return CHECKS[workload](item, data)


def _check_string(item: dict, data: bytes) -> tuple[list[str], int]:
    from halfelastica import periodmap

    rep = json.loads(data)
    q = Fraction(item["q"])
    problems = []
    if rep["q"] != item["q"]:
        problems.append(f"q field {rep['q']} != {item['q']}")
    if rep["lambda"] != item["lam"]:
        problems.append(f"lambda field {rep['lambda']!r} != {item['lam']!r}")
    if rep["region"] not in ("T-", "E", "T+"):
        problems.append(f"region {rep['region']} is not time-like")
    oracle = periodmap.period_map_oracle((rep["lambda"], rep["e2"]))
    if not abs(oracle - float(q)) <= TOL_PERIOD:
        problems.append(f"|oracle - q| = {abs(oracle - float(q)):.2e}")
    if rep["wave_number"] != q.denominator:
        problems.append(f"wave number {rep['wave_number']} != {q.denominator}")
    if rep["turning_number"] != q.numerator:
        problems.append(f"turning number {rep['turning_number']} != {q.numerator}")
    return problems, 1


def _check_fiber(item: dict, data: bytes) -> tuple[list[str], int]:
    from halfelastica import moduli, periodmap

    lines = data.decode().splitlines()
    problems = []
    if lines[0] != "lambda,e2,region":
        problems.append(f"header {lines[0]!r}")
    rows = [(float(a), float(b), r) for a, b, r in
            (line.split(",") for line in lines[1:])]
    q = Fraction(item["q"])
    qv = float(q)
    e2s = [r[1] for r in rows]
    if any(b <= a for a, b in zip(e2s, e2s[1:])):
        problems.append("e2 is not strictly increasing")
    worst = max((abs(periodmap.period_map_oracle((lam, e2)) - qv)
                 for lam, e2, region in rows if region != "E"), default=0.0)
    if not worst <= TOL_PERIOD:
        problems.append(f"worst |oracle - q| = {worst:.2e}")
    lam_star, e_star = periodmap.fiber_endpoint(q)
    lam_end, e_end, _ = rows[-1]
    if not (abs(lam_end - lam_star) <= TOL_ENDPOINT
            and abs(e_end - e_star) <= TOL_ENDPOINT):
        problems.append(f"last point ({lam_end}, {e_end}) far from the "
                        f"endpoint ({lam_star}, {e_star})")
    # an E row must sit between any two rows on opposite sides of the locus;
    # the side is sampled every SIDE_STRIDE rows
    side = []
    for i, (lam, e2, region) in enumerate(rows):
        if (region != "E" and lam < moduli.LAMBDA_EXCEPTIONAL
                and (i % SIDE_STRIDE == 0 or i == len(rows) - 1)):
            side.append((i, math.copysign(1.0, e2 - moduli.exceptional_c(lam))))
    for (i, a), (j, b) in zip(side, side[1:]):
        if a != b and not any(rows[k][2] == "E" for k in range(i + 1, j)):
            problems.append(f"fiber crosses E between rows {i} and {j} "
                            "without an E row")
    return problems, len(rows)


def _parse_csv(data: bytes, columns: int):
    import numpy as np

    body = data.split(b"\n", 1)[1].strip()
    flat = np.array(body.replace(b"\n", b",").split(b","), dtype=float)
    return flat.reshape(-1, columns)


def _check_curve(item: dict, data: bytes) -> tuple[list[str], int]:
    import numpy as np
    from halfelastica import curvegen, dynamics, moduli

    problems = []
    if not data.startswith(b"s,mu,mu_dot,x1,x2,x3,u,v,theta\n"):
        problems.append("unexpected CSV header")
    rows = data.count(b"\n") - 1
    if rows != int(round(SAMPLES * PERIODS)) + 1:
        problems.append(f"{rows} rows")
    if b"nan" in data or b"inf" in data:
        problems.append("non-finite value")
    point = moduli.classify_region(item["lam"], item["e2"])
    if item["criterion_08"] and not problems:
        table = _parse_csv(data, 9)
        curve = curvegen.make_curve(point, samples=SAMPLES, periods=PERIODS)
        columns = (curve.s, curve.mu, curve.mu_dot, *curve.gamma.T,
                   *curve.poincare.T, curve.theta)
        if not all(np.array_equal(c, table[:, i]) for i, c in enumerate(columns)):
            problems.append("CSV differs from the library curve")
        xi = curvegen.momentum_samples(curve)
        drift = float(np.max(np.abs(xi - curvegen.expected_momentum(curve))))
        if not drift <= TOL_MOMENTUM:
            problems.append(f"momentum constancy {drift:.2e}")
        # criterion 08 measures the residual on the curvature solver
        sol = dynamics.solve_mu(point, n_periods=PERIODS, samples_per_period=512,
                                residual_tol=math.inf)
        resid = sol.conservation_residual()
        if not resid <= TOL_CONSERVATION:
            problems.append(f"conservation residual {resid:.2e}")
    if item["criterion_09"]:
        oracle = curvegen.frenet_oracle(point, n_periods=1.0, samples=256)
        closed = curvegen.make_curve(point, s_grid=oracle.s)
        align = curvegen.initial_frame(closed)
        gap = float(np.max(np.abs(oracle.gamma @ align.T - closed.gamma)))
        if not gap <= TOL_FRENET:
            problems.append(f"Frenet alignment {gap:.2e}")
    return problems, rows


CHECKS = {"strings": _check_string, "fiber": _check_fiber,
          "curves": _check_curve}
