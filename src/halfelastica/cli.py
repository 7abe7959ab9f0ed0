"""Command-line surface: classification, curve/signature generation,
period-map scans, closed-string search, fiber tracing, and a phase-portrait
renderer, with deterministic JSON/CSV output and self-contained SVG
rendering of the unit disk.

Exit codes: 0 success, 2 point outside the moduli space (classify), 3
characteristic number outside the admissible interval, 64 usage error, 65
numeric domain error, 74 the output could not be written.  Floating-point
output is printed with 17 significant digits in a fixed field order, so
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

import numpy as np

from . import curvegen, dynamics, moduli, periodmap
from .errors import CharacteristicIntervalError, DomainError, HalfElasticaError
__all__ = ["main"]

SCHEMA = "halfelastica/1"

EXIT_OK = 0
EXIT_OUTSIDE = 2
EXIT_Q_RANGE = 3
EXIT_USAGE = 64
EXIT_DOMAIN = 65
EXIT_IOERR = 74


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, int):
        return str(x)
    if x is None:
        return "null"
    if isinstance(x, str):
        escaped = x.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"unsupported scalar {type(x)!r}")


def dumps_json(obj: dict) -> str:
    """Minimal JSON writer of one flat object, with fixed key order and
    17-digit floats."""
    return ("{\n" + ",\n".join(f'  "{k}": {_fmt(v)}' for k, v in obj.items())
            + "\n}")


# Floats as Python's '%.17g', exactly, on whole arrays.  A finite x with
# 1e-10 <= |x| < 1e16 is m 2^e with a 53-bit integer m.  With X the decimal
# exponent of |x| and p = 16 - X in [1, 26], its 17 significant digits are
# the integer q = round(m 5^p 2^(e + p)), rounded half to even on the exact
# binary value: (8m) 5^p < 2^117 is a two-limb uint64 product and the shift
# 3 - e - p lies in [1, 63].  No float of the range lies within half a unit
# of the 17th digit below a power of ten, so q < 10^17.  Each cell is _CELL
# bytes: a sign and the lead "0.000" of the fixed form, 17 (digit, dot)
# byte pairs, the exponent "e-XX" of the scientific form (X < -4) and a
# separator; the bytes a value does not use are NUL, and the table drops
# them when it joins its cells.  Zeros are cells too; every other value
# (non-finite, 0 < |x| < 1e-10, |x| >= 1e16) is formatted one at a time by
# '%.17g'.
_EXP_MIN, _EXP_MAX = -10, 16
_DIGITS = 17
_CELL = 48
_LEAD = 6
_SEP = _CELL - 1
_TEXT = 24  # the longest '%.17g' of a float, as "-2.2250738585072014e-308"
_CSV_BLOCK_ROWS = 256


def _at_least_pow10(k: int) -> float:
    # the least float >= 10^k: x >= 10^k exactly where x >= it
    t = float(Fraction(10) ** k)
    return t if Fraction(t) >= Fraction(10) ** k else math.nextafter(t, math.inf)


_DECADE_START = np.array([_at_least_pow10(k)
                          for k in range(_EXP_MIN, _EXP_MAX + 1)])
_POW5 = np.array([5**p for p in range(_DIGITS - _EXP_MIN)], dtype=np.uint64)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four digits of each group g < 10^4 at the even bytes of a word,
    and its count of trailing zero digits (4 for g = 0)."""
    # the digit rows of 0000 ... 9999 as bytes, with no int64 temporaries
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    digits = np.zeros((d.shape[1], 8), np.uint8)
    digits[:, ::2] = d.T + ord("0")
    zeros = np.logical_and.accumulate(d[::-1] == 0, axis=0).sum(axis=0)
    return digits.view(np.uint64).ravel(), zeros


_GROUP_DIGITS, _GROUP_ZEROS = _group_tables()


def _cell_layout(exp: int | None, nd: int) -> tuple[bytes, bytes]:
    """The (mask, literal) bytes of a cell with decimal exponent exp and nd
    significant digits; exp None is a zero.  A cell is (digits & mask) |
    literal."""
    mask, lit = bytearray(_CELL), bytearray(_CELL)
    keep, dot = nd, None
    if exp is None:
        lit[1], keep = ord("0"), 0
    elif exp < -4:
        dot = 0 if nd > 1 else None
        lit[_LEAD + 2 * _DIGITS:_SEP - 3] = b"e-%02d" % -exp
    elif exp < 0:
        lit[1:2 - exp] = b"0." + b"0" * (-exp - 1)
    else:
        keep = max(nd, exp + 1)
        dot = exp if nd > exp + 1 else None
    mask[_LEAD:_LEAD + 2 * keep:2] = b"\xff" * keep
    if dot is not None:
        lit[_LEAD + 2 * dot + 1] = ord(".")
    return bytes(mask), bytes(lit)


def _cell_tables() -> tuple[np.ndarray, np.ndarray]:
    # one row per (exponent, nd), then the zero; then all of them negative
    masks, lits = zip(*(_cell_layout(exp, nd)
                        for exp in [*range(_EXP_MIN, _EXP_MAX + 1), None]
                        for nd in range(1, _DIGITS + 1)))
    mask = b"".join(masks) * 2
    lit = bytearray(b"".join(lits) * 2)
    lit[len(lits) * _CELL::_CELL] = b"-" * len(lits)
    return (np.frombuffer(mask, np.uint64).reshape(2 * len(masks), -1),
            np.frombuffer(lit, np.uint64).reshape(2 * len(lits), -1))


_CELL_MASK, _CELL_LITERAL = _cell_tables()
_ZERO_CELL = (_EXP_MAX + 1 - _EXP_MIN) * _DIGITS


def _digits(bits: np.ndarray, biased: np.ndarray,
            exp: np.ndarray) -> np.ndarray:
    """The 17 significant digits q of the floats with these bits, biased
    binary exponents and decimal exponents, as int64 (a function of its
    own, so that the product's temporaries are freed before the cells are
    built)."""
    u64 = np.uint64
    p = 16 - exp
    m = ((bits & u64((1 << 52) - 1)) | u64(1 << 52)) << u64(3)
    shift = (1078 - p - biased).astype(np.uint64)
    f = _POW5.take(p)
    m_lo, m_hi = m & u64(0xFFFFFFFF), m >> u64(32)
    f_lo, f_hi = f & u64(0xFFFFFFFF), f >> u64(32)
    lo = m_lo * f_lo
    mid = m_lo * f_hi + m_hi * f_lo
    hi = m_hi * f_hi + (mid >> u64(32))
    mid = lo + (mid << u64(32))
    hi += mid < lo
    lo = mid
    q = (lo >> shift) | (hi << (u64(64) - shift))
    rest = lo & ((u64(1) << shift) - u64(1))
    half = u64(1) << (shift - u64(1))
    q += (rest > half) | ((rest == half) & (q & u64(1)).astype(bool))
    return q.view(np.int64)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(len(x), _CELL) bytes: the '%.17g' text of each float of x, NUL
    padded, with the separator byte NUL."""
    ax = np.abs(x)
    exact = (ax >= 1e-10) & (ax < 1e16)
    zero = ax == 0.0
    ax = np.where(exact, ax, 1.0)
    biased = ax.view(np.int64) >> 52
    # floor(log10 2^E) is (E * 78913) >> 18 for |E| < 1650; floor(log10 x)
    # is that or one more
    exp = (biased - 1023) * 78913 >> 18
    exp += ax >= _DECADE_START.take(exp + 1 - _EXP_MIN)
    q = _digits(ax.view(np.uint64), biased, exp)
    lead = q // 10**16
    hi8 = q - lead * 10**16
    hi8, lo8 = hi8 // 10**8, hi8 % 10**8
    groups = np.empty((4, len(x)), np.int64)
    groups[0], groups[1] = hi8 // 10**4, hi8 % 10**4
    groups[2], groups[3] = lo8 // 10**4, lo8 % 10**4
    # nd = 17 - the trailing zero digits of q, group by group from the last
    zeros = _GROUP_ZEROS.take(groups)
    whole = zeros == 4
    nd = _DIGITS - (zeros[3] + whole[3] * (zeros[2] + whole[2] * (
        zeros[1] + whole[1] * zeros[0])))
    row = (exp - _EXP_MIN) * _DIGITS + nd - 1
    row[zero] = _ZERO_CELL
    row += np.signbit(x) * (len(_CELL_MASK) // 2)
    words = np.empty((len(x), _CELL // 8), np.uint64)
    words[:, 1:5] = _GROUP_DIGITS.take(groups.T)
    cells = words.view(np.uint8)
    cells[:, _LEAD] = lead + 48
    words &= _CELL_MASK.take(row, axis=0)
    words |= _CELL_LITERAL.take(row, axis=0)
    other = ~(exact | zero)
    if other.any():
        cells[other, :_TEXT] = np.array(
            [("%.17g" % v).encode() for v in x[other].tolist()],
            dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
        cells[other, _TEXT:] = 0
    return cells


def write_csv(header: list[str], columns) -> Iterator[bytes]:
    """The CSV table of equal-length columns as UTF-8 byte chunks: the
    header line, then blocks of _CSV_BLOCK_ROWS rows.  Float arrays or
    lists have 17 significant digits, exactly as ``'%.17g' % v``, str and
    int lists are as ``str`` gives them (a str cell holds no NUL character).

    A block's float cells come from :func:`_float_cells` on the slices of
    its float columns, the others from their ``str`` bytes, so a chunk is
    the only text of the table that is held at once."""
    n = len(columns[0])
    # numpy's float64 is a float subclass
    kinds = [len(c) > 0 and isinstance(c[0], float) for c in columns]
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    floats = [np.asarray(c, dtype=float) for c, k in zip(columns, kinds) if k]
    float_seps = np.frombuffer(b"".join(s for s, k in zip(seps, kinds) if k),
                               np.uint8)
    yield (",".join(header) + "\n").encode()
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n)
        block = np.empty((stop - start, len(floats)))
        for j, c in enumerate(floats):
            block[:, j] = c[start:stop]
        cells = _float_cells(block.ravel()).reshape(len(block), -1, _CELL)
        cells[:, :, _SEP] = float_seps
        if not all(kinds):
            fields = iter(cells.transpose(1, 0, 2))
            cells = np.concatenate(
                [next(fields) if k else _text_cells(c[start:stop], sep)
                 for c, k, sep in zip(columns, kinds, seps)], axis=1)
        yield cells.tobytes().translate(None, b"\0")


def _text_cells(values, sep: bytes) -> np.ndarray:
    """(len(values), width) bytes: the str of each value and sep, NUL
    padded."""
    return np.array([str(v).encode() + sep for v in values]).view(
        np.uint8).reshape(len(values), -1)


# ---------------------------------------------------------------------------
# SVG rendering of the unit disk (1000 x 1000 viewBox)
# ---------------------------------------------------------------------------


def _disk_xy(u, v):
    return 500.0 * (1.0 + u), 500.0 * (1.0 - v)


def _svg_path(xs, ys, stroke: str, width: float = 2.0,
              dashed: bool = False) -> Iterator[bytes]:
    """The <path> of the polyline through (xs, ys) as UTF-8 byte chunks:
    its opening, the '%.6f' coordinates of _CSV_BLOCK_ROWS vertices at a
    time, and its attributes."""
    dash = ' stroke-dasharray="8,6"' if dashed else ""
    yield b'<path d="'
    for start in range(0, len(xs), _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, len(xs))
        template = ("M%.6f,%.6f" if start == 0 else " L%.6f,%.6f") + (
            " L%.6f,%.6f" * (stop - start - 1))
        yield (template % tuple(np.column_stack(
            [xs[start:stop], ys[start:stop]]).ravel().tolist())).encode()
    yield (f'" fill="none" stroke="{stroke}" stroke-width="{width:.2f}"'
           f'{dash}/>').encode()


def _svg_circle(cx: float, cy: float, r: float, stroke: str,
                width: float = 2.0, dashed: bool = False) -> str:
    dash = ' stroke-dasharray="8,6"' if dashed else ""
    return (f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{r:.6f}" fill="none" '
            f'stroke="{stroke}" stroke-width="{width:.2f}"{dash}/>')


def svg_document(elements) -> Iterator[bytes]:
    """The SVG document of the elements, each a str or the byte chunks of a
    streamed path, as UTF-8 byte chunks."""
    yield (b'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n'
           b'<rect width="1000" height="1000" fill="white"/>\n')
    for i, element in enumerate(elements):
        if i:
            yield b"\n"
        if isinstance(element, str):
            yield element.encode()
        else:
            yield from element
    yield b"\n</svg>\n"


def _osculating_circles(curve) -> list[str]:
    """Bounding circles of the trajectory: the two osculating circles/arcs
    of the light- and space-like families and the annulus circles of the
    time-like one."""
    qd = curve.quartic
    out = []
    if curve.kind is curvegen.CurveKind.BL:
        for mu in (qd.e2, qd.e1):
            v = (2.0 * mu * mu - 1.0) / (1.0 + math.sqrt(2.0) * mu) ** 2
            cx, cy = _disk_xy(0.0, 0.5 * (1.0 + v))
            out.append(_svg_circle(cx, cy, 500.0 * 0.5 * (1.0 - v), "red",
                                   1.5, dashed=True))
    elif curve.kind is curvegen.CurveKind.BS:
        for mu in (qd.e2, qd.e1):
            v = curvegen._disk_height(qd.c, mu)
            k = (v * v - 1.0) / (2.0 * v)
            cx, cy = _disk_xy(0.0, k)
            out.append(_svg_circle(cx, cy, 500.0 * math.hypot(k, 1.0), "red",
                                   1.5, dashed=True))
    else:
        inner, outer = curvegen.bt_annulus_radii(curve.modulus)
        if inner > 1e-9:
            out.append(_svg_circle(500.0, 500.0, 500.0 * inner, "red", 1.5,
                                   dashed=True))
        out.append(_svg_circle(500.0, 500.0, 500.0 * outer, "red", 1.5,
                               dashed=True))
    return out


def curve_svg(curve) -> Iterator[bytes]:
    xs, ys = _disk_xy(curve.poincare[:, 0], curve.poincare[:, 1])
    return svg_document([_svg_circle(500, 500, 500, "black", 2.0)]
                        + _osculating_circles(curve)
                        + [_svg_path(xs, ys, "steelblue", 2.0)])


# closed orbits and samples per orbit of the phase portrait
_PORTRAIT_ORBITS, _PORTRAIT_SAMPLES = 6, 400


def phase_portrait_orbits(lam: float):
    """Representative phase-plane orbits: closed loops between the
    equilibria, the separatrix level, and the two equilibrium points."""
    eta_m, eta_p = moduli.eta_pm(lam)
    orbits = []
    for frac in np.linspace(0.15, 0.85, _PORTRAIT_ORBITS):
        e2 = eta_m + (eta_p - eta_m) * frac
        if not moduli.in_moduli_space(lam, e2):
            continue
        sig = dynamics.signature((lam, e2), _PORTRAIT_SAMPLES)
        orbits.append(("closed", sig))
    # separatrix: level through the saddle, both lobes sampled from the quartic
    c_sep = dynamics.saddle_level(lam)
    mstar = dynamics.m_star(lam)
    for lo, hi, kind in ((eta_m, mstar, "separatrix"),
                         (1e-3, eta_m, "separatrix")):
        xs = np.linspace(lo + 1e-9, hi - 1e-9, _PORTRAIT_SAMPLES)
        q = moduli.quartic_value(lam, c_sep, xs)
        ys = xs * np.sqrt(np.maximum(-q, 0.0))
        loop = np.concatenate([np.column_stack([xs, ys]),
                               np.column_stack([xs[::-1], -ys[::-1]])])
        orbits.append((kind, loop))
    orbits.append(("equilibrium", np.array([[eta_m, 0.0]])))
    orbits.append(("equilibrium", np.array([[eta_p, 0.0]])))
    return orbits


def phase_portrait_svg(lam: float) -> Iterator[bytes]:
    orbits = phase_portrait_orbits(lam)
    xs = np.concatenate([o[:, 0] for _, o in orbits])
    ys = np.concatenate([o[:, 1] for _, o in orbits])
    x_hi = float(xs.max()) * 1.05
    y_hi = max(float(np.abs(ys).max()), 1e-3) * 1.1

    def to_xy(x, y):
        return 1000.0 * x / x_hi, 500.0 * (1.0 - y / y_hi)

    colors = {"closed": "firebrick", "separatrix": "black",
              "equilibrium": "purple"}
    elements = [f'<line x1="0" y1="500" x2="1000" y2="500" '
                f'stroke="gray" stroke-width="1"/>']
    for kind, orbit in orbits:
        if kind == "equilibrium":
            x, y = to_xy(orbit[0, 0], orbit[0, 1])
            elements.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="6" '
                            f'fill="{colors[kind]}"/>')
        else:
            elements.append(_svg_path(*to_xy(orbit[:, 0], orbit[:, 1]),
                                      colors[kind], 1.5,
                                      dashed=(kind == "separatrix")))
    return svg_document(elements)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _emit(cfg: argparse.Namespace, chunks: Iterable[bytes]) -> None:
    """Write the UTF-8 byte chunks to ``--out`` or to stdout, one at a time.
    A stdout with no binary buffer (an ``io.StringIO``) takes them as
    text."""
    if cfg.output:
        with open(cfg.output, "wb") as handle:
            handle.writelines(chunks)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
    else:
        sys.stdout.flush()
        buffer.writelines(chunks)
        buffer.flush()


def cmd_classify(cfg: argparse.Namespace) -> int:
    point = moduli.resolve(cfg.lam, cfg.e2)
    report: dict = {"schema": SCHEMA, "command": "classify",
                    "lambda": cfg.lam, "e2": cfg.e2,
                    "region": point.region.value}
    if cfg.lam < moduli.LAMBDA_CRITICAL:
        em, ep = moduli.eta_pm(cfg.lam)
        report["eta_minus"] = em
        report["eta_plus"] = ep
    else:
        report["eta_minus"] = None
        report["eta_plus"] = None
    if point.in_moduli_space:
        qd = point.quartic
        report.update(e1=qd.e1, e3=qd.e3, e4=qd.e4, c=qd.c,
                      wavelength=dynamics.wavelength(point))
    _emit(cfg, [(dumps_json(report) + "\n").encode()])
    return EXIT_OK if point.in_moduli_space else EXIT_OUTSIDE


def cmd_curve(cfg: argparse.Namespace) -> int:
    curve = curvegen.make_curve(moduli.resolve(cfg.lam, cfg.e2),
                                samples=cfg.samples, periods=cfg.periods)
    if cfg.format == "svg":
        _emit(cfg, curve_svg(curve))
        return EXIT_OK
    _emit(cfg, write_csv(
        ["s", "mu", "mu_dot", "x1", "x2", "x3", "u", "v", "theta"],
        [curve.s, curve.mu, curve.mu_dot, *curve.gamma.T, *curve.poincare.T,
         curve.theta],
    ))
    return EXIT_OK


def cmd_signature(cfg: argparse.Namespace) -> int:
    point = moduli.resolve(cfg.lam, cfg.e2)
    sig = dynamics.signature(point, cfg.samples)
    if cfg.format == "svg":
        x_hi = float(sig[:, 0].max()) * 1.1
        y_hi = max(float(np.abs(sig[:, 1]).max()), 1e-6) * 1.2

        def to_xy(x, y):
            return 1000.0 * x / x_hi, 500.0 * (1.0 - y / y_hi)

        loop = np.vstack([sig, sig[:1]])
        _emit(cfg, svg_document([_svg_path(*to_xy(loop[:, 0], loop[:, 1]),
                                           "firebrick", 2.0)]))
        return EXIT_OK
    omega = dynamics.wavelength(point)
    s = np.linspace(0.0, omega, len(sig), endpoint=False)
    _emit(cfg, write_csv(["s", "mu", "mu_dot"], [s, *sig.T]))
    return EXIT_OK


def cmd_scan_period(cfg: argparse.Namespace) -> int:
    lam = cfg.lam
    a, eta_p = periodmap._slice_bounds(lam)
    n = cfg.samples
    e2 = a + (eta_p - a) * np.arange(1, n + 1) / (n + 1.0)
    values = periodmap.period_map_slice(lam, e2)
    _emit(cfg, write_csv(["e2", "P"], [e2, values]))
    return EXIT_OK


def cmd_find_string(cfg: argparse.Namespace) -> int:
    rec = periodmap.find_string(cfg.lam, cfg.q)
    if cfg.format == "svg":
        curve = curvegen.bt_curve(rec.modulus, samples=cfg.samples,
                                  periods=float(rec.wave_number))
        _emit(cfg, curve_svg(curve))
        return EXIT_OK
    report = {
        "schema": SCHEMA,
        "command": "find-string",
        "q": f"{rec.q_num}/{rec.q_den}",
        "lambda": rec.modulus.lam,
        "e2": rec.modulus.e2,
        "region": rec.modulus.region.value,
        "period_map": rec.period_value,
        "wavelength": rec.wavelength,
        "length": rec.length,
        "wave_number": rec.wave_number,
        "turning_number": rec.turning_number,
        "punctured_class": rec.punctured_class,
        "isotopy_classes": rec.isotopy_classes,
    }
    _emit(cfg, [(dumps_json(report) + "\n").encode()])
    return EXIT_OK


def cmd_fiber(cfg: argparse.Namespace) -> int:
    trace = periodmap.trace_fiber(cfg.q, cfg.steps)
    _emit(cfg, write_csv(["lambda", "e2", "region"],
                         [trace.lam, trace.e2, trace.regions]))
    return EXIT_OK


def cmd_phase_portrait(cfg: argparse.Namespace) -> int:
    if cfg.format == "svg":
        _emit(cfg, phase_portrait_svg(cfg.lam))
        return EXIT_OK
    orbits = phase_portrait_orbits(cfg.lam)
    _emit(cfg, write_csv(
        ["orbit", "kind", "x", "y"],
        [[idx for idx, (_, o) in enumerate(orbits) for _ in o],
         [kind for kind, o in orbits for _ in o],
         *np.concatenate([o for _, o in orbits]).T],
    ))
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "curve": cmd_curve,
    "signature": cmd_signature,
    "scan-period": cmd_scan_period,
    "find-string": cmd_find_string,
    "fiber": cmd_fiber,
    "phase-portrait": cmd_phase_portrait,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# the option types raise ArgumentTypeError: on a ValueError (DomainError is
# one) argparse's message names the type's __name__
def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _fraction(text: str):
    try:
        return periodmap._as_fraction(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="halfelastica",
                     description="Constrained 1/2-elastica toolkit for the "
                                 "hyperbolic plane")
    # each option's one default: the subcommands suppress theirs, so an
    # option a subcommand does not take keeps it for main's usage checks
    parser.set_defaults(samples=2048, steps=200, periods=1.0, output=None)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, *, lam=False, e2=False, q=False, fmt=("json",), steps=False,
            samples=False, periods=False):
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        if lam:
            p.add_argument("--lambda", dest="lam", type=_finite, required=True)
        if e2:
            p.add_argument("--e2", dest="e2", type=_finite, required=True)
        if q:
            p.add_argument("--q", dest="q", type=_fraction, required=True)
        if steps:
            p.add_argument("--steps", dest="steps", type=int)
        if samples:
            p.add_argument("--samples", dest="samples", type=int)
        if periods:
            p.add_argument("--periods", dest="periods", type=float)
        p.add_argument("--out", dest="output")
        p.add_argument("--format", dest="format", choices=fmt, default=fmt[0])
        return p

    add("classify", lam=True, e2=True)
    add("curve", lam=True, e2=True, fmt=("csv", "svg"), samples=True,
        periods=True)
    add("signature", lam=True, e2=True, fmt=("csv", "svg"), samples=True)
    add("scan-period", lam=True, fmt=("csv",), samples=True)
    add("find-string", lam=True, q=True, fmt=("json", "svg"), samples=True)
    add("fiber", q=True, fmt=("csv",), steps=True)
    add("phase-portrait", lam=True, fmt=("svg", "csv"))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it was, so one serves every call of main
    return build_parser()


def main(argv=None) -> int:
    try:
        cfg = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    usage = ("--samples must be at least 16" if cfg.samples < 16
             else "--steps must not be negative" if cfg.steps < 0
             else "--periods must be finite and not negative"
             if not 0.0 <= cfg.periods < math.inf else None)
    if usage:
        sys.stderr.write(f"error: {usage}\n")
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.command](cfg)
    except CharacteristicIntervalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_Q_RANGE
    except HalfElasticaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except OSError as exc:
        # the output could not be written: a closed pipe, a full device or
        # no such directory
        if not cfg.output:
            # so that the interpreter's exit flush does not fail on it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IOERR


if __name__ == "__main__":
    raise SystemExit(main())
