"""One benchmark process: import halfelastica, warm up, run items, check.

Started by ``run.py`` as a fresh process with the BLAS thread pools pinned
to one thread, so its set-up time and peak RSS belong to this run alone.
It takes one JSON argument and writes one JSON result file.

``mode = "probe"``  measure set-up, then run the first ``probe_items`` items
                   (their digests are compared with the timed run's).
``mode = "run"``    measure set-up, run the closed timed loop over the run's
                   distinct items (traced when ``trace`` is set), then check
                   and hash every output, and run the known-defect probes.

Every item is one in-process call of ``halfelastica.cli.main(argv)`` with
``--out`` into the run's scratch directory; the next call starts when the
previous one returns (closed loop, one client).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import sys
import time

import calibration
import workloads


class _CapturedStderr(io.StringIO):
    """stderr stand-in that also records the exception being handled when
    the CLI reports an error, so failed items keep their exception type."""

    exc_type: str | None = None

    def write(self, text):
        handled = sys.exc_info()[0]
        if handled is not None and self.exc_type is None:
            self.exc_type = handled.__name__
        return super().write(text)


def invoke(cli, argv: list[str]) -> dict:
    captured = _CapturedStderr()
    saved, sys.stderr = sys.stderr, captured
    try:
        rc = cli.main(argv)
        exc = captured.exc_type
        message = captured.getvalue().strip()
    except Exception as err:  # the CLI lets non-library errors escape
        rc, exc, message = None, type(err).__name__, str(err)
    finally:
        sys.stderr = saved
    return {"rc": rc, "exc": exc if rc != 0 else None,
            "message": message[-300:] if rc != 0 else ""}


def _take(path: str) -> bytes | None:
    """Read and delete one output file (None when it was not written)."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    os.remove(path)
    return data


def _run_once(cli, argv: list[str], path: str) -> tuple[dict, bytes | None]:
    """One untimed item: its outcome and output bytes."""
    outcome = invoke(cli, argv + ["--out", path])
    data = _take(path)
    return outcome, data if outcome["rc"] == 0 else None


def _sha(data: bytes | None) -> str | None:
    return hashlib.sha256(data).hexdigest() if data is not None else None


def _import_cli(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from halfelastica import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"halfelastica was imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def _setup(cfg: dict):
    """Import the package and run the warm-up item; returns the CLI module,
    the set-up time and calibration kernel times taken just after it."""
    t0 = time.perf_counter()
    cli = _import_cli(cfg["root"])
    warm = os.path.join(cfg["outdir"], f"warmup-{os.getpid()}")
    outcome = invoke(cli, workloads.WARMUP[cfg["workload"]] + ["--out", warm])
    elapsed = time.perf_counter() - t0
    if outcome["rc"] != 0:
        raise SystemExit(f"warm-up item failed: {outcome}")
    os.remove(warm)
    kernel_s = [calibration.sample() for _ in range(calibration.SETUP_SAMPLES)]
    return cli, {"setup_s": elapsed, "setup_kernel_s": kernel_s}


def probe(cfg: dict) -> dict:
    cli, setup = _setup(cfg)
    items = workloads.generate(cfg["workload"], cfg["seed"], cfg["probe_items"])
    path = os.path.join(cfg["outdir"], f"probe-{os.getpid()}")
    outputs = []
    for item in items:
        outcome, data = _run_once(cli, item["argv"], path)
        outputs.append({**outcome, "digest": _sha(data)})
    return {**setup, "outputs": outputs}


# per-layer metric names, in report order
LAYER_METRICS = (
    "ellint.calls", "ellint.self_s", "ellint.us_per_call",
    "moduli.roots_calls", "moduli.roots_per_eval", "moduli.roots_us_per_call",
    "moduli.classify_calls", "moduli.exceptional_c_calls", "moduli.self_s",
    "periodmap.period_map_calls", "periodmap.evals_per_item", "periodmap.self_s",
    "root.solves", "root.f_evals_per_solve", "root.self_s",
    "dynamics.wavelength_calls", "dynamics.self_s",
    "ode.solves", "ode.rhs_evals", "ode.rhs_evals_per_sample", "ode.self_s",
    "curvegen.curves", "curvegen.samples", "curvegen.self_s",
    "cli.self_s", "cli.bytes_out", "trace.overhead",
)


def _layer_metrics(tracer, item_calls: int, bytes_out: int,
                   overhead: dict) -> dict:
    """Per-layer metrics; counts and self times are per item call."""
    from tracing import CURVE_BUILDERS

    totals = tracer.layer_totals()
    calls = {layer: agg["calls"] for layer, agg in totals.items()}
    self_s = {layer: agg["self_s"] for layer, agg in totals.items()}
    roots, roots_s = tracer.function("moduli", "roots_from_modulus")
    evals = tracer.function("periodmap", "period_map")[0]
    wavelengths = tracer.function("dynamics", "wavelength")[0]
    curves = sum(tracer.function("curvegen", n)[0] for n in CURVE_BUILDERS)
    samples = tracer.curve_samples
    # quartic solves made directly by each period-map or wavelength call
    roots_in_evals = tracer.child_calls(
        [("periodmap", "period_map"), ("dynamics", "wavelength")],
        ("moduli", "roots_from_modulus"))

    def ratio(a, b):
        return a / b if b else 0.0

    per_item = {
        "ellint.calls": calls["ellint"],
        "moduli.roots_calls": roots,
        "moduli.classify_calls": tracer.function("moduli", "classify_region")[0],
        "moduli.exceptional_c_calls": tracer.function("moduli", "exceptional_c")[0],
        "periodmap.evals_per_item": evals,
        "root.solves": calls["root"],
        "dynamics.wavelength_calls": wavelengths,
        "ode.solves": calls["ode"],
        "ode.rhs_evals": tracer.ode_rhs_evals,
        "curvegen.curves": curves,
        "curvegen.samples": samples,
    }
    m = {name: (value / item_calls, "1/item") for name, value in per_item.items()}
    m.update({f"{layer}.self_s": (self_s[layer] / item_calls, "s/item")
              for layer in ("ellint", "moduli", "periodmap", "root", "dynamics",
                            "ode", "curvegen", "cli")})
    m.update({
        "ellint.us_per_call": (1e6 * ratio(self_s["ellint"], calls["ellint"]), "us"),
        "moduli.roots_per_eval": (ratio(roots_in_evals, evals + wavelengths), "ratio"),
        "moduli.roots_us_per_call": (1e6 * ratio(roots_s, roots), "us"),
        "periodmap.period_map_calls": (evals, "count"),
        "root.f_evals_per_solve": (ratio(tracer.root_f_evals, calls["root"]), "ratio"),
        "ode.rhs_evals_per_sample": (ratio(tracer.ode_rhs_evals, samples), "ratio"),
        "cli.bytes_out": (bytes_out / item_calls, "B/item"),
        "trace.overhead": (overhead["traced_s"] / overhead["untraced_s"] - 1.0, "frac"),
    })
    return {name: {"value": m[name][0], "unit": m[name][1]} for name in LAYER_METRICS}


def _timed_loop(cli, items: list[dict], seconds: float, outdir: str,
                ext: str, tracer) -> tuple[list[dict], float]:
    """Closed loop, one client: each call starts when the previous returns.
    Every item runs once; then the items repeat from the start until
    ``seconds`` have passed.  Outputs stay on disk until the loop ends.  The
    calibration kernel runs before every item, outside the item's latency."""
    runs, kernel_s = [], []
    start = time.perf_counter()
    while len(runs) < len(items) or time.perf_counter() - start < seconds:
        kernel_s.append(calibration.sample())
        k = len(runs)
        if tracer is not None:
            tracer.item = k
        argv = items[k % len(items)]["argv"] + ["--out", os.path.join(outdir, f"{k}.{ext}")]
        t = time.perf_counter()
        outcome = invoke(cli, argv)
        runs.append({**outcome, "latency_s": time.perf_counter() - t})
    kernel_s.append(calibration.sample())
    return runs, kernel_s


def _untraced_rerun(cli, items, runs, budget_s: float, path: str) -> dict:
    """Rerun a prefix of the traced items untraced: tracing overhead, and a
    check that tracing leaves the outputs unchanged."""
    traced = untraced = 0.0
    digests = []
    for k, run in enumerate(runs):
        t = time.perf_counter()
        _, data = _run_once(cli, items[k % len(items)]["argv"], path)
        untraced += time.perf_counter() - t
        traced += run["latency_s"]
        digests.append(_sha(data))
        if untraced >= budget_s:
            break
    return {"items": len(digests), "traced_s": traced, "untraced_s": untraced,
            "digests": digests}


def run(cfg: dict) -> dict:
    cli, setup = _setup(cfg)
    workload, outdir = cfg["workload"], cfg["outdir"]
    ext = workloads.EXTENSION[workload]
    items = workloads.generate(workload, cfg["seed"],
                               workloads.pool_size(workload, cfg["seconds"]))
    tracer = None
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runs, kernel_s = _timed_loop(cli, items, cfg["seconds"], outdir, ext, tracer)
    result = {**setup, "kernel_s": kernel_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": {"python": platform.python_version(),
                      "numpy": sys.modules["numpy"].__version__,
                      "scipy": sys.modules["scipy"].__version__,
                      "nproc": os.cpu_count()}}
    if tracer is not None:
        tracer.uninstall()
        tracer.save(cfg["spans"])
        result["overhead"] = _untraced_rerun(cli, items, runs, cfg["seconds"] / 4.0,
                                             os.path.join(outdir, f"rerun.{ext}"))

    # the first run of each item is checked; a repeat must match its bytes
    check_start = time.perf_counter()
    bytes_out = 0
    for k, rec in enumerate(runs):
        item = items[k % len(items)]
        data = _take(os.path.join(outdir, f"{k}.{ext}"))
        rec.update(stratum=item["stratum"], digest=None, work=0, problems=[])
        if rec["rc"] == 0:
            bytes_out += len(data)
            rec["digest"] = _sha(data)
        if k < len(items):
            if rec["rc"] == 0:
                rec["problems"], rec["work"] = workloads.check(workload, item, data)
            continue
        first = runs[k % len(items)]
        rec["problems"], rec["work"] = list(first["problems"]), first["work"]
        if (first["rc"], first["digest"]) != (rec["rc"], rec["digest"]):
            rec["problems"].append(workloads.CHANGED_ON_REPEAT)
    for rec, digest in zip(runs, result.get("overhead", {}).get("digests", [])):
        if digest != rec["digest"]:
            rec["problems"].append(workloads.CHANGED_BY_TRACING)
    result["items"] = runs
    result["distinct"] = len(items)
    result["check_s"] = time.perf_counter() - check_start

    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, len(runs), bytes_out,
                                          result["overhead"])
        result["layer_self_s"] = {layer: agg["self_s"] for layer, agg
                                  in tracer.layer_totals().items()}

    defects = []
    for item in workloads.defect_probes(workload, cfg["seed"]):
        outcome, data = _run_once(cli, item["argv"], os.path.join(outdir, f"defect.{ext}"))
        if data is not None:
            outcome["problems"] = workloads.check(workload, item, data)[0]
        defects.append({"argv": item["argv"], **outcome})
    result["defect_probes"] = defects
    return result


def main() -> None:
    cfg = json.loads(sys.argv[1])
    result = probe(cfg) if cfg["mode"] == "probe" else run(cfg)
    with open(cfg["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
