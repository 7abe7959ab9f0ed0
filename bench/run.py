"""halfelastica benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload strings --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25

Run from the root of a source checkout; the package is imported from
``src/`` (it need not be installed).  Workloads and their strata are
described in ``bench/WORKLOADS.md`` and generated in ``workloads.py``.

A run starts two set-up probes and then the measuring worker, each a fresh
process with the BLAS thread pools pinned to one thread.  ``setup_s`` is the
median of the three set-up times (package import plus one warm-up item).
Timings are scaled to a reference host speed with a calibration kernel
(``calibration.py``), because the speed of a shared host drifts.
The loop runs each of the run's distinct items once (their number is
fixed by ``--seconds``, see ``workloads.pool_size``) and repeats them until
``--seconds`` have passed; ``attempted`` and ``failed`` count the distinct
items, so they depend only on the seed.
With ``--trace 0`` the worker runs the closed timed loop untraced and the
run reports the end-to-end metrics; with ``--trace 1`` it runs it traced
and reports the per-layer metrics and the tracing overhead.  Either way the
outputs of every item are checked against the independent oracles, hashed,
and compared with the probes' outputs of the same items.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
results file with item digests, failure types and the environment goes to
``.bench_out/results/``.  ``--all`` runs every workload untraced and traced
and prints all reports.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import calibration
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("strings", "fiber", "curves")
WORK_UNIT = {"strings": "strings", "fiber": "fiber points",
             "curves": "curve samples"}
SETUP_PROBES = 2
PROBE_ITEMS = {"strings": 3, "fiber": 2, "curves": 4}  # one per stratum
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _spawn(cfg: dict, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED})
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(cfg)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(cfg["result"]):
        raise BenchError(f"{cfg['mode']} process failed (exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(cfg["result"], encoding="utf-8") as handle:
        return json.load(handle)


def _source_facts(root: str) -> dict:
    pkg = os.path.join(root, "src", "halfelastica")
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                data = handle.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND values above it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _spawn_all(workload: str, seed: int, seconds: int, trace: bool,
               root: str, out_root: str) -> tuple[list[dict], dict]:
    """The set-up probes, then the worker; returns their result objects."""
    scratch = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=out_root)
    try:
        base = {"root": root, "workload": workload, "seed": seed,
                "outdir": scratch}
        # only the first probe reruns items; the others just time set-up
        probes = [_spawn(dict(base, mode="probe",
                              probe_items=PROBE_ITEMS[workload] if i == 0 else 0,
                              result=os.path.join(scratch, f"probe{i}.json")),
                         timeout=30) for i in range(SETUP_PROBES)]
        res = _spawn(dict(base, mode="run", seconds=seconds, trace=trace,
                          spans=os.path.join(out_root, f"spans-{workload}.npz"),
                          result=os.path.join(scratch, "run.json")),
                     timeout=seconds + 80)  # the whole run stays under 180 s
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return probes, res


def _unreproducible(items: list[dict], probes: list[dict]) -> list[str]:
    out = [f"item {i}: {text}" for i, rec in enumerate(items)
           for text in rec["problems"]
           if text in (workloads.CHANGED_ON_REPEAT, workloads.CHANGED_BY_TRACING)]
    for p, pr in enumerate(probes):
        for i, (out_p, rec) in enumerate(zip(pr["outputs"], items)):
            if (out_p["rc"], out_p["digest"]) != (rec["rc"], rec["digest"]):
                out.append(f"item {i}: probe process {p} wrote different output")
    return out


def _defect_line(defects: list[dict], attempted: int, failed: int) -> str:
    counts: dict[str, int] = {}
    for d in defects:
        if d["rc"] != 0 or d.get("problems"):
            kind = d["exc"] or "check"
            counts[kind] = counts.get(kind, 0) + 1
    n_failed = sum(counts.values())
    return (f"  known-defect probes: {n_failed}/{len(defects)} failed "
            f"({', '.join(f'{k} x{v}' for k, v in counts.items()) or 'none'}); "
            f"failed_frac including probes "
            f"{(failed + n_failed) / (attempted + len(defects)):.4f}")


def measure(workload: str, seed: int, seconds: int, trace: bool,
            root: str) -> tuple[list[str], dict]:
    """Run one workload; returns (report lines, JSON result object)."""
    if not os.path.isfile(os.path.join(root, "src", "halfelastica", "__init__.py")):
        raise BenchError(f"no src/halfelastica package under {root}")
    compileall.compile_dir(os.path.join(root, "src", "halfelastica"), quiet=1)
    out_root = os.path.join(root, ".bench_out")
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    probes, res = _spawn_all(workload, seed, seconds, trace, root, out_root)
    items = res["items"]
    facts = _source_facts(root)
    digest = hashlib.sha256("".join(
        str(out["digest"]) for out in probes[0]["outputs"]).encode()).hexdigest()
    problems = _unreproducible(items, probes)
    results_path = os.path.join(out_root, "results",
                                f"{workload}-seed{seed}-trace{int(trace)}.json")
    if os.path.exists(results_path):
        with open(results_path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        if (earlier["src_sha256"] == facts["src_sha256"]
                and earlier["output_digest"] != digest):
            problems.append("output digest differs from an earlier run at "
                            "this seed with the same source")

    # attempted and failed count distinct items (the loop's first pass), so
    # they depend only on the seed; repeats are byte-compared with the first
    distinct = items[:res["distinct"]]
    failed = [r for r in distinct if r["rc"] != 0 or r["problems"]]
    ok = [r for r in items if r["rc"] == 0 and not r["problems"]]
    # timings are scaled to the reference host speed (see calibration.py)
    factors = calibration.item_factors(res["kernel_s"])
    for r, f in zip(items, factors):
        r["scaled_s"] = r["latency_s"] / f
    latencies = [r["scaled_s"] for r in ok] or [r["scaled_s"] for r in items]
    busy_s = sum(r["latency_s"] for r in items)
    tail, tail_pct = tail_latency(latencies)
    setups = [pr["setup_s"] / calibration.speed_factor(pr["setup_kernel_s"])
              for pr in probes + [res]]
    end_to_end = {
        "items_per_s": (sum(r["work"] for r in ok)
                        / sum(r["scaled_s"] for r in items), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    failure_types = sorted({r["exc"] or "check" for r in failed})

    env = res["env"]
    lines = [f"== {workload}  seed {seed}  {seconds} s  trace {int(trace)}  "
             f"closed loop, 1 client ==",
             f"env: python {env['python']}, numpy {env['numpy']}, "
             f"scipy {env['scipy']}, nproc {env['nproc']}; "
             f"src/halfelastica {facts['src_lines']} lines",
             f"items: {len(distinct)} attempted, {len(failed)} failed "
             f"({', '.join(failure_types) or 'none'}); {len(items)} calls "
             f"with repeats, busy {busy_s:.2f} s, "
             f"checks {res['check_s']:.2f} s; output digest {digest[:16]}",
             f"host speed factor per item: median "
             f"{statistics.median(factors):.3f}, range {min(factors):.3f}-"
             f"{max(factors):.3f}; item timings below are divided by it"]
    if trace:
        metrics = res["layers"]
        overhead = res["overhead"]
        lines.append(f"  tracing overhead: traced {overhead['traced_s']:.3f} s "
                     f"vs untraced {overhead['untraced_s']:.3f} s on the first "
                     f"{overhead['items']} items")
        lines.append("  self-time share of traced item time: " + ", ".join(
            f"{layer} {100 * s / busy_s:.1f}%" for layer, s in
            sorted(res["layer_self_s"].items(), key=lambda kv: -kv[1])))
        for name, m in metrics.items():
            lines.append(f"  {name:<28} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
        notes = {"items_per_s": f"{WORK_UNIT[workload]} per second",
                 "latency_tail_ms": f"p{tail_pct:.1f} of n={len(latencies)}",
                 "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
                 "peak_rss_mb": "not scaled",
                 "failed_frac": "printed, not gated"}
        shown = dict(end_to_end, failed_frac=(len(failed) / len(distinct), "frac"))
        for name, (value, unit) in shown.items():
            lines.append(f"  {name:<18} {value:14.6g} {unit:<5} {notes.get(name, '')}")
    if res["defect_probes"]:
        lines.append(_defect_line(res["defect_probes"], len(distinct), len(failed)))
    lines += [f"  failed check: item {i}: {text}" for i, rec in enumerate(distinct)
              for text in rec["problems"] if rec["rc"] == 0][:20]
    lines += [f"  NOT REPRODUCIBLE: {text}" for text in problems[:20]]

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": dict(env, seed=seed), **facts,
              "output_digest": digest, "metrics": metrics,
              "tail_percentile": tail_pct, "tail_samples": len(latencies),
              "setup_samples_s": setups, "item_factors": factors,
              "setup_raw_s": [pr["setup_s"] for pr in probes + [res]],
              "setup_kernel_s": [pr["setup_kernel_s"] for pr in probes + [res]],
              "kernel_s": res["kernel_s"], "failure_types": failure_types,
              "items": items, "defect_probes": res["defect_probes"],
              "problems": problems}
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    result = {"correct": not problems, "attempted": len(distinct),
              "failed": len(failed), "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    root = os.getcwd()
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.all
            else [(args.workload, bool(args.trace))])
    try:
        for workload, trace in runs:
            lines, result = measure(workload, args.seed, args.seconds, trace, root)
            print("\n".join(lines), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
