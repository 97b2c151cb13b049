"""kreinfield benchmark: one workload, timed in fresh processes, outputs checked.

    python3 perfbench/run.py --workload certify-d2 --seed 1 --seconds 20 --trace 0

Each pass of the workload runs in a new Python process (worker.py) with the
BLAS and OpenMP pools at one thread, so no cache carries over between
passes.  Passes repeat while another pass of the mean length so far still
ends within ``--seconds`` (at least one runs), and the pass metrics are
medians over them.  Untraced passes sample the core's speed as they run
(hostspeed.py), and ``wall_ref_s`` is a pass's wall time at a reference
core speed.  Set-up time is also sampled in set-up-only processes.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a traced pass, with each layer's share of the pass.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A full record (metrics, every op's checks, machine and versions) goes to
perfbench/results/.  ``--record-references`` stores the outputs of one pass
as the references later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
DEADLINE_S = 170.0
SETUP_SAMPLES = 7
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# profile shares claimed in the project roadmap, checked by traced runs:
# (workload, claim, claimed share, numerator span, denominator span or None
# for the whole pass).  The roadmap measured certification on criterion 5's
# 20-member family; certify-d2 certifies three members, so its factorized
# share is smaller by construction.
CLAIMS = (
    ("certify-d2", "factorized d=2 transforms take ~85% of hssc_certify", 0.85,
     "wightman.factorized_eval", "hssc.hssc_certify"),
    ("certify-d2", "compute_scalar_factors takes ~15% of hssc_certify", 0.15,
     "hssc.compute_scalar_factors", "hssc.hssc_certify"),
    ("bridge-d2", "branch densities (bracket_scalar) take ~55% of the bridge", 0.55,
     "wightman.bracket_scalar", None),
    ("bridge-d2", "three_point_eval_2d does ~99% of the bridge's work", 0.99,
     "wightman.three_point_eval_2d", None),
)
CLAIM_SLACK = 0.10


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ONE_THREAD:
        env[var] = "1"
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    """Run worker.py once and return its result document."""
    os.makedirs(RESULTS, exist_ok=True)
    fd, result = tempfile.mkstemp(prefix="pass-", suffix=".json", dir=RESULTS)
    os.close(fd)
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--mode", mode,
           "--spawned", repr(spawned), "--result", result]
    if args.record_references:
        cmd.append("--record")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        # timed out, interrupted or terminated: stop the worker before leaving
        proc.kill()
        proc.communicate()
        os.unlink(result)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RunError(
                f"{args.workload} pass exceeded the {DEADLINE_S:.0f} s budget") from None
        raise
    try:
        if proc.returncode != 0:
            raise RunError(f"worker exited {proc.returncode}:\n{out}{err}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.unlink(result)


def machine() -> dict:
    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        info["cpu"] = platform.processor()
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            info[key.lower()] = os.sysconf(f"SC_{key}")
        except (ValueError, OSError):
            info[key.lower()] = None
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    info["threads_env"] = {var: "1" for var in ONE_THREAD}
    return info


def layer_metrics(spec: list, passes: list) -> dict:
    """Per-layer metric values, the median over traced passes."""
    values = {}
    for m in spec:
        name = m["name"]
        per_pass = []
        for p in passes:
            if name == "trace.overhead_s":
                per_pass.append(p["trace_overhead_s"])
            elif name == "wightman.three_point_eval_2d.rounds":
                per_pass.append(p["rounds"])
            else:
                layer, field = name.rsplit(".", 1)
                per_pass.append(p["layers"][layer][field])
        values[name] = {"value": statistics.median(per_pass), "unit": m["unit"]}
    return values


def layer_shares(p: dict) -> tuple:
    wall = p["wall_s"]
    layers = {k: v for k, v in p["layers"].items() if isinstance(v, dict)}
    shares = {k: v["self_s"] / wall for k, v in layers.items() if v["calls"]}
    shares["(untraced)"] = 1.0 - sum(shares.values())
    claims = []
    for workload, text, claimed, num, den in CLAIMS:
        if workload != p["workload"]:
            continue
        base = layers[den]["incl_s"] if den else wall
        measured = layers[num]["incl_s"] / base if base > 0 else 0.0
        claims.append({"claim": text, "claimed": claimed, "measured": measured,
                       "agrees": abs(measured - claimed) <= CLAIM_SLACK})
    return dict(sorted(shares.items(), key=lambda kv: -kv[1])), claims


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like an interrupt, so spawn() stops the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    try:
        passes = []
        lengths = []  # seconds from spawning each pass to reading its result
        while not passes or (time.monotonic() - started
                             + statistics.fmean(lengths) <= args.seconds):
            spawned = time.monotonic()
            p = spawn(args, "pass", deadline)
            lengths.append(time.monotonic() - spawned)
            p["workload"] = args.workload
            passes.append(p)
            if args.record_references:
                break
        setups = [p["setup_s"] for p in passes]
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(spawn(args, "setup", deadline)["setup_s"])
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["failures"]]
    max_tol_ratio = max(op["tol_ratio"] for op in ops)
    if args.trace:
        metrics = layer_metrics(bench["per_layer"], passes)
    else:
        measured = {
            "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "setup_samples": len(setups),
        "attempted": len(ops),
        "failed": len(failed),
        "fail_frac": len(failed) / len(ops),
        "max_tol_ratio": max_tol_ratio,
        "metrics": metrics,
        "failures": {op["op"]: op["failures"] for op in failed},
        "machine": machine(),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_ref_s": [p.get("wall_ref_s") for p in passes],
        "pass_probe_mean_s": [p.get("probe_mean_s") for p in passes],
        "setup_s_samples": setups,
    }
    host = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"setup samples {len(setups)}")
    print(f"cpu {host.get('cpu')}  python {host['python']}  numpy {host['numpy']}  "
          f"scipy {host['scipy']}")
    for op in failed:
        print(f"FAILED {op['op']}: {'; '.join(op['failures'])}")
    print(f"fail_frac {record['fail_frac']:.4f} ({len(failed)}/{len(ops)} ops)  "
          f"max_tol_ratio {max_tol_ratio:.3e}")
    print(f"pass wall time (median, as measured) "
          f"{statistics.median(record['pass_wall_s']):.6g} s")
    if args.trace:
        record["layer_shares"], record["claims"] = layer_shares(passes[0])
        record["spans_files"] = [p["spans_file"] for p in passes]
        print("self-time share of the pass, by layer:")
        for name, share in record["layer_shares"].items():
            print(f"  {100 * share:6.2f}%  {name}")
        for c in record["claims"]:
            verdict = "agrees" if c["agrees"] else "DISAGREES"
            print(f"claim {verdict}: {c['claim']} (measured "
                  f"{100 * c['measured']:.1f}%)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
