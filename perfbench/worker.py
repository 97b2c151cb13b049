"""One pass of one workload, in a fresh process.

Started by run.py.  Sets the workload up, runs its operations once, checks
every output and writes a JSON result file.  ``--mode setup`` stops once the
inputs are ready, which is how run.py samples set-up time more than once.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("pass", "setup"), default="pass")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--result", required=True)
    parser.add_argument("--record", action="store_true",
                        help="store the outputs as the new references")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "kreinfield", "__init__.py")):
        print(f"no kreinfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    setup, ops = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "results", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = setup(args.seed, workdir)
        if tracer is not None:
            tracer.install()
        ready = time.monotonic()
        result = {"setup_s": ready - args.spawned}
        if args.mode == "pass":
            result.update(run_pass(args, ops, ctx, tracer))
            # refinement rounds the bridge ops read from recorder=
            result["rounds"] = ctx.get("rounds", 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_pass(args, ops, ctx, tracer) -> dict:
    from workloads import Check

    references = {}
    if os.path.exists(REFERENCES) and not args.record:
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)["values"]
    records = []
    speed = None
    if tracer is None:
        import hostspeed

        speed = hostspeed.HostSpeed()
        speed.start()
    started = time.monotonic()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        check = Check(f"{args.workload}/{op.__name__}", references, args.record)
        try:
            op(ctx, check)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            check.failures.append(f"{type(exc).__name__}: {exc}")
        records.append({"op": op.__name__, "failures": check.failures,
                        "tol_ratio": check.tol_ratio})
    wall = time.monotonic() - started
    out = {"wall_s": wall, "ops": records}
    if speed is not None:
        speed.stop()
        out.update(speed.summary(wall))
    if tracer is not None:
        import tracing

        summary = tracer.summary()
        out["layers"] = summary
        out["trace_overhead_s"] = summary["spans"] * tracing.span_cost()
        spans = os.path.join(HERE, "results",
                             f"spans-{args.workload}-s{args.seed}-{os.getpid()}.npz")
        tracer.write(spans)
        out["spans_file"] = os.path.relpath(spans, ROOT)
    if args.record:
        store_references(args.workload, references)
    return out


def store_references(workload: str, values: dict) -> None:
    """Replace one workload's entries in references.json."""
    doc = {"values": {}}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            doc = json.load(fh)
    kept = {k: v for k, v in doc["values"].items()
            if not k.startswith(f"{workload}/")}
    doc["values"] = dict(sorted({**kept, **values}.items()))
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
