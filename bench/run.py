"""Benchmark of the xtalk-quant design loop: one workload per run.

    python3 bench/run.py --workload mc_sweep|design_study \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Every figure comes from fresh child processes (``workload.py``) with
``XTALK_THREADS`` unset and the BLAS pinned to one thread:

* ``setup_s``: median over ``SETUP_SAMPLES`` children, half before the run
  and half after it, of the time to import ``xtalk_quant`` and write the
  scenario file;
* one ``run`` child runs whole rounds of the workload for about ``--seconds``
  and reports each round's operations, timings and report digests;
  ``wall_s`` is the median round.

The reports of the last round are then checked (``checks.py``) outside any
timed window.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
round with ``--trace 1``.  The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = workload.SRC_DIR
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "loss_evals_per_s": "1/s", "peak_rss_mb": "MB"}


def pin_threads(env) -> None:
    """One engine thread (XTALK_THREADS unset) and one BLAS thread."""
    env.pop("XTALK_THREADS", None)
    env.update(THREAD_ENV)


def child(mode: str, args, workdir: str) -> str:
    """Run workload.py in a fresh process; return its standard output."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--dir", workdir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, env=os.environ, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=CHILD_TIMEOUT_S).stdout


def setup_time(args, workdir: str) -> float:
    return json.loads(child("setup", args, workdir))["setup_s"]


def end_to_end(result: dict, setup_samples: list) -> dict:
    plain = [r for r in result["rounds"] if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_s,
        "loss_evals_per_s": plain[0]["loss_evals"] / wall_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "xtalk_quant", "__init__.py")):
        print(f"no xtalk_quant package under {SRC_DIR}", file=sys.stderr)
        return 2
    pin_threads(os.environ)  # before numpy loads, here and in every child
    sys.path.insert(0, SRC_DIR)
    import checks

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        # set-up samples on both sides of the run see the machine the rounds see
        setup = [setup_time(args, workdir) for _ in range(SETUP_SAMPLES // 2)]
        child("run", args, workdir)
        setup += [setup_time(args, workdir) for _ in range(SETUP_SAMPLES - len(setup))]
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        ops = [op for r in result["rounds"] for op in r["ops"]]
        failed = sum(not op["ok"] for op in ops)
        try:
            reports = checks.read_reports(args.workload, workdir)
        except OSError as exc:
            failures = [f"missing report: {exc}"]
        else:
            ctx = checks.load_context(args.workload, workdir, result["rounds"])
            failures = checks.run_checks(args.workload, reports, ctx)
        metrics = result["per_layer"] if args.trace else end_to_end(result, setup)
        name = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
        if args.trace:
            shutil.copyfile(os.path.join(workdir, "trace.json"),
                            os.path.join(OUT_DIR, name + ".trace.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    line = {"correct": not failures, "attempted": len(ops), "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(dict(line, seed=args.seed, setup_samples=setup,
                       rounds=[{"traced": r["traced"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                                "ops": {op["name"]: op["wall_s"] for op in r["ops"]}}
                               for r in result["rounds"]]), fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
