"""Workload definitions and the child process that runs one workload.

``run.py`` starts this file as a fresh process:

    python3 bench/workload.py setup --workload W --seed N --dir DIR
    python3 bench/workload.py run --workload W --seed N --dir DIR --seconds S --trace 0|1

Both modes import ``xtalk_quant`` from the checkout's ``src`` and write the
workload's scenario file into DIR; the first statement below starts the set-up
clock, so the import is part of the set-up time.  ``setup`` prints that time
and exits.  ``run`` then runs whole rounds of the workload's operations back
to back (a closed loop: one caller, one process) and writes ``result.json``
into DIR.  It runs at least ``MIN_ROUNDS`` rounds, so that every report is
produced more than once and the median round is robust to one slow round,
and starts another only while the rounds so far predict that it ends within
``--seconds``.  With ``--trace 1`` it runs at least one untraced round
followed by a traced one, in pairs.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

SCENARIO_FILE = "scenario.json"
CHANNEL_FILE = "chan.json"
MIN_BITS_TARGET = 0.01
MIN_ROUNDS = 3


def _cli(name, argv, out=None):
    """A CLI operation; its report is the --out file, else its captured stdout."""
    return {"kind": "cli", "name": name, "argv": argv, "report": out or name + ".txt"}


# Per workload: the scenario keys written to the scenario file (the seed comes
# from --seed) and the operations of one round, in order.
WORKLOADS = {
    "mc_sweep": {
        "scenario": {"n_trials": 1000},
        "ops": [
            _cli("simulate", ["simulate", "--config", SCENARIO_FILE, "--d-range", "8:20",
                              "--n-trials", "1000", "--out", "sim.tsv"], "sim.tsv"),
            {"kind": "min_bits", "name": "min_bits_empirical",
             "report": "min_bits_empirical.txt"},
        ],
    },
    "design_study": {
        # VDSL2 30a tone plan: 8.625 kHz spacing (decimation 2) up to 30 MHz.
        "scenario": {"decimation": 2, "d_bits": 14},
        "ops": [
            _cli("synth_channel", ["synth-channel", "--config", SCENARIO_FILE,
                                   "--out", CHANNEL_FILE], CHANNEL_FILE),
            _cli("inspect_channel", ["inspect-channel", "--in", CHANNEL_FILE]),
            _cli("analyze", ["analyze", "--config", SCENARIO_FILE, "--channel-file",
                             CHANNEL_FILE, "--normalize", "--out", "analyze.tsv"], "analyze.tsv"),
            _cli("bound", ["bound", "--config", SCENARIO_FILE, "--channel-file", CHANNEL_FILE,
                           "--which", "all", "--out", "bound.tsv"], "bound.tsv"),
            _cli("design_bits_relative", ["design-bits", "--config", SCENARIO_FILE,
                                          "--channel-file", CHANNEL_FILE,
                                          "--target-relative", "0.01"]),
            _cli("design_bits_tone", ["design-bits", "--config", SCENARIO_FILE,
                                      "--channel-file", CHANNEL_FILE, "--target-tone", "0.1"]),
            _cli("sweep", ["sweep", "--config", SCENARIO_FILE, "--channel-file", CHANNEL_FILE,
                           "--lengths", "300,600,900,1200", "--target-relative", "0.01",
                           "--out", "sweep.tsv"], "sweep.tsv"),
        ],
    },
}


def scenario_seed(seed: int) -> int:
    """The scenario's seed for a benchmark seed: itself when non-negative."""
    return seed % 2**64


def write_scenario(workload: str, seed: int) -> None:
    from xtalk_quant import Scenario

    Scenario(seed=scenario_seed(seed), **WORKLOADS[workload]["scenario"]).save(SCENARIO_FILE)


def simulate_loss_evals(argv, scen) -> int:
    """Loss evaluations a simulate call asks for: (user, tone, trial, word length)."""
    lo, hi = (int(x) for x in argv[argv.index("--d-range") + 1].split(":"))
    n_trials = int(argv[argv.index("--n-trials") + 1]) if "--n-trials" in argv else scen.n_trials
    return (hi - lo + 1) * n_trials * scen.grid().count * scen.users


class EvalCounter:
    """Counts the loss evaluations of the engine calls made through
    ``monte_carlo.run_trials`` (the calls ``min_bits_empirical`` makes)."""

    def __init__(self):
        self.evals = 0

    def wrap(self, fn):
        def counted(ensemble, budget, config):
            self.evals += config.n_trials * ensemble.grid.count * ensemble.p
            return fn(ensemble, budget, config)

        return counted


def run_op(op: dict, counter: EvalCounter) -> dict:
    """Run one operation and write its report; return its timing and outcome."""
    from xtalk_quant import Scenario, cli, monte_carlo

    scen = Scenario.load(SCENARIO_FILE)
    out, err = io.StringIO(), io.StringIO()
    if op["kind"] == "cli":
        argv = op["argv"]
        if op["name"] == "simulate":
            evals = simulate_loss_evals(argv, scen)
        elif op["name"] == "analyze":
            evals = scen.grid().count * scen.users
        else:
            evals = 0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        wall = time.perf_counter() - t0
        ok = rc == 0
        if not ok:
            print(f"{op['name']} exited {rc}: {err.getvalue()}", file=sys.stderr)
    else:
        before = counter.evals
        t0 = time.perf_counter()
        ensemble = scen.ensemble()
        budget = scen.budget(ensemble.grid)
        config = scen.trial_config(e2_model="uniform_random")
        try:
            d = monte_carlo.min_bits_empirical(ensemble, budget, config, MIN_BITS_TARGET)
            out.write(f"{d}\n")
            ok = True
        except Exception:  # a failed operation is counted, and the round goes on
            traceback.print_exc()
            ok = False
        wall = time.perf_counter() - t0
        evals = counter.evals - before
    if op["report"] == op["name"] + ".txt":  # the report is the captured stdout
        with open(op["report"], "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    digest = None
    if ok:
        with open(op["report"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"name": op["name"], "ok": ok, "wall_s": wall, "loss_evals": evals, "digest": digest}


def run_round(workload: str, counter: EvalCounter, traced: bool = False) -> dict:
    cpu0 = time.process_time()
    ops = [run_op(op, counter) for op in WORKLOADS[workload]["ops"]]
    return {
        "traced": traced,
        "wall_s": sum(o["wall_s"] for o in ops),
        "cpu_s": time.process_time() - cpu0,
        "loss_evals": sum(o["loss_evals"] for o in ops),
        "ops": ops,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    os.chdir(args.dir)
    sys.path.insert(0, SRC_DIR)
    import xtalk_quant  # noqa: F401  (part of the timed set-up)
    from xtalk_quant import monte_carlo

    write_scenario(args.workload, args.seed)
    setup_s = time.perf_counter() - _T_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    counter = EvalCounter()
    monte_carlo.run_trials = counter.wrap(monte_carlo.run_trials)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    # A step is one round, or with tracing an untraced and a traced round.
    min_steps = 1 if tracer is not None else MIN_ROUNDS
    rounds = []
    t_begin = time.perf_counter()
    while True:
        rounds.append(run_round(args.workload, counter))
        if tracer is not None:
            tracer.reset()
            tracer.install("xtalk_quant")
            try:
                rounds.append(run_round(args.workload, counter, traced=True))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - t_begin
        step = len(rounds) if tracer is None else len(rounds) // 2
        if step >= min_steps and elapsed * (step + 1) / step > args.seconds:
            break

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
    }
    if tracer is not None:
        result["per_layer"] = tracer.layer_metrics(rounds)
        tracer.write("trace.json")
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
