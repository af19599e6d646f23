"""ontomatch benchmark: the README's verb-by-verb flow, timed from outside.

    python3 perfbench/run.py --workload flat_dense --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository; the program is taken from its
``src/`` directory. With ``--trace 0`` each verb runs as its own
subprocess (``python -m ontomatch.cli <verb>``) in the order
build-kb -> predict -> match mila -> match baseline -> eval x2, and the flow
repeats while another one fits into --seconds, each followed by a second
run of its four timed verbs; more such repeats fill the time left. Before
each flow the fixed start-up cost every verb pays is timed in a subprocess
of its own, and so is a fixed reference that the reported times are scaled
by. With ``--trace 1`` the flow is made of direct calls into each module
in one process, with a span around every call (see traced.py). Either way
the run and all its children are held on one CPU, which a spinner at
SCHED_IDLE keeps from going idle. Every flow passes
the correctness gate in common.py. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
are a table with means, medians, quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (
    PIPELINES,
    ROOT,
    WORK_ROOT,
    Gate,
    Stub,
    check_across_runs,
    check_outputs,
    fits_another,
    metric_units,
    report,
)

SRC = os.path.join(ROOT, "src")

VERB_TIMEOUT_S = 150.0
VERB_RUNS = 2

# The start-up every verb pays before doing its own work.
SETUP_SNIPPET = (
    "import sys\n"
    "import ontomatch.cli\n"
    "from ontomatch import config\n"
    "cfg = config.build_config(config.load_config_file(sys.argv[1]))\n"
    "config.build_provider(cfg)\n"
    "config.build_llm_client(cfg)\n"
)

# A fixed piece of work that runs no ontomatch code but does what the verbs
# do: an interpreter start, the numpy import, float text written and parsed
# back, and a GEMM. The host this was tuned on drifts between speed phases
# for minutes at a time, so a run's reported times are scaled by
# REFERENCE_S / the mean time of this reference in the same run.
REFERENCE_SNIPPET = (
    "import numpy\n"
    "m = numpy.random.default_rng(0).random((500, 64))\n"
    "text = '\\n'.join(' '.join(repr(float(x)) for x in row) for row in m)\n"
    "back = numpy.array([[float(x) for x in line.split()]\n"
    "                    for line in text.splitlines()])\n"
    "assert (back == m).all()\n"
    "(back @ back.T).max()\n"
)
REFERENCE_S = 0.3

# Runs beside the bench on its CPU, at SCHED_IDLE, so only when nothing
# else there can run, and ends when the bench does. It keeps the CPU from
# going idle while a verb waits on the stub: on the VM this was tuned on,
# waking an idle vCPU added about 1 ms to each LLM query, more or less with
# the host's load, and that showed as drift between sets of runs.
SPIN_SNIPPET = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(10000):\n"
    "        pass\n"
)


def run_python(args: list[str], log_path: str) -> tuple[float, int, float]:
    """Run the interpreter on args; (wall s, exit code, peak RSS MiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT,
        )
        watchdog = threading.Timer(VERB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def log_tail(log_path: str, lines: int = 5) -> str:
    with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
        return " | ".join(handle.read().splitlines()[-lines:])


def verb(argv: list[str], config: str, log: str, gate: Gate) -> tuple[float, float] | None:
    """Run one ontomatch verb; (wall s, peak RSS MiB), or None if it failed."""
    elapsed, code, rss = run_python(
        ["-m", "ontomatch.cli", *argv, "--config", config], log
    )
    gate.check(code == 0, f"{argv[0]} exited {code}: {log_tail(log)}")
    return (elapsed, rss) if code == 0 else None


def flow_verbs(out_dir: str, inputs) -> list[tuple[str, list[str]]]:
    """(metric name, verb argv) of one flow, in order; the first four are
    the timed verbs that are repeated."""
    runs = os.path.join(out_dir, "runs")
    return [
        ("build_kb_s", ["build-kb"]),
        ("predict_s", ["predict"]),
        *[(f"match_{p}_s", ["match", "--pipeline", p, "--run-id", p])
          for p in PIPELINES],
        *[(f"eval_{p}_s", ["eval", "--alignment",
                           os.path.join(runs, p, "alignment.tsv"),
                           "--reference", inputs.reference])
          for p in PIPELINES],
    ]


def verb_flow(config: str, inputs, out_dir: str, log: str, gate: Gate,
              stub: Stub | None, digests: list[str],
              samples: dict[str, list[float]]) -> bool:
    """One build-kb -> predict -> match x2 -> eval x2 flow of subprocesses.

    Appends its timings to samples; returns False if a verb failed.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    requests_before = stub.stats()["requests"] if stub else 0
    found: dict[str, float] = {"peak_rss_mib": 0.0}
    flow_start = time.perf_counter()
    for name, argv in flow_verbs(out_dir, inputs):
        result = verb(argv, config, log, gate)
        if result is None:
            return False
        found[name], rss = result
        found["peak_rss_mib"] = max(found["peak_rss_mib"], rss)
    found["run_s"] = time.perf_counter() - flow_start
    stub_requests = stub.stats()["requests"] - requests_before if stub else None
    found.update(check_outputs(out_dir, inputs, gate, stub_requests, digests))
    # the share of the baseline's queries that mila does not issue
    baseline = found["llm_queries_baseline"]
    found["mila_query_saving"] = (
        1.0 - found["llm_queries_mila"] / baseline if baseline else 0.0
    )
    for name, value in found.items():
        samples.setdefault(name, []).append(value)
    return True


def repeat_round(config: str, inputs, out_dir: str, log: str, gate: Gate,
                 samples: dict[str, list[float]], reference,
                 round_id: int) -> bool:
    """Run each timed verb once more on the last flow's files, each after
    one run of reference(); match under a run id of its own, so with a
    fresh run directory. Returns False if a verb failed."""
    for name, argv in flow_verbs(out_dir, inputs)[:4]:
        reference()
        again = list(argv)
        if argv[0] == "match":
            again[-1] = f"{argv[-1]}-{round_id}"
        result = verb(again, config, log, gate)
        if result is None:
            return False
        samples[name].append(result[0])
    return True


def untraced(args, inputs, config: str, work: str,
             stub: Stub | None) -> tuple[dict, Gate]:
    gate = Gate()
    log = os.path.join(work, "verbs.log")
    samples: dict[str, list[float]] = {"setup_s": [], "reference_s": [],
                                       "run_s": []}
    digests: list[str] = []
    out_dir = os.path.join(work, "out")
    cycles: list[float] = []
    rounds: list[float] = []
    start = time.perf_counter()

    def reference() -> None:
        elapsed, code, _ = run_python(["-c", REFERENCE_SNIPPET], log)
        gate.check(code == 0, f"reference exited {code}: {log_tail(log)}")
        samples["reference_s"].append(elapsed)

    def set_up() -> None:
        elapsed, code, _ = run_python(["-c", SETUP_SNIPPET, config], log)
        gate.check(code == 0, f"set-up exited {code}: {log_tail(log)}")
        samples["setup_s"].append(elapsed)
        reference()

    def another_round() -> bool:
        round_start = time.perf_counter()
        ok = repeat_round(config, inputs, out_dir, log, gate, samples,
                          reference, len(rounds))
        rounds.append(time.perf_counter() - round_start)
        return ok

    # Set-up and reference samples are spread over the run: both before each
    # flow, and the reference again before each repeated verb, because the
    # scale rests on the reference's mean. A cycle is a flow, gated, and
    # VERB_RUNS - 1 rounds of repeats; the time left once no further cycle
    # fits is filled with more rounds.
    set_up()
    ok = True
    while ok and fits_another(start, cycles, args.seconds):
        cycle_start = time.perf_counter()
        set_up()
        ok = verb_flow(config, inputs, out_dir, log, gate, stub, digests,
                       samples)
        for _ in range(1, VERB_RUNS):
            ok = ok and another_round()
        if ok:
            cycles.append(time.perf_counter() - cycle_start)
    while ok and cycles and fits_another(start, rounds, args.seconds):
        ok = another_round()
    if not cycles:
        return {}, gate
    units = metric_units("end_to_end")
    scale = REFERENCE_S / statistics.fmean(samples["reference_s"])
    print(f"times below are scaled by {scale:.6g} = REFERENCE_S / the mean "
          "reference time")
    metrics = report({
        name: [v * scale for v in samples[name]] if unit == "s" else samples[name]
        for name, unit in units.items()
    }, units)
    print("unscaled:")
    report(samples, {
        "reference_s": "s",
        **{name: "s" for name, unit in units.items() if unit == "s"},
        "eval_mila_s": "s",
        "eval_baseline_s": "s",
        "llm_queries_mila": "count",
    })
    print(f"failed_share {gate.failed / gate.attempted:.6g} = {gate.failed} "
          f"failed of {gate.attempted} operations (verb, set-up and reference "
          "runs, LLM queries, gate checks)")
    check_across_runs(digests[0], args.workload, args.seed, gate)
    print(f"artifact sha256 {digests[0]}")
    return metrics, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the stub and scratch files go too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # The host this was tuned on changes each vCPU's speed on its own, and
    # a match verb and the stub pass every query between two processes; so
    # the whole run, every child, the stub and the spinner included, is held
    # on one CPU, the one the reference probe measures.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not os.path.isfile(os.path.join(SRC, "ontomatch", "cli.py")):
        print(f"error: no ontomatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    stub = None
    spinner = subprocess.Popen([sys.executable, "-c", SPIN_SNIPPET])
    try:
        inputs = WORKLOADS[args.workload](os.path.join(work, "corpus"), args.seed)
        lines = list(inputs.config_lines) + [f"out = {os.path.join(work, 'out')}"]
        if inputs.uses_stub:
            stub = Stub(inputs, os.path.join(work, "stub.log"))
            lines.append(f"llm.url = {stub.url}/v1")
        config = os.path.join(work, "bench.config")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        if args.trace:
            from traced import traced

            spans_path = os.path.join(
                WORK_ROOT, f"spans-{args.workload}-s{args.seed}.jsonl"
            )
            metrics, gate = traced(args, inputs, config, work, stub, spans_path)
        else:
            metrics, gate = untraced(args, inputs, config, work, stub)
    finally:
        if stub:
            stub.close()
        spinner.kill()
        spinner.wait()
        shutil.rmtree(work, ignore_errors=True)
    for reason in gate.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
