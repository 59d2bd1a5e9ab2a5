"""orthomono benchmark: one workload, one seed, one run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload certify-prime --seed 1 \\
        --seconds 30 --trace 0

Workloads are certify-prime, certify-ext and sweep; workloads.py says what
each runs and why.  The benchmark drives orthomono only through its CLI
command functions (cmd_analyze, cmd_check_theorem, cmd_maximal), called in
this process with one thread, one op after another.  It repeats the
workload's op list until the measured op time reaches --seconds, checks
every output with its own checker (check.py), and prints one JSON object as
its last line.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters, run between passes, of
               importing orthomono and building its parser
               (setup_probe.py); input generation is not included
  wall_s       median wall time of one pass over the op list
  op_p50_ms    median op latency
  op_tail_ms   latency at the highest percentile with ten ops beyond it
               (the percentile and op count are printed above the JSON)
  peak_rss_mb  ru_maxrss of this process, in MiB
wall_s, op_p50_ms and op_tail_ms are reported at a fixed reference speed
of the machine.  On a shared host the speed of a core drifts in spells of
seconds to tens of seconds.  On the 2-vCPU VM the bounds were set on, a
fixed pure-Python loop took 15 to 25 ms within one minute and one
orthomono op 250 to 450 ms within two, so a 30 s run's medians moved by a
quarter from run to run.
Before every op the benchmark therefore times a fixed piece of work
(speed_probe, about 9 ms, in this thread and outside the timed op).  Each
op time is multiplied by REFERENCE_S over the median of the probes around
it (at_reference_speed), and wall_s sums these per pass.  The program
cannot change the probe, so a change to the program moves the reported
timings as it moves the measured ones.  The timings as measured are
printed above the JSON.  setup_s is reported as measured: its samples run
in other processes, away from the probes.
--trace 1 runs untraced passes for half of --seconds and traced passes for
the other half, and reports per-layer metrics per traced pass (spans.py),
trace.overhead (traced over untraced median pass time, both at the
reference speed, minus 1) and the src/ line counts.  Spans are written to
perfbench/out/.

Ops that fail are counted in `failed`; fail_ratio (failed / attempted) is
printed above the JSON.  A malformed input is run once outside the op list
and its outcome printed on its own line.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import gf  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
PROBE_ITERS = 40_000
PROBE_ELEMENTS = 120
PROBE_FIELD = gf.Field(3, 2)
# a 4-cycle and a transvection by the element x = (0 1) of GF(9): they
# generate a group far larger than PROBE_ELEMENTS
PROBE_GENS = (np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                        [1, 0, 0, 0]]),
              np.array([[1, 3, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                        [0, 0, 0, 1]]))
PROBE_WINDOW = 5
# median speed_probe() time on the host the bounds were set on (2-vCPU
# Intel Xeon VM, CPython 3.11), so the timings read as ms at its speed
REFERENCE_S = 0.009
TAIL_BEYOND = 10
HANDLERS = {"analyze": "cmd_analyze", "check-theorem": "cmd_check_theorem",
            "maximal": "cmd_maximal"}
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MiB")]


def setup_sample():
    """Seconds one fresh interpreter takes to set up orthomono's CLI."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, env=os.environ)
    if done.returncode != 0:
        raise SystemExit(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def speed_probe():
    """Seconds a fixed piece of work takes: the machine's speed now.  It
    mixes the two kinds of work orthomono does, which a busy host slows by
    different amounts: an interpreted integer loop, and the first
    PROBE_ELEMENTS elements of a 4 x 4 matrix group over GF(9), closed with
    the benchmark's own table arithmetic (gf.py) and hashed as bytes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    seen, frontier = set(), [np.eye(4, dtype=np.int64)]
    while len(seen) < PROBE_ELEMENTS:
        g = frontier.pop()
        for h in PROBE_GENS:
            x = PROBE_FIELD.matmul(g, h)
            key = x.tobytes()
            if key not in seen:
                seen.add(key)
                frontier.append(x)
    return time.perf_counter() - t0


def run_op(cli, parser, op):
    """(seconds, exit code or escaped exception, output) of one op."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(op["argv"])
        code = getattr(cli, HANDLERS[op["argv"][0]])(args, out=out)
    except Exception as exc:  # an escaping exception is a failed op
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue()


def outcome_error(op, code, text):
    if isinstance(code, str):
        return f"exception escaped: {code}"
    return check.check_outcome(op, code, text)


class Runner:
    """Runs passes over one op list and checks each distinct outcome once
    (orthomono is deterministic, so passes repeat their outputs)."""

    def __init__(self, cli, parser, ops):
        self.cli, self.parser, self.ops = cli, parser, ops
        self.verdicts = {}
        self.latencies = []
        self.probes = []
        self.attempted = 0
        self.failures = {}

    def passes(self, seconds, tracer=None, between=None):
        """Pass wall times, running passes until they add up to `seconds`;
        `between` is called after each pass, outside the timed region.  A
        pass's wall time is the sum of its op times: the speed probe run
        before each op is left out."""
        walls = []
        while not walls or sum(walls) < seconds:
            if walls and between:
                between()
            results = []
            for i, op in enumerate(self.ops):
                self.probes.append(speed_probe())
                if tracer:
                    tracer.begin_op(i)
                results.append(run_op(self.cli, self.parser, op))
            walls.append(sum(lat for lat, _, _ in results))
            for i, (lat, code, text) in enumerate(results):
                key = (i, code, text)
                if key not in self.verdicts:
                    self.verdicts[key] = outcome_error(self.ops[i], code, text)
                if self.verdicts[key]:
                    label = self.ops[i]["label"]
                    self.failures.setdefault(label, [0, self.verdicts[key]])
                    self.failures[label][0] += 1
                self.latencies.append(lat)
            self.attempted += len(results)
        return walls

    @property
    def failed(self):
        return sum(count for count, _ in self.failures.values())


def at_reference_speed(latencies, probes):
    """Each op time times REFERENCE_S over the median of the probes run
    before it and before the PROBE_WINDOW ops on either side of it."""
    w = PROBE_WINDOW
    return [lat * REFERENCE_S / statistics.median(probes[max(j - w, 0):
                                                         j + w + 1])
            for j, lat in enumerate(latencies)]


def pass_walls(lats, n):
    """Wall time of each pass of n ops."""
    return [sum(lats[i:i + n]) for i in range(0, len(lats), n)]


def tail(latencies):
    """(value, percentile) of the highest percentile that has TAIL_BEYOND
    ops beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {a.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if not (SRC / "orthomono" / "__init__.py").is_file():
        sys.exit(f"no orthomono sources under {SRC}; run from a checkout")

    ops, probe = workloads.build(a.workload, a.seed,
                                 OUT / f"inputs-{a.workload}-{a.seed}")

    sys.path.insert(0, str(SRC))
    from orthomono import cli
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"orthomono was imported from {cli.__file__}, not {SRC}")
    parser = cli.build_parser()

    if probe is not None:
        _, code, text = run_op(cli, parser, probe)
        err = outcome_error(probe, code, text)
        print(f"malformed input (singular generator), run once outside the "
              f"op list: {'ok' if err is None else 'FAILS'}"
              + (f" ({err})" if err else ""))

    runner = Runner(cli, parser, ops)
    if a.trace == 0:
        # set-up samples spread over the run, so that one slow spell of the
        # machine does not decide their median
        setup = [setup_sample()]
        walls = runner.passes(a.seconds,
                              between=lambda: setup.append(setup_sample()))
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        lats = at_reference_speed(runner.latencies, runner.probes)
        tail_s, pct = tail(lats)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(pass_walls(lats, len(ops))),
            "op_p50_ms": statistics.median(lats) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)
        print(f"op_tail_ms is the p{pct:.1f} latency of {len(lats)} ops")
        print(f"as measured: wall_s {statistics.median(walls):.6g}, "
              f"op_p50_ms {statistics.median(runner.latencies) * 1e3:.6g}, "
              f"op_tail_ms {tail(runner.latencies)[0] * 1e3:.6g}; "
              f"median probe {statistics.median(runner.probes) * 1e3:.4g} ms "
              f"(reference {REFERENCE_S * 1e3:g} ms)")
    else:
        untraced = runner.passes(a.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            walls = runner.passes(a.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        values = tracer.per_pass(len(walls))
        lats = at_reference_speed(runner.latencies, runner.probes)
        k = len(untraced) * len(ops)
        values["trace.overhead"] = \
            statistics.median(pass_walls(lats[k:], len(ops))) / \
            statistics.median(pass_walls(lats[:k], len(ops))) - 1
        values.update(spans.src_lines(SRC))
        units = dict(spans.PER_LAYER)
        units.update((k, "lines") for k in values if k.startswith("src."))
        span_file = OUT / f"spans-{a.workload}-{a.seed}.npz"
        tracer.write(span_file)
        print(f"{len(tracer.start)} spans written to {span_file}")

    print(f"{a.workload} seed {a.seed}: {len(ops)} ops per pass, "
          f"{runner.attempted // len(ops)} passes, "
          f"{runner.attempted} ops attempted, "
          f"{runner.failed} failed "
          f"(fail_ratio {runner.failed / runner.attempted:.4f})")
    for label, (count, reason) in sorted(runner.failures.items()):
        print(f"  {label} failed {count} times: {reason}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
