"""knotobs benchmark: one workload per call, or every workload with ``all``.

    python3 bench/run.py --workload cli-readme --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; knotobs is imported from ``src/``.
Each workload is one caller in a closed loop that repeats whole rounds of its
operation list (see workloads.py) for about ``--seconds`` seconds, never fewer
rounds than give 40 timed operations.  Every output is checked against the
reference computations in checks.py, and every time is calibrated against
an interleaved reference computation (calibrate.py).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same run goes through the tracing wrappers and reports per-layer metrics per
round instead.  Results and spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from checks import tail_percentile
from verify import Verifier

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

RUN_LIMIT_S = 170  # every child is killed before the run passes this
MIN_TIMED_OPS = 40
TAIL_PCT = {"cli-readme": 75, "cli-obstruct-cold": 75, "library-sweep-warm": 90}
MIN_ROUNDS = {"cli-readme": 3, "cli-obstruct-cold": 2, "library-sweep-warm": 5}
PROBE_EVERY = {"cli-readme": 2, "cli-obstruct-cold": 4}
LIBRARY_SETUPS = 3
IMPORT_PROBES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics, per round of the workload's operation list.
PER_LAYER = [
    ("import.numpy_s", "s"),
    ("import.knotobs_s", "s"),
    ("cli.run.self_s", "s"),
    ("artifacts.write_json.self_s", "s"),
    ("artifacts.write_polyline_svg.self_s", "s"),
    ("artifacts.write_breakpoint_csv.self_s", "s"),
    ("artifacts.write_jump_csv.self_s", "s"),
    ("laurent.cyclotomic.calls", "count"),
    ("laurent.cyclotomic.self_s", "s"),
    ("laurent.torus_alexander.self_s", "s"),
    ("laurent.factor.calls", "count"),
    ("laurent.factor.self_s", "s"),
    ("laurent.factor.failed", "count"),
    ("laurent.fox_milnor.self_s", "s"),
    ("laurent.gsp_lower_bound.self_s", "s"),
    ("laurent.exact_div.self_s", "s"),
    ("laurent.parse_laurent.self_s", "s"),
    ("knots.parse_knot.self_s", "s"),
    ("knots.alexander.self_s", "s"),
    ("knots.genus.self_s", "s"),
    ("knots.family.self_s", "s"),
    ("upsilon.staircase_from_alexander.self_s", "s"),
    ("upsilon.upsilon_from_staircase.calls", "count"),
    ("upsilon.upsilon_from_staircase.self_s", "s"),
    ("upsilon.pl_add.calls", "count"),
    ("upsilon.pl_add.self_s", "s"),
    ("upsilon.obstruct_Gn.self_s", "s"),
    ("upsilon.summand_certificate_upsilon.self_s", "s"),
    ("signature.torus_jumps.self_s", "s"),
    ("signature.expression_jumps.self_s", "s"),
    ("signature.seifert_from_braid.self_s", "s"),
    ("signature.numeric_signature.calls", "count"),
    ("signature.numeric_signature.self_s", "s"),
    ("signature.torus_independence_certificate.self_s", "s"),
    ("ordered.run_property_suites.self_s", "s"),
    ("ordered.property_A_check.calls", "count"),
    ("ordered.property_A_check.self_s", "s"),
    ("ordered.load_registry.self_s", "s"),
    ("ordered.summand_certificate_epsilon.self_s", "s"),
    ("ordered.subgroup_certificate_epsilon.self_s", "s"),
    ("ordered.epsilon_obstruction.self_s", "s"),
]
_STAT_FIELD = {"calls": 0, "self_s": 1, "failed": 2}


# The console-script entry point, plus an exit hook that reports the
# process's own peak resident set.  A child's ru_maxrss would also count the
# benchmark process it was forked from, because Linux keeps the larger
# high-water mark across exec; VmHWM belongs to the exec'd image alone.
CLI_MAIN = """
import atexit, sys
def _report_peak_rss():
    with open('/proc/self/status') as fh:
        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM'))
    sys.stderr.write('\\n#VmHWM ' + kb + '\\n')
atexit.register(_report_peak_rss)
from knotobs.cli import main
main()
"""


def reported_peak_mb(stderr: str) -> float:
    return int(stderr.rsplit("#VmHWM ", 1)[1].split()[0]) / 1024


class Deadline(Exception):
    pass


class Runner:
    """Spawns one child at a time and times it from spawn to exit; a child
    still alive at the run limit is killed."""

    def __init__(self, tag: str):
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            TMPDIR=str(OUT),
        )
        self.stdout = OUT / f"stdout-{tag}.txt"
        self.stderr = OUT / f"stderr-{tag}.txt"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self._pid = None
        signal.signal(signal.SIGALRM, self._kill)

    def _kill(self, *_):
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)

    def spawn(self, argv: list[str], cwd: Path) -> tuple[float, int]:
        """(wall seconds from spawn to exit, exit code)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise Deadline("run limit reached")
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            self._pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, remaining)
            _, status = os.waitpid(proc.pid, 0)
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._pid = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline - 1:
            raise Deadline(f"killed at the run limit: {argv[-3:]}")
        return t1 - t0, proc.returncode


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_probe(runner: Runner, cwd: Path) -> tuple[float, float]:
    """(numpy, knotobs without numpy) cumulative import seconds from -X importtime."""
    runner.spawn([sys.executable, "-X", "importtime", "-c", "import knotobs.cli"], cwd)
    cumulative = {}
    for line in runner.stderr.read_text().splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)))
    numpy_s = cumulative.get("numpy", 0) / 1e6
    return numpy_s, cumulative["knotobs.cli"] / 1e6 - numpy_s


def _add_stats(total: dict, stats: dict) -> None:
    for name, values in stats.items():
        acc = total.setdefault(name, [0, 0.0, 0])
        for k in range(3):
            acc[k] += values[k]


def run_cli(name: str, seed: int, seconds: float, trace: bool, runner: Runner, verifier: Verifier) -> dict:
    ops = workloads.WORKLOADS[name](seed)
    check = getattr(verifier, ops[0]["check"])
    work = OUT / f"work-{os.getpid()}"
    verified: dict[tuple, list[str]] = {}
    samples, probes, imports, problems = [], [], [], []
    calibrator = calibrate.Calibrator()
    sample_events = []
    stats: dict = {}
    spans = []
    rss = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if trace:
                span_file = OUT / f"spans-{os.getpid()}.json"
                argv = [sys.executable, str(BENCH / "tracing.py"), str(span_file)] + op["argv"]
            else:
                argv = [sys.executable, "-c", CLI_MAIN] + op["argv"]
            seconds_taken, code = runner.spawn(argv, work)
            if not trace:
                rss = max(rss, reported_peak_mb(runner.stderr.read_text()))
            ok = code == 0
            samples.append((i, seconds_taken, ok))
            calibrator.after(seconds_taken)
            sample_events.append(len(calibrator.events) - 1)
            if trace:
                doc = json.loads(span_file.read_text())
                _add_stats(stats, doc["stats"])
                spans.append({"op": op["label"], "spans": doc["spans"]})
            if ok:
                stdout = runner.stdout.read_bytes()
                key = (i, _digest(stdout)) + tuple(
                    (p.name, _digest(p.read_bytes())) for p in sorted(work.iterdir())
                )
                if key not in verified:
                    try:
                        verified[key] = check(op, stdout.decode(), work)
                    except (KeyError, ValueError, IndexError) as exc:
                        verified[key] = [f"unreadable output: {exc!r}"]
                    problems += [f"{op['label']}: {p}" for p in verified[key]]
            if (i + 1) % PROBE_EVERY[name] == 0:
                if trace:
                    imports.append(import_probe(runner, work))
                else:
                    probe = runner.spawn([sys.executable, "-c", "import knotobs.cli"], work)[0]
                    calibrator.after(probe)
                    probes.append((len(calibrator.events) - 1, probe))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS[name] and elapsed * (rounds + 1) / rounds > seconds:
            break
    shutil.rmtree(work, ignore_errors=True)
    factors = calibrator.factors()
    return {
        "ops": ops, "samples": samples, "factors": [factors[e] for e in sample_events],
        "rounds": rounds, "problems": problems,
        "setups": [(seconds_taken, factors[e]) for e, seconds_taken in probes],
        "rss_mb": rss, "stats": stats, "imports": imports, "spans": spans,
    }


def run_library(name: str, seed: int, seconds: float, trace: bool, runner: Runner, verifier: Verifier) -> dict:
    ops = workloads.WORKLOADS[name](seed)
    ops_file = OUT / f"ops-{os.getpid()}.json"
    ops_file.write_text(json.dumps(ops))
    result_file = OUT / f"worker-{os.getpid()}.json"
    worker = [sys.executable, str(BENCH / "worker.py"), str(ops_file), str(result_file), str(seconds), str(MIN_ROUNDS[name])]
    imports, setups = [], []
    if trace:
        imports = [import_probe(runner, OUT) for _ in range(IMPORT_PROBES)]
    else:
        for _ in range(LIBRARY_SETUPS - 1):
            runner.spawn(worker + ["0", "1"], OUT)
            doc = json.loads(result_file.read_text())
            setups.append((doc["setup_s"], doc["setup_factor"]))
    _, code = runner.spawn(worker + ["1" if trace else "0", "0"], OUT)
    if code != 0:
        raise RuntimeError(f"library worker exited {code}: {runner.stderr.read_text()[-2000:]}")
    doc = json.loads(result_file.read_text())
    setups.append((doc["setup_s"], doc["setup_factor"]))
    problems = [f"warm-up {ops[int(i)]['label']}: {msg}" for i, msg in doc["warmup_failures"].items()]
    for i, values in doc["outputs"].items():
        for value in values:
            problems += [f"{ops[int(i)]['label']}: {p}" for p in verifier.library(ops[int(i)], value)]
    return {
        "ops": ops, "samples": doc["samples"], "factors": doc["factors"],
        "rounds": doc["rounds"], "problems": problems, "setups": setups,
        "rss_mb": doc["peak_rss_kb"] / 1024, "stats": doc.get("stats", {}), "imports": imports,
        "spans": [{"op": "library worker", "spans": doc.get("spans", [])}],
    }



def end_to_end(name: str, raw: dict, calibrated: bool) -> dict:
    scale = raw["factors"] if calibrated else [1.0] * len(raw["samples"])
    times = [(s * f, ok) for (_, s, ok), f in zip(raw["samples"], scale)]
    ok_times = [s for s, ok in times if ok]
    values = {
        # traced runs take no set-up samples
        "setup_s": statistics.median(s * f if calibrated else s for s, f in raw["setups"]) if raw["setups"] else None,
        "latency_p50_s": statistics.median(ok_times),
        "latency_tail_s": tail_percentile(ok_times, TAIL_PCT[name]),
        "throughput_ops_s": len(ok_times) / sum(s for s, _ in times),
        "peak_rss_mb": raw["rss_mb"],
    }
    return {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}


def per_layer(raw: dict) -> dict:
    metrics = {}
    for metric, unit in PER_LAYER:
        if metric == "import.numpy_s":
            value = statistics.median(n for n, _ in raw["imports"])
        elif metric == "import.knotobs_s":
            value = statistics.median(k for _, k in raw["imports"])
        else:
            layer, _, field = metric.rpartition(".")
            value = raw["stats"].get(layer, [0, 0.0, 0])[_STAT_FIELD[field]] / raw["rounds"]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def summarize(name: str, raw: dict, trace: bool) -> dict:
    samples = raw["samples"]
    return {
        "correct": not raw["problems"],
        "attempted": len(samples),
        "failed": sum(1 for _, _, ok in samples if not ok),
        "metrics": per_layer(raw) if trace else end_to_end(name, raw, True),
        "uncalibrated": end_to_end(name, raw, False),
        "calibrated": end_to_end(name, raw, True),
    }


def per_op_medians(raw: dict) -> dict:
    by_op: dict[str, list[float]] = {}
    for i, s, ok in raw["samples"]:
        by_op.setdefault(raw["ops"][i]["label"], [])
        if ok:
            by_op[raw["ops"][i]["label"]].append(s)
    return {label: statistics.median(xs) if xs else None for label, xs in by_op.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(f"{name}-{os.getpid()}")
    verifier = Verifier(SRC)
    go = run_library if name == "library-sweep-warm" else run_cli
    raw = go(name, seed, seconds, trace, runner, verifier)
    summary = summarize(name, raw, trace)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    detail = {
        **summary, "workload": name, "seed": seed, "rounds": raw["rounds"],
        "tail_percentile": TAIL_PCT[name], "problems": raw["problems"],
        "setup_samples": raw["setups"], "per_op_median_s": per_op_medians(raw),
        "samples": raw["samples"], "factors": raw["factors"],
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(raw["spans"]))
    for path in (runner.stdout, runner.stderr):
        path.unlink(missing_ok=True)
    for stem in ("ops", "worker", "spans"):
        (OUT / f"{stem}-{os.getpid()}.json").unlink(missing_ok=True)
    print(f"{name} seed {seed}: {raw['rounds']} rounds, attempted {summary['attempted']}, "
          f"failed {summary['failed']}, correct {summary['correct']}")
    for metric, m in summary["metrics"].items():
        print(f"  {metric:<48} {m['value']:.6g} {m['unit']}")
    for p in raw["problems"][:20]:
        print(f"  PROBLEM {p}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "knotobs" / "cli.py").is_file():
        print(f"no knotobs sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    # One CPU for the benchmark and every child it starts, so that the
    # calibration reference runs where the measured work ran.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = {k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
