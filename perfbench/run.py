"""Benchmark of the spraylab CLI on fixed workloads, one interpreter per run.

    python3 perfbench/run.py --workload verify-sphere4 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 1]

A measurement starts child interpreters one after another, never two at
once.  With ``--trace 0`` it times set-up in fresh processes, then runs the
workload's CLI invocations untraced for ``--seconds`` seconds and reports the
end-to-end metrics, each child's wall time scaled to a reference core by a
calibration loop run on the same core between slices of the child (``Clock``).
With ``--trace 1`` it alternates untraced and traced runs
and reports the per-layer metrics of the traced ones.  Every CLI run is
checked against ``reference/``.  The last stdout line is the result object;
the line before it records the sample counts, the machine and ``src.lines``.

``--all`` measures every workload, prints each metric with its unit, and
rewrites ``BENCHMARK.json`` from ``workloads.spec()``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import check
import tracer
from workloads import END_TO_END, PER_LAYER, WORKLOADS, spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(SRC))   # check.py reads spray specs with the CLI's parser

MIN_SAMPLES = 7         # least samples (each after one set-up process)
CHILD_TIMEOUT = 150.0   # seconds before a child is killed
CPUS = sorted(os.sched_getaffinity(0))
# calibration: interpreter steps, then gather-multiply-bincount steps (the
# pattern of a jet product) on the 495 coefficients of a dim-8 order-4 jet
CAL_LOOP = 100_000
CAL_GATHERS = 450
CAL_REF_S = 0.025       # its time on the reference core the timings scale to
SLICE_S = 0.3           # a timed child runs this long between calibrations
_rng = np.random.default_rng(0)
_CAL_IA, _CAL_IB = _rng.integers(0, 495, (2, 6000))
_CAL_IT = np.sort(_rng.integers(0, 495, 6000))
_CAL_V = _rng.standard_normal(495)


def pin(k: int):
    """Run the next children on core k (mod the cores this process may use).

    Cores of a shared host switch between slow and fast regimes
    independently; rotating the samples over all cores averages the regimes
    of every core instead of the one a child happened to land on.
    """
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def calibrate() -> float:
    """Seconds this core takes for a fixed mix of interpreter work and small
    numpy gathers, the two kinds of work a spraylab run is made of.

    The loop uses neither spraylab nor anything a change to it can touch,
    so its time tracks only the speed the host gives the core right now.
    """
    t0 = perf_counter()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i % 7
    v = _CAL_V
    for _ in range(CAL_GATHERS):
        v = np.bincount(_CAL_IT, weights=v[_CAL_IA] * v[_CAL_IB],
                        minlength=v.size) * 1e-3 + _CAL_V
    return perf_counter() - t0


class Clock:
    """Scales the wall time of child runs on one core to the reference core.

    Cores of a shared host switch between slow and fast regimes every few
    seconds.  A timed child runs in slices of SLICE_S and is stopped between
    them while the calibration loop runs on the same core.  Each slice's
    seconds are multiplied by CAL_REF_S over the mean of the calibrations
    right before and right after it.
    """

    def __init__(self):
        self.last = calibrate()
        self.calibrations = [self.last]

    def scale(self, seconds: float) -> float:
        """Call right after the child that took `seconds` has ended."""
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.calibrations.append(now)
        return seconds * factor

    def time_child(self, pid: int):
        """Run child `pid` to its exit in slices, stopped between them.

        Returns its wait status and rusage, its running seconds (paused
        time left out) and those seconds scaled to the reference core."""
        running = scaled = 0.0
        fd = os.pidfd_open(pid)
        try:
            while True:
                t0 = perf_counter()
                if not select.select([fd], [], [], SLICE_S)[0]:
                    os.kill(pid, signal.SIGSTOP)
                _pid, status, usage = os.wait4(pid, os.WUNTRACED)
                seconds = perf_counter() - t0
                running += seconds
                scaled += self.scale(seconds)
                if not os.WIFSTOPPED(status):
                    return status, usage, running, scaled
                os.kill(pid, signal.SIGCONT)
        finally:
            os.close(fd)


class Child:
    """Outcome of one child interpreter."""

    def __init__(self, rc, wall, scaled, rss_mb, stdout, stderr):
        self.rc, self.wall, self.scaled, self.rss_mb = rc, wall, scaled, rss_mb
        self.stdout, self.stderr = stdout, stderr


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, work: Path, tag: str,
              clock: Clock | None = None) -> Child:
    """Run `python args...` from the checkout root; wall time is measured from
    spawn to exit, peak RSS comes from the child's own rusage.  With a
    `clock`, the child runs in calibrated slices (`Clock.time_child`): its
    wall leaves out the pauses and `scaled` is set."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        scaled = None
        try:
            if clock is None:
                _pid, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - t0
            else:
                status, usage, wall, scaled = clock.time_child(proc.pid)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, scaled, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


class Sample:
    """One pass over a workload's invocations."""

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0       # wall scaled to the reference core
        self.rss_mb = 0.0
        self.runs = 0
        self.failures = []
        self.traces = []


def run_sample(wl, seed: int, refs, work: Path, tag: str,
               traced: bool = False, clock: Clock | None = None) -> Sample:
    sample = Sample()
    for k, (inv, ref) in enumerate(zip(wl.invocations, refs)):
        name = f"{tag}-{k}"
        report = work / f"{name}.report.json"
        cli_args = inv.argv(seed, str(report))
        if traced:
            trace_path = work / f"{name}.trace.json"
            args = [HERE / "traced_cli.py", trace_path,
                    f"{wl.name}/seed{seed}/{name}", *cli_args]
        else:
            args = ["-m", "spraylab.cli", *cli_args]
        child = run_child(args, work, name, clock)
        if clock is not None:
            sample.scaled += child.scaled
        problems = check.check_run(inv, child.rc, report, ref)
        if traced and not problems:
            trace, problems = check.check_trace(trace_path)
            if trace is not None:
                sample.traces.append(trace)
        sample.wall += child.wall
        sample.rss_mb = max(sample.rss_mb, child.rss_mb)
        sample.runs += 1
        if problems:
            tail = child.stderr.strip().splitlines()[-3:]
            sample.failures.append(f"{inv.spray}: {'; '.join(problems)}"
                                   + (f" [stderr: {' | '.join(tail)}]"
                                      if tail else ""))
    return sample


def src_lines() -> int:
    return sum(p.read_bytes().count(b"\n")
               for p in sorted((SRC / "spraylab").rglob("*.py")))


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def run_setup(wl, seed: int, work: Path, tag: str, clock: Clock):
    """Set-up seconds from one fresh process, scaled to the reference core,
    or None with a failure note."""
    child = run_child([HERE / "setup_child.py", wl.name, seed], work, tag)
    if child.rc != 0:
        return None, f"set-up exited {child.rc}: {child.stderr.strip()[-300:]}"
    seconds = json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]
    return clock.scale(seconds), None


def measure_end_to_end(wl, seed: int, seconds: float, refs, work: Path):
    """Alternate one set-up process and one workload sample until `seconds`
    have passed, so that both spread over the whole window."""
    setups, samples, failures, calibrations = [], [], [], []
    deadline = perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or perf_counter() < deadline:
        pin(len(samples))
        clock = Clock()
        value, failure = run_setup(wl, seed, work, f"setup-{len(samples)}",
                                   clock)
        if failure:
            failures.append(failure)
        else:
            setups.append(value)
        samples.append(run_sample(wl, seed, refs, work, f"e2e-{len(samples)}",
                                  clock=clock))
        calibrations += clock.calibrations
    if not setups:
        raise RuntimeError(f"every set-up run failed: {failures[-1]}")
    points = wl.points * len(samples)
    metrics = {
        "points_per_s": points / sum(s.scaled for s in samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    failures += [f for s in samples for f in s.failures]
    attempted = len(samples) + sum(s.runs for s in samples)
    info = {"samples": len(samples),
            "points_per_wall_s": points / sum(s.wall for s in samples),
            "sample_walls_s": [s.wall for s in samples],
            "sample_scaled_s": [s.scaled for s in samples], "setup_s": setups,
            "calibration_s": statistics.quantiles(calibrations, n=4)}
    return metrics, attempted, failures, info


def measure_layers(wl, seed: int, seconds: float, refs, work: Path):
    pairs = []
    deadline = perf_counter() + seconds
    while not pairs or perf_counter() < deadline:
        tag = f"pair-{len(pairs)}"
        pin(len(pairs))
        plain = run_sample(wl, seed, refs, work, f"{tag}-plain")
        traced = run_sample(wl, seed, refs, work, f"{tag}-traced", traced=True)
        pairs.append((plain, traced))
    samples = [s for pair in pairs for s in pair]
    failures = [f for s in samples for f in s.failures]
    attempted = sum(s.runs for s in samples) + 1
    per_sample = [tracer.combine([tracer.layer_metrics(t) for t in s.traces])
                  for _plain, s in pairs if not s.failures]
    metrics = tracer.median_metrics(per_sample) if per_sample else {}
    metrics["trace.overhead_frac"] = (sum(t.wall for _p, t in pairs)
                                      / sum(p.wall for p, _t in pairs) - 1.0)
    kernels = run_child([HERE / "kernels.py", seed], work, "kernels")
    if kernels.rc == 0:
        metrics.update(json.loads(kernels.stdout.strip().splitlines()[-1]))
    else:
        failures.append(f"kernels exited {kernels.rc}: "
                        f"{kernels.stderr.strip()[-300:]}")
    metrics["src.lines"] = src_lines()
    info = {"samples": len(per_sample), "pairs": len(pairs)}
    if pairs[-1][1].traces:
        info["trace_file"] = str(write_trace_summary(
            wl, seed, metrics, pairs[-1][1].traces))
    return metrics, attempted, failures, info


def write_trace_summary(wl, seed: int, metrics: dict, traces) -> Path:
    """Keep the last traced sample: spans, counters and jet-op counts by
    (dim, order), next to the per-layer metrics."""
    path = WORK_ROOT / f"trace-{wl.name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed, "per_layer": metrics,
                   "runs": traces}, fh)
    return path


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    refs = check.load_reference(name)["runs"]
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        measured = measure_layers if trace else measure_end_to_end
        metrics, attempted, failures, info = measured(wl, seed, seconds, refs,
                                                      work)
    finally:
        os.sched_setaffinity(0, CPUS)
        shutil.rmtree(work, ignore_errors=True)
    wanted = PER_LAYER if trace else END_TO_END
    units = {m[0]: m[1] for m in PER_LAYER}
    units.update({m["name"]: m["unit"] for m in END_TO_END})
    names = [m[0] if trace else m["name"] for m in wanted]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": units[n]}
                    for n in names},
    }
    info.update({"workload": name, "seed": seed, "trace": int(trace),
                 "points_per_sample": wl.points,
                 "failed_frac": len(failures) / attempted,
                 "failures": failures[:10], "machine": machine(),
                 "src.lines": src_lines()})
    return {"info": info, "result": result}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    ok = True
    for name in WORKLOADS:
        out = measure(name, seed, seconds, trace)
        res, info = out["result"], out["info"]
        ok &= res["correct"]
        print(f"{name}  (samples {info['samples']}, failed_frac "
              f"{info['failed_frac']:.3f})")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<34} {v['value']:>14.6g} {v['unit']}")
        for f in info["failures"]:
            print(f"  FAILED: {f}")
    print(f"src.lines {src_lines()}  machine {json.dumps(machine())}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    print("wrote BENCHMARK.json")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="measure every workload and rewrite BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if bool(args.workload) == args.all:
        ap.error("give exactly one of --workload or --all")
    if not (SRC / "spraylab" / "cli.py").is_file():
        sys.stderr.write(f"error: no spraylab sources under {SRC}\n")
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
