"""hilbsam benchmark: cold-start passes over one workload.

    python3 perfbench/run.py --workload suite_fp --seed 0 --seconds 50 --trace 0

Run from the root of a checkout.  Each pass solves the workload's whole
problem document in a fresh interpreter (no in-process basis memo, and
HILBSAM_GB_CACHE removed from its environment), single-threaded.  Passes
run back to back, each starting after the previous one ended, for about
``--seconds``: a pass is started only if it should end by then.  Before them, a few set-up-only passes sample
the set-up time.  Every result is checked outside the timed interval.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced passes alternate and
the result carries the per-layer metrics.  Human-readable lines come first;
the last line of standard output is the JSON result.  Details, and the
spans of traced passes, go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
ORACLE_CACHE = OUT / "oracle-cache.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# set-up-only passes before the first pass, and after each pass, so the
# set-up samples are spread over the whole run
SETUP_PROBES_FIRST = 3
SETUP_PROBES_BETWEEN = 2
RUN_LIMIT_S = 170  # every child is killed by then; a run must end within 180 s
# a run holds at least this many passes, even when the oracle values of
# its first pass took most of --seconds
MIN_PASSES = 3
# a pass still running after this is killed, and all its tasks count as failed;
# a normal pass of the slowest workload takes 10-15 s
PASS_LIMIT_S = 60


class BenchError(Exception):
    pass


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts passes in fresh interpreters, each waited for before the next."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("HILBSAM_GB_CACHE", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, cfg: dict, limit: float | None = None) -> dict:
        """Run passrun.py with ``cfg`` and return its JSON line.  A child
        still running after ``limit`` seconds (or at the run deadline) is
        killed and waited for, and ChildKilled is raised."""
        cfg = {"workload": self.workload, "seed": self.seed, **cfg}
        timeout = max(1.0, self.deadline - time.monotonic())
        if limit is not None:
            timeout = min(timeout, limit)
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "passrun.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
        ) as proc:
            try:
                out, err = proc.communicate(json.dumps(cfg), timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise ChildKilled(proc.pid, time.perf_counter() - start) from None
        if proc.returncode != 0:
            raise BenchError(f"{cfg['mode']} child exited {proc.returncode}:\n{err[-3000:]}")
        return json.loads(out.splitlines()[-1])


class ChildKilled(BenchError):
    def __init__(self, pid: int, seconds: float):
        super().__init__(f"child {pid} killed after {seconds:.1f} s")
        self.pid = pid
        self.seconds = seconds


def _load_oracle_cache() -> dict:
    try:
        return json.loads(ORACLE_CACHE.read_text())
    except (OSError, ValueError):
        return {}


def _save_oracle_cache(cache: dict) -> None:
    tmp = ORACLE_CACHE.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, sort_keys=True))
    os.replace(tmp, ORACLE_CACHE)


def measure(args, declared: dict) -> tuple[dict, dict]:
    """Run the passes and checks of one benchmark run: (result, details)."""
    OUT.mkdir(exist_ok=True)
    spans_dir = OUT / "spans"
    if args.trace:
        spans_dir.mkdir(exist_ok=True)
        for stale in spans_dir.glob(f"{args.workload}-seed{args.seed}-pass*.jsonl"):
            stale.unlink()
    runner = Runner(args.workload, args.seed, time.monotonic() + RUN_LIMIT_S)

    runner.child({"mode": "setup"})  # writes the bytecode caches; not counted
    probes = [runner.child({"mode": "setup"}) for _ in range(SETUP_PROBES_FIRST)]

    def solve(cfg: dict) -> dict:
        """One pass.  A killed pass is kept with the time until the kill,
        its process CPU time and the largest child RSS so far."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            return runner.child({"mode": "pass", **cfg}, limit=PASS_LIMIT_S)
        except ChildKilled as exc:
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            return {"killed": str(exc), "pid": exc.pid, "traced": cfg["trace"],
                    "tasks": probes[0]["tasks"], "solve_s": exc.seconds, "cpu_s": cpu,
                    "peak_rss_mb": after.ru_maxrss / 1024}

    # every truncated colength is checked against the brute-force oracle,
    # whose values are cached per checkout
    cache = _load_oracle_cache()

    def fill_oracle(done: list) -> None:
        jobs = {}
        for p in done:
            jobs.update((k, job) for k, job in p["ladder_jobs"].items() if k not in cache)
        if jobs:
            cache.update(runner.child({"mode": "oracle", "jobs": jobs})["oracle"])
            _save_oracle_cache(cache)

    passes = []
    stop = time.monotonic() + args.seconds
    while True:
        cycle_start = time.monotonic()
        traced = bool(args.trace) and len(passes) % 2 == 1
        cfg = {"trace": traced, "pass_id": len(passes)}
        if traced:
            cfg["spans_path"] = str(spans_dir / f"{args.workload}-seed{args.seed}-pass{len(passes)}.jsonl")
        passes.append(solve(cfg))
        if "killed" in passes[-1]:
            break  # the same input would run as long again
        probes += [runner.child({"mode": "setup"}) for _ in range(SETUP_PROBES_BETWEEN)]
        passes[-1]["cycle_s"] = time.monotonic() - cycle_start
        if len(passes) == 1:
            # the first run in a checkout fills the cache here, within --seconds,
            # so that run does not last the oracle time longer than the others
            fill_oracle(passes)
        if len(passes) < MIN_PASSES or len({p["traced"] for p in passes}) < (2 if args.trace else 1):
            continue
        # start another pass only if it should end by about the stop time,
        # so a run lasts about --seconds whatever the pass length
        typical = statistics.median(p["cycle_s"] for p in passes)
        if time.monotonic() + typical / 2 >= stop:
            break
    checked = list(passes)

    # field independence: the other field at the same seed gives the same answers
    other = workloads.CROSS_FIELD.get(args.workload)
    if other and not any("killed" in p for p in passes):
        cross = solve({"trace": False, "pass_id": -1, "field": other})
        checked.append(cross)
        if "killed" not in cross:
            for name, answer in passes[0]["answers"].items():
                if cross["answers"].get(name) != answer:
                    cross["failures"].setdefault(name, []).append(
                        f"answer over {other} differs from the measured field")
    done = [p for p in checked if "killed" not in p]

    fill_oracle(done)
    for p in done:
        for task, key, value in p["ladder"]:
            if cache[key] != value:
                p["failures"].setdefault(task, []).append(
                    f"truncated colength {value} != oracle {cache[key]}")

    reported = probes + done
    pids = [p["pid"] for p in probes + checked]
    cold = {
        "fresh_process": all(p["fresh_process"] for p in reported)
        and len(set(pids)) == len(pids) and os.getpid() not in pids,
        "gb_cache_env_unset": all(p["gb_cache_env_unset"] for p in reported),
        "memo_empty_at_import": all(p["memo_empty_at_import"] for p in reported),
    }
    attempted = sum(p["tasks"] for p in checked)
    failed = sum(p["tasks"] if "killed" in p else len(p["failures"]) for p in checked)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    timing = {
        "solve_s": statistics.median(p["solve_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in probes + plain if "setup_s" in p),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    counts_repeat = None
    if not args.trace:
        values = timing
    elif traced:
        values = {}
        for name in traced[0]["layers"]:
            column = [p["layers"][name] for p in traced]
            values[name] = statistics.median(column) if name.endswith("_s") else column[0]
        counts_repeat = all(
            p["layers"][n] == traced[0]["layers"][n]
            for p in traced for n in traced[0]["layers"] if not n.endswith("_s"))
        values["trace_overhead_s"] = (
            statistics.median(p["solve_s"] for p in traced) - timing["solve_s"])
    else:  # no traced pass finished; the run already counts as failed
        values = dict.fromkeys(declared, 0)
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json")

    result = {
        "correct": failed == 0 and all(cold.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": declared[n]} for n in declared},
    }
    failures = [{"task": t, "reasons": r} for p in done for t, r in p["failures"].items()]
    failures += [{"task": "(whole pass)", "reasons": [p["killed"]]} for p in checked if "killed" in p]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workloads.seed_used(args.workload),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "cold": cold,
        "passes": [{k: p.get(k) for k in ("pid", "traced", "killed", "setup_s", "solve_s", "cpu_s",
                                          "peak_rss_mb")} for p in passes],
        "setup_probes_s": [p["setup_s"] for p in probes],
        "ladder_steps_checked": sum(len(p["ladder"]) for p in done),
        "field_independence_checked": len(checked) > len(passes),
        "failures": failures,
        "timing": timing,
        "fail_frac": failed / attempted,
        "trace_counts_repeat": counts_repeat,
    }
    return result, details


def report(result: dict, details: dict) -> None:
    d = details
    env = d["environment"]
    print(f"workload {d['workload']}  seed {d['seed']} ({'used' if d['seed_used'] else 'ignored'})"
          f"  passes {len(d['passes'])}  trace {d['trace']}")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu_model']},"
          f" commit {env['commit']}")
    print("cold: " + ", ".join(f"{k} {v}" for k, v in d["cold"].items()))
    units = {"solve_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for name, unit in units.items():
        print(f"{name:12s} {d['timing'][name]:.4f} {unit}")
    print(f"{'fail_frac':12s} {d['fail_frac']:.4f} ratio ({result['failed']}/{result['attempted']} tasks)")
    if d["trace"]:
        print(f"trace_overhead_s {result['metrics']['trace_overhead_s']['value']:.4f} s"
              f"  (traced solve_s minus untraced solve_s)")
        print(f"per-layer counts repeat across traced passes: {d['trace_counts_repeat']}")
    if not d["field_independence_checked"] and d["workload"] in workloads.CROSS_FIELD:
        print("field independence not checked: a measured pass was killed")
    for f in d["failures"]:
        print(f"FAILED {f['task']}: {'; '.join(f['reasons'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("smoke",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hilbsam" / "__init__.py").is_file():
        print(f"perfbench: no hilbsam sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    try:
        result, details = measure(args, declared)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, **details}, indent=1))
    report(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
