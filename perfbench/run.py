"""Benchmark of the fockstab CLI: end-to-end metrics, or per-layer metrics
from a traced pass.

Usage (from the repository root):
    python3 perfbench/run.py --workload trajectory|robustness|phase_scan
                             [--seed N] [--seconds S] [--trace 0|1]

Each sample is a fresh Python process (perfbench/sample.py) that imports
fockstab.cli from ./src and runs the workload's calls through
fockstab.cli.main. Samples run one after another for as long as the run's
expected end stays within --seconds, and at least MIN_SAMPLES of them. Between samples this process times a fixed calibration (host_time),
and wall_s, cpu_s and setup_s are reported at a reference host speed. With
--trace 1, TRACED_SAMPLES traced samples follow and the medians of the
per-layer metrics are reported instead of the end-to-end ones. The last
sample's outputs are checked in full after all samples, untimed; every other
sample must have written the same bytes. BLAS thread variables are passed
through untouched (see README.md). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

MIN_SAMPLES = 5
TRACED_SAMPLES = 3
# a sample takes 1-4 s; a run has at least MIN_SAMPLES timed samples and, with
# --trace 1, TRACED_SAMPLES traced ones, and must end within 180 s
SAMPLE_TIMEOUT_S = 20.0
# host_time() on the machine the benchmark was written on, when it was quiet;
# timings are reported as if the host ran at that speed (see README.md)
REFERENCE_HOST_S = 0.16


def host_time() -> float:
    """Seconds a fixed mix of interpreter loops, numpy arithmetic on small
    arrays and BLAS products takes on the host now: the kinds of work
    fockstab's layers do. It runs in this process, between samples, so
    nothing the program does can change it."""
    import numpy as np

    a = np.full((36, 36), 0.5 + 0.5j)
    b = a.copy()
    c = np.full((81, 81), 1.0 / 81, dtype=np.complex128)
    c @ c  # OpenBLAS starts its threads on the first product
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    for _ in range(10_000):
        b = 0.5 * b + 0.5 * a
    for _ in range(600):
        c @ c
    return time.perf_counter() - t0


def at_reference_speed(res: dict, key: str) -> float:
    """A sample's time scaled to the host speed at which host_time() reads
    REFERENCE_HOST_S, using the mean of the host times around the sample."""
    return res[key] * REFERENCE_HOST_S / res["host_s"]


def run_sample(argvs: list[list[str]], sample_dir: Path, trace: bool) -> dict:
    """One fresh process running the calls; returns its timings and status."""
    sample_dir.mkdir(parents=True)
    job, result_path = sample_dir / "job.json", sample_dir / "result.json"
    job.write_text(json.dumps({"argvs": argvs, "trace": trace, "src": str(SRC)}), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    started = time.monotonic()
    with open(sample_dir / "stdout.txt", "wb") as out, open(sample_dir / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "sample.py"), str(job), str(result_path)],
                                  cwd=ROOT, env=env, stdout=out, stderr=err, timeout=SAMPLE_TIMEOUT_S)
            status = proc.returncode
        except subprocess.TimeoutExpired:
            status = "timeout"
    res = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else {}
    res["elapsed_s"] = time.monotonic() - started
    problems = []
    if status != 0:
        problems.append(f"sample process exited with {status}")
    if res.get("error"):
        problems.append(res["error"])
    if any(rc != 0 for rc in res.get("returncodes", [])):
        problems.append(f"fockstab.cli.main returned {res['returncodes']}")
    if problems:
        tail = (sample_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        problems.append(f"stderr tail: {tail}")
    res["problems"] = problems
    return res


def hash_outputs(sample_dir: Path, calls: list[workloads.Call]) -> list[str | None]:
    digests = []
    for call in calls:
        path = sample_dir / call.out
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None)
    return digests


def check_outputs(sample_dir: Path, calls: list[workloads.Call]) -> list[str]:
    """Run every call's check on one sample's files (imports fockstab here)."""
    sys.path.insert(0, str(SRC))
    from fockstab.cli import build_parser, config_from_args
    from perfbench import checks

    problems = []
    for call in calls:
        out = str(sample_dir / call.out)
        try:
            cfg = config_from_args(build_parser().parse_args(call.argv + ["--out", out]))
            found = getattr(checks, call.check)(out, cfg, **call.check_args)
        except Exception:
            found = [f"check raised:\n{traceback.format_exc()}"]
        problems += [f"{call.out}: {p}" for p in found]
    return problems


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
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
    return None


def machine_facts(seed: int, inputs: dict) -> dict:
    import numpy
    from fockstab import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernels_backend": kernels.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "seed": seed,
        "inputs": inputs,
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(calls: list[workloads.Call], run_dir: Path, seconds: float, trace: bool):
    """The timed samples and the optional traced samples of one run, and the
    problems found in the last sample's outputs."""

    def sample(tag: str, traced: bool) -> dict:
        sdir = run_dir / tag
        res = run_sample([c.argv + ["--out", str(sdir / c.out)] for c in calls], sdir, traced)
        res["dir"] = sdir
        res["hashes"] = hash_outputs(sdir, calls)
        res["out_bytes"] = sum((sdir / c.out).stat().st_size for c in calls if (sdir / c.out).is_file())
        nan = float("nan")
        host.append(host_time())
        res["host_s"] = (host[-2] + host[-1]) / 2
        print(f"{tag}: wall_s={res.get('wall_s', nan):.3f} cpu_s={res.get('cpu_s', nan):.3f} "
              f"setup_s={res.get('setup_s', nan):.4f} peak_rss_mb={res.get('peak_rss_mb', nan):.1f} "
              f"host_s={res['host_s']:.4f} {'ok' if not res['problems'] else 'FAILED'}", flush=True)
        return res

    def discard(res: dict) -> None:
        # a large file left in the page cache would be written back to disk
        # while a later sample runs
        for call in calls:
            (res["dir"] / call.out).unlink(missing_ok=True)

    # the first import in a fresh checkout would also write bytecode caches
    compileall.compile_dir(str(SRC / "fockstab"), quiet=1)
    host_time()  # the first call also pays for numpy's and OpenBLAS's start-up
    host = [host_time()]
    samples: list[dict] = []
    started = time.monotonic()
    while True:
        samples.append(sample(f"sample{len(samples) + 1}", False))
        elapsed = time.monotonic() - started
        if len(samples) >= MIN_SAMPLES and elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
        discard(samples[-1])
    traced = []
    if trace:
        for i in range(TRACED_SAMPLES):
            discard((traced or samples)[-1])
            traced.append(sample(f"traced{i + 1}", True))
    # every run of one seed must write the same bytes, so the last sample's
    # files are checked in full and the others by digest; nothing but
    # host_time() runs in this process between timed samples
    last = (traced or samples)[-1]
    if last["problems"] or None in last["hashes"]:
        content = ["the last sample failed, so no output was checked"]
    else:
        content = check_outputs(last["dir"], calls)
    discard(last)
    return samples, traced, content


def judge(runs: list[dict], content: list[str]) -> int:
    """Add the checked run's output problems to every run that wrote the same
    bytes and flag those that did not; returns the number of failed runs."""
    checked = runs[-1]
    for res in runs:
        if res["hashes"] == checked["hashes"]:
            res["problems"] += content
        else:
            res["problems"].append("outputs differ from the last sample's (same seed, same inputs)")
    return sum(1 for r in runs if r["problems"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fockstab" / "cli.py").is_file():
        print(f"error: no fockstab sources under {SRC}", file=sys.stderr)
        return 2
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    t_start = time.monotonic()
    inputs, calls = workloads.plan(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        samples, traced, content = measure(calls, run_dir, args.seconds, bool(args.trace))
        runs = samples + traced
        failed = judge(runs, content)
        timed = [s for s in samples if "wall_s" in s]
        if not traced:
            metrics = {
                "wall_s": median([at_reference_speed(s, "wall_s") for s in timed]),
                "cpu_s": median([at_reference_speed(s, "cpu_s") for s in timed]),
                "setup_s": median([at_reference_speed(s, "setup_s") for s in samples if "setup_s" in s]),
                "peak_rss_mb": median([s["peak_rss_mb"] for s in timed]),
                "success_rate": 1.0 - failed / len(runs),
            }
        else:
            from perfbench.spans import layer_metrics

            # the median of each metric over the traced samples; counts
            # repeat exactly, so their median is the count
            per_sample = [layer_metrics(t.pop("spans", []), t["out_bytes"]) for t in traced]
            metrics = {k: median([m[k] for m in per_sample]) for k in per_sample[0]}
            # both at the reference host speed, so host drift between the
            # timed and the traced samples does not show as overhead
            metrics["trace.wall_s"] = median([at_reference_speed(t, "wall_s") for t in traced if "wall_s" in t])
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(
                [at_reference_speed(s, "wall_s") for s in timed])
        facts = machine_facts(args.seed, inputs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = {m["name"] for m in reported} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not computed: {sorted(missing)}")
    print(f"facts: {json.dumps(facts, sort_keys=True)}")
    print("raw medians: " + " ".join(f"{k}={median([s[k] for s in timed]):.4g}"
                                     for k in ("wall_s", "cpu_s", "setup_s", "host_s")))
    print(f"workload {args.workload} (seed {args.seed}): {len(samples)} timed samples"
          f"{f', {len(traced)} traced' if traced else ''}; "
          f"error_rate {failed}/{len(runs)} = {failed / len(runs):.3g}")
    for m in reported:
        print(f"  {m['name']:<50} {metrics[m['name']]:>16.6g} {m['unit']}")
    for i, res in enumerate(runs):
        for p in res["problems"]:
            print(f"run {i + 1}: {p}", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    report = {"facts": facts, "samples": samples, "traced": traced,
              "metrics": metrics, "seconds": args.seconds, "total_s": time.monotonic() - t_start}
    (WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
