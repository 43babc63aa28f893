"""One benchmark sample: a fresh process that imports fockstab.cli and runs
a list of CLI argument vectors through ``fockstab.cli.main``.

Usage: python sample.py JOB.json RESULT.json

JOB.json holds {"argvs": [[...], ...], "trace": bool, "src": path}. RESULT.json
receives the import time, the wall and CPU time from the first call to the
last return, the peak resident memory, each call's return code or exception,
and, when traced, the spans. Only the standard library is imported before
the timed import, so setup_s includes numpy's import as a user pays it.
"""

import json
import os
import resource
import sys
import time
import traceback


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"returncodes": [], "error": None}
    t0 = time.perf_counter()
    import fockstab.cli
    result["setup_s"] = time.perf_counter() - t0
    src = os.path.realpath(job["src"])
    if not os.path.realpath(fockstab.cli.__file__).startswith(src + os.sep):
        result["error"] = f"fockstab imported from {fockstab.cli.__file__}, not from {src}"
    tracer = None
    if job["trace"] and result["error"] is None:
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from perfbench.spans import Tracer

        tracer = Tracer()
        tracer.install()
    if result["error"] is None:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        try:
            for argv in job["argvs"]:
                result["returncodes"].append(fockstab.cli.main(argv))
        except Exception:
            result["error"] = traceback.format_exc()
        t2 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        result["wall_s"] = t2 - t1
        result["cpu_s"] = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        result["peak_rss_mb"] = r1.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
