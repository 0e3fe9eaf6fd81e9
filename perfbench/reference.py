"""Print, as one JSON line, the environment stamp of the lambdakit under
test and the reference values one workload's checks compare against.

    python3 perfbench/reference.py WORKLOAD

The references come from routes independent of the ones each workload
times: the profile DP for the sweep jobs, and the closed k = 2 and
k = 3 formulas for the DP jobs.  Runs untimed, in its own process, so
run.py never imports lambdakit itself.
"""

import json
import platform
import sys

import lambdakit
from lambdakit import dp_count, kernel_backend, lambda2_good, lambda3_explicit


def speedups_imports():
    try:
        import lambdakit._speedups  # noqa: F401
    except ImportError:
        return False
    return True


def references(workload):
    if workload == "sweep":
        return {"dp": {f"{n},{k}": dp_count(n, k) for n, k in ((6, 3), (6, 2), (5, 3))}}
    if workload == "polynomial":
        return {
            "explicit3": {str(n): lambda3_explicit(n) for n in range(3, 41)},
            "good2": {"200": lambda2_good(200)},
        }
    return {}


def main():
    workload = sys.argv[1]
    env = {
        "kernel_backend": kernel_backend(),
        "speedups_imports": speedups_imports(),
        "python": platform.python_version(),
        "lambdakit_file": lambdakit.__file__,
    }
    print(json.dumps({"env": env, "refs": references(workload)}))


if __name__ == "__main__":
    main()
