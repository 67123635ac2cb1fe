"""Fresh-process entry point for every `pseudoherm` call the benchmark makes.

    python3 perfbench/child.py run SPEC --out DIR --seed N   # one CLI call
    python3 perfbench/child.py --probe                       # import only

When the call returns it writes the file named by PERFBENCH_STAMP with two
CLOCK_MONOTONIC readings, when this script started and when
`import pseudoherm.cli` returned (the parent reads its own clock before the
spawn, so spawn-to-import is the set-up time), and the process's peak
resident set. With PERFBENCH_TRACE set, the layers are wrapped after the
import and the spans are written to that path when the call returns.
"""

import time

BOOT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import pseudoherm.cli  # noqa: E402

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    src = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(pseudoherm.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: imported pseudoherm from {pseudoherm.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    try:
        if argv == ["--probe"]:
            return 0
        trace_path = os.environ.get("PERFBENCH_TRACE")
        if not trace_path:
            return pseudoherm.cli.main(argv)

        import tracer

        t = tracer.Tracer()
        tracer.install(t)
        try:
            return pseudoherm.cli.main(argv)
        finally:
            t.dump(trace_path, {"boot": BOOT, "imported": IMPORTED})
    finally:
        with open(os.environ["PERFBENCH_STAMP"], "w", encoding="utf-8") as fh:
            json.dump({"boot": BOOT, "imported": IMPORTED, "peak_rss_kb": peak_rss_kb()}, fh)


def peak_rss_kb() -> int:
    """VmHWM of this process image.

    The parent's wait4 ru_maxrss is not used: Linux carries the pre-exec
    high-water mark of the spawning process into it, so a child smaller
    than the benchmark process would report the benchmark's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
