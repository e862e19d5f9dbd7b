"""Measurements that need a process of their own, printed as one JSON line.

``setup``: seconds from the top of this module to a built runner on a
fresh cache directory, importing ``repro`` on the way; only interpreter
start-up is excluded.

``floors``: what this machine can do at all, for reading kernel stages as a
fraction of it: a bare ``Generator.binomial`` at the workload's miner
counts and ``p``, and an ``np.copyto`` between two arrays each at least four
times the last-level cache.  It runs apart from the benchmark so its large
arrays never count against the workload's peak RSS.

Run as ``python3 perfbench/probes.py setup --workload NAME --seed N
--work DIR`` or ``python3 perfbench/probes.py floors --honest H
--adversary A --p P``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: Assumed last-level cache when the OS does not report one.
FALLBACK_LLC_BYTES = 32 << 20
FLOOR_REPEATS = 5


def setup_seconds(workload_name: str, seed: int, work_dir: str) -> float:
    sys.path[:0] = [SRC, HERE]
    import workloads

    workload = workloads.build(workload_name)
    _, cache_dir = workloads.new_runner(workload, seed, work_dir)
    elapsed = time.perf_counter() - STARTED
    shutil.rmtree(cache_dir, ignore_errors=True)
    return elapsed


def last_level_cache_bytes() -> int:
    """Size of the highest cache level sysfs reports for CPU 0."""
    root = "/sys/devices/system/cpu/cpu0/cache"
    best_level, best_size = 0, FALLBACK_LLC_BYTES
    try:
        entries = os.listdir(root)
    except OSError:
        return best_size
    for entry in entries:
        try:
            with open(os.path.join(root, entry, "level")) as source:
                level = int(source.read())
            with open(os.path.join(root, entry, "size")) as source:
                text = source.read().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        size = int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        if level > best_level:
            best_level, best_size = level, size
    return best_size


def floors(honest: int, adversary: int, p: float) -> dict:
    import numpy as np

    rng = np.random.default_rng(0)
    shape = (4_000, 1_000)
    binomial = []
    for _ in range(FLOOR_REPEATS):
        started = time.perf_counter()
        rng.binomial(honest, p, shape)
        rng.binomial(adversary, p, shape)
        binomial.append(time.perf_counter() - started)
    llc = last_level_cache_bytes()
    array_bytes = 4 * llc
    source = np.ones(array_bytes // 8, dtype=np.int64)
    target = np.zeros_like(source)
    copies = []
    for _ in range(FLOOR_REPEATS):
        started = time.perf_counter()
        np.copyto(target, source)
        copies.append(time.perf_counter() - started)
    return {
        "binomial_cells_per_s": 2 * shape[0] * shape[1] / statistics.median(binomial),
        # Bytes read plus bytes written, the way the kernels' bytes are counted.
        "copy_bytes_per_s": 2 * source.nbytes / statistics.median(copies),
        "copy_array_bytes": source.nbytes,
        "llc_bytes": llc,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    setup = commands.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--work", required=True)
    floor = commands.add_parser("floors")
    floor.add_argument("--honest", type=int, required=True)
    floor.add_argument("--adversary", type=int, required=True)
    floor.add_argument("--p", type=float, required=True)
    args = parser.parse_args()
    if args.command == "setup":
        result = {"setup_s": setup_seconds(args.workload, args.seed, args.work)}
    else:
        result = floors(args.honest, args.adversary, args.p)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
