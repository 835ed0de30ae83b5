"""Self-test of the benchmark itself (``run.py --selftest``).

1. Traced runs with two different seeds report identical count metrics
   (unit ``count`` or ``B``) on every workload, and are correct.
2. A perturbed copy of the stored outputs makes every workload fail: the run
   prints ``"correct": false`` and exits with code 1.
3. The benchmark refuses to run, without printing a result, when
   ``BIHOMCHECK_KERNEL`` is set or when there is no package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

COUNT_UNITS = ("count", "B")


def _run(here, args, env=None, cwd=None):
    proc = subprocess.run([sys.executable, os.path.join(here, "run.py"),
                           *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is not None and "correct" not in result:
        result = None
    return proc.returncode, result, proc.stderr


def _counts(result, units):
    return {k: v["value"] for k, v in result["metrics"].items()
            if units[k] in COUNT_UNITS}


def main(here: str) -> int:
    import workloads as W

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    work = os.path.join(root, ".perfbench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    for w in W.WORKLOADS:
        runs = [_run(here, ["--workload", w, "--seed", str(seed),
                            "--seconds", "1", "--trace", "1"])
                for seed in (1, 2)]
        expect(all(code == 0 and res and res["correct"]
                   for code, res, _ in runs),
               f"{w}: traced runs are correct")
        if all(res for _, res, _ in runs):
            a, b = (_counts(res, units) for _, res, _ in runs)
            diff = sorted(k for k in a if a[k] != b[k])
            expect(not diff, f"{w}: {len(a)} count metrics repeat exactly "
                             f"across seeds {diff[:5]}")

    perturbed = os.path.join(work, "expected")
    shutil.copytree(os.path.join(here, "expected"), perturbed)
    for w in W.WORKLOADS:
        path = os.path.join(perturbed, f"{w}.json")
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        first = sorted(stored["ops"])[0]
        stored["ops"][first]["sha256"] = "0" * 64
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh)
        code, res, _ = _run(here, ["--workload", w, "--seed", "1",
                                   "--seconds", "1", "--expected", perturbed])
        expect(code == 1 and res is not None and not res["correct"]
               and res["failed"] >= 1,
               f"{w}: a perturbed stored output fails the run (exit {code})")

    env = dict(os.environ, BIHOMCHECK_KERNEL="numpy")
    code, res, _ = _run(here, ["--workload", "grid-search"], env=env)
    expect(code == 2 and res is None, "BIHOMCHECK_KERNEL set: refused")

    bare = os.path.join(work, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(here, os.path.join(bare, os.path.basename(here)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res, _ = _run(os.path.join(bare, os.path.basename(here)),
                        ["--workload", "registry"], cwd=bare)
    expect(code != 0 and res is None, "no package source: refused")

    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0
