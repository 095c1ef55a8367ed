#!/usr/bin/env python3
"""The simulator benchmark: four workloads, one command.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --self-test

Run from the root of the repository. Builds the benchmark program in this
directory against ../src (into .bench_build/simbench), runs one workload
(uni-miss, uni-hit, mc-churn or fuzz-campaign) for --seconds, applies
the outcome gate and prints every metric by name with its unit. With
--trace 0 those are the end-to-end metrics of untraced rounds, in host
time scaled by the host-speed probes around each cell; with
--trace 1 the per-layer metrics of a separate traced run, whose trace
file is kept under .bench_build/simbench/traces and whose layer table is
printed (layers.py). The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit status is
0 only when every simulated outcome was correct. --self-test proves the
gate fires on a seeded defect and on a tampered expected digest.
NOTES.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode caches in the source tree
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "simbench"
EXPECTED = HERE / "expected_digests.json"
WORKLOADS = ("uni-miss", "uni-hit", "mc-churn", "fuzz-campaign")

# End-to-end metrics: name -> unit.
END_TO_END = {
    "sim_kips": "kinstr/CPU-s",
    "scenarios_per_hour": "1/h",
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Probe-normalized host time: a host-speed probe counts as this many
# seconds (see normalized()).
PROBE_S = 0.010

# Seconds a simbench run may take beyond its measuring budget, and in all.
SLACK_S = 150
DEADLINE_S = 170


def die(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build simbench; @return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *generator, "-S", str(HERE), "-B",
                      str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "simbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail))
    return BUILD / "simbench"


def source_sha256():
    """Hash of every simulator and benchmark source file."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty",
                            "--tags"], cwd=ROOT, capture_output=True,
                           text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def manifest(doc, args):
    """The program's build facts plus this run's identity."""
    m = dict(doc["manifest"])
    m.update(nproc=os.cpu_count(), git_describe=git_describe(),
             source_sha256=source_sha256(), seed=args.seed,
             seconds=args.seconds, workload=args.workload)
    return m


def run_simbench(binary, args, mode):
    out = BUILD / "out" / f"{args.workload}-seed{args.seed}-{mode}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    workdir = BUILD / "work"
    workdir.mkdir(exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(binary), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--mode={mode}", f"--out={out}", f"--workdir={workdir}"]
    if args.inject == "mutation":
        cmd.append("--inject=mutation")
    log = BUILD / "out" / f"{args.workload}-seed{args.seed}-{mode}.log"
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=err, stderr=err, cwd=ROOT)
        try:
            code = proc.wait(timeout=min(args.seconds + SLACK_S,
                                         DEADLINE_S))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0 or not out.is_file():
        tail = log.read_text(errors="replace").splitlines()[-20:]
        return None, f"simbench {mode} run ended with {code}:\n" + \
            "\n".join(tail)
    with open(out) as f:
        return json.load(f), None


def expected_digests(seed, workload, inject):
    try:
        with open(EXPECTED) as f:
            table = json.load(f)
    except (OSError, ValueError):
        return None
    expected = table.get(str(seed), {}).get(workload)
    if expected and inject == "digest":
        # Self-test: tamper the first cell's expected digest.
        name = sorted(expected)[0]
        flipped = "0" if expected[name][-1] != "0" else "1"
        expected = dict(expected, **{name: expected[name][:-1] + flipped})
    return expected


def digest_gate(digests, rounds, seed, workload, inject):
    """Compare each cell's digest with the stored one for this seed.

    @return (failed attempts, messages). Without stored digests every
    cell's digest hash is printed for a parent/change comparison.
    """
    hashes = {name: hashlib.sha256(d.encode()).hexdigest()
              for name, d in digests.items()}
    expected = expected_digests(seed, workload, inject)
    if expected is None:
        for name, h in sorted(hashes.items()):
            print(f"digest {workload} seed {seed} {name}: {h}")
        return 0, []
    bad = sorted(n for n in set(hashes) | set(expected)
                 if hashes.get(n) != expected.get(n))
    return len(bad) * rounds, [f"{n}: digest differs from the stored "
                               f"one for seed {seed}" for n in bad]


def normalized(result):
    """Each end-to-end metric from the rounds, plus its raw series.

    Host speed on a shared machine drifts by tens of percent over
    minutes, so raw host time cannot be compared between runs. Every
    cell (campaign: every leg) is bracketed by host-speed probes, fixed
    code that does not change with the simulator. Each of the cell's
    host times is scaled by PROBE_S / (the mean probe time around it),
    the median is taken over the run's rounds per cell, and the cell
    medians are summed.
    """
    rounds = result["rounds"]
    cells = list(zip(*(r["cells"] for r in rounds)))

    def total(key, probe):
        return sum(statistics.median(c[key] * PROBE_S / c[probe]
                                     for c in cell) for cell in cells)
    wall = total("wall_s", "probe_wall_s")
    cpu = total("cpu_s", "probe_cpu_s")
    setup = total("setup_s", "probe_wall_s")
    window = total("window_cpu_s", "probe_cpu_s")
    units = rounds[0].get("scenarios", len(cells))
    metrics = {
        "sim_kips": layers.ratio(rounds[0]["instructions"] / 1000.0, window),
        "scenarios_per_hour": layers.ratio(3600.0 * units, wall),
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": setup,
    }

    def raw(key):
        return [sum(c[key] for c in r["cells"]) for r in rounds]
    raw_window = raw("window_cpu_s")
    raw_wall = raw("wall_s")
    series = {
        "sim_kips": [layers.ratio(r["instructions"] / 1000.0, w)
                     for r, w in zip(rounds, raw_window)],
        "scenarios_per_hour": [layers.ratio(3600.0 * units, w)
                               for w in raw_wall],
        "wall_s": raw_wall,
        "cpu_s": raw("cpu_s"),
        "setup_s": raw("setup_s"),
        "probe_cpu_s": [c["probe_cpu_s"] for r in rounds
                        for c in r["cells"]],
    }
    return metrics, series


def measure(binary, args):
    doc, error = run_simbench(binary, args, "measure")
    if doc is None:
        return None, 0, 1, [error]
    m = manifest(doc, args)
    print("manifest: " + json.dumps(m, sort_keys=True))
    result = doc["result"]
    rounds = result["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    fuzz = args.workload == "fuzz-campaign"
    if not fuzz:
        n, msgs = digest_gate(result["digests"], len(rounds), args.seed,
                              args.workload, args.inject)
        failed += n
        failures += msgs
    if "injected" in doc:
        attempted += doc["injected"]["attempted"]
        failed += doc["injected"]["failed"]
        failures += doc["injected"]["violations"]

    metrics, series = normalized(result)
    # The probe's table stays resident in the benchmark program and is
    # not mapped into campaign workers.
    rss = doc["child_max_rss_kib"] if fuzz else \
        doc["max_rss_kib"] - m["probe_table_kib"]
    metrics["peak_rss_mib"] = rss / 1024.0
    what = f"batches of {m['campaign_scenarios_per_batch']} scenarios" \
        if fuzz else f"rounds of {result['cells']} cells"
    probe = statistics.median(series["probe_cpu_s"])
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} "
          f"{what}; host times are scaled to a {PROBE_S * 1e3:g} ms probe "
          f"(the probe took {probe * 1e3:.4g} ms, median)")
    for name, value in metrics.items():
        if name in series:
            s = series[name]
            q = statistics.quantiles(s, n=4) if len(s) > 1 else s * 3
            spread = (f"raw host rounds: median {statistics.median(s):.6g}, "
                      f"q1 {q[0]:.6g}, q3 {q[2]:.6g}")
        else:
            spread = "largest child" if fuzz else "this process"
        print(f"  {name:<20} {value:>14.6g} {END_TO_END[name]:<13} "
              f"({spread})")
    fail_ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':<20} {fail_ratio:>14.6g} {'ratio':<13} "
          f"({failed} failed of {attempted} attempted)")
    return ({k: {"value": v, "unit": END_TO_END[k]}
             for k, v in metrics.items()}, attempted, failed, failures)


def trace(binary, args):
    doc, error = run_simbench(binary, args, "trace")
    if doc is None:
        return None, 0, 1, [error]
    doc["manifest"] = manifest(doc, args)
    print("manifest: " + json.dumps(doc["manifest"], sort_keys=True))
    result = doc["result"]
    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    if args.workload != "fuzz-campaign":
        first = {c["name"]: c["digest"] for c in result["cells"]
                 if c["round"] == 0}
        rounds = 1 + max(c["round"] for c in result["cells"])
        n, msgs = digest_gate(first, rounds, args.seed, args.workload,
                              args.inject)
        failed += n
        failures += msgs
    if "injected" in doc:
        attempted += doc["injected"]["attempted"]
        failed += doc["injected"]["failed"]
        failures += doc["injected"]["violations"]
    for cell in result["cells"]:
        del cell["digest"]
    path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f)
    print(f"trace file: {path.relative_to(ROOT)}")
    layers.print_table(doc)
    layers.print_metrics(doc)
    fail_ratio = failed / attempted if attempted else 1.0
    print(f"fail_ratio {fail_ratio:.6g} ({failed} failed of {attempted} "
          "attempted)")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in
               layers.layer_metrics(doc).items()}
    return metrics, attempted, failed, failures


def self_test():
    """Run the command with each seeded defect; each must fail it."""
    ok = True
    for workload, inject in (("fuzz-campaign", "mutation"),
                             ("uni-hit", "digest")):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", "0", "--inject", inject]
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=600)
        lines = r.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        ratio_line = [x for x in lines if "fail_ratio" in x]
        caught = r.returncode != 0 and last.get("failed", 0) > 0
        ok &= caught
        print(f"self-test {inject} on {workload}: exit {r.returncode}, "
              f"{last.get('failed')} failed of {last.get('attempted')}; "
              f"{ratio_line[0].strip() if ratio_line else 'no fail_ratio'}"
              f" -> {'caught' if caught else 'MISSED'}")
        for line in r.stderr.strip().splitlines()[:4]:
            print(f"    {line}")
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("mutation", "digest"),
                    help="seed a defect the gate must catch")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seconds < 1 or args.seed < 0:
        ap.error("--workload is required, --seconds >= 1, --seed >= 0")

    binary = build()
    run = trace if args.trace else measure
    metrics, attempted, failed, failures = run(binary, args)
    if metrics is None:
        die(failures[0])
    for f in failures[:20]:
        print(f"FAIL {f}", file=sys.stderr)
    failed = min(failed, attempted)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
