#!/usr/bin/env python3
"""Repo benchmark: build lbchat_perfbench, run one workload, check it.

    python3 perfbench/run.py --workload paper16_lbchat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare A.json B.json

Run from the repository root. The first run configures and builds the
engine libraries plus lbchat_perfbench from source into $CARGO_TARGET_DIR
(default .bench_build); later runs reuse the build.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is the provenance
stamp. Each result is also saved, stamp included, under
<build>/results/ so two of them can be compared with --compare, which
refuses results whose stamps differ. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_WORKLOADS = ("paper16_lbchat", "metro256_dp")
WORKLOADS = SIM_WORKLOADS + ("service_mix",)
RUN_TIMEOUT_S = 170
# Stamp fields that must agree for two results to be comparable.
STAMP_KEYS = ("workload", "trace", "nproc", "kernel", "build_type", "compiler", "lanes")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build lbchat_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "fleet.h")):
        log(f"engine sources not found under {ROOT}/src; run from a repo checkout")
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "lbchat_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(bdir, "lbchat_perfbench")


def run_binary(argv):
    """Run lbchat_perfbench; returns its exit code and JSON line."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(argv)}")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode}): {' '.join(argv)}")
        sys.exit(1)
    return proc.returncode, json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def source_digest():
    """sha256 over the engine and benchmark sources; stands in for the commit
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def stamp_of(raw, workload, trace):
    return {
        "workload": workload,
        "trace": trace,
        "nproc": int(raw["stamp.nproc"]),
        "kernel": raw["stamp.kernel"],
        "build_type": raw["stamp.build_type"],
        "compiler": raw["stamp.compiler"],
        "lanes": int(raw["stamp.lanes"]),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def end_to_end(raw, workload):
    """Whole-run aggregates. A sim run counts as one job (its scenarios'
    set-ups plus runs); the service's sim throughput is its makespan per
    simulated second of the executed jobs."""
    values = {k: raw[k] for k in ("setup_s", "peak_rss_mb", "jobs_per_min", "turnaround_s_p50")}
    values["ms_per_sim_s"] = (raw["ms_per_sim_s"] if workload in SIM_WORKLOADS
                              else raw["makespan_s"] * 1e3 / raw["sim_s_executed"])
    values["ok_share"] = (raw["attempted"] - raw["failed"]) / raw["attempted"]
    return values


def checks(raw, workload, trace, reference):
    """Output checks; returns the names of those that failed."""
    bad = [k for k, v in raw.items() if k.startswith("check.") and v is not True]
    ref = reference["workloads"][workload]["final_loss"]
    # A traced run covers one scenario, whose loss scatters more than the
    # mean over an untraced run's scenarios.
    bound = ref.get("rel_bound_one_scenario", ref["rel_bound"]) if trace else ref["rel_bound"]
    final = raw.get("final_loss")
    if final is None or abs(final / ref["ref"] - 1.0) > bound:
        bad.append(f"final_loss {final} outside {ref['ref']} +- {bound:.0%}")
    if workload in SIM_WORKLOADS:
        if not final or final >= raw["initial_loss"]:
            bad.append("final_loss not below initial_loss")
        # The deterministic net.* counts must repeat exactly: the first run
        # of a seed records them, every later run of that seed on the same
        # sources must match. The source digest in the file name keeps a
        # change that legitimately moves the numerics from being compared
        # against another version's record.
        counts = {k: v for k, v in raw.items() if k.startswith("net.") and not k.endswith("_us")}
        counts["curve_digest"] = raw["curve_digest"]
        path = os.path.join(build_dir(), "results",
                            f"counts-{workload}-{raw['stamp.kernel']}-{source_digest()}"
                            f"-s{int(raw['seed'])}-t{trace}.json")
        if os.path.isfile(path):
            if load_json(path) != counts:
                bad.append("net.* counts differ from an earlier run of this seed")
        else:
            with open(path, "w") as f:
                json.dump(counts, f, sort_keys=True)
    return bad


def metrics_block(values, specs):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def run_workload(args):
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
        sys.exit(2)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference = load_json(os.path.join(HERE, "reference.json"))
    binary = build()
    os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)

    t0 = time.monotonic()
    if args.workload in SIM_WORKLOADS:
        argv = [binary, "sim", "--workload", args.workload]
    else:
        work = os.path.join(build_dir(), "svc-work")
        os.makedirs(work, exist_ok=True)
        argv = [binary, "service", "--work", work]
    argv += ["--seed", str(args.seed), "--trace", str(args.trace)]
    code, raw = run_binary(argv)
    wall = time.monotonic() - t0
    if code != 0:
        log(f"lbchat_perfbench exited {code}")
        sys.exit(1)

    bad = checks(raw, args.workload, args.trace, reference)
    for b in bad:
        log(f"check failed: {b}")
    if args.trace == 0:
        values = end_to_end(raw, args.workload)
        metrics = metrics_block(values, bench["end_to_end"])
    else:
        # Layers a workload does not exercise report 0 (e.g. svc.* on the
        # sims, core.* on metro256_dp).
        values = {m["name"]: raw.get(m["name"], 0.0) for m in bench["per_layer"]}
        metrics = metrics_block(values, bench["per_layer"])
    if raw.get("engine.ckpt_restore_failed"):
        log(f"checkpoint round trips (sim-s:status): {raw['ckpt_trips']}; failed restores are "
            "a known defect (perfbench/README.md), counted in failed")
    if raw.get("first_error"):
        log(f"first failed job: {raw['first_error']}")
    if abs(wall - args.seconds) > 2 * args.seconds:
        log(f"measured {wall:.1f} s of wall time for a nominal {args.seconds} s")

    stamp = stamp_of(raw, args.workload, args.trace)
    result = {
        "correct": not bad,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    saved = {"stamp": stamp, "seed": args.seed, "wall_s": wall, "raw": raw, "result": result}
    path = os.path.join(build_dir(), "results",
                        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(saved, f, indent=1, sort_keys=True)
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


def compare(a_path, b_path):
    a, b = load_json(a_path), load_json(b_path)
    diff = [k for k in STAMP_KEYS if a["stamp"].get(k) != b["stamp"].get(k)]
    if diff:
        for k in diff:
            log(f"stamp mismatch on {k}: {a['stamp'].get(k)!r} vs {b['stamp'].get(k)!r}")
        log("results with different stamps are not comparable")
        sys.exit(3)
    for name, m in a["result"]["metrics"].items():
        va, vb = m["value"], b["result"]["metrics"].get(name, {}).get("value")
        rel = f"{(vb / va - 1) * 100:+.1f}%" if va and vb is not None else "n/a"
        print(f"{name:40s} {va:14.6g} {vb if vb is not None else float('nan'):14.6g} {rel} "
              f"{m['unit']}")


def selftest():
    code, raw = run_binary([build(), "selftest"])
    print(json.dumps(raw, indent=1))
    ok = code == 0 and raw.get("check.selftest_bit_identical") is True
    log("selftest " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.selftest:
        selftest()
    elif args.workload:
        run_workload(args)
    else:
        p.error("--workload, --selftest or --compare is required")


if __name__ == "__main__":
    main()
