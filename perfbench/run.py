#!/usr/bin/env python3
"""Wall benchmark driver: builds perfbench/wallbench from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree. The build goes to .bench_build/perfbench,
generated streams to .bench_build/streams and span files (--trace 1) to
.bench_build/spans. The last line of stdout is the result JSON object; build
output and diagnostics go to stderr. Exits non-zero, printing no result, when
the build or the run fails.

--smoke runs every workload briefly, untraced and traced, and checks that
every metric is printed finite with a unit, that no frame is in error, that
the span file parses with every child inside its parent, and that stream
generation is deterministic in the seed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
STREAMS = ROOT / ".bench_build" / "streams"
SPANS = ROOT / ".bench_build" / "spans"
WORKLOADS = ("hd_pan_threaded", "sd_socket", "sd_socket_loss2")
# Time allowed for one measurement (stream preparation included), counted
# from the end of the build; the smoke mode gets one such budget per run.
RUN_BUDGET_S = 170
_deadline = None


def start_budget():
    global _deadline
    _deadline = time.monotonic() + RUN_BUDGET_S


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: decoder sources missing ({ROOT / 'src'}); cannot build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "wallbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return None
    exe = BUILD / "wallbench"
    return exe if exe.is_file() else None


def source_id():
    """Git sha when the tree is a checkout, plus a digest of the sources."""
    sha = "none"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            sha = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cpp", ".txt"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return f"git={sha},src_sha256={h.hexdigest()[:16]}"


def run_bench(exe, args, env_extra=None):
    env = dict(os.environ, PDW_CACHE_DIR=str(STREAMS))
    env.update(env_extra or {})
    try:
        res = subprocess.run([str(exe)] + args, capture_output=True,
                             text=True, env=env,
                             timeout=max(1.0, _deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        return None, ""
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        log(f"run.py: benchmark exited with {res.returncode}")
        sys.stderr.write(res.stdout)
        return None, res.stdout
    return res.stdout, res.stdout


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return obj


def measure(exe, workload, seed, seconds, trace, spans=None):
    # Generate (or find) the stream in a process of its own, so the encoder's
    # memory never shows in the measuring process's peak RSS.
    start_budget()
    t0 = time.monotonic()
    if stream_digest(exe, workload, seed, STREAMS) is None:
        return None, None
    log(f"run.py: {workload} seed {seed} stream ready after "
        f"{time.monotonic() - t0:.1f} s (preparation, not measured)")
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--source-id", source_id()]
    if trace:
        SPANS.mkdir(parents=True, exist_ok=True)
        spans = spans or SPANS / f"{workload}-seed{seed}.json"
        args += ["--spans", str(spans)]
    out, _ = run_bench(exe, args)
    if out is None:
        return None, None
    return out, parse_result(out)


# --- smoke -------------------------------------------------------------------

def check_metrics(name, out, obj, trace, problems):
    # The metrics must be exactly the ones BENCHMARK.json names, in its units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {m: v.get("unit") for m, v in obj["metrics"].items()}
    if got != want:
        problems.append(f"{name}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units "
                        f"{sorted(m for m in want if got.get(m, want[m]) != want[m])}")
    printed = {}
    for line in out.splitlines():
        if line.startswith("metric "):
            parts = line.split()
            # metric <name> = <value> <unit> ...
            if len(parts) < 5 or parts[2] != "=":
                problems.append(f"{name}: malformed metric line: {line}")
                continue
            printed[parts[1]] = (parts[3], parts[4])
    for m, v in obj["metrics"].items():
        if m not in printed:
            problems.append(f"{name}: {m} not printed")
        if not v.get("unit") or not isinstance(v.get("value"), (int, float)) \
                or not math.isfinite(v["value"]):
            problems.append(f"{name}: {m} has no unit or is not finite: {v}")
    for m, (value, unit) in printed.items():
        try:
            ok = math.isfinite(float(value))
        except ValueError:
            ok = False
        if not ok or not unit:
            problems.append(f"{name}: printed {m} = {value} {unit}")


def check_spans(name, path, problems):
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"{name}: span file does not parse: {e}")
        return
    if not events:
        problems.append(f"{name}: span file is empty")
        return
    by_id = {e["args"]["id"]: e for e in events}
    for e in events:
        a = e["args"]
        if a["end_ns"] < a["start_ns"]:
            problems.append(f"{name}: span {a['id']} ends before it starts")
        if a["parent"] < 0:
            continue
        p = by_id.get(a["parent"])
        if p is None:
            problems.append(f"{name}: span {a['id']} has no parent")
        elif (a["start_ns"] < p["args"]["start_ns"]
              or a["end_ns"] > p["args"]["end_ns"]):
            problems.append(f"{name}: span {a['id']} {e['name']} exceeds "
                            f"parent {p['name']}")
        elif p["args"]["pic_index"] >= 0 and \
                a["pic_index"] != p["args"]["pic_index"]:
            problems.append(f"{name}: span {a['id']} pic_index differs from "
                            f"its parent")


def stream_digest(exe, workload, seed, cache):
    out, _ = run_bench(exe, ["--stream-digest", "--workload", workload,
                             "--seed", str(seed)],
                       {"PDW_CACHE_DIR": str(cache)})
    return out.strip().split("digest=")[-1] if out else None


def smoke(exe):
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            name = f"{w}/trace{trace}"
            spans = SPANS / f"smoke-{w}.json"
            out, obj = measure(exe, w, 1, 2, trace, spans)
            if obj is None:
                problems.append(f"{name}: no result")
                continue
            check_metrics(name, out, obj, trace, problems)
            if obj["failed"] != 0 or not obj["correct"]:
                problems.append(f"{name}: frame_error_ratio is not 0 "
                                f"({obj['failed']}/{obj['attempted']})")
            if trace:
                check_spans(name, spans, problems)
            log(f"smoke: {name} done")
    # Same seed -> identical stream bytes; another seed -> different bytes.
    # Fresh cache directories, so every stream is generated anew.
    start_budget()
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        a = stream_digest(exe, "sd_socket", 7, Path(tmp) / "a")
        b = stream_digest(exe, "sd_socket", 7, Path(tmp) / "b")
        c = stream_digest(exe, "sd_socket", 8, Path(tmp) / "c")
    if a is None or a != b:
        problems.append(f"seed 7 regenerated differently: {a} vs {b}")
    if c is None or c == a:
        problems.append(f"seeds 7 and 8 gave the same stream: {a}")
    for p in problems:
        log(f"SMOKE FAIL {p}")
    print("SMOKE OK" if not problems else f"SMOKE FAILED ({len(problems)})")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 2
    if args.smoke:
        return smoke(exe)
    out, obj = measure(exe, args.workload, args.seed, args.seconds,
                       args.trace)
    if obj is None:
        log("run.py: no valid result line")
        return 1
    lines = out.splitlines()
    print("\n".join(lines[:-1]))
    print(json.dumps(obj))
    return 0


if __name__ == "__main__":
    sys.exit(main())
