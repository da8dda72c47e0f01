#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 linkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 linkbench/run.py --self-check
    python3 linkbench/run.py --baseline

The first form builds the harness (`linkbench/`, a package of its own that
depends on the library crates by path) in release mode, runs one workload,
checks that its result line names every metric BENCHMARK.json declares for
the mode with the declared unit, and prints it as the last line of standard
output. Cargo writes to $CARGO_TARGET_DIR, or `.bench_build` when unset;
traced runs leave their span recording in `.bench_build/traces/`.

`--self-check` runs every workload at tiny size in both modes, checks the
gate passes and every metric prints with its unit, checks that a corrupted
digest fails the gate, and runs the harness's unit tests.

`--baseline` runs the traced decomposition of every workload at the default
seed of design.json and writes it, with each run's provenance and per-span
self times, to linkbench/baseline.json.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def cargo(*args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", *args, "--offline", "--manifest-path", MANIFEST]
    # Cargo's own output goes to stderr: stdout carries only the result.
    return subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT).returncode


def build():
    if cargo("build", "--release") != 0:
        log("build failed")
        sys.exit(1)
    return os.path.join(target_dir(), "release", "linkbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the harness builds from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("crates", "linkbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for f in sorted(files):
                if f.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def provenance():
    return json.dumps({
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
    })


def declared():
    """(end_to_end, per_layer) as {name: unit}, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[k]} for k in ("end_to_end", "per_layer"))


def run_binary(binary, args):
    """Runs the harness; returns (exit code, stdout lines, parsed result)."""
    proc = subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def problems(result, want):
    """Ways `result` breaks the result-line contract for metric set `want`."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result line is not an object with keys " + ", ".join(sorted(RESULT_KEYS))]
    out = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        out.append("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        out.append("failed must be a whole number")
    metrics = result["metrics"]
    if set(metrics) != set(want):
        out.append(f"metrics {sorted(set(metrics) ^ set(want))} differ from BENCHMARK.json")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            out.append(f"metric {name} must be a number in {unit}: {m}")
    return out


def run(argv):
    binary = build()
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    args = [*argv, "--provenance", provenance()]
    if trace:
        args += ["--out-dir", os.path.join(ROOT, ".bench_build", "traces")]
    code, lines, result = run_binary(binary, args)
    if code != 0:
        log(f"harness exited with {code}")
        sys.exit(code)
    want = declared()[1 if trace else 0]
    bad = problems(result, want)
    if bad:
        for b in bad:
            log(b)
        sys.exit(1)
    print("\n".join(lines), flush=True)


def self_check():
    binary = build()
    end_to_end, per_layer = declared()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    failures = []
    for w in workloads:
        base = ["--workload", w, "--seed", "7", "--seconds", "0", "--tiny"]
        for trace, want in (("0", end_to_end), ("1", per_layer)):
            code, _, result = run_binary(binary, [*base, "--trace", trace])
            bad = [f"exit {code}"] if code else problems(result, want)
            if not bad and not (result["correct"] and result["failed"] == 0):
                bad = ["gate failed on an unmodified run"]
            log(f"{w} trace={trace}: " + ("ok" if not bad else "; ".join(bad)))
            failures += bad
        code, _, result = run_binary(binary, [*base, "--trace", "0", "--corrupt-digest"])
        tripped = code == 0 and result is not None and not result["correct"] and result["failed"] > 0
        log(f"{w} corrupted digest: " + ("gate tripped" if tripped else "NOT DETECTED"))
        if not tripped:
            failures.append(f"{w}: corrupted digest passed the gate")
    if cargo("test", "--release") != 0:
        failures.append("harness unit tests failed")
    if failures:
        log(f"self-check FAILED ({len(failures)} problems)")
        sys.exit(1)
    log("self-check passed")


def baseline():
    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "design.json")) as fh:
        seed = str(json.load(fh)["seeds"]["default"])
    per_layer = declared()[1]
    out_dir = os.path.join(ROOT, ".bench_build", "traces")
    runs = {}
    for w in (w["name"] for w in bench["workloads"]):
        args = ["--workload", w, "--seed", seed, "--seconds", str(bench["run_seconds"]),
                "--trace", "1", "--provenance", provenance(), "--out-dir", out_dir]
        code, lines, result = run_binary(binary, args)
        bad = [f"exit {code}"] if code else problems(result, per_layer)
        if bad:
            log(f"{w}: " + "; ".join(bad))
            sys.exit(1)
        with open(os.path.join(out_dir, f"trace-{w}-seed{seed}.json")) as fh:
            recording = json.load(fh)
        runs[w] = {
            "record": recording["record"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items() if v["value"] != 0},
            "self_time": recording["trace"]["self_time"],
        }
        log(f"{w}: traced")
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    modes = {"--self-check": self_check, "--baseline": baseline}
    if len(sys.argv) == 2 and sys.argv[1] in modes:
        modes[sys.argv[1]]()
    else:
        run(sys.argv[1:])
