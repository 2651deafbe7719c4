#!/usr/bin/env python3
"""Serving benchmark for the tap-wise int8 Winograd stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload r20-dense-b8 --seed 1 --seconds 30 --trace 0

The script

1. stages a dune workspace under ``.bench_build/ws`` from the repository's
   ``lib/`` sources plus the benchmark's own OCaml package
   (``perfbench/ocaml``) and builds ``perfbench.exe`` there, so the
   repository's own ``dune build`` never sees the benchmark;
2. prepares the workload's model artifact once per built binary (building,
   calibrating, pruning and publishing the model is input preparation and
   runs in its own process, outside every measurement);
3. runs the measured process with a pinned environment and relays its
   output.  The last line of standard output is the result object
   ``{"correct", "attempted", "failed", "metrics"}``.

Exit status is 0 only when the run completed and every checked output was
correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("r20-dense-b8", "r20-pruned-b8", "fleet-poisson")

# Domains the kernels may use (TWQ_NUM_DOMAINS), pinned per workload.  The
# in-process workloads split each batch over two domains.  Each fleet shard
# runs its batches on one domain, and the two shards supply the
# parallelism; a kernel pool would only add hand-off cost to batch-1
# forwards of the half-width model.
NUM_DOMAINS = {"r20-dense-b8": "2", "r20-pruned-b8": "2", "fleet-poisson": "1"}

# Process-wide tuning knobs of the program that must not leak in from the
# caller's environment: the benchmark measures the compiled defaults.
SCRUBBED_ENV = (
    "TWQ_GEMM_MR",
    "TWQ_GEMM_NR",
    "TWQ_GEMM_KC",
    "TWQ_SPARSE_THRESHOLD",
    "TWQ_FAULT_SPEC",
    "TWQ_FAULT_SEED",
    "OCAMLRUNPARAM",
    "CAMLRUNPARAM",
)

BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 300


def run_timeout_s(seconds):
    """The measured process's limit: the timed phases plus set-up, warm-up,
    repeated cold starts, the oracle and, when traced, the layer probes."""
    return 2 * seconds + 60


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def sync_tree(src, dst, keep=()):
    """Mirror src into dst, rewriting only files whose bytes differ so
    dune's incremental build keeps its cache.  Entries of dst named in
    keep are left alone."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for name in os.listdir(src):
        if name.startswith(("_", ".")):
            continue
        wanted.add(name)
        s = os.path.join(src, name)
        d = os.path.join(dst, name)
        if os.path.isdir(s):
            sync_tree(s, d)
        else:
            with open(s, "rb") as f:
                data = f.read()
            try:
                with open(d, "rb") as f:
                    same = f.read() == data
            except OSError:
                same = False
            if not same:
                with open(d, "wb") as f:
                    f.write(data)
    for name in os.listdir(dst):
        if name not in wanted and name not in keep and not name.startswith(("_", ".")):
            p = os.path.join(dst, name)
            if os.path.isdir(p):
                shutil.rmtree(p)
            else:
                os.remove(p)


def tree_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
        for name in sorted(filenames):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, path).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def child_env(workload=None):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TWQ_NUM_DOMAINS"] = NUM_DOMAINS.get(workload, "1")
    env["DUNE_CACHE"] = "disabled"
    return env


def run_child(cmd, timeout, what, capture=False, workload=None):
    """Run cmd, killing it (and waiting for it) if it outlives timeout."""
    proc = subprocess.Popen(
        cmd,
        env=child_env(workload),
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (what, timeout), 4)
    return proc.returncode, out


def build(root, bdir):
    # The benchmark package's dune-project roots the staged workspace and
    # the repo's lib/ is mirrored beside its sources, so the repo's private
    # libraries and the benchmark share one dune scope.
    ws = os.path.join(bdir, "ws")
    sync_tree(os.path.join(root, "perfbench", "ocaml"), ws, keep=("lib",))
    sync_tree(os.path.join(root, "lib"), os.path.join(ws, "lib"))
    code, _ = run_child(
        [
            "dune",
            "build",
            "--root",
            ws,
            "--profile",
            "release",
            "--cache",
            "disabled",
            "-j",
            "2",
            "--display",
            "quiet",
            "./src/perfbench.exe",
        ],
        BUILD_TIMEOUT_S,
        "build",
    )
    if code != 0:
        fail("build failed (dune exit %d)" % code, 3)
    return os.path.join(ws, "_build", "default", "src", "perfbench.exe")


def prepare(exe, bdir, workload):
    """Build, calibrate (and prune) the workload's model and publish it,
    once per binary.  Returns the artifact directory."""
    art_root = os.path.join(bdir, "art", file_digest(exe)[:16])
    art = os.path.join(art_root, workload)
    if os.path.exists(os.path.join(art, "READY")):
        return art
    tmp = art + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    code, _ = run_child(
        [exe, "prepare", "--workload", workload, "--dir", tmp],
        PREPARE_TIMEOUT_S,
        "prepare",
    )
    if code != 0:
        fail("preparing %s failed (exit %d)" % (workload, code), 3)
    with open(os.path.join(tmp, "READY"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(art, ignore_errors=True)
    os.rename(tmp, art)
    return art


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload not in WORKLOADS:
        fail("unknown workload %r (expected one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    if args.seconds <= 0:
        fail("--seconds must be positive")
    root = os.getcwd()
    for needed in ("lib", "dune-project", os.path.join("perfbench", "ocaml")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("%s not found: run from the root of a twq checkout" % needed)

    bdir = os.path.join(root, ".bench_build")
    exe = build(root, bdir)
    art = prepare(exe, bdir, args.workload)
    run_dir = os.path.join(".bench_build", "run")
    os.makedirs(run_dir, exist_ok=True)
    trace_out = os.path.join(
        ".bench_build", "trace", "%s-seed%d.json" % (args.workload, args.seed)
    )
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [
        exe,
        "run",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(args.seconds),
        "--trace",
        str(args.trace),
        "--artifacts",
        art,
        "--sock-dir",
        run_dir,
        "--trace-out",
        trace_out,
        "--git-rev",
        git_rev(root),
        "--src-digest",
        tree_digest(os.path.join(root, "lib"))[:16],
    ]
    code, out = run_child(cmd, run_timeout_s(args.seconds), "run", capture=True, workload=args.workload)
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out or "")
        fail("the measured process printed no result (exit %d)" % code, 5)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or result["correct"] is not True:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
