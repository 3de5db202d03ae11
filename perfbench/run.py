#!/usr/bin/env python3
"""Benchmark of the hlts pipeline: one command, three workloads.

    python3 perfbench/run.py --workload table-sweep|synth-scale|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the harness and the
`hlts` binary with dune in a workspace of their own under
.perfbench/build, runs the harness (perfbench/harness/), and
relays its output; the last line of standard output is one JSON object
{correct, attempted, failed, metrics}. --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones from a separate
traced run (a Chrome trace lands in .perfbench/traces/).

    python3 perfbench/run.py --self-test     # fast check of the harness
    python3 perfbench/run.py --record ...    # add references (see NOTES.md)

Everything the harness writes stays under .perfbench/ in the checkout;
its scratch directory, the daemon and its socket are removed on any
exit, including a signal.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The harness's own dune workspace: the repository's lib/ and bin/ and
# perfbench/harness/, linked side by side under one project file, so the
# repository's own `dune build` never compiles the harness.
BUILD = os.path.join(".perfbench", "build")
LINKS = {"lib": "lib", "bin": "bin", "harness": os.path.join("perfbench", "harness")}
TARGETS = ("harness/hltsbench.exe", "bin/hlts.exe")
HARNESS, HLTS = (os.path.join(BUILD, "_build", "default", t) for t in TARGETS)
WORKLOADS = ("table-sweep", "synth-scale", "serve-mix")
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an hlts source checkout (no dune-project/lib here)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    for name, target in LINKS.items():
        link = os.path.join(BUILD, name)
        if os.path.islink(link):
            os.remove(link)
        os.symlink(os.path.join("..", "..", target), link)
    with open(os.path.join(BUILD, "dune-project"), "w") as f:
        f.write("(lang dune 3.0)\n")
    r = subprocess.run(
        # no shared dune cache: the build stays inside the checkout
        ["dune", "build", "--root", BUILD, "--cache=disabled"] + ["./" + t for t in TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail("build failed")


def ref_file(workload):
    return os.path.join(os.path.relpath(HERE), "ref", workload + ".json")


def run_harness(workload, seed, seconds, trace, extra=(), refs=None, on_start=None):
    """Runs the harness in its own session; returns (exit code, stdout).

    The session is killed and the scratch directory removed however the
    harness ends, so no daemon, socket or cache directory outlives it."""
    work = os.path.join(".perfbench", "work-%d" % os.getpid())
    cmd = [
        HARNESS, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--hlts", HLTS,
        "--work", work, "--refs", refs or ref_file(workload),
    ] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True,
                            preexec_fn=pin_one_cpu if workload == "serve-mix" else None)
    try:
        if on_start is not None:
            on_start(proc, work)
        out, _ = proc.communicate(timeout=TIMEOUT_S)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1, ""
    finally:
        cleanup(proc, work)


def pin_one_cpu():
    """Keeps serve-mix's client and daemon, which take turns, on one CPU.

    A closed-loop round trip then hands over on one CPU instead of
    waking the other, and its latency reads the program's work rather
    than how soon the host runs an idle virtual CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def cleanup(proc, work):
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.time() + 10
        while time.time() < deadline and group_alive(proc.pid):
            time.sleep(0.05)
            proc.poll()
        if not group_alive(proc.pid):
            break
    proc.wait()
    shutil.rmtree(work, ignore_errors=True)


def group_alive(pgid):
    """Whether any live (non-zombie) process is left in the group."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            if os.getpgid(int(pid)) == pgid and not zombie(pid):
                return True
        except (ProcessLookupError, PermissionError):
            pass
    return False


def zombie(pid):
    try:
        with open("/proc/%s/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


# ---- self-test ----------------------------------------------------------------


def self_test():
    spec = json.load(open("BENCHMARK.json"))
    problems = []

    def expect(ok, what):
        print(("  ok   " if ok else "  FAIL ") + what, file=sys.stderr)
        if not ok:
            problems.append(what)

    # 1. every named metric, with its unit, on every workload
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_harness(w, 1, 1, trace, extra=["--tiny"])
            res = last_json(out) if code == 0 else None
            expect(res is not None, "%s --trace %d exits 0 with a result" % (w, trace))
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, "%s --trace %d prints every %s metric with its unit" % (w, trace, key))
            expect(res["failed"] == 0 and res["correct"], "%s --trace %d: no failed op" % (w, trace))

    # 2. a corrupted reference raises the failure count
    os.makedirs(".perfbench", exist_ok=True)
    for w, section, needle in (
        ("table-sweep", "cells", "tseng/"),
        ("serve-mix", "universe", "synth/tseng/"),
    ):
        refs = json.load(open(ref_file(w)))
        key = next(k for k in refs[section] if k.startswith(needle))
        refs[section][key] = "0" * 32
        bad = os.path.join(".perfbench", "corrupt-%s.json" % w)
        json.dump(refs, open(bad, "w"))
        code, out = run_harness(w, 1, 1, 0, extra=["--tiny"], refs=bad)
        os.remove(bad)
        res = last_json(out) if code == 0 else None
        expect(res is not None and res["failed"] > 0 and not res["correct"],
               "%s: a corrupted reference counts as failed ops" % w)

    # 3. daemon, socket and cache directory are gone after a signal
    seen = {}

    def interrupt(proc, work):
        deadline = time.time() + 60
        while time.time() < deadline:
            socks = [os.path.join(r, f) for r, _, fs in os.walk(work) for f in fs if f == "serve.sock"]
            if socks:
                seen["sock"] = socks[0]
                break
            time.sleep(0.05)
        time.sleep(0.5)
        os.kill(proc.pid, signal.SIGTERM)
        proc.wait(timeout=30)
        seen["left"] = group_alive(proc.pid) or os.path.exists(seen.get("sock", ""))
        seen["work_left"] = os.path.isdir(work) and any(
            d.startswith("serve-") for d in os.listdir(work))

    code, _ = run_harness("serve-mix", 1, 30, 0, extra=["--tiny"], on_start=interrupt)
    expect("sock" in seen, "serve-mix started a daemon")
    expect(code != 0, "a signalled harness exits non-zero")
    expect(not seen.get("left", True), "SIGTERM: daemon and socket are gone")
    expect(not seen.get("work_left", True), "SIGTERM: temporary cache directory is gone")

    def kill_hard(proc, work):
        deadline = time.time() + 60
        while time.time() < deadline and not os.path.isdir(work):
            time.sleep(0.05)
        time.sleep(1.0)
        os.kill(proc.pid, signal.SIGKILL)

    run_harness("serve-mix", 1, 30, 0, extra=["--tiny"], on_start=kill_hard)
    work = os.path.join(".perfbench", "work-%d" % os.getpid())
    expect(not os.path.exists(work), "SIGKILL: the wrapper removes the scratch directory")
    expect(not any(live_daemons(work)), "SIGKILL: the wrapper stops the daemon")

    print("self-test: %s" % ("passed" if not problems else "%d problem(s)" % len(problems)),
          file=sys.stderr)
    return 0 if not problems else 1


def live_daemons(work):
    """Live `hlts serve` processes started for [work]."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if b"serve" in argv and any(work.encode() in a for a in argv) and not zombie(pid):
            yield int(pid)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="merge the digests seen, at full and tiny sizes, "
                         "into perfbench/ref/<workload>.json")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        fail("--workload is required")

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop)
    if args.record:
        # the self-test's tiny inputs need references too
        code, out = run_harness(args.workload, args.seed, 1, 0, extra=["--record", "--tiny"])
        if code != 0:
            sys.stderr.write(out)
            fail("recording the tiny inputs failed")
    code, out = run_harness(args.workload, args.seed, args.seconds, args.trace,
                            extra=["--record"] if args.record else [])
    if code != 0:
        sys.stderr.write(out)
        fail("harness exited with code %d" % code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
