#!/usr/bin/env python3
"""Drive the five dse_* command-line tools end to end.

Checks the contract every tool shares:

* ``--help`` exits 0; bad usage exits 1; invalid input exits 2; a
  failed port-file or report write exits 3;
* a ``dse_serve`` daemon answers a ``dse_loadgen`` run, and both exit 0
  once the daemon gets SIGTERM; a port file with trailing garbage is
  invalid input to ``dse_loadgen``;
* an exploration fed by a ``dse_simworker`` prints the same per-round
  estimates as the same exploration simulated locally, and so does one
  pointed at a worker that is not there, which reports its local
  fallbacks and no redispatches;
* an exploration run twice with ``--journal`` prints what the run
  without it prints, and the second run replays every simulation;
* a journal file another process holds is refused: exit 3, nothing
  printed, nothing written;
* a malformed ``DSE_FAULTS``, or one naming a site no probe has, is
  refused before any work;
* given the bench directory too, a paper-figure bench refuses each
  malformed scope knob with exit 1 before it prints anything.

Usage: cli_tools.py <directory holding the built tools> [<bench directory>]

Runs as the CliTools ctest; exits nonzero with one line per failure.
"""

import fcntl
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

TOOLS = ["dse_explore", "dse_simulate", "dse_serve", "dse_simworker",
         "dse_loadgen"]

# Exit codes (tools/cli.hh).
OK, USAGE, INVALID, RUNTIME = 0, 1, 2, 3

# A small exploration: two rounds of the memory study on mcf.
EXPLORE = ["--study=memory", "--app=mcf", "--batch=20", "--max-sims=40",
           "--max-epochs=100", "--target-error=0.1"]

# (expected exit code, tool, arguments): each runs to completion.
CASES = [
    *[(OK, tool, ["--help"]) for tool in TOOLS],
    *[(USAGE, tool, ["--no-such-flag"]) for tool in TOOLS],
    (USAGE, "dse_explore", ["--max-sims=abc"]),
    (USAGE, "dse_explore", ["--max-sims=-5"]),
    (USAGE, "dse_simulate", ["--index=x"]),
    (USAGE, "dse_simulate", ["--index=12x"]),
    (USAGE, "dse_loadgen", ["--port=70000"]),
    (USAGE, "dse_serve", ["--port=70000"]),
    (USAGE, "dse_simworker", ["--threads=-1"]),
    *[(USAGE, tool, ["--study=procesor"])
      for tool in ["dse_explore", "dse_serve", "dse_simulate"]],
    (INVALID, "dse_explore", ["--app=nope"]),
    (INVALID, "dse_simulate", ["--app=nope"]),
    # A worker port must parse whole; a bad one is refused, not
    # simulated around.
    (INVALID, "dse_explore", EXPLORE + ["--workers=127.0.0.1:7081x"]),
]
# Scope knobs a bench must refuse (bench/common.hh): each exits 1,
# names the variable, and prints nothing on stdout.
BAD_KNOBS = [("DSE_EVAL_POINTS", "1OOO"), ("DSE_EVAL_POINTS", "-5"),
             ("DSE_APPS", "gzip,gzp"), ("DSE_MAX_SAMPLE_PCT", "abc"),
             ("DSE_CSV", "maybe"), ("DSE_BATCH", "0")]
KNOB_BENCH = "fig_5_3_error_estimation_proc"
# /dev/full takes no byte: a write to it must fail loudly.
HAVE_DEV_FULL = os.path.exists("/dev/full")
# A daemon that cannot write its port file must say so, not serve on
# a port no script can learn.
if HAVE_DEV_FULL:
    CASES.append((RUNTIME, "dse_simworker", ["--port-file=/dev/full"]))

# A case that should be refused but runs as a daemon is cut after
# CASE_TIMEOUT_S.
CASE_TIMEOUT_S = 30
DAEMON_START_S = 60
TIMEOUT_S = 120


class Tools:
    def __init__(self, bindir):
        self.bindir = bindir
        # Variables such as DSE_FAULTS or DSE_METRICS would change
        # what a tool does, so every run starts without DSE_*; a case
        # that needs one passes it to run().
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("DSE_")}
        self.failures = []

    def path(self, tool):
        return os.path.join(self.bindir, tool)

    def run(self, tool, args, timeout=TIMEOUT_S, env=None):
        return subprocess.run([self.path(tool), *args],
                              env={**self.env, **(env or {})},
                              capture_output=True, text=True,
                              timeout=timeout)

    def fail(self, what, proc_or_detail):
        detail = proc_or_detail
        if isinstance(proc_or_detail, subprocess.CompletedProcess):
            detail = "exit %d: %s" % (proc_or_detail.returncode,
                                      proc_or_detail.stderr.strip()[-300:])
        self.failures.append("%s: %s" % (what, detail))

    def expect(self, code, tool, args, timeout=TIMEOUT_S, env=None):
        what = "%s%s %s (want exit %d)" % (
            "".join("%s=%s " % kv for kv in (env or {}).items()), tool,
            " ".join(args), code)
        try:
            proc = self.run(tool, args, timeout, env)
        except subprocess.TimeoutExpired:
            self.fail(what, "still running after %d s" % timeout)
            return None
        if proc.returncode != code:
            self.fail(what, proc)
        return proc

    def start_daemon(self, tool, port_file, args):
        """Start a daemon on an ephemeral port; return (proc, port)."""
        proc = subprocess.Popen(
            [self.path(tool), "--port=0", "--port-file=" + port_file,
             *args],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        deadline = time.monotonic() + DAEMON_START_S
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                with open(port_file) as fh:
                    text = fh.read()
                if text.endswith("\n"):
                    return proc, int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.05)
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError("%s never wrote %s: %s" %
                           (tool, port_file, err.strip()[-300:]))

    def stop_daemon(self, tool, proc):
        proc.send_signal(signal.SIGTERM)
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        if proc.returncode != OK:
            self.fail("%s after SIGTERM (want exit 0)" % tool,
                      "exit %d: %s" % (proc.returncode, err.strip()[-300:]))
        return out


def estimates(stdout):
    return [line for line in stdout.splitlines()
            if "sims: estimated error" in line]


def check_serve_and_loadgen(tools, scratch):
    port_file = os.path.join(scratch, "serve.port")
    serve, port = tools.start_daemon(
        "dse_serve", port_file,
        ["--study=processor", "--app=gzip", "--train", "--max-sims=20",
         "--max-epochs=50"])
    try:
        tools.expect(OK, "dse_loadgen",
                     ["--port-file=" + port_file, "--connections=2",
                      "--requests=50"])
        # The port must parse whole, not stop at the garbage.
        garbled = os.path.join(scratch, "garbled.port")
        with open(garbled, "w") as fh:
            fh.write("%dabc\n" % port)
        tools.expect(INVALID, "dse_loadgen",
                     ["--port-file=" + garbled, "--requests=5"])
        # A report that cannot be written is a failed run.
        if HAVE_DEV_FULL:
            tools.expect(RUNTIME, "dse_loadgen",
                         ["--port-file=" + port_file, "--requests=5",
                          "--json=/dev/full"])
    finally:
        tools.stop_daemon("dse_serve", serve)


def check_remote_matches_local(tools, scratch, local):
    worker, port = tools.start_daemon(
        "dse_simworker", os.path.join(scratch, "worker.port"), [])
    try:
        remote = tools.expect(
            OK, "dse_explore", EXPLORE + ["--workers=127.0.0.1:%d" % port])
    finally:
        tools.stop_daemon("dse_simworker", worker)
    # Nothing listens on port 1: every batch falls back to local
    # simulation, which must not change a single estimate.
    dead = tools.expect(OK, "dse_explore", EXPLORE + ["--workers=127.0.0.1:1"])
    if local is None:
        return  # the timeout is already recorded
    if not estimates(local.stdout):
        tools.fail("dse_explore", "no per-round estimates printed")
        return
    for flag, run in (("--workers", remote), ("--workers=127.0.0.1:1", dead)):
        if run is None:
            continue
        if estimates(run.stdout) != estimates(local.stdout):
            tools.fail("dse_explore " + flag,
                       "estimates differ from the local run:\n%s\nvs\n%s" %
                       (run.stdout, local.stdout))
        if "remote: " not in run.stdout:
            tools.fail("dse_explore " + flag, "no remote summary printed")
    if dead is not None:
        fallbacks = re.search(r"(\d+) local fallbacks", dead.stdout)
        if not fallbacks or int(fallbacks.group(1)) == 0:
            tools.fail("dse_explore --workers=127.0.0.1:1",
                       "no local fallbacks reported:\n" + dead.stdout)
        # A refused connect loses no batch in flight.
        if " 0 redispatches" not in dead.stdout:
            tools.fail("dse_explore --workers=127.0.0.1:1",
                       "a refused connect counted as a redispatch:\n" +
                       dead.stdout)


def check_journal_round_trip(tools, scratch, local):
    journal = os.path.join(scratch, "explore.journal")
    for run in ("first", "second"):
        metrics = os.path.join(scratch, "metrics-%s.json" % run)
        proc = tools.expect(OK, "dse_explore",
                            EXPLORE + ["--journal=" + journal,
                                       "--metrics=" + metrics])
        if proc is None or proc.returncode != OK:
            return  # the failure is already recorded
        if local is not None and proc.stdout != local.stdout:
            tools.fail("dse_explore --journal (%s run)" % run,
                       "stdout differs from the run without it:\n%s\nvs\n%s"
                       % (proc.stdout, local.stdout))
    with open(metrics) as fh:
        counters = json.load(fh)["counters"]
    replayed = counters.get("journal.replayed")
    executed = counters.get("sim.executed")
    if replayed != 40 or executed != 0:
        tools.fail("dse_explore --journal (second run)",
                   "journal.replayed %s and sim.executed %s, want 40 and 0"
                   % (replayed, executed))


def check_journal_held(tools, scratch):
    # Two writers would append over each other's records, so a journal
    # another process holds stops the run before it prints or writes.
    journal = os.path.join(scratch, "held.journal")
    with open(journal, "wb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        proc = tools.expect(RUNTIME, "dse_explore",
                            EXPLORE + ["--journal=" + journal],
                            CASE_TIMEOUT_S)
    size = os.path.getsize(journal)
    if proc is not None and (proc.stdout or size):
        tools.fail("dse_explore --journal=<held file>",
                   "want empty stdout and a 0-byte journal, got %d bytes "
                   "and:\n%s" % (size, proc.stdout))


def check_bad_knobs(tools, bench_dir):
    # An absolute path wins over the tools directory in Tools.path().
    bench = os.path.join(os.path.abspath(bench_dir), KNOB_BENCH)
    for name, value in BAD_KNOBS:
        proc = tools.expect(USAGE, bench, [], CASE_TIMEOUT_S, {name: value})
        if proc is not None and (name not in proc.stderr or proc.stdout):
            tools.fail("%s=%s %s" % (name, value, KNOB_BENCH),
                       "want the variable named on stderr and nothing on "
                       "stdout:\n%s%s" % (proc.stderr, proc.stdout))


def main():
    if len(sys.argv) not in (2, 3):
        print("usage: cli_tools.py <directory holding the built tools> "
              "[<bench directory>]", file=sys.stderr)
        return 2
    tools = Tools(sys.argv[1])
    for code, tool, args in CASES:
        tools.expect(code, tool, args, CASE_TIMEOUT_S)
    # A malformed DSE_FAULTS is invalid input, refused before the study
    # is built or its header printed; so is a site no probe names,
    # which would otherwise run the whole exploration without a fault.
    for spec in ("Sim:1:1", "simm:1:1"):
        faulty = tools.expect(INVALID, "dse_explore", EXPLORE,
                              CASE_TIMEOUT_S, {"DSE_FAULTS": spec})
        if faulty is not None and faulty.stdout:
            tools.fail("DSE_FAULTS=%s dse_explore" % spec,
                       "printed on stdout:\n" + faulty.stdout)
    if len(sys.argv) == 3:
        check_bad_knobs(tools, sys.argv[2])
    with tempfile.TemporaryDirectory() as scratch:
        check_serve_and_loadgen(tools, scratch)
        local = tools.expect(OK, "dse_explore", EXPLORE)
        check_remote_matches_local(tools, scratch, local)
        check_journal_round_trip(tools, scratch, local)
        check_journal_held(tools, scratch)
    for line in tools.failures:
        print("FAIL " + line, file=sys.stderr)
    return 1 if tools.failures else 0


if __name__ == "__main__":
    sys.exit(main())
