#!/usr/bin/env python3
"""Lint the dse::obs metric namespace.

Scans the C++ sources for literal metric registrations -- handle
declarations such as ``obs::Counter kAppends("journal.appends")`` and
``obs::Histogram kWallNs("sim.wall_ns")``, and registry calls
``.counter("...")``, ``.gauge("...")``, ``.histogram("...")`` -- and
enforces the naming scheme documented in src/util/metrics.hh and
DESIGN.md ("Observability"):

* every name matches ``^[a-z0-9_.]+$``;
* every name has a subsystem prefix (at least one ``.``);
* no name is registered under two different metric kinds.

Re-registering the same (name, kind) from several sites is fine -- the
registry returns the same series -- so only cross-kind collisions are
errors. A tree whose src/ declares no counter and no histogram fails:
the scan roots or the patterns no longer match the code.

Also lints the fault-injection namespace: every literal
``shouldFail("site", ...)`` probe must name a site from the allowlist
below, which doubles as the documentation of record for DSE_FAULTS --
a typo'd site would silently never fire, so an unknown one is an
error here rather than a dead knob in production.

Runs as the ObsMetricNamesLint ctest; exits nonzero with one line per
violation.
"""

import re
import sys
from pathlib import Path

NAME_RE = re.compile(r"^[a-z0-9_.]+$")
# .counter("sim.executed") / .gauge("...") / .histogram("...") on a
# registry object; whitespace/newlines may separate the call pieces.
REG_RE = re.compile(
    r"\.\s*(counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"\s*\)")
# const obs::Counter kAppends("journal.appends"); -- a handle that
# registers when it is constructed.
HANDLE_RE = re.compile(
    r"\b(Counter|Histogram)\s+\w+\s*[({]\s*\"([^\"]*)\"\s*[)}]")
# shouldFail("sim", key) probes; DOTALL because call sites split the
# arguments across lines.
FAULT_RE = re.compile(r"shouldFail\s*\(\s*\"([^\"]*)\"", re.DOTALL)
# Every fault-injection site that exists in the sources. Adding a
# probe means adding its site here (and to the DSE_FAULTS docs).
FAULT_SITES = {
    "sim",           # simulator execution (study/harness.cc)
    "fold",          # cross-validation fold training (ml)
    "journal",       # journal appends (study/journal.cc)
    "save",          # model save I/O (ml/io.cc)
    "serve.accept",  # prediction-service accept path
    "serve.read",    # prediction-service socket reads
    "serve.write",   # prediction-service socket writes
    "remote.conn.drop",     # dispatcher: drop before a batch attempt
    "remote.conn.delay",    # worker: stall a batch reply
    "remote.worker.crash",  # worker: die mid-request, no reply
}
# tests/ is excluded deliberately: the obs suite registers
# intentionally-invalid names to prove registration rejects them.
SCAN_DIRS = ("src", "bench", "tools")
SUFFIXES = {".cc", ".hh"}


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        __file__).resolve().parent.parent
    failures = []
    kinds = {}  # name -> (kind, first site)
    src_series = set()  # counters and histograms declared under src/

    for scan in SCAN_DIRS:
        base = root / scan
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            if "util/fault" not in str(path):
                for match in FAULT_RE.finditer(text):
                    site_name = match.group(1)
                    line = text.count("\n", 0, match.start()) + 1
                    site = f"{path.relative_to(root)}:{line}"
                    if site_name not in FAULT_SITES:
                        failures.append(
                            f"{site}: fault site '{site_name}' is not "
                            "in the allowlist (FAULT_SITES in "
                            "check_metrics_names.py)")
            matches = [(m.start(), m.group(1), m.group(2))
                       for m in REG_RE.finditer(text)]
            matches += [(m.start(), m.group(1).lower(), m.group(2))
                        for m in HANDLE_RE.finditer(text)]
            for start, kind, name in sorted(matches):
                line = text.count("\n", 0, start) + 1
                site = f"{path.relative_to(root)}:{line}"
                if scan == "src" and kind != "gauge":
                    src_series.add(name)
                if not NAME_RE.fullmatch(name):
                    failures.append(
                        f"{site}: metric name '{name}' does not match "
                        "^[a-z0-9_.]+$")
                    continue
                if "." not in name:
                    failures.append(
                        f"{site}: metric name '{name}' lacks a "
                        "subsystem prefix (expected 'subsystem.name')")
                if name in kinds and kinds[name][0] != kind:
                    failures.append(
                        f"{site}: '{name}' registered as {kind} but "
                        f"already a {kinds[name][0]} at "
                        f"{kinds[name][1]}")
                kinds.setdefault(name, (kind, site))

    if not src_series:
        failures.append("no counter or histogram declared under src/ -- "
                        "scan roots or patterns are stale")
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return 1
    print(f"ok: {len(kinds)} distinct metric names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
