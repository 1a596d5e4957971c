#!/usr/bin/env python3
"""Checks that the test suite pins every listed safety rule.

    python3 tools/mutants.py                        # every mutant in tools/mutants.txt
    python3 tools/mutants.py --only commit-current-term
    python3 tools/mutants.py --work /tmp/mutants

Each entry of the list (format in tools/mutants.txt) names a source file, the
exact text of one safety rule and a replacement that breaks it. The script
copies the working tree (tracked and untracked, unignored files) into a
scratch directory, builds it once in Release and checks that the unmutated
tree passes ctest. Then, one mutant at a time, it writes the mutated file,
rebuilds incrementally and runs ctest: the mutant is KILLED when some test
fails and SURVIVED when all pass. A mutant that does not compile is an ERROR,
as is a `find` text that is missing or ambiguous. The exit status is 0 only
when every mutant was killed.

--work keeps the scratch copy between runs, so a rerun rebuilds only what
changed; without it a temporary directory is used and removed at the end.
Builds and ctest use every CPU; ctest gives each test 300 s.
Run it from anywhere; paths are resolved against the repository root.
"""

import argparse
import configparser
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIST = os.path.join(ROOT, "tools", "mutants.txt")
KEYS = {"file", "after", "find", "replace", "claim"}
JOBS = str(os.cpu_count() or 1)
TEST_TIMEOUT_S = 300


def load(path):
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    with open(path) as f:
        parser.read_file(f)
    mutants = []
    for name in parser.sections():
        entry = dict(parser[name])
        unknown = set(entry) - KEYS
        missing = {"file", "find", "replace", "claim"} - set(entry)
        if unknown or missing:
            sys.exit("mutants: [%s]: unknown keys %s, missing keys %s" %
                     (name, sorted(unknown), sorted(missing)))
        entry["name"] = name
        mutants.append(entry)
    return mutants


def mutate(text, mutant):
    """Returns `text` with the mutant applied, or raises ValueError."""
    start = 0
    after = mutant.get("after")
    if after:
        if text.count(after) != 1:
            raise ValueError("`after` text occurs %d times" % text.count(after))
        start = text.index(after) + len(after)
    find = mutant["find"]
    at = text.find(find, start)
    if at < 0:
        raise ValueError("`find` text not found")
    if not after and text.count(find) != 1:
        raise ValueError("`find` text occurs %d times; add `after`" % text.count(find))
    return text[:at] + mutant["replace"] + text[at + len(find):]


def sync_tree(work):
    """Copies the working tree into `work`, rewriting only files that differ
    so that an incremental rebuild recompiles only what changed."""
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout.decode().split("\0")
    for rel in filter(None, files):
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue  # deleted in the working tree
        dst = os.path.join(work, rel)
        with open(src, "rb") as f:
            data = f.read()
        if os.path.exists(dst):
            with open(dst, "rb") as f:
                if f.read() == data:
                    continue
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(dst, "wb") as f:
            f.write(data)
        shutil.copymode(src, dst)


def run(cmd, log):
    with open(log, "w") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def failed_tests(log):
    with open(log) as f:
        text = f.read()
    names = re.findall(r"^\s*\d+ - (\S+)", text.split("The following tests FAILED:")[-1],
                       re.MULTILINE) if "The following tests FAILED:" in text else []
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--work", help="scratch directory to keep between runs")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = parser.parse_args()

    mutants = load(LIST)
    if args.only:
        unknown = set(args.only) - {m["name"] for m in mutants}
        if unknown:
            sys.exit("mutants: no such mutant: %s" % ", ".join(sorted(unknown)))
        mutants = [m for m in mutants if m["name"] in args.only]
    errors = []
    for m in mutants:
        try:
            with open(os.path.join(ROOT, m["file"])) as f:
                mutate(f.read(), m)
        except (OSError, ValueError) as e:
            errors.append("[%s] %s: %s" % (m["name"], m["file"], e))
    if errors:
        sys.exit("mutants: the list does not match the source:\n  " + "\n  ".join(errors))

    work = args.work or tempfile.mkdtemp(prefix="hc-mutants-")
    os.makedirs(work, exist_ok=True)
    build = os.path.join(work, "build")
    ctest = ["ctest", "--test-dir", build, "-j", JOBS, "--timeout", str(TEST_TIMEOUT_S),
             "--output-on-failure"]
    start = time.time()
    try:
        sync_tree(work)
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        log = os.path.join(work, "configure.log")
        if run(["cmake", "-S", work, "-B", build, "-DCMAKE_BUILD_TYPE=Release"] + gen, log):
            sys.exit("mutants: configure failed; see " + log)
        log = os.path.join(work, "build.log")
        if run(["cmake", "--build", build, "-j", JOBS], log):
            sys.exit("mutants: the unmutated tree does not build; see " + log)
        log = os.path.join(work, "ctest.log")
        if run(ctest, log):
            sys.exit("mutants: the unmutated tree fails ctest (%s); see %s" %
                     (", ".join(failed_tests(log)) or "?", log))
        print("baseline: builds and passes ctest (%.0f s)" % (time.time() - start), flush=True)

        results = []
        for m in mutants:
            t0 = time.time()
            path = os.path.join(work, m["file"])
            with open(path) as f:
                original = f.read()
            try:
                with open(path, "w") as f:
                    f.write(mutate(original, m))
                log = os.path.join(work, "mutant-%s.log" % m["name"])
                if run(["cmake", "--build", build, "-j", JOBS], log):
                    verdict, detail = "ERROR", "does not compile; see " + log
                elif run(ctest + ["--stop-on-failure"], log):
                    verdict, detail = "KILLED", ", ".join(failed_tests(log)[:3])
                else:
                    verdict, detail = "SURVIVED", m["claim"]
            finally:
                with open(path, "w") as f:
                    f.write(original)
            results.append(verdict)
            print("%-8s %-32s %5.0f s  %s" % (verdict, m["name"], time.time() - t0, detail),
                  flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)

    killed = results.count("KILLED")
    print("%d of %d mutants killed in %.0f s" % (killed, len(results), time.time() - start))
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
