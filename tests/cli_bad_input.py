#!/usr/bin/env python3
"""Malformed CLI input must fail cleanly, not abort.

    python3 tests/cli_bad_input.py <path to bayessuite_cli>

Each case must exit with status 1 (a negative status means the process
died on a signal, e.g. an uncaught exception's abort) and print an
``error:`` line on stderr.
"""

import subprocess
import sys

CASES = [
    ["ad", "--chains", "abc"],
    ["ad", "--execution", "pool:99999999999"],
    ["ad", "--execution", "threads"],
]


def main():
    cli = sys.argv[1]
    failures = 0
    for args in CASES:
        proc = subprocess.run([cli] + args, capture_output=True, text=True,
                              timeout=60)
        has_error = any(line.startswith("error:")
                        for line in proc.stderr.splitlines())
        ok = proc.returncode == 1 and has_error
        print("%s: %s (exit %d)" % ("ok" if ok else "FAIL", " ".join(args),
                                   proc.returncode))
        if not ok:
            print(proc.stderr, end="")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
