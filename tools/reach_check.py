#!/usr/bin/env python3
"""Reach check: fail when a library module is linked into no program.

Usage:
    reach_check.py NM PROGRAM ARCHIVE [ARCHIVE ...]

An archive member (one compiled src/ file) counts as linked when any of the
global text symbols it defines is also defined in PROGRAM (eastool, which
reaches every layer). A member that defines no global text symbol (only
inline functions, templates or data) is skipped. The linker pulls a member
only to resolve a reference, so a member none of whose functions is in the
program is code that nothing runs; the check names every such member.

NM is the binutils-compatible nm of the build (CMake's CMAKE_NM).

Stdlib only - no third-party imports.
"""

import os
import subprocess
import sys


def defined_functions(nm, path):
    """Maps each object in `path` that defines a global text symbol to those symbols.

    A program maps to one entry under its own path; an archive to one entry
    per member, keyed "archive[member]" as nm prints it.
    """
    out = subprocess.run([nm, "-A", "-P", "-g", "--defined-only", path],
                         check=True, capture_output=True, text=True).stdout
    objects = {}
    for line in out.splitlines():
        owner, sep, rest = line.rpartition(": ")
        fields = rest.split()
        if sep and len(fields) >= 2 and fields[1] == "T":
            objects.setdefault(owner, set()).add(fields[0])
    return objects


def main(argv):
    if len(argv) < 4:
        print("usage: reach_check.py NM PROGRAM ARCHIVE [ARCHIVE ...]", file=sys.stderr)
        return 2
    nm, program, archives = argv[1], argv[2], argv[3:]
    try:
        linked = set().union(*defined_functions(nm, program).values())
        unlinked, checked = [], 0
        for archive in archives:
            for member, functions in sorted(defined_functions(nm, archive).items()):
                checked += 1
                if not functions & linked:
                    unlinked.append(member)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"reach_check: {error}", file=sys.stderr)
        return 2
    if checked == 0:
        print("reach_check: no archive member defines a text symbol", file=sys.stderr)
        return 1
    name = os.path.basename(program)
    for member in unlinked:
        print(f"reach_check: {os.path.basename(member)}: none of its functions is linked "
              f"into {name}", file=sys.stderr)
    if unlinked:
        return 1
    print(f"reach_check: all {checked} members with functions are linked into {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
