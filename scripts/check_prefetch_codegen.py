#!/usr/bin/env python3
"""Checks that the simulator's read lookahead still prefetches.

    python3 scripts/check_prefetch_codegen.py FTL_LIBRARY SSD_LIBRARY

Disassembles the two libraries (or objects) with objdump and checks that
  - PageMappingFtl::prefetch (in FTL_LIBRARY) holds a `prefetch*`
    instruction, and
  - SsdSimulator::on_lookahead (in SSD_LIBRARY) still calls it.
A compiler can delete a prefetch it sees as free of side effects, or a
call to a void function it has found pure; the lookahead then silently
does nothing, and only the benchmark's throughput would show it.

Exit status: 0 when both hold; 1 when either fails or a symbol is
missing; 2 on a usage error; 77 (skip) when objdump is missing or the
code is not x86-64, the only target whose prefetch form is checked.
"""

import shutil
import subprocess
import sys

PREFETCH = "_ZNK4flex3ftl14PageMappingFtl8prefetchEm"
CALLER = "_ZN4flex3ssd12SsdSimulator12on_lookaheadERKNS_5trace7RequestE"
SKIP = 77


def function_body(disassembly, symbol):
    """The lines of `symbol` in objdump -d output (relocations included
    with -r), or None when the symbol is not there."""
    header = f"<{symbol}>:"
    lines = disassembly.splitlines()
    for i, line in enumerate(lines):
        if line.rstrip().endswith(header):
            body = []
            for insn in lines[i + 1:]:
                if not insn.strip():
                    break
                body.append(insn)
            return body
    return None


def mnemonic(insn):
    """The mnemonic of one `addr:<TAB>mnemonic operands` line."""
    _, _, rest = insn.partition(":")
    fields = rest.split()
    return fields[0] if fields else ""


def check(ftl_disassembly, ssd_disassembly):
    """The list of failures (empty when the lookahead is intact)."""
    failures = []
    body = function_body(ftl_disassembly, PREFETCH)
    if body is None:
        failures.append(f"{PREFETCH} not found")
    elif not any(mnemonic(insn).startswith("prefetch") for insn in body):
        failures.append(f"{PREFETCH} has no prefetch instruction")
    caller = function_body(ssd_disassembly, CALLER)
    if caller is None:
        failures.append(f"{CALLER} not found")
    elif not any(PREFETCH in line for line in caller):
        failures.append(f"{CALLER} no longer calls {PREFETCH}")
    return failures


def main(argv):
    if len(argv) != 3:
        print("usage: check_prefetch_codegen.py FTL_LIBRARY SSD_LIBRARY",
              file=sys.stderr)
        return 2
    objdump = shutil.which("objdump")
    if objdump is None:
        print("SKIP: objdump not found")
        return SKIP
    disassembly = []
    for path in argv[1:]:
        header = subprocess.run([objdump, "-f", path], capture_output=True,
                                text=True, check=True).stdout
        if "x86-64" not in header:
            print(f"SKIP: {path} is not x86-64 code")
            return SKIP
        disassembly.append(subprocess.run(
            [objdump, "-dr", "--no-show-raw-insn", path],
            capture_output=True, text=True, check=True).stdout)
    failures = check(*disassembly)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("ok: PageMappingFtl::prefetch prefetches and "
          "SsdSimulator::on_lookahead calls it")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
