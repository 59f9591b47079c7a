#!/usr/bin/env python3
"""Fails if an ISA-specific object file exports VEX code in a weak function.

Usage:

    python3 tools/check_no_weak_vex.py OBJECT.o

A weak (COMDAT) function -- an inline function of a header, a template
instantiation -- may be emitted by many objects, and the linker keeps one
copy, whichever comes first. If the AVX2 kernel object emits a VEX-encoded
copy, a binary built with AVX2 kernels can execute AVX instructions outside
the cpuid-guarded dispatch and die on a machine without AVX. The kernel
source therefore switches the target ISA only after its headers; this
check pins that.

It also fails if the object contains no VEX code at all: then the AVX2
build is not an AVX2 build.

Needs binutils (nm, objdump). Exit status 0 on success, 1 on a finding.
"""

import re
import subprocess
import sys

# Mnemonics starting with "v" that are not VEX-encoded (VMX, SVM, verr/w).
NON_VEX = {
    "verr", "verw", "vmcall", "vmclear", "vmfunc", "vmlaunch", "vmload",
    "vmmcall", "vmptrld", "vmptrst", "vmread", "vmresume", "vmrun", "vmsave",
    "vmwrite", "vmxoff", "vmxon",
}
HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN = re.compile(r"^\s+[0-9a-f]+:\s+(\S+)(.*)$")


def is_vex(mnemonic, operands):
    if "%ymm" in operands or "%zmm" in operands:
        return True
    return mnemonic.startswith("v") and mnemonic not in NON_VEX


def weak_functions(obj):
    out = subprocess.run(["nm", "--defined-only", obj], check=True,
                         capture_output=True, text=True).stdout
    weak = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] == "W":
            weak.add(parts[2])
    return weak


def vex_functions(obj):
    """Names of the functions in `obj` holding at least one VEX insn."""
    out = subprocess.run(["objdump", "-d", "--no-show-raw-insn", "-w", obj],
                         check=True, capture_output=True, text=True).stdout
    found = set()
    current = None
    for line in out.splitlines():
        header = HEADER.match(line)
        if header:
            current = header.group(1)
            continue
        insn = INSN.match(line)
        if current and insn and is_vex(insn.group(1), insn.group(2)):
            found.add(current)
    return found


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    obj = argv[1]
    vex = vex_functions(obj)
    leaked = sorted(vex & weak_functions(obj))
    if not vex:
        print(f"{obj}: no VEX code at all; not an AVX2 build", file=sys.stderr)
        return 1
    for name in leaked:
        print(f"{obj}: weak function with VEX code: {name}", file=sys.stderr)
    if leaked:
        return 1
    print(f"{obj}: {len(vex)} functions with VEX code, none weak")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
