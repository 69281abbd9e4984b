#!/usr/bin/env python3
"""Checks that only the AVX2 copy of the tensor kernels uses AVX.

src/tensor/ops.cpp compiles its kernels twice: for the baseline x86-64
target (SSE2) and, inside a `#pragma GCC target("avx2")` region, into
namespace tssa::ops::avx2, which runs only on a CPU with AVX2. Code compiled
for AVX anywhere else would raise SIGILL on a CPU without it. That happens
when a header inline or template is instantiated inside the region: it is
COMDAT, and the linker may keep its AVX copy for the whole program.

This disassembles each binary (`objdump -d`) and fails when
  * a function outside tssa::ops::avx2 holds a VEX- or EVEX-encoded
    instruction: a `v`-prefixed mnemonic on an %xmm, %ymm or %zmm register;
  * no function in tssa::ops::avx2 uses a %ymm register: the AVX2 copy is
    missing or was compiled for the baseline target.

Functions are told apart by their mangled names: everything in the AVX2
namespace, its lambdas and GCC's clones of it start with one of
AVX2_PREFIXES. Offenders are printed demangled.

Usage:
  check_isa.py build/tests/tensorssa_tests build/bench/micro_ops ...
  check_isa.py --self-test
"""

import argparse
import re
import subprocess
import sys

# _ZN: a name nested in tssa::ops::avx2; _ZZN: a local entity (a lambda)
# of such a function.
AVX2_PREFIXES = ("_ZN4tssa3ops4avx2", "_ZZN4tssa3ops4avx2")

FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSTRUCTION = re.compile(r"^\s+[0-9a-f]+:\s+(?:\{\w+\}\s+)?(v\w+)\s+(.*)$")
VECTOR_REGISTER = re.compile(r"%[xyz]mm\d")


def scan(lines):
    """Returns (leaks, avx2_ymm) for objdump -d output: `leaks` maps each
    function outside the AVX2 namespace that uses VEX/EVEX to its first
    such instruction; `avx2_ymm` counts AVX2-namespace functions on %ymm."""
    leaks = {}
    avx2_ymm = set()
    name = None
    for line in lines:
        header = FUNCTION.match(line)
        if header:
            name = header.group(1)
            continue
        insn = INSTRUCTION.match(line)
        if not insn or name is None:
            continue
        mnemonic, operands = insn.groups()
        if not VECTOR_REGISTER.search(operands):
            continue
        if name.startswith(AVX2_PREFIXES):
            if "%ymm" in operands:
                avx2_ymm.add(name)
        elif name not in leaks:
            leaks[name] = f"{mnemonic} {operands.strip()}"
    return leaks, len(avx2_ymm)


def demangle(names):
    try:
        out = subprocess.run(["c++filt"], input="\n".join(names), text=True,
                             capture_output=True, check=True).stdout
        return out.splitlines()
    except (OSError, subprocess.CalledProcessError):
        return list(names)


def failures_for(path, leaks, avx2_ymm):
    failures = []
    names = sorted(leaks)
    for name, shown in zip(names, demangle(names)):
        failures.append(f"{path}: {shown}: uses AVX outside tssa::ops::avx2 "
                        f"({leaks[name]})")
    if avx2_ymm == 0:
        failures.append(f"{path}: no function in tssa::ops::avx2 uses %ymm; "
                        "the AVX2 kernels are missing or compiled for the "
                        "baseline target")
    return failures


def check_binary(path):
    proc = subprocess.Popen(["objdump", "-d", "--no-show-raw-insn", path],
                            stdout=subprocess.PIPE, text=True)
    leaks, avx2_ymm = scan(line.rstrip("\n") for line in proc.stdout)
    if proc.wait() != 0:
        return [f"{path}: objdump failed"], 0
    return failures_for(path, leaks, avx2_ymm), avx2_ymm


def listing(functions):
    """Fake objdump -d text: {mangled name: [instruction, ...]}."""
    lines = []
    address = 0x1000
    for name, insns in functions.items():
        lines.append(f"{address:016x} <{name}>:")
        for insn in insns:
            lines.append(f"  {address:x}:\t{insn}")
            address += 4
        lines.append("")
    return lines


# The 18 functions outside tssa::ops that carried AVX code in a perfbench
# built with -mavx2 on all of ops.cpp (GCC 12, Release): header inlines and
# template instantiations that the linker took from ops.cpp's AVX copy.
NAIVE_MAVX2_LEAKS = [
    "_ZN4tssa6Tensor4dataIfEEPT_v",
    "_ZN4tssa6Tensor4dataIlEEPT_v",
    "_ZN4tssa6detail11StridedLoopILm1EEC1ESt4spanIKlLm18446744073709551615EERKSt5arrayIPKNS_6TensorELm1EE",
    "_ZN4tssa6detail11StridedLoopILm2EEC1ESt4spanIKlLm18446744073709551615EERKSt5arrayIPKNS_6TensorELm2EE",
    "_ZN4tssa6detail11StridedLoopILm3EE7nextRowEv",
    "_ZN4tssa6detail11StridedLoopILm3EEC1ESt4spanIKlLm18446744073709551615EERKSt5arrayIPKNS_6TensorELm3EE",
    "_ZN4tssa6detail13dispatchDTypeIZNS0_10loadRowForENS_5DTypeEEUlT_E_EEDcS2_OS3_.constprop.0",
    "_ZN4tssa6detail13dispatchDTypeIZNS0_11storeRowForENS_5DTypeEEUlT_E_EEDcS2_OS3_.constprop.0",
    "_ZN4tssa6detail7loadRowIfEEvRKNS_7StorageElllPd",
    "_ZN4tssa6detail7loadRowIhEEvRKNS_7StorageElllPd",
    "_ZN4tssa6detail7loadRowIlEEvRKNS_7StorageElllPd",
    "_ZN4tssa6detail8storeRowIfEEvRNS_7StorageEllPKd",
    "_ZN4tssa6detail8storeRowIhEEvRNS_7StorageEllPKd",
    "_ZN4tssa6detail8storeRowIlEEvRNS_7StorageEllPKd",
    "_ZNSt17_Temporary_bufferIN9__gnu_cxx17__normal_iteratorIPSt4pairIdlESt6vectorIS3_SaIS3_EEEES3_EC1ES8_l",
    "_ZNSt3_V28__rotateIPlEET_S2_S2_S2_St26random_access_iterator_tag.isra.0",
    "_ZNSt6vectorIlSaIlEEC1ERKS1_",
    "_ZSt17__rotate_adaptiveIN9__gnu_cxx17__normal_iteratorIPSt4pairIdlESt6vectorIS3_SaIS3_EEEES4_lET_S9_S9_S9_T1_SA_T0_SA_",
]


def self_test():
    checks = []

    def expect(name, cond, detail=""):
        checks.append((name, bool(cond), detail))

    avx2_kernel = {
        "_ZN4tssa3ops4avx23addERKNS_6TensorES4_":
            ["vaddps %ymm1,%ymm0,%ymm0", "ret"],
        "_ZZN4tssa3ops4avx23expERKNS_6TensorEENKUlfE_clEf.isra.0":
            ["vmulps %ymm2,%ymm1,%ymm0", "ret"],
    }
    baseline = {
        "_ZN4tssa3ops4sse23addERKNS_6TensorES4_":
            ["addps %xmm1,%xmm0", "movaps %xmm0,(%rdi)", "ret"],
        "_ZN4tssa6Tensor5emptyESt6vectorIlSaIlEENS_5DTypeE":
            ["push %rbp", "call 4010 <malloc@plt>", "ret"],
        # v-mnemonics that are not vector instructions.
        "_Z9hypervisorv": ["vmcall", "verw %ax", "ret"],
    }

    # The layout of the pragma region: AVX only inside tssa::ops::avx2.
    leaks, ymm = scan(listing({**baseline, **avx2_kernel}))
    failures = failures_for("good", leaks, ymm)
    expect("pragma layout passes", not failures, repr(failures))
    expect("pragma layout counts both AVX2 functions", ymm == 2, repr(ymm))

    # The naive -mavx2 build: its 18 leaked COMDAT functions all fail.
    naive = dict(baseline)
    naive.update(avx2_kernel)
    for name in NAIVE_MAVX2_LEAKS:
        naive[name] = ["vmovdqu (%rsi),%xmm0", "vmovdqu %xmm0,(%rdi)", "ret"]
    leaks, ymm = scan(listing(naive))
    failures = failures_for("naive", leaks, ymm)
    expect("naive -mavx2 layout fails once per leaked function",
           len(failures) == len(NAIVE_MAVX2_LEAKS) == 18, repr(failures))
    expect("a leak names the function and the instruction",
           any("tssa::Tensor::data<float>()" in f
               or "_ZN4tssa6Tensor4dataIfEEPT_v" in f for f in failures)
           and all("vmovdqu" in f for f in failures), repr(failures[:2]))

    # EVEX (AVX-512) outside the namespace is a leak too.
    leaks, _ = scan(listing({**avx2_kernel,
                             "_Z3foov": ["vpaddd %zmm1,%zmm0,%zmm0"]}))
    expect("an EVEX instruction outside the namespace fails",
           list(leaks) == ["_Z3foov"], repr(leaks))

    # A similarly named namespace is not the AVX2 copy.
    leaks, _ = scan(listing({**avx2_kernel,
                             "_ZN4tssa3ops5avx2x3addEv":
                                 ["vaddps %ymm1,%ymm0,%ymm0"]}))
    expect("only tssa::ops::avx2 itself may use AVX",
           list(leaks) == ["_ZN4tssa3ops5avx2x3addEv"], repr(leaks))

    # An AVX2 copy compiled for the baseline target: no %ymm inside it.
    leaks, ymm = scan(listing({
        "_ZN4tssa3ops4avx23addERKNS_6TensorES4_": ["addps %xmm1,%xmm0"]}))
    failures = failures_for("flat", leaks, ymm)
    expect("an AVX2 copy without %ymm fails",
           len(failures) == 1 and "no function" in failures[0],
           repr(failures))

    bad = [(name, detail) for name, ok, detail in checks if not ok]
    for name, ok, _ in checks:
        print(f"  {'ok' if ok else 'FAIL'}  {name}")
    if bad:
        print(f"\nself-test: {len(bad)} of {len(checks)} checks failed:",
              file=sys.stderr)
        for name, detail in bad:
            print(f"  {name}: {detail}", file=sys.stderr)
        sys.exit(1)
    print(f"self-test: all {len(checks)} checks passed")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("binaries", nargs="*", help="linked executables")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's unit checks and exit")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.binaries:
        parser.error("at least one binary is required unless --self-test")
    failures = []
    for path in args.binaries:
        found, avx2_ymm = check_binary(path)
        failures += found
        if not found:
            print(f"{path}: OK ({avx2_ymm} AVX2 kernel functions on %ymm, "
                  "no AVX outside tssa::ops::avx2)")
    if failures:
        print(f"\n{len(failures)} ISA failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print("isa check: OK")


if __name__ == "__main__":
    main()
