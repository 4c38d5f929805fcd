#!/usr/bin/env python3
"""Project lint: structural checks the compiler can't make.

Run from anywhere (the repo root is located relative to this file):

    python3 scripts/lint.py

Checks (each failure lists file and reason; exit code 1 on any):
  1. every tests/test_*.cpp is registered in tests/CMakeLists.txt --
     a suite that isn't in KF_TEST_SUITES builds nobody and gates nothing;
  2. every header carries an include guard (#pragma once or #ifndef);
  3. no direct console output (std::cout, std::cerr, printf, fprintf) in
     src/ library code -- the library reports through return values; the
     one sanctioned diagnostic path is kf::obs::diag (src/obs/log.cpp
     holds the single allowlisted fprintf);
  4. no thread-safety-analysis suppressions (KF_NO_THREAD_SAFETY_ANALYSIS)
     in src/mem, src/serve, src/core, or src/obs -- the annotated
     subsystems stay fully analyzed; a suppression is a finding, not a
     fix;
  5. no `throw` in the engine's per-request paths: anywhere in
     src/serve/engine.cpp outside the Engine::Engine constructor
     (configuration checks that run before any request exists), and in
     BatchScheduler::admit -- run() promises a definite finish reason for
     every request, and a throw in a ThreadPool::parallel_for worker is
     std::terminate, so per-request failures must be contained
     (kRejected/kTimeout/park), never thrown.
     Checking the whole file keeps every phase method of the run loop
     covered without listing them;
  6. SIMD variant TUs stay behind the dispatch table -- nobody #includes
     a *_avx2.cpp / *_avx512.cpp file (their per-file -m flags only apply
     when they compile as their own TU; textual inclusion would leak AVX
     instructions into a generic object), only those two TUs include
     src/cpu/kernels_wide.h, the kernel bodies they instantiate with their
     lane-width traits, and the avx2:: / avx512:: variant namespaces are
     only named inside src/cpu (everyone else goes through the
     cpu::*_stub tables, which is what keeps the binary portable);
  7. no KF_TRACE_SCOPE / KF_TRACE_INSTANT in the per-ISA variant TUs
     (src/cpu/kernels_avx2.cpp, kernels_avx512.cpp) or in
     src/cpu/kernels_wide.h, which holds their loops -- the innermost SIMD
     loops must stay branch-free of tracing; kernel time reaches the
     tracer through the spans src/model and src/kvcache open around the
     dispatched calls instead;
  8. no rope_rotate( call in src/ outside src/model/positional.cpp --
     the attend path rotates through the model's RopeTable, whose one
     fallback past the table's end is the only caller; per-call
     pow/cos/sin must not come back into attention. Tests and benches
     keep calling rope_rotate as the oracle.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def check_test_registration() -> list[str]:
    """Every tests/test_*.cpp must appear in tests/CMakeLists.txt."""
    cmake = (REPO / "tests" / "CMakeLists.txt").read_text()
    registered = set(re.findall(r"\btest_\w+\b", cmake))
    errors = []
    for path in sorted((REPO / "tests").glob("test_*.cpp")):
        if path.stem not in registered:
            errors.append(
                f"{path.relative_to(REPO)}: suite not registered in "
                "tests/CMakeLists.txt (add it to KF_TEST_SUITES)"
            )
    return errors


def check_include_guards() -> list[str]:
    """Every header needs #pragma once or a classic include guard."""
    errors = []
    for sub in ("src", "tests", "bench", "examples"):
        root = REPO / sub
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.h")):
            text = path.read_text()
            if "#pragma once" in text:
                continue
            if re.search(r"#ifndef\s+\w+\s*\n\s*#define\s+\w+", text):
                continue
            errors.append(
                f"{path.relative_to(REPO)}: missing include guard "
                "(#pragma once)"
            )
    return errors


def check_no_console_io_in_library() -> list[str]:
    """src/ is library code: no std::cout/std::cerr/printf/fprintf.

    Diagnostics go through kf::obs::diag so tests can observe them and a
    future logging backend swaps in at one site; src/obs/log.cpp is that
    site and holds the single allowlisted fprintf.
    """
    allowlist = {REPO / "src" / "obs" / "log.cpp"}
    print_re = re.compile(r"\b(?:std::)?(?:printf|fprintf)\s*\(")
    errors = []
    for path in sorted((REPO / "src").rglob("*.cpp")):
        if path in allowlist:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("//")[0]
            if "std::cout" in code or "std::cerr" in code or print_re.search(code):
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: console output in "
                    "library code (return data, or diagnose via "
                    "kf::obs::diag)"
                )
    return errors


def check_no_tsa_suppressions() -> list[str]:
    """The annotated concurrent subsystems carry zero analysis opt-outs."""
    errors = []
    definition_site = REPO / "src" / "core" / "annotations.h"
    for sub in ("src/mem", "src/serve", "src/core", "src/obs"):
        for path in sorted((REPO / sub).rglob("*")):
            if path.suffix not in (".h", ".cpp") or path == definition_site:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if "KF_NO_THREAD_SAFETY_ANALYSIS" in line.split("//")[0]:
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno}: thread-safety "
                        "analysis suppressed (annotate instead)"
                    )
    return errors


def _strip_comments(text: str) -> str:
    """Removes // and /* */ comments (keeps newlines for line numbers)."""
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(
        r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), text,
        flags=re.S,
    )


def _function_span(text: str, signature_re: str) -> tuple[int, int] | None:
    """Character span [start, end) of the brace-matched body of the first
    definition matching `signature_re`, or None."""
    match = re.search(signature_re, text)
    if match is None:
        return None
    open_brace = text.find("{", match.end())
    if open_brace < 0:
        return None
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return open_brace, i + 1
    return None


def check_no_throw_in_request_paths() -> list[str]:
    """No `throw` in src/serve/engine.cpp outside Engine::Engine, nor in
    BatchScheduler::admit."""
    # (file, signature of the checked function -- None: the whole file --,
    # signatures of the functions exempt from the check)
    targets = [
        ("src/serve/engine.cpp", None, [r"Engine::Engine\s*\("]),
        ("src/serve/scheduler.cpp",
         r"std::vector<Sequence\*>\s+BatchScheduler::admit\b", []),
    ]
    errors = []
    for rel, checked, exempt in targets:
        text = _strip_comments((REPO / rel).read_text())
        spans = {}
        for signature in ([checked] if checked else []) + exempt:
            spans[signature] = _function_span(text, signature)
            if spans[signature] is None:
                errors.append(f"{rel}: definition matching {signature!r} "
                              "not found (lint check out of date?)")
        if None in spans.values():
            continue
        lo, hi = spans[checked] if checked else (0, len(text))
        for match in re.finditer(r"\bthrow\b", text):
            pos = match.start()
            if not lo <= pos < hi or any(
                    spans[sig][0] <= pos < spans[sig][1] for sig in exempt):
                continue
            line = text.count("\n", 0, pos) + 1
            errors.append(
                f"{rel}:{line}: `throw` inside a per-request engine path "
                "(contain as kRejected/kTimeout instead; run() must not "
                "throw)"
            )
    return errors


def check_simd_variants_behind_dispatch() -> list[str]:
    """ISA variant TUs are linked, never included; only they include the
    shared wide kernel bodies; and only src/cpu names the variant
    namespaces directly."""
    errors = []
    include_re = re.compile(r"#include\s*[<\"][^<\">]*_avx(2|512)\.cpp")
    wide_include_re = re.compile(r"#include\s*[<\"][^<\">]*kernels_wide\.h")
    wide_includers = {
        REPO / "src" / "cpu" / "kernels_avx2.cpp",
        REPO / "src" / "cpu" / "kernels_avx512.cpp",
    }
    variant_ns_re = re.compile(r"\bavx(2|512)\s*::")
    cpu_dir = REPO / "src" / "cpu"
    for sub in ("src", "tests", "bench", "examples"):
        root = REPO / sub
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            text = _strip_comments(path.read_text())
            for lineno, line in enumerate(text.splitlines(), 1):
                if include_re.search(line):
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno}: #include of an "
                        "ISA variant TU (variant files must compile as their "
                        "own translation units with per-file -m flags)"
                    )
                if path not in wide_includers and wide_include_re.search(line):
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno}: #include of "
                        "kernels_wide.h outside the AVX2 / AVX-512 variant TUs "
                        "(its bodies must only compile under their -m flags)"
                    )
                if cpu_dir not in path.parents and variant_ns_re.search(line):
                    errors.append(
                        f"{path.relative_to(REPO)}:{lineno}: direct use of a "
                        "SIMD variant namespace outside src/cpu (call "
                        "through the cpu::*_stub dispatch tables)"
                    )
    return errors


def check_no_tracing_in_isa_variants() -> list[str]:
    """The per-ISA kernel TUs and the wide kernel bodies they share never
    carry trace macros: the hot SIMD loops stay branch-free of tracing,
    and kernel time flows to the tracer through the spans src/model and
    src/kvcache open around the dispatched calls."""
    errors = []
    for rel in (
        "src/cpu/kernels_avx2.cpp",
        "src/cpu/kernels_avx512.cpp",
        "src/cpu/kernels_wide.h",
    ):
        path = REPO / rel
        if not path.is_file():
            continue
        text = _strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if "KF_TRACE_SCOPE" in line or "KF_TRACE_INSTANT" in line:
                errors.append(
                    f"{rel}:{lineno}: trace macro in a per-ISA kernel file "
                    "(span the dispatched call in src/model or src/kvcache "
                    "instead)"
                )
    return errors


def check_rope_rotate_only_in_positional() -> list[str]:
    """rope_rotate is called only by RopeTable's fallback in
    src/model/positional.cpp; the rest of src/ rotates through the
    model's table."""
    allowed = REPO / "src" / "model" / "positional.cpp"
    call_re = re.compile(r"(?<!void )\brope_rotate\s*\(")
    errors = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cpp") or path == allowed:
            continue
        text = _strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), 1):
            if call_re.search(line):
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: rope_rotate call "
                    "outside src/model/positional.cpp (rotate through the "
                    "model's RopeTable)"
                )
    return errors


def main() -> int:
    checks = [
        ("test registration", check_test_registration),
        ("include guards", check_include_guards),
        ("no console output in src/", check_no_console_io_in_library),
        ("no TSA suppressions", check_no_tsa_suppressions),
        ("no throw in request paths", check_no_throw_in_request_paths),
        ("SIMD variants behind dispatch", check_simd_variants_behind_dispatch),
        ("no tracing in ISA variant TUs", check_no_tracing_in_isa_variants),
        ("rope_rotate only in positional.cpp",
         check_rope_rotate_only_in_positional),
    ]
    failed = False
    for name, check in checks:
        errors = check()
        if errors:
            failed = True
            print(f"lint: {name}: {len(errors)} finding(s)")
            for err in errors:
                print(f"  {err}")
        else:
            print(f"lint: {name}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
