#!/usr/bin/env python3
"""nucleus_lint: repo-specific static checks that clang-tidy cannot express.

Rules
-----
tsan-filter-sync
    The TSan test regex in .github/workflows/ci.yml (gcc-tsan ctest_args)
    must be byte-identical to the `tsan` testPreset filter in
    CMakePresets.json. The two drifted twice historically (PR 5, PR 7),
    silently shrinking CI's TSan coverage.

wall-clock
    Deterministic decompose/serve code must not read wall-clock time or
    libc randomness: byte-identical transcripts at t in {1,2,4,8} are an
    acceptance gate. Bans std::rand/srand/time()/system_clock/
    gettimeofday/localtime/gmtime in src/nucleus, except the
    observability layer (obs/) and util/timer*, which legitimately
    timestamp output. steady_clock is allowed everywhere.

naked-mutex
    All locking in src/nucleus goes through the annotated wrappers in
    util/mutex.h so Clang thread-safety analysis sees every acquisition.
    Bans std::mutex / std::shared_mutex / std::lock_guard /
    std::unique_lock / std::scoped_lock / std::shared_lock tokens
    outside util/mutex.h.

one-hierarchy-assembly
    Every skeleton producer shares one hierarchy assembly: Alg. 9's level
    loop is internal::ConsumeBins (core/fast_nucleus.h) and the root
    tie-off is SkeletonBuild::AddRoot (core/types.h). So in src/nucleus and
    bench/, `AddNode(kRootLambda` may appear only in core/types.h, and
    `AttachChild(` only in dsf/, core/df_traversal.h and core/fast_nucleus.h.
    Keeps hand-kept copies of the assembly from growing back.

A finding on a specific line can be suppressed with a trailing
`// nucleus-lint: allow(<rule>)` comment.

Usage:
    nucleus_lint.py [--repo DIR]     lint the repository (default: cwd walk-up)
    nucleus_lint.py --self-test      run the linter against built-in fixtures
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

RULES = ("tsan-filter-sync", "wall-clock", "naked-mutex", "one-hierarchy-assembly")

SUPPRESS_RE = re.compile(r"//\s*nucleus-lint:\s*allow\(([a-z-]+)\)")

# Matched against comment-stripped code text.
WALL_CLOCK_RE = re.compile(
    r"std::rand\b|\bsrand\s*\(|\btime\s*\(|system_clock"
    r"|gettimeofday|\blocaltime\b|\bgmtime\b"
)
NAKED_MUTEX_RE = re.compile(
    r"std::(?:shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

WALL_CLOCK_WHITELIST = ("obs/", "util/timer")
NAKED_MUTEX_WHITELIST = ("util/mutex.h",)

# one-hierarchy-assembly: (pattern, the only files allowed to match it).
ASSEMBLY_RULES = (
    (re.compile(r"AddNode\(\s*kRootLambda"), ("src/nucleus/core/types.h",)),
    (
        re.compile(r"\bAttachChild\("),
        (
            "src/nucleus/dsf/",
            "src/nucleus/core/df_traversal.h",
            "src/nucleus/core/fast_nucleus.h",
        ),
    ),
)

CI_TSAN_RE = re.compile(r'ctest_args:\s*-R\s*"([^"]+)"')


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_line_comment(line: str) -> str:
    """Remove a trailing // comment (good enough: repo bans multiline
    comment blocks holding code, and string literals never contain //)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def iter_source_files(root: str, subdirs=("src/nucleus",)):
    for subdir in subdirs:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, subdir)):
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    yield os.path.join(dirpath, name)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def check_file_rule(root, path, rule, pattern, whitelist, findings):
    relpath = rel(root, path)
    if any(token in relpath for token in whitelist):
        return
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            suppressed = {m.group(1) for m in SUPPRESS_RE.finditer(line)}
            if rule in suppressed:
                continue
            code = strip_line_comment(line)
            m = pattern.search(code)
            if m:
                findings.append(
                    Finding(rule, relpath, lineno, f"banned token '{m.group(0)}'")
                )


def check_tsan_filter_sync(root: str, findings: list) -> None:
    ci_path = os.path.join(root, ".github", "workflows", "ci.yml")
    presets_path = os.path.join(root, "CMakePresets.json")
    if not os.path.exists(ci_path) or not os.path.exists(presets_path):
        findings.append(
            Finding(
                "tsan-filter-sync",
                rel(root, ci_path if not os.path.exists(ci_path) else presets_path),
                0,
                "file missing; cannot cross-check the TSan test filter",
            )
        )
        return

    ci_regex = None
    ci_line = 0
    with open(ci_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            m = CI_TSAN_RE.search(line)
            if m and m.group(1).strip():
                ci_regex = m.group(1)
                ci_line = lineno
                break

    preset_regex = None
    with open(presets_path, encoding="utf-8") as f:
        presets = json.load(f)
    for preset in presets.get("testPresets", []):
        if preset.get("name") == "tsan":
            preset_regex = (
                preset.get("filter", {}).get("include", {}).get("name")
            )

    if ci_regex is None:
        findings.append(
            Finding(
                "tsan-filter-sync",
                rel(root, ci_path),
                0,
                'no non-empty ctest_args: -R "..." found (gcc-tsan job)',
            )
        )
    if preset_regex is None:
        findings.append(
            Finding(
                "tsan-filter-sync",
                rel(root, presets_path),
                0,
                "no tsan testPreset with filter.include.name found",
            )
        )
    if ci_regex is not None and preset_regex is not None and ci_regex != preset_regex:
        findings.append(
            Finding(
                "tsan-filter-sync",
                rel(root, ci_path),
                ci_line,
                "TSan test regex differs from CMakePresets.json tsan "
                f"preset:\n  ci.yml:           {ci_regex}\n"
                f"  CMakePresets.json: {preset_regex}",
            )
        )


def lint(root: str) -> list:
    findings: list = []
    check_tsan_filter_sync(root, findings)
    for path in iter_source_files(root):
        check_file_rule(
            root, path, "wall-clock", WALL_CLOCK_RE, WALL_CLOCK_WHITELIST, findings
        )
        check_file_rule(
            root, path, "naked-mutex", NAKED_MUTEX_RE, NAKED_MUTEX_WHITELIST, findings
        )
    for path in iter_source_files(root, ("src/nucleus", "bench")):
        for pattern, allowed in ASSEMBLY_RULES:
            check_file_rule(
                root, path, "one-hierarchy-assembly", pattern, allowed, findings
            )
    return findings


# ---------------------------------------------------------------------------
# Self-test fixtures: a miniature repo tree per scenario.
# ---------------------------------------------------------------------------


def _write(root: str, relpath: str, content: str) -> None:
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def _fixture_base(root: str, tsan_regex_ci: str, tsan_regex_preset: str) -> None:
    _write(
        root,
        ".github/workflows/ci.yml",
        "jobs:\n  build:\n    matrix:\n      include:\n"
        '        - name: gcc-release\n          ctest_args: ""\n'
        f'        - name: gcc-tsan\n          ctest_args: -R "{tsan_regex_ci}"\n',
    )
    _write(
        root,
        "CMakePresets.json",
        json.dumps(
            {
                "version": 5,
                "testPresets": [
                    {
                        "name": "tsan",
                        "filter": {"include": {"name": tsan_regex_preset}},
                    }
                ],
            }
        ),
    )
    _write(
        root,
        "src/nucleus/util/mutex.h",
        "#pragma once\n#include <mutex>\nclass Mutex { std::mutex mu_; };\n",
    )


def self_test() -> int:
    failures = []

    def expect(name: str, findings: list, rule: str, count: int) -> None:
        got = sum(1 for f in findings if f.rule == rule)
        if got != count:
            failures.append(
                f"{name}: expected {count} x {rule}, got {got}: "
                + "; ".join(str(f) for f in findings)
            )

    # 1. Clean tree -> no findings.
    with tempfile.TemporaryDirectory() as root:
        _fixture_base(root, "Parallel|TcpServer", "Parallel|TcpServer")
        _write(
            root,
            "src/nucleus/core/clean.cc",
            "#include \"nucleus/util/mutex.h\"\n"
            "// std::mutex in a comment is fine\n"
            "int F() { return 1; }\n",
        )
        findings = lint(root)
        if findings:
            failures.append(
                "clean: expected no findings, got: "
                + "; ".join(str(f) for f in findings)
            )

    # 2. Drifted TSan regex -> exactly one tsan-filter-sync finding.
    with tempfile.TemporaryDirectory() as root:
        _fixture_base(root, "Parallel|TcpServer|Metrics", "Parallel|TcpServer")
        findings = lint(root)
        expect("drift", findings, "tsan-filter-sync", 1)

    # 3. Wall-clock tokens flagged in core, tolerated in obs/ and util/timer.
    with tempfile.TemporaryDirectory() as root:
        _fixture_base(root, "X", "X")
        _write(
            root,
            "src/nucleus/core/decompose.cc",
            "#include <ctime>\nlong Now() { return time(nullptr); }\n"
            "int R() { return std::rand(); }\n",
        )
        _write(
            root,
            "src/nucleus/obs/metrics.cc",
            "#include <chrono>\nauto T() { return "
            "std::chrono::system_clock::now(); }\n",
        )
        _write(
            root,
            "src/nucleus/util/timer.h",
            "#include <chrono>\nusing Clock = std::chrono::system_clock;\n",
        )
        findings = lint(root)
        expect("wall-clock", findings, "wall-clock", 2)

    # 4. Naked mutex member flagged; suppression comment honored.
    with tempfile.TemporaryDirectory() as root:
        _fixture_base(root, "X", "X")
        _write(
            root,
            "src/nucleus/serve/bad.h",
            "#include <mutex>\nstruct S {\n  std::mutex mu;\n"
            "  std::mutex ok_mu;  // nucleus-lint: allow(naked-mutex)\n};\n",
        )
        findings = lint(root)
        expect("naked-mutex", findings, "naked-mutex", 1)

    # 5. steady_clock is never flagged.
    with tempfile.TemporaryDirectory() as root:
        _fixture_base(root, "X", "X")
        _write(
            root,
            "src/nucleus/serve/ok.cc",
            "#include <chrono>\nauto T() { return "
            "std::chrono::steady_clock::now(); }\n",
        )
        findings = lint(root)
        if findings:
            failures.append(
                "steady_clock: expected no findings, got: "
                + "; ".join(str(f) for f in findings)
            )

    # 6. The hierarchy assembly's root tie-off and attach step live only in
    #    their owners; copies elsewhere in src/nucleus or bench/ are flagged.
    with tempfile.TemporaryDirectory() as root:
        _fixture_base(root, "X", "X")
        _write(
            root,
            "src/nucleus/core/types.h",
            "void AddRoot() { root_id = skeleton.AddNode(kRootLambda); }\n",
        )
        _write(
            root,
            "src/nucleus/dsf/root_forest.cc",
            "void HierarchySkeleton::AttachChild(int c, int p) {}\n",
        )
        _write(
            root,
            "src/nucleus/core/fast_nucleus.h",
            "// AttachChild(s, t) in a comment is fine anywhere\n"
            "void F() { skeleton->AttachChild(s, t); }\n",
        )
        _write(
            root,
            "src/nucleus/core/lcps.cc",
            "void G() { build.root_id = skeleton.AddNode(kRootLambda); }\n",
        )
        _write(
            root,
            "src/nucleus/em/semi_external_core.cc",
            "void H() { skeleton.AttachChild(s, t); }\n",
        )
        _write(
            root,
            "bench/ablation_build_order.cc",
            "void B() { skeleton.AttachChild(s, t); }\n",
        )
        findings = lint(root)
        expect("one-hierarchy-assembly", findings, "one-hierarchy-assembly", 3)

    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}", file=sys.stderr)
        return 1
    print("nucleus_lint self-test: all fixtures passed")
    return 0


def find_repo_root(start: str) -> str | None:
    cur = os.path.abspath(start)
    while True:
        if os.path.isdir(os.path.join(cur, "src", "nucleus")):
            return cur
        parent = os.path.dirname(cur)
        if parent == cur:
            return None
        cur = parent


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", help="repository root (default: walk up from cwd)")
    parser.add_argument(
        "--self-test", action="store_true", help="run fixture self-tests and exit"
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.repo or find_repo_root(os.getcwd())
    if root is None or not os.path.isdir(os.path.join(root, "src", "nucleus")):
        print("nucleus_lint: cannot locate repo root (need src/nucleus)",
              file=sys.stderr)
        return 2

    findings = lint(root)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(f"nucleus_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("nucleus_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
