#!/usr/bin/env python3
"""hgdb-analyze: project-specific semantic analyzer for the hgdb runtime.

Checker families (see checkers.py and model.json):

  blocking-under-lock   blocking syscalls / sleeps / cv-waits reachable
                        while a CheckedMutex is held
  callback-under-lock   user-supplied callables invoked under a lock
  exhaustiveness        wire enums and metric names vs their README tables
  stale-contract        model.json nonblocking_functions entries naming a
                        function the sources no longer define (reported
                        with blocking-under-lock, whose waivers they are)

Driven by build/compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is
always on in this repo); falls back to globbing src/ when the build tree
is absent, so the analyzer runs identically in CI and pre-build.

The front end is a dependency-free Python tokenizer + scope scanner
(cpp_model.py) rather than libclang: the container toolchain ships no
clang, and the seeded-violation corpus under tests/analysis pins the
subset of C++ it must understand. It runs as a blocking CI job and as a
ctest (`analysis.src`, `analysis.selftest`).

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage error.

Suppression syntax, on the finding's line or the line above:

    // hgdb-analyze: suppress(<checker>) -- <justification>

A suppression without a justification is itself a finding, and
tools/lint.py caps suppression comments at zero in src/session and
src/rpc — true positives there get fixed, not waived.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checkers as checkers_mod  # noqa: E402
import cpp_model  # noqa: E402

EXPECT_RE = re.compile(r"//\s*EXPECT-(FINDING|SUPPRESSED):\s*([\w\-]+)")


def repo_root_default() -> str:
    return os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))


def load_contracts(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def source_files(root: str, compile_commands: str) -> list[str]:
    src = os.path.join(root, "src")
    files: set[str] = set()
    if os.path.exists(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as f:
            for entry in json.load(f):
                path = entry.get("file", "")
                if not os.path.isabs(path):
                    path = os.path.join(entry.get("directory", ""), path)
                path = os.path.normpath(path)
                if path.startswith(src + os.sep):
                    files.add(path)
    else:
        files.update(glob.glob(os.path.join(src, "**", "*.cc"),
                               recursive=True))
    # headers carry the class definitions, member types, annotations and
    # inline bodies — always parse them all
    files.update(glob.glob(os.path.join(src, "**", "*.h"), recursive=True))
    return sorted(files)


def build_model(root: str, files: list[str]) -> cpp_model.CodeModel:
    header = os.path.join(root, "src", "common", "checked_mutex.h")
    ranks = cpp_model.load_mutex_ranks(header)
    # headers first so class layouts exist before .cc bodies are scanned
    ordered = [f for f in files if f.endswith(".h")] + \
              [f for f in files if not f.endswith(".h")]
    return cpp_model.build_model(ordered, ranks)


def report(findings: list, fmt: str, show_suppressed: bool) -> None:
    unsuppressed = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    if fmt == "json":
        payload = {
            "findings": [vars(f) for f in unsuppressed],
            "suppressed": [vars(f) for f in suppressed],
        }
        print(json.dumps(payload, indent=2))
        return
    for f in unsuppressed:
        print(f.render())
    if show_suppressed:
        for f in suppressed:
            print(f"{f.file}:{f.line}: [suppressed:{f.checker}] "
                  f"{f.justification}")
    print(f"hgdb-analyze: {len(unsuppressed)} finding(s), "
          f"{len(suppressed)} suppressed")


# ---------------------------------------------------------------------------
# self-test over the seeded-violation corpus
# ---------------------------------------------------------------------------


def parse_expectations(path: str) -> list[tuple[int, str, str]]:
    """(line, kind, checker) for every EXPECT marker in a fixture."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = EXPECT_RE.search(line)
            if m:
                out.append((lineno, m.group(1), m.group(2)))
    return out


def self_test(root: str, corpus: str, contracts: dict) -> int:
    failures: list[str] = []

    # -- lock checkers over the bad/good snippet corpus ---------------------
    fixture_files = sorted(
        glob.glob(os.path.join(corpus, "blocking", "*.cc"))
        + glob.glob(os.path.join(corpus, "callback", "*.cc")))
    if not fixture_files:
        print(f"self-test: no fixtures under {corpus}", file=sys.stderr)
        return 2
    model = build_model(root, fixture_files)
    findings = []
    findings.extend(checkers_mod.BlockingChecker(model, contracts).run())
    findings.extend(checkers_mod.CallbackChecker(model, contracts).run())
    findings = checkers_mod.apply_suppressions(findings, model, root)
    for f in findings:
        if not os.path.isabs(f.file):
            f.file = os.path.join(root, f.file)

    by_file: dict[str, list] = {}
    for f in findings:
        by_file.setdefault(os.path.abspath(f.file), []).append(f)

    total_expect = 0
    for path in fixture_files:
        expectations = parse_expectations(path)
        file_findings = by_file.get(os.path.abspath(path), [])
        matched = set()
        for line, kind, checker in expectations:
            total_expect += 1
            want_suppressed = kind == "SUPPRESSED"
            hit = None
            for f in file_findings:
                if f.checker == checker and f.line in (line, line + 1) \
                        and f.suppressed == want_suppressed:
                    hit = f
                    break
            if hit is None:
                failures.append(
                    f"{path}:{line}: expected {kind.lower()} "
                    f"[{checker}] finding, analyzer reported none")
            else:
                matched.add(id(hit))
        for f in file_findings:
            if id(f) not in matched and f.checker != "suppression-syntax":
                failures.append(
                    f"{f.file}:{f.line}: unexpected [{f.checker}] finding "
                    f"(parser false positive): {f.message}")
        if not expectations and file_findings:
            pass  # already reported above as unexpected

    # -- stale contracts against the same fixture model ---------------------
    stale_json = os.path.join(corpus, "contracts", "stale.json")
    if os.path.exists(stale_json):
        with open(stale_json, "r", encoding="utf-8") as f:
            spec = json.load(f)
        stale = checkers_mod.stale_contract_findings(model, spec, stale_json)
        messages = [f.message for f in stale]
        for name in spec["expect_stale"]:
            total_expect += 1
            if not any(f" {name}," in msg for msg in messages):
                failures.append(
                    f"{stale_json}: expected a stale-contract finding for "
                    f"{name}; got {messages}")
        if len(stale) != len(spec["expect_stale"]):
            failures.append(
                f"{stale_json}: expected exactly "
                f"{len(spec['expect_stale'])} stale-contract findings, "
                f"analyzer reported {len(stale)}: {messages}")

    # -- exhaustiveness over the mini-repo fixture --------------------------
    mini = os.path.join(corpus, "exhaustiveness")
    expect_json = os.path.join(mini, "expect.json")
    if os.path.exists(expect_json):
        with open(expect_json, "r", encoding="utf-8") as f:
            spec = json.load(f)
        mini_contracts = dict(contracts)
        mini_contracts["exhaustiveness"] = spec["config"]
        mini_files = sorted(
            glob.glob(os.path.join(mini, "src", "**", "*.cc"),
                      recursive=True)
            + glob.glob(os.path.join(mini, "src", "**", "*.h"),
                        recursive=True))
        mini_model = build_model(root, mini_files)
        mini_findings = checkers_mod.ExhaustivenessChecker(
            mini_model, mini_contracts, mini).run()
        messages = [f.message for f in mini_findings]
        for want in spec["expect_messages"]:
            total_expect += 1
            if not any(want in msg for msg in messages):
                failures.append(
                    f"{expect_json}: expected a finding containing "
                    f"{want!r}; got {messages}")
        if len(mini_findings) != len(spec["expect_messages"]):
            failures.append(
                f"{expect_json}: expected exactly "
                f"{len(spec['expect_messages'])} findings, analyzer "
                f"reported {len(mini_findings)}: {messages}")

    if failures:
        for line in failures:
            print(f"SELF-TEST FAIL: {line}")
        print(f"hgdb-analyze self-test: {len(failures)} failure(s) "
              f"({total_expect} expectations)")
        return 1
    print(f"hgdb-analyze self-test: all {total_expect} expectations "
          f"matched, no parser false positives")
    return 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(prog="hgdb-analyze",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", default=repo_root_default())
    parser.add_argument("--compile-commands", default=None,
                        help="path to compile_commands.json "
                             "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--model", default=None,
                        help="contract file (default: model.json next to "
                             "this script)")
    parser.add_argument("--checker", action="append", default=None,
                        choices=["blocking-under-lock", "callback-under-lock",
                                 "exhaustiveness"],
                        help="run only the named checker(s)")
    parser.add_argument("--report", default="text", choices=["text", "json"])
    parser.add_argument("--show-suppressed", action="store_true",
                        help="list suppressed findings in the text report")
    parser.add_argument("--self-test", metavar="DIR", default=None,
                        help="run the seeded-violation corpus instead of "
                             "analyzing src/")
    args = parser.parse_args()

    root = os.path.abspath(args.repo_root)
    model_path = args.model or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "model.json")
    try:
        contracts = load_contracts(model_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"hgdb-analyze: cannot load {model_path}: {exc}",
              file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root, os.path.abspath(args.self_test), contracts)

    compile_commands = args.compile_commands or os.path.join(
        root, "build", "compile_commands.json")
    files = source_files(root, compile_commands)
    if not files:
        print("hgdb-analyze: no source files found", file=sys.stderr)
        return 2
    model = build_model(root, files)
    findings = checkers_mod.run_all(model, contracts, root, args.checker)
    if not args.checker or "blocking-under-lock" in args.checker:
        for f in checkers_mod.stale_contract_findings(model, contracts,
                                                      model_path):
            f.file = os.path.relpath(f.file, root)
            findings.append(f)
    report(findings, args.report, args.show_suppressed)
    return 1 if any(not f.suppressed for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
