"""Golden-lint gate: ``python -m repro.analysis`` over the Siemens corpus.

Writes every corpus program (the TCAS reference, all seeded-fault TCAS
versions, the four Table 3 programs with their injected faults, and the
strncat example) to a scratch directory, lints the whole set through the
real CLI in one invocation, and compares the JSON diagnostics against the
checked-in golden file ``tests/golden_siemens_lint.json``.  One invocation
lints every program after the ones before it, on the analysis solve table
they warmed; ``--per-file`` runs one process per program instead, so each
lint starts on an empty table.

The corpus is all *working* benchmark programs — seeded faults are wrong
answers, not crashes — so the golden expectation doubles as a
false-positive regression gate: the analyzer must never start rejecting
(or newly flagging) a program the localizer is expected to handle.

Usage::

    python benchmarks/lint_siemens_corpus.py              # check against golden
    python benchmarks/lint_siemens_corpus.py --per-file   # same, one process each
    python benchmarks/lint_siemens_corpus.py --update     # regenerate golden
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden_siemens_lint.json"


def corpus_sources() -> dict[str, str]:
    """Every Siemens-corpus program as ``{file name: source text}``."""
    from repro.siemens import TCAS_SOURCE, tcas_faulty_source, tcas_versions
    from repro.siemens.programs import LARGE_BENCHMARKS
    from repro.siemens.strncat_example import STRNCAT_SOURCE

    sources = {"tcas_reference.mc": TCAS_SOURCE}
    for version in tcas_versions():
        sources[f"tcas_{version}.mc"] = tcas_faulty_source(version)
    for benchmark in LARGE_BENCHMARKS:
        lines = list(benchmark.source_lines)
        for line_number, replacement in benchmark.patches:
            lines[line_number - 1] = replacement
        sources[f"{benchmark.name}.mc"] = "\n".join(lines) + "\n"
    sources["strncat.mc"] = STRNCAT_SOURCE
    # The example programs ride along so the golden file also pins expected
    # *positives* (the corpus itself must lint clean — wrong answers, not
    # lintable defects — which alone would only gate false positives).
    for example in sorted((REPO / "examples").glob("*.mc")):
        sources[f"example_{example.name}"] = example.read_text()
    return sources


def lint_corpus(per_file: bool = False) -> dict[str, list[dict]]:
    """Run the CLI over the corpus, in one process or in one per file;
    ``{file name: wire diagnostics}``."""
    sources = corpus_sources()
    with tempfile.TemporaryDirectory(prefix="repro-lint-") as scratch:
        root = Path(scratch)
        names = sorted(sources)
        for name in names:
            (root / name).write_text(sources[name])
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        batches = [[name] for name in names] if per_file else [names]
        payload = []
        for batch in batches:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.analysis", "--json", *batch],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(root),
            )
            if completed.returncode not in (0, 1):
                raise RuntimeError(f"linter crashed: {completed.stderr}")
            payload += json.loads(completed.stdout)
    return {entry["file"]: entry["diagnostics"] for entry in payload}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true", help="rewrite the golden file"
    )
    parser.add_argument(
        "--per-file",
        action="store_true",
        help="lint each program in its own process (an empty solve table each)",
    )
    args = parser.parse_args(argv)

    actual = lint_corpus(per_file=args.per_file)
    rendered = json.dumps(actual, indent=2, sort_keys=True) + "\n"
    if args.update:
        GOLDEN_PATH.write_text(rendered)
        total = sum(len(diags) for diags in actual.values())
        print(f"wrote {GOLDEN_PATH} ({len(actual)} programs, {total} diagnostics)")
        return 0

    if not GOLDEN_PATH.exists():
        print(f"missing golden file {GOLDEN_PATH}; run with --update", file=sys.stderr)
        return 2
    expected = json.loads(GOLDEN_PATH.read_text())
    if expected == actual:
        print(f"golden lint: {len(actual)} corpus programs match")
        return 0
    for name in sorted(set(expected) | set(actual)):
        want = expected.get(name)
        got = actual.get(name)
        if want != got:
            print(f"MISMATCH {name}:", file=sys.stderr)
            print(f"  expected: {json.dumps(want)}", file=sys.stderr)
            print(f"  actual:   {json.dumps(got)}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    raise SystemExit(main())
