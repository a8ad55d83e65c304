#!/usr/bin/env python
"""Docs checks: links must resolve, Python snippets must import-check.

Scans README.md and docs/*.md (the hand-written documentation suite —
driver-maintained artifacts like PAPERS.md/SNIPPETS.md are out of scope)
and fails (exit 1) listing every problem found:

* every relative ``[text](target)`` link must point at an existing file
  (external URLs and pure anchors are skipped);
* every fenced ```` ```python ```` snippet must parse, and every import
  statement in it must execute against ``src/`` — so renaming or
  removing a public symbol breaks the build, not the reader;
* the ``convert`` command lines documented in ``docs/storage.md`` must
  actually round-trip: a tiny graph is driven through tsv → kg2 → tsv via
  the real CLI entry point, and the final TSV must equal the first byte
  for byte.

Run via ``make docs`` or CI.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
PYTHON_FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def iter_doc_files(root: Path) -> list[Path]:
    files = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def broken_links(doc: Path, root: Path) -> list[str]:
    problems = []
    for match in LINK.finditer(doc.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES) or target.startswith("<"):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            problems.append(f"{doc.relative_to(root)}: broken link -> {target}")
    return problems


def broken_snippets(doc: Path, root: Path) -> tuple[list[str], int]:
    """Syntax-check each fenced python snippet and execute its imports.

    Only ``import``/``from ... import`` statements run (at any nesting
    level); the rest of the snippet is compile-checked but never
    executed, so docs can show mutations without side effects.
    """
    problems: list[str] = []
    text = doc.read_text(encoding="utf-8")
    n_snippets = 0
    for n_snippets, match in enumerate(PYTHON_FENCE.finditer(text), start=1):
        code = match.group(1)
        where = f"{doc.relative_to(root)}: python snippet {n_snippets}"
        line_offset = text[: match.start()].count("\n") + 1
        try:
            tree = ast.parse(code)
        except SyntaxError as error:
            problems.append(
                f"{where} (near line {line_offset + (error.lineno or 0)}): "
                f"syntax error: {error.msg}"
            )
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            statement = ast.Module(body=[node], type_ignores=[])
            try:
                exec(compile(statement, f"<{where}>", "exec"), {})
            except Exception as error:  # noqa: BLE001 - report, don't crash
                problems.append(
                    f"{where} (line {line_offset + node.lineno}): "
                    f"import failed: {error}"
                )
    return problems, n_snippets


def convert_roundtrip_problems() -> list[str]:
    """Drive the documented ``convert`` CLI through the packed format.

    ``docs/storage.md`` shows tsv ⇄ kg2 command lines; run them on a
    tiny graph so those lines cannot rot: the TSV that comes back out of
    tsv → kg2 → tsv must be byte-identical to the one that went in
    (every backend exports the same canonical order).
    """
    import tempfile

    try:
        from repro.experiments.cli import main as cli_main
        from repro.kg import KnowledgeGraph, storage
    except Exception as error:  # noqa: BLE001 - report, don't crash
        return [f"convert roundtrip: cannot import the CLI: {error}"]
    graph = KnowledgeGraph(name="docs-roundtrip")
    for s, p, o, score in [
        ("shakira", "rdf:type", "singer", 95.0),
        ("dylan", "rdf:type", "singer", 85.0),
        ("dylan", "rdf:type", "writer", 80.0),
        ("prince", "plays", "piano", 72.5),
    ]:
        graph.add(s, p, o, score=score)
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "a.tsv"
        storage.save_tsv(graph, first)
        hops = [
            (first, Path(tmp) / "b.kg2"),
            (Path(tmp) / "b.kg2", Path(tmp) / "c.tsv"),
        ]
        for source, target in hops:
            try:
                code = cli_main(
                    ["convert", "--input", str(source), "--output", str(target)]
                )
            except Exception as error:  # noqa: BLE001 - report, don't crash
                return [
                    f"convert roundtrip: {source.name} -> {target.name} "
                    f"raised: {error}"
                ]
            if code != 0:
                return [
                    f"convert roundtrip: {source.name} -> {target.name} "
                    f"exited {code}"
                ]
        if (Path(tmp) / "c.tsv").read_bytes() != first.read_bytes():
            return ["convert roundtrip: c.tsv did not round-trip byte-identically"]
    return []


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))  # snippets import the package itself
    docs = iter_doc_files(root)
    if not docs:
        print("no Markdown files found", file=sys.stderr)
        return 1
    problems: list[str] = []
    total_snippets = 0
    for doc in docs:
        problems.extend(broken_links(doc, root))
        snippet_problems, n_snippets = broken_snippets(doc, root)
        problems.extend(snippet_problems)
        total_snippets += n_snippets
    problems.extend(convert_roundtrip_problems())
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"checked {len(docs)} files ({total_snippets} python snippets), "
        f"{len(problems)} problems"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
