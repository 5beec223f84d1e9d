"""Docs integrity checker: every link and code reference must resolve.

Scans ``docs/*.md`` and ``README.md`` for

* **relative markdown links** -- ``[text](path)`` targets that are not
  absolute URLs must point at files that exist (fragments are stripped;
  pure in-page ``#anchor`` links are skipped), and
* **code references** -- backticked ``path/to/file.py:Symbol`` tokens whose
  path lies inside the repo (``src/``, ``tests/``, ``benchmarks/``,
  ``tools/``, ``examples/``) must name an existing file *and* a symbol
  defined in it.  Dotted symbols (``Class.method``) resolve through the
  class body: methods, nested classes, class-level assignments, ``__slots__``
  entries, and ``self.attr`` assignments inside methods all count.

It also checks that the README's engine throughput table is exactly the
table rendered from the committed ``BENCH_engine.json``, so the quoted
numbers cannot drift from the artifact that evidences them.

Exit status is non-zero when anything dangles, with one line per problem --
this is the CI docs job (see ``.github/workflows/ci.yml``).

Run it directly::

    python tools/check_docs.py
    python tools/check_docs.py --write-readme-table   # after bench_engine.py
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Only backticked file:symbol references under these roots are checked;
#: anything else (e.g. the ``path/to/file.py:Symbol`` convention placeholder)
#: is treated as illustrative.
CHECKED_PREFIXES = ("src/", "tests/", "benchmarks/", "tools/", "examples/")

#: The README block holding the engine table rendered from BENCH_engine.json.
ENGINE_TABLE_BEGIN = (
    "<!-- engine-table: generated from BENCH_engine.json by "
    "`python tools/check_docs.py --write-readme-table` -->"
)
ENGINE_TABLE_END = "<!-- /engine-table -->"

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_REFERENCE = re.compile(r"`([\w./-]+\.py):([A-Za-z_][\w.]*)`")


def doc_files() -> List[Path]:
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        docs.append(readme)
    return docs


def iter_links(text: str) -> Iterator[str]:
    for match in MARKDOWN_LINK.finditer(text):
        yield match.group(1)


def iter_code_references(text: str) -> Iterator[Tuple[str, str]]:
    for match in CODE_REFERENCE.finditer(text):
        yield match.group(1), match.group(2)


def check_link(doc: Path, target: str) -> Optional[str]:
    if target.startswith(("http://", "https://", "mailto:")):
        return None
    path, _, _fragment = target.partition("#")
    if not path:  # in-page anchor
        return None
    resolved = (doc.parent / path).resolve()
    if not resolved.exists():
        return f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
    return None


def _class_member_names(node: ast.ClassDef) -> Set[str]:
    """Every name a ``Class.member`` reference may legitimately use."""
    names: Set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id == "__slots__":
                        names.update(_slot_strings(item.value))
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
    # self.attr assignments in the class's *own* methods (not in nested
    # classes' methods, whose attributes belong to the nested class).
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(method):
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        names.add(target.attr)
    return names


def _slot_strings(value: ast.expr) -> Set[str]:
    names: Set[str] = set()
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.add(element.value)
    return names


def check_code_reference(doc: Path, path: str, symbol: str) -> Optional[str]:
    if not path.startswith(CHECKED_PREFIXES):
        return None
    where = f"{doc.relative_to(REPO_ROOT)}: `{path}:{symbol}`"
    source = REPO_ROOT / path
    if not source.exists():
        return f"{where} -- file does not exist"
    try:
        tree = ast.parse(source.read_text())
    except SyntaxError as error:  # pragma: no cover - tree is CI-tested code
        return f"{where} -- file failed to parse: {error}"

    parts = symbol.split(".")
    top = {
        item.name: item
        for item in tree.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for item in tree.body:  # module-level assignments (constants)
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    top.setdefault(target.id, item)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            top.setdefault(item.target.id, item)

    head = top.get(parts[0])
    if head is None:
        return f"{where} -- no top-level symbol {parts[0]!r}"
    if len(parts) == 1:
        return None
    if not isinstance(head, ast.ClassDef):
        return f"{where} -- {parts[0]!r} is not a class, cannot hold {parts[1]!r}"
    # Resolve the dotted tail one level at a time (nested classes supported).
    node: ast.ClassDef = head
    for depth, part in enumerate(parts[1:], start=1):
        members = _class_member_names(node)
        if part not in members:
            owner = ".".join(parts[:depth])
            return f"{where} -- {owner!r} has no member {part!r}"
        nested = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.ClassDef) and item.name == part
            ),
            None,
        )
        if nested is None:
            if depth != len(parts) - 1:
                owner = ".".join(parts[: depth + 1])
                return f"{where} -- {owner!r} is not a nested class"
            break
        node = nested
    return None


def render_engine_table(report: dict) -> str:
    """The README's engine throughput table for a ``bench_engine`` report."""
    lines = [
        "| n | Δ | unreliable edges | reference rounds/s | kernel rounds/s "
        "| kernel counters rounds/s | kernel vs reference | counters vs reference |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in sorted(report["workloads"], key=lambda row: row["n"]):
        lines.append(
            f"| {row['n']} | {row['delta']} | {row['unreliable_edges']} "
            f"| {row['reference_rps']:.0f} | {row['kernel_rps']:.0f} "
            f"| {row['kernel_counters_rps']:.0f} | {row['speedup_kernel']:.1f}× "
            f"| {row['speedup_kernel_counters']:.1f}× |"
        )
    return "\n".join(lines)


def _engine_table_span(readme: str) -> Optional[Tuple[int, int]]:
    begin = readme.find(ENGINE_TABLE_BEGIN)
    end = readme.find(ENGINE_TABLE_END)
    if begin < 0 or end < begin:
        return None
    return begin + len(ENGINE_TABLE_BEGIN), end


def _expected_engine_block() -> str:
    with open(REPO_ROOT / "BENCH_engine.json") as handle:
        report = json.load(handle)
    return "\n" + render_engine_table(report) + "\n"


def check_engine_table() -> Optional[str]:
    readme = (REPO_ROOT / "README.md").read_text()
    span = _engine_table_span(readme)
    if span is None:
        return "README.md: engine table markers are missing"
    if readme[span[0] : span[1]] != _expected_engine_block():
        return (
            "README.md: engine table differs from BENCH_engine.json "
            "(regenerate with `python tools/check_docs.py --write-readme-table`)"
        )
    return None


def write_engine_table() -> None:
    path = REPO_ROOT / "README.md"
    readme = path.read_text()
    span = _engine_table_span(readme)
    if span is None:
        raise SystemExit("README.md: engine table markers are missing")
    path.write_text(readme[: span[0]] + _expected_engine_block() + readme[span[1] :])


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write-readme-table"]:
        write_engine_table()
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [--write-readme-table]", file=sys.stderr)
        return 2
    docs = doc_files()
    if not (REPO_ROOT / "docs").is_dir():
        print("FAIL: docs/ directory is missing", file=sys.stderr)
        return 1
    problems: List[str] = []
    links = refs = 0
    for doc in docs:
        text = doc.read_text()
        for target in iter_links(text):
            links += 1
            problem = check_link(doc, target)
            if problem:
                problems.append(problem)
        for path, symbol in iter_code_references(text):
            refs += 1
            problem = check_code_reference(doc, path, symbol)
            if problem:
                problems.append(problem)
    problem = check_engine_table()
    if problem:
        problems.append(problem)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(
        f"checked {len(docs)} docs, {links} links, {refs} code references: "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
