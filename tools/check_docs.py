#!/usr/bin/env python
"""docs-check: keep docs/ARCHITECTURE.md in sync with the code layout.

Fails (exit 1) when a module under ``src/repro/serving/`` or
``src/repro/workloads/`` is not mentioned by name in
``docs/ARCHITECTURE.md``, so new serving or workload modules cannot land
undocumented.  Likewise every registered mapping compiler pass
(``repro.mapping.passes``) must appear in ARCHITECTURE.md by its
registry name — the pass list is read off the live registry, so a new
pass cannot land without a doc entry.  docs/CLI.md must document every
``repro serve`` flag, and every ``--flag`` it mentions must still be an
option of ``repro`` or one of its subcommands, so a removed flag cannot
leave a stale row behind.  Also sanity-checks that the docs/ suite and
the README cross-link each other.

Run from the repo root (CI does):

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Packages whose every module must appear in docs/ARCHITECTURE.md.
DOCUMENTED_PACKAGES = (
    REPO / "src" / "repro" / "serving",
    REPO / "src" / "repro" / "workloads",
)
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"

#: Docs that must exist and the links each must contain.
REQUIRED_LINKS = {
    REPO / "docs" / "ARCHITECTURE.md": ["PAPER_MAP.md"],
    REPO / "docs" / "PAPER_MAP.md": ["ARCHITECTURE.md", "CLI.md"],
    REPO / "docs" / "CLI.md": ["PAPER_MAP.md"],
    REPO / "README.md": [
        "docs/ARCHITECTURE.md",
        "docs/PAPER_MAP.md",
        "docs/CLI.md",
    ],
}

#: docs/CLI.md must document every long option `repro serve` accepts,
#: and mention no long option the CLI lacks — both read off the live
#: argparse parser, so a flag cannot land without a reference row or
#: leave one behind when it goes.
CLI_DOC = REPO / "docs" / "CLI.md"
#: A ``--flag`` token in prose, code blocks or tables.
FLAG_TOKEN = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def cli_flags() -> tuple[list[str], set[str]]:
    """Long options of ``repro serve`` (bar ``--help``), and of ``repro``
    with every subcommand (``--no-*`` forms included)."""
    src = REPO / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.harness.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    every = _long_options(parser).union(
        *map(_long_options, subparsers.choices.values())
    )
    serve = _long_options(subparsers.choices["serve"]) - {"--help"}
    return sorted(serve), every


def mapping_passes() -> list[str]:
    """Registry names of every mapping compiler pass."""
    src = REPO / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.mapping.passes import available_passes

    return list(available_passes())


def main() -> int:
    failures: list[str] = []

    if not ARCHITECTURE.exists():
        print(f"docs-check: missing {ARCHITECTURE.relative_to(REPO)}")
        return 1
    architecture = ARCHITECTURE.read_text()

    n_modules = 0
    for package in DOCUMENTED_PACKAGES:
        modules = sorted(
            path.name
            for path in package.glob("*.py")
            if path.name != "__init__.py"
        )
        if not modules:
            failures.append(f"no modules found under {package.relative_to(REPO)}")
        n_modules += len(modules)
        for name in modules:
            if name not in architecture:
                failures.append(
                    f"docs/ARCHITECTURE.md does not mention "
                    f"{package.relative_to(REPO)}/{name}"
                )

    for doc, links in REQUIRED_LINKS.items():
        rel = doc.relative_to(REPO)
        if not doc.exists():
            failures.append(f"missing {rel}")
            continue
        text = doc.read_text()
        for link in links:
            if link not in text:
                failures.append(f"{rel} does not link to {link}")

    flags, every_flag = cli_flags()
    cli_text = CLI_DOC.read_text() if CLI_DOC.exists() else ""
    for flag in flags:
        if flag not in cli_text:
            failures.append(
                f"docs/CLI.md does not document the `repro serve` flag {flag}"
            )
    doc_flags = set(FLAG_TOKEN.findall(cli_text))
    for flag in sorted(doc_flags - every_flag):
        failures.append(
            f"docs/CLI.md mentions {flag}, which no `repro` command accepts"
        )

    passes = mapping_passes()
    for name in passes:
        if name not in architecture:
            failures.append(
                f"docs/ARCHITECTURE.md does not mention the mapping "
                f"compiler pass {name!r}"
            )

    if failures:
        print("docs-check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"docs-check ok: {n_modules} serving/workload modules documented, "
        f"{len(flags)} serve flags referenced, "
        f"{len(doc_flags)} CLI.md flags all accepted, "
        f"{len(passes)} mapping passes documented, "
        f"{len(REQUIRED_LINKS)} docs cross-linked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
