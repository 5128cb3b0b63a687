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
leave a stale row behind.  Every ``repro serve`` example in the
``sh`` blocks of README.md and docs/CLI.md must pass the CLI's parser
and flag checks (run without serving), so an example cannot combine
flags the CLI rejects.  Every ``src/repro/...`` path in README.md
and docs/*.md must exist, and every dotted ``repro.x.y`` name there
must resolve, so a deleted module or function cannot leave a stale
reference behind.  Every ``*.md`` file that a ``.py`` file under
``src/``, ``tests/`` or ``benchmarks/`` names must exist (from the repo
root or beside the citing file), so code cannot cite a document that is
not there.  Also sanity-checks that the docs/ suite and the README
cross-link each other.

Run from the repo root (CI does):

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import re
import shlex
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

#: Docs whose ``repro serve`` examples must pass the CLI's flag checks.
EXAMPLE_DOCS = (REPO / "README.md", CLI_DOC)
#: The body of a fenced ``sh`` code block.
SH_BLOCK = re.compile(r"```sh\n(.*?)```", re.S)

#: Docs whose code references must resolve.
REFERENCE_DOCS = (*REPO.glob("README.md"), *sorted((REPO / "docs").glob("*.md")))
#: A source path such as ``src/repro/serving/events.py``.
SRC_PATH = re.compile(r"src/repro(?:/[\w.]+)*")
#: A dotted name such as ``repro.serving.traffic.mix``.
DOTTED_NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")

#: Code whose citations of markdown files must resolve.
CITING_DIRS = ("src", "tests", "benchmarks")
#: A markdown file name such as ``docs/CLI.md``.
MD_NAME = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The ``repro`` parser and its subcommand parsers by name."""
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
    return parser, subparsers.choices


def cli_flags() -> tuple[list[str], set[str]]:
    """Long options of ``repro serve`` (bar ``--help``), and of ``repro``
    with every subcommand (``--no-*`` forms included)."""
    parser, commands = _parsers()
    every = _long_options(parser).union(*map(_long_options, commands.values()))
    serve = _long_options(commands["serve"]) - {"--help"}
    return sorted(serve), every


def serve_examples(text: str) -> list[list[str]]:
    """The ``repro serve`` commands in a doc's ``sh`` blocks, each as
    the argument list after ``serve``."""
    commands = []
    for block in SH_BLOCK.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:3] == ["python", "-m", "repro"]:
                words = words[3:]
            elif words[:1] == ["repro"]:
                words = words[1:]
            if words[:1] == ["serve"]:
                commands.append(words[1:])
    return commands


def serve_example_error(
    serve: argparse.ArgumentParser, argv: list[str]
) -> str | None:
    """Why ``repro serve`` (the ``serve`` subparser) would reject these
    arguments, or ``None``: the parser and the flag checks run, nothing
    is served."""
    from repro.errors import ReproError
    from repro.harness.cli import _serve_frontend

    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            args = serve.parse_args(argv)
        _serve_frontend(args, serve)
    except SystemExit:
        return usage.getvalue().strip().splitlines()[-1]
    except ReproError as exc:
        return str(exc)
    return None


def mapping_passes() -> list[str]:
    """Registry names of every mapping compiler pass."""
    src = REPO / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.mapping.passes import available_passes

    return list(available_passes())


def resolves(name: str) -> bool:
    """Whether a dotted ``repro`` name exists: import its longest module
    prefix, then look the rest up attribute by attribute."""
    src = REPO / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def missing_md_citations() -> tuple[int, list[str]]:
    """``*.md`` names in the citing code that exist neither from the
    repo root nor beside the file naming them, with the count checked."""
    failures = []
    n_cited = 0
    for folder in CITING_DIRS:
        for path in sorted((REPO / folder).rglob("*.py")):
            for name in sorted(set(MD_NAME.findall(path.read_text()))):
                n_cited += 1
                if not ((REPO / name).exists() or (path.parent / name).exists()):
                    failures.append(
                        f"{path.relative_to(REPO)} names {name}, which does not exist"
                    )
    return n_cited, failures


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

    n_examples = 0
    serve = _parsers()[1]["serve"]
    for doc in EXAMPLE_DOCS:
        for argv in serve_examples(doc.read_text()):
            n_examples += 1
            error = serve_example_error(serve, argv)
            if error is not None:
                failures.append(
                    f"{doc.relative_to(REPO)} example `repro serve "
                    f"{shlex.join(argv)}` is rejected: {error}"
                )

    paths: set[str] = set()
    names: set[str] = set()
    for doc in REFERENCE_DOCS:
        text = doc.read_text()
        rel = doc.relative_to(REPO)
        for path in sorted({p.rstrip(".") for p in SRC_PATH.findall(text)}):
            paths.add(path)
            if not (REPO / path).exists():
                failures.append(f"{rel} names {path}, which does not exist")
        for name in sorted(set(DOTTED_NAME.findall(text))):
            names.add(name)
            if not resolves(name):
                failures.append(f"{rel} names {name}, which does not resolve")

    n_cited, md_failures = missing_md_citations()
    failures.extend(md_failures)

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
        f"{n_examples} serve examples pass the flag checks, "
        f"{len(passes)} mapping passes documented, "
        f"{len(paths)} source paths and {len(names)} repro names resolve, "
        f"{n_cited} markdown citations in code exist, "
        f"{len(REQUIRED_LINKS)} docs cross-linked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
