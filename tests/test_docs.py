"""Documentation integrity: links resolve, help states defaults, modules
carry docstrings.

The markdown link check runs over README.md and every file in ``docs/``
(relative links must point at real files, in-page anchors at real headings);
the CLI audit asserts every ``repro <cmd> --help`` epilog states its
defaults; the docstring audit keeps every ``repro`` module documented, and
the export audit keeps every ``__all__`` name resolvable.
These are the tests the CI ``docs-and-examples`` job runs.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DOCS = [_ROOT / "README.md", *sorted((_ROOT / "docs").glob("*.md"))]

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _document_ids():
    return [str(path.relative_to(_ROOT)) for path in _DOCS]


def test_documentation_suite_exists():
    """The docs/ suite the README links to is complete."""
    names = {path.name for path in _DOCS}
    assert {
        "README.md",
        "architecture.md",
        "scenario-pipeline.md",
        "distributed-sweeps.md",
        "observability.md",
        "streaming.md",
        "fleet.md",
        "reproduction.md",
    } <= names


@pytest.mark.parametrize("document", _DOCS, ids=_document_ids())
def test_markdown_links_resolve(document: Path):
    markdown = document.read_text(encoding="utf-8")
    anchors = {_slugify(heading) for heading in _HEADING.findall(markdown)}
    for target in _LINK.findall(markdown):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external: not checked offline
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (document.parent / path_part).resolve()
            assert resolved.exists(), f"{document.name}: broken link → {target}"
            if anchor and resolved.suffix == ".md":
                remote_anchors = {
                    _slugify(heading)
                    for heading in _HEADING.findall(
                        resolved.read_text(encoding="utf-8")
                    )
                }
                assert anchor in remote_anchors, (
                    f"{document.name}: broken anchor → {target}"
                )
        else:
            assert anchor in anchors, f"{document.name}: broken in-page anchor → #{anchor}"


@pytest.mark.parametrize("document", _DOCS, ids=_document_ids())
def test_markdown_fences_are_balanced(document: Path):
    fence_count = document.read_text(encoding="utf-8").count("\n```")
    assert fence_count % 2 == 0, f"{document.name}: unbalanced code fences"


def test_readme_links_the_docs_suite():
    markdown = (_ROOT / "README.md").read_text(encoding="utf-8")
    for name in (
        "docs/architecture.md",
        "docs/scenario-pipeline.md",
        "docs/distributed-sweeps.md",
        "docs/observability.md",
        "docs/streaming.md",
        "docs/fleet.md",
        "docs/reproduction.md",
    ):
        assert name in markdown, f"README does not cross-link {name}"


# --------------------------------------------------------------------------- #
# CLI audit: every subcommand's --help states its defaults
# --------------------------------------------------------------------------- #


def _subcommands() -> dict:
    from repro.cli import build_parser

    parser = build_parser()
    return next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def test_every_subcommand_epilog_states_defaults():
    subparsers_choices = _subcommands()
    assert {"info", "managers", "run", "compare", "fleet", "sweep", "worker",
            "experiments", "diagram", "obs"} <= set(subparsers_choices)
    for name, sub in subparsers_choices.items():
        assert sub.epilog, f"'repro {name}' has no --help epilog"
        assert "default" in sub.epilog.lower(), (
            f"'repro {name}' epilog does not state its defaults"
        )


def test_every_obs_subcommand_epilog_states_defaults():
    """The nested `repro obs <cmd>` parsers are audited like top-level
    subcommands: each --help epilog must state its defaults."""
    obs = _subcommands()["obs"]
    nested = next(
        action for action in obs._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    assert {"report"} == set(nested)
    for name, sub in nested.items():
        assert sub.epilog, f"'repro obs {name}' has no --help epilog"
        assert "default" in sub.epilog.lower(), (
            f"'repro obs {name}' epilog does not state its defaults"
        )


def test_worker_help_documents_the_spool_contract():
    help_text = _subcommands()["worker"].format_help()
    for needle in ("--spool", "--max-idle", "docs/distributed-sweeps.md"):
        assert needle in help_text


# --------------------------------------------------------------------------- #
# module docstring audit
# --------------------------------------------------------------------------- #


def test_every_repro_module_has_a_docstring():
    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_every_all_name_resolves():
    """Every name a ``repro`` module lists in ``__all__`` is an attribute of
    it, so a deleted function cannot linger in a re-export list."""
    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    dangling = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not dangling, f"__all__ names with no attribute: {dangling}"
