#!/usr/bin/env python3
"""Doc hygiene checks for README.md, ROADMAP.md, and docs/.

Four checks, all cheap enough to run on every push:

1.  Relative markdown links resolve: the target file exists, and when
    the link carries a #fragment, a heading in the target generates
    that anchor (GitHub slug rules: lowercase, punctuation stripped,
    spaces to hyphens, -N suffixes for duplicates).  External links
    (http/https/mailto) are not fetched — CI must not depend on the
    internet being up.

2.  No flag drift: every `--flag` named in the docs exists somewhere a
    user could actually pass it — the harness::Options parser
    (src/harness/options.cpp), a bench extra consumed via
    opt.flag()/opt.value() in bench/*.cpp, or an argparse option in
    bench/*.py.  Docs describing a flag the parsers no longer accept
    is exactly the rot this catches.

3.  No dangling doc citations: every `*.md` a source file under src/,
    bench/, tests/ or examples/ names (in a .cpp, .hpp or .py) exists,
    relative to the citing file or to the repo root.

4.  No names of code that does not exist: outside fenced code blocks in
    README.md and docs/*.md (ROADMAP.md names planned code, so it is
    left out), every backticked qualified name (`a::b`) has each of its
    parts occur as an identifier somewhere in src/, bench/, tests/,
    examples/, tools/, .github/ or CMakeLists.txt; `std::` names are
    exempt.  A backticked span that is one bare identifier (optionally
    followed by a call's parentheses) with an underscore or a
    lowercase-to-uppercase change in it must occur likewise, or be a
    file's stem there, so binary names pass.  Deleted code keeps living
    in prose otherwise.

Stdlib only; exits non-zero with one line per problem.
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = ["README.md", "ROADMAP.md"] + sorted(
    os.path.relpath(p, ROOT) for p in glob.glob(os.path.join(ROOT, "docs", "*.md"))
)

# Flags legitimately documented but owned by external tools (none today;
# add e.g. ctest's --output-on-failure here if the docs ever name it).
EXTERNAL_FLAGS = set()

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^(```|~~~)")
DOC_FLAG_RE = re.compile(r"`(--[a-z][a-z0-9-]*)")
CPP_FLAG_RE = re.compile(r'"(--[a-z][a-z0-9-]*)"')
EXTRA_RE = re.compile(r'opt\.(?:flag|value)\("([a-z][a-z0-9-]*)"\)')
PY_FLAG_RE = re.compile(r'add_argument\(\s*"(--[a-z][a-z0-9-]*)"')
MD_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")

SOURCE_DIRS = ("src", "bench", "tests", "examples")
SOURCE_EXTS = (".cpp", ".hpp", ".py")

CODE_DIRS = SOURCE_DIRS + ("tools", ".github")
NAME_DOC_FILES = [p for p in DOC_FILES if p != "ROADMAP.md"]
SPAN_RE = re.compile(r"`([^`]+)`")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
QUALIFIED_RE = re.compile(r"[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+")
BARE_RE = re.compile(r"([A-Za-z_]\w*)(?:\(.*\))?")
CAMEL_RE = re.compile(r"[a-z][A-Z]")


def github_slug(heading):
    text = re.sub(r"[`*_]", "", heading.strip())
    text = text.lower()
    text = re.sub(r"[^a-z0-9 \-]", "", text)
    return text.replace(" ", "-")


def anchors_of(path):
    """All anchors the file's headings generate, with -N dedup suffixes."""
    anchors = set()
    counts = {}
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if not m:
                continue
            slug = github_slug(m.group(2))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_links(relpath, errors):
    path = os.path.join(ROOT, relpath)
    base = os.path.dirname(path)
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                    continue
                file_part, _, anchor = target.partition("#")
                dest = path if not file_part else os.path.normpath(
                    os.path.join(base, file_part))
                if not os.path.isfile(dest):
                    errors.append(
                        f"{relpath}:{lineno}: broken link: {target}")
                    continue
                if anchor and dest.endswith(".md") and \
                        anchor not in anchors_of(dest):
                    errors.append(
                        f"{relpath}:{lineno}: missing anchor: {target}")


def known_flags():
    flags = set(EXTERNAL_FLAGS)
    with open(os.path.join(ROOT, "src/harness/options.cpp"),
              encoding="utf-8") as f:
        flags.update(CPP_FLAG_RE.findall(f.read()))
    for pattern in ("bench/*.cpp", "bench/*.py"):
        for p in glob.glob(os.path.join(ROOT, pattern)):
            with open(p, encoding="utf-8") as f:
                src = f.read()
            flags.update("--" + x for x in EXTRA_RE.findall(src))
            flags.update(PY_FLAG_RE.findall(src))
    return flags


def check_flags(relpath, known, errors):
    with open(os.path.join(ROOT, relpath), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for flag in DOC_FLAG_RE.findall(line):
                if flag not in known:
                    errors.append(
                        f"{relpath}:{lineno}: documented flag {flag} not "
                        f"accepted by any parser")


def check_cited_docs(errors):
    for top in SOURCE_DIRS:
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if not path.endswith(SOURCE_EXTS):
                continue
            here = os.path.dirname(path)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for cited in MD_NAME_RE.findall(line):
                        if not any(os.path.isfile(os.path.join(base, cited))
                                   for base in (here, ROOT)):
                            errors.append(
                                f"{os.path.relpath(path, ROOT)}:{lineno}: "
                                f"cites missing doc {cited}")


def code_names():
    """Every identifier in the code, and every code file's stem."""
    idents, stems = set(), set()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in CODE_DIRS:
        paths += [p for p in glob.glob(os.path.join(ROOT, top, "**", "*"),
                                       recursive=True) if os.path.isfile(p)]
    for path in paths:
        stems.add(os.path.splitext(os.path.basename(path))[0])
        try:
            with open(path, encoding="utf-8") as f:
                idents.update(IDENT_RE.findall(f.read()))
        except UnicodeDecodeError:
            pass  # binary artifacts name nothing
    return idents, stems


def check_code_names(relpath, idents, stems, errors):
    in_fence = False
    with open(os.path.join(ROOT, relpath), encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for span in SPAN_RE.findall(line):
                for name in QUALIFIED_RE.findall(span):
                    parts = name.replace("~", "").split("::")
                    if parts[0] != "std" and \
                            not all(p in idents for p in parts):
                        errors.append(f"{relpath}:{lineno}: names missing "
                                      f"code {name}")
                m = BARE_RE.fullmatch(span.strip())
                if not m:
                    continue
                name = m.group(1)
                if ("_" in name or CAMEL_RE.search(name)) and \
                        name not in idents and name not in stems:
                    errors.append(
                        f"{relpath}:{lineno}: names missing code {name}")


def main():
    errors = []
    for relpath in DOC_FILES:
        if not os.path.isfile(os.path.join(ROOT, relpath)):
            errors.append(f"{relpath}: expected doc file is missing")
    known = known_flags()
    for relpath in DOC_FILES:
        if os.path.isfile(os.path.join(ROOT, relpath)):
            check_links(relpath, errors)
            check_flags(relpath, known, errors)
    check_cited_docs(errors)
    idents, stems = code_names()
    for relpath in NAME_DOC_FILES:
        if os.path.isfile(os.path.join(ROOT, relpath)):
            check_code_names(relpath, idents, stems, errors)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(DOC_FILES)} files clean "
          f"({len(known)} known flags)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
