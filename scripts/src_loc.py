#!/usr/bin/env python3
"""Count the lines and the code lines of each module under src/crpsmix,
then their totals.  A code line holds a token that is neither a comment
nor part of a docstring (the string that opens a module, class or
function body).  With a REV argument, read the modules of that git
revision (`git show`) instead of the working tree.

    python scripts/src_loc.py [REV]
"""

import argparse
import ast
import io
import os
import subprocess
import tokenize
from pathlib import Path

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/crpsmix"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    bodies = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, bodies) and ast.get_docstring(node, clean=False) is not None}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED and not (tok.type == tokenize.STRING
                                            and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def modules(rev=None) -> dict[str, str]:
    """{file name: source} of the package's modules, at `rev` if given."""
    if rev is None:
        folder = os.path.join(REPO, PACKAGE)
        names = sorted(n for n in os.listdir(folder) if n.endswith(".py"))
        return {n: Path(folder, n).read_text(encoding="utf-8") for n in names}
    git = ["git", "-C", REPO]
    listing = subprocess.run([*git, "ls-tree", "--name-only", f"{rev}:{PACKAGE}"],
                             capture_output=True, text=True, check=True).stdout
    return {n: subprocess.run([*git, "show", f"{rev}:{PACKAGE}/{n}"], capture_output=True,
                              text=True, check=True).stdout
            for n in sorted(listing.split()) if n.endswith(".py")}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", nargs="?", help="a git revision (default: the working tree)")
    args = ap.parse_args()

    rows = [(name, *count(source)) for name, source in modules(args.rev).items()]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {sum(r[1] for r in rows):>6} {sum(r[2] for r in rows):>6}")


if __name__ == "__main__":
    main()
