#!/usr/bin/env python3
"""Count the lines of qdlab's sources: all of them, and the code lines alone.

A code line holds at least one token that is not a comment, and is not part of a
string that stands as a statement by itself (a docstring).  Blank lines, comment
lines and docstrings are dropped; a line of code that ends in a comment counts.
Tokens come from Python's own tokenize, so strings that hold '#' or span lines
are read as the interpreter reads them.

Usage: python scripts/count_lines.py [DIR]   (default: src/qdlab of this checkout)
Prints one JSON object: {"path": DIR, "files": n, "total": lines, "code": lines}.
"""

import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that never make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> set[int]:
    """Numbers of the lines of path that hold code."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type != tokenize.COMMENT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        # a string that is a whole statement: after a statement boundary, before a NEWLINE
        statement_start = i == 0 or tokens[i - 1].type in _LAYOUT
        if (tok.type == tokenize.STRING and statement_start
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(directory: Path) -> dict:
    files = sorted(directory.glob("*.py"))
    return {"path": str(directory.relative_to(ROOT) if directory.is_relative_to(ROOT)
                        else directory),
            "files": len(files),
            "total": sum(len(p.read_bytes().splitlines()) for p in files),
            "code": sum(len(code_lines(p)) for p in files)}


if __name__ == "__main__":
    target = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src" / "qdlab"
    print(json.dumps(count(target)))
