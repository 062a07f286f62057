"""Code lines of the package, per file and in total.

    python3 tools/code_lines.py

A code line holds a token other than a comment, and is not part of a
docstring (the first statement of a module, class or function body when it
is a string).  The files are src/torusglue/*.py, relative to the repository
root, in sorted order.
"""

import ast
import glob
import io
import os
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main() -> None:
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    total = 0
    for path in sorted(glob.glob("src/torusglue/*.py")):
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        print(f"{path}: {n}")
        total += n
    print(f"{total} code lines")


if __name__ == "__main__":
    main()
