"""Count of the independently settable values in `src/geoseg`.

A settable value is a parameter with a default on a public callable (a
function or method whose name does not start with `_`, in a module and a
class that are public too), or a field of a dataclass that is not
declared `ClassVar`. Each is a knob a caller can turn, so a change that
makes a knob nobody turns into a constant shows up as a smaller total.

Prints one line per value (`module:owner.name`), then `total = N`. Not
collected by pytest; run it as a script:

    python3 tests/settings_count.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geoseg"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    if isinstance(target, ast.Name):
        return target.id == "ClassVar"
    # `from __future__ import annotations` leaves string annotations alone.
    return isinstance(target, ast.Constant) and str(target.value).startswith("ClassVar")


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    positional = args.posonlyargs + args.args
    named = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return named


def _walk(body: list[ast.stmt], owner: str, out: list[str]) -> None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                out += [f"{owner}{node.name}({arg})" for arg in _defaulted(node)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                out += [
                    f"{owner}{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not _is_classvar(stmt.annotation)
                ]
            _walk(node.body, f"{owner}{node.name}.", out)


def settable_values(package: Path = PACKAGE) -> list[str]:
    out: list[str] = []
    for path in sorted(package.glob("*.py")):
        if path.name.startswith("_"):
            continue
        _walk(ast.parse(path.read_text()).body, f"{path.stem}:", out)
    return out


def main() -> None:
    values = settable_values()
    for value in values:
        print(value)
    print(f"total = {len(values)}")


if __name__ == "__main__":
    main()
