"""Which functions of ``repro`` differ in bytecode between two checkouts.

Imports every module of ``repro`` from each ``src/`` in its own interpreter,
fingerprints every function and method defined there (nested code objects
included) by its bytecode, its constants other than the docstring and the
names it uses, and prints the functions only one side has and those whose
fingerprints differ.  Docstrings and line numbers do not count:

    python3 docs/perf/pr47/bytecode_diff.py PARENT_SRC CHANGE_SRC
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys
import types


def fingerprints(src: str) -> dict:
    sys.path.insert(0, src)
    import repro

    out: dict = {}

    def walk(code: types.CodeType, name: str) -> None:
        consts = [c for c in code.co_consts if not isinstance(c, types.CodeType)]
        if consts and isinstance(consts[0], str) and code.co_consts[0] is consts[0]:
            consts = consts[1:]  # the docstring
        out[name] = [code.co_code.hex(), repr(consts), list(code.co_names)]
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, f"{name}.{const.co_name}")

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for key, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    if isinstance(member, types.FunctionType):
                        walk(member.__code__, f"{info.name}.{key}.{attr}")
            elif isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                walk(value.__code__, f"{info.name}.{key}")
    return out


def main(argv: "list[str]") -> None:
    if argv[0] == "--dump":
        print(json.dumps(fingerprints(argv[1])))
        return
    parent, change = (
        json.loads(subprocess.run([sys.executable, __file__, "--dump", src], capture_output=True, text=True, check=True).stdout)
        for src in argv
    )
    print("only in parent:", sorted(set(parent) - set(change)))
    print("only in change:", sorted(set(change) - set(parent)))
    print("bytecode differs:", sorted(name for name in set(parent) & set(change) if parent[name] != change[name]))


if __name__ == "__main__":
    main(sys.argv[1:])
