"""``import pnsheaf.cli`` compiles no source.

Every CLI run pays the import first, and no bytecode cache keeps what a
module compiles at import time (an ``exec`` or ``eval`` of generated source).
The check imports ``pnsheaf.cli`` in a fresh ``python -I`` with a
``sys.addaudithook`` hook and collects every ``compile`` audit event whose
calling frame belongs to a ``pnsheaf`` module.  The calling frame, not the
filename, decides: the import system compiles ``.py`` files of a cold
checkout from its own frames, and ``_decimal`` builds a ``namedtuple`` from
source in ``collections``.  A ``compile`` from the check's own frame after
the import proves that the hook sees the event at all.

Run as a script, ``PYTHONPATH=src python tests/test_import_audit.py`` makes
the same check with the standard library only.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
CHILD = """
import sys
sys.path.insert(0, {src!r})
seen = []

def hook(event, args):
    if event == "compile":
        module = sys._getframe(1).f_globals.get("__name__") or ""
        if module == "__main__" or module.partition(".")[0] == "pnsheaf":
            seen.append((module, str(args[1])))

sys.addaudithook(hook)
import pnsheaf.cli
compile("0", "<probe>", "eval")
print(repr(seen))
"""


def compiles_at_import() -> list[tuple[str, str]]:
    """(module, filename) of each compile a pnsheaf frame makes in `import pnsheaf.cli`."""
    done = subprocess.run([sys.executable, "-I", "-c", CHILD.format(src=str(SRC))],
                          capture_output=True, text=True, check=True)
    seen = ast.literal_eval(done.stdout.splitlines()[-1])
    assert seen[-1] == ("__main__", "<probe>"), f"the audit hook missed the probe: {seen}"
    return seen[:-1]


def test_import_compiles_no_source():
    assert compiles_at_import() == []


if __name__ == "__main__":
    found = compiles_at_import()
    for module, filename in found:
        print(f"{module} compiled {filename}")
    print(f"Python {sys.version.split()[0]}: {len(found)} compiles by pnsheaf at import")
    sys.exit(1 if found else 0)
