"""The benchmark's layer tracer finds every name it wraps and puts each back.

`perfbench/layertrace.py` patches program functions by name, so a rename or
deletion in the program breaks traced benchmark runs; this test runs the
tracer's install and uninstall against the current program.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import layertrace  # noqa: E402


def _namespaces():
    """Every hecke_kit module and every class defined in one."""
    mods = [m for name, m in sorted(sys.modules.items())
            if name.startswith("hecke_kit") and m is not None]
    classes = {id(v): v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("hecke_kit")}
    return mods + list(classes.values())


def test_tracer_install_then_uninstall_restores_the_program():
    spaces = _namespaces()
    before = [dict(vars(ns)) for ns in spaces]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        patched = sum(vars(ns).get(k) is not v
                      for ns, snap in zip(spaces, before) for k, v in snap.items())
        assert patched > 0
    finally:
        tracer.uninstall()
    for ns, snap in zip(spaces, before):
        now = dict(vars(ns))
        assert now.keys() == snap.keys(), ns
        assert [k for k, v in snap.items() if now[k] is not v] == [], ns
