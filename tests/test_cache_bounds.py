"""Every pnsheaf cache is bounded, and a bounded cache changes no result.

The memo caches (``functools.lru_cache``) each hold at most ``maxsize``
entries, so a long sweep or library session cannot grow them without end.
Each bound is at least four times the most entries one request fills over
seeds 1-3 of every perfbench workload and the golden corpus, so that no such
request evicts; here the golden corpus checks the factor of four, and long
in-process sweeps that do evict check the bounds and the outputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import pathlib
import pkgutil

import pnsheaf
from pnsheaf import cli

from test_golden_cli import CORPUS, _run

LONG_SWEEPS = (
    ["sweep", "codim1", "--n", "2:9", "--r", "1:300", "--format", "json"],
    ["sweep", "split", "--n", "2:6", "--k", "1:4", "--d", "-40:40", "--format", "json"],
)


def cached_functions() -> dict[str, object]:
    """Every function of pnsheaf, private ones too, that has ``cache_info``."""
    found = {}
    for info in pkgutil.iter_modules(pnsheaf.__path__):
        module = importlib.import_module(f"pnsheaf.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def clear_all() -> None:
    for fn in cached_functions().values():
        fn.cache_clear()


def sweep_output(argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(list(argv))
    return out.getvalue()


def test_every_cache_has_a_finite_bound():
    caches = cached_functions()
    assert len(caches) == 7, sorted(caches)
    unbounded = [name for name, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert not unbounded


def test_no_golden_case_fills_a_quarter_of_a_bound(tmp_path: pathlib.Path):
    caches = cached_functions()
    over = []
    for case in CORPUS["cases"]:
        clear_all()
        _run(case["argv"], tmp_path)
        for name, fn in caches.items():
            info = fn.cache_info()
            if 4 * info.currsize > info.maxsize:
                over.append((case["id"], name, info.currsize, info.maxsize))
    clear_all()
    assert not over


def test_long_sweeps_stay_within_bounds_and_evicting_changes_no_output():
    caches = cached_functions()
    clear_all()
    cold = [sweep_output(argv) for argv in LONG_SWEEPS]
    # run again on caches that the other sweep has filled and turned over
    warm = [sweep_output(argv) for argv in reversed(LONG_SWEEPS)][::-1]
    infos = {name: fn.cache_info() for name, fn in caches.items()}
    clear_all()
    assert warm == cold
    assert all(info.currsize <= info.maxsize for info in infos.values()), infos
    evicted = {name for name, info in infos.items() if info.misses > info.maxsize}
    assert {"cohomology._bott", "bundles._normalize_cached"} <= evicted, infos
