"""The benchmark tracer's patch targets all exist in the package.

``perfbench/tracer.py`` wraps the functions named in its ``TIMED`` and
``COUNTED`` tables, plus ``experiments:_map_paths``, by looking them up at
install time; a deleted or renamed target would crash a traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolves(target):
    module_name, qualname = target.split(":")
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    if "." in qualname:
        # methods are patched in the class's own __dict__, not an inherited one
        cls_name, attr = qualname.split(".")
        return attr in vars(getattr(module, cls_name, object))
    return callable(getattr(module, qualname, None))


def test_every_tracer_target_resolves():
    targets = [t for _, t in tracer.TIMED + tracer.COUNTED] + ["experiments:_map_paths"]
    assert [t for t in targets if not _resolves(t)] == []
