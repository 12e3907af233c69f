"""Hot-path dataclasses declare ``__slots__``.

The event loop allocates many small objects per run (commands, queue
entries, stream records); a dataclass without slots costs a
``__dict__`` per instance and a dict lookup per field access on the
hottest lines of the simulator.  This imports every module of the
controller, DRAM and prefetch packages and checks every dataclass
defined there, nested classes included.
"""

import dataclasses
import importlib
import pkgutil

import repro.controller
import repro.dram
import repro.prefetch

HOT_PACKAGES = (repro.controller, repro.dram, repro.prefetch)


def hot_modules():
    for package in HOT_PACKAGES:
        yield package
        prefix = package.__name__ + "."
        for info in pkgutil.walk_packages(package.__path__, prefix):
            yield importlib.import_module(info.name)


def defined_classes(module):
    """Classes defined in ``module``, nested class bodies included."""
    stack = [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    while stack:
        cls = stack.pop()
        yield cls
        stack.extend(
            obj for obj in vars(cls).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and obj.__qualname__.startswith(cls.__qualname__ + ".")
        )


def test_hot_path_dataclasses_declare_slots():
    checked, missing = 0, []
    for module in hot_modules():
        for cls in defined_classes(module):
            if not dataclasses.is_dataclass(cls):
                continue
            checked += 1
            if "__slots__" not in vars(cls):
                missing.append(f"{module.__name__}.{cls.__qualname__}")
    assert checked, "no dataclass found: is the import walk broken?"
    assert missing == [], f"dataclasses without slots=True: {missing}"
