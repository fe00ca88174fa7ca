"""spotplan: cost-optimal Spot/On-Demand cluster planning for deep learning.

Importing the package loads none of its modules (PEP 562).  The public names
are those in the ``__all__`` of the five library modules below; a name is
looked up in them in that order, on first access, and each module imports
only modules before it, so finding a name loads no module that its own
module would not load anyway.  Reading ``spotplan.__all__`` loads all five.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"
_MODULES = ("scaling", "catalog", "saturation", "planner", "simulator")


def __getattr__(name):
    if name == "__all__":
        globals()[name] = value = [n for m in _MODULES for n in _import_module(f".{m}", __name__).__all__]
        return value
    # Private names and submodules load nothing, so hasattr() probes and
    # ``from spotplan import scaling`` stay cheap.
    if not name.startswith("_") and name not in (*_MODULES, "cli"):
        for m in _MODULES:
            module = _import_module(f".{m}", __name__)
            if name in module.__all__:
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
