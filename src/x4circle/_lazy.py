"""Package attributes loaded from their submodule on first use."""

from importlib import import_module


def lazy_attributes(package: str, table: dict[str, str], namespace: dict):
    """The module ``__getattr__`` and ``__dir__`` of `package`, whose names in
    `table` (name -> submodule) are read off their submodule, importing it if
    need be.  Each lookup reads the name afresh rather than caching it in the
    package namespace, so a function rebound on its submodule is what the
    package hands out."""

    def __getattr__(name):
        if name in table:
            return getattr(import_module(f".{table[name]}", package), name)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__
