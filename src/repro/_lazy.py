"""PEP 562 lazy namespaces: a package's public names, imported from
their submodules on first read."""

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple


def lazy_namespace(
    package: str,
    table: Mapping[str, Tuple[str, ...]],
    aliases: Optional[Mapping[str, str]] = None,
) -> Tuple[Dict[str, str], List[str], Callable[[str], Any],
           Callable[[], List[str]]]:
    """``(home, __all__, __getattr__, __dir__)`` for ``package``.

    ``table`` lists every public name by the submodule that defines it;
    ``home`` inverts it.  ``aliases`` maps a public name to the
    submodule attribute it renames.  ``__getattr__`` imports a name's
    submodule on first access, then caches the name on the package so
    later reads are plain attribute lookups.
    """
    home = {name: module for module, names in table.items() for name in names}
    public = sorted(home)
    renamed = dict(aliases or {})

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(
            import_module(f".{module}", package), renamed.get(name, name)
        )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return home, public, __getattr__, __dir__
