"""Check that starting the lexnet CLI loads only what building its parser needs.

    python tests/check_imports.py

Imports ``lexnet.cli`` and builds its parser with ``run([])``, then checks
the modules this added: none may belong to a forbidden standard-library
package, and the lexnet modules must be exactly ``START_MODULES``. Then
imports every other lexnet submodule and checks that the runtime stays
standard-library only: each module this adds is lexnet's own or has a
top-level name in ``sys.stdlib_module_names``. It checks the lexnet the
interpreter finds: the checkout with ``PYTHONPATH=src``, an installed
package without it. Only modules added by the imports count, since what
``site`` loads differs between hosts. Prints where lexnet was found and
exits 0, or names the offending modules and exits 1.
"""

import io
import sys

# dataclasses pulls in inspect, ast and dis; xml.sax.saxutils pulls in
# urllib.request and with it http, email, ssl and socket. Together they
# cost tens of milliseconds at every command's start. hashlib loads
# OpenSSL's _hashlib, 4-7 ms; the seed and config digests use CPython's
# builtin SHA-256 instead (lexnet.seeding), and no command loads hashlib.
# lexnet.parallel imports pickle only when it forks, and uses neither
# multiprocessing nor concurrent.futures, which would cost more again.
# A name stands for the module and everything under it. urllib.parse is
# allowed: pathlib imports it, and it is light.
FORBIDDEN = (
    "dataclasses", "inspect", "xml", "urllib.request", "http", "email", "ssl", "socket",
    "hashlib", "pickle", "multiprocessing", "concurrent",
)

# The lexnet modules start-up loads. Every other one (graph, report,
# config, seeding and the analysis modules) is imported by the command
# that runs it. extraction and fixture load at start-up because the
# benchmark's tracer (perfbench/tracing.py) looks up each traced module
# in sys.modules, also on workloads that never run extract or fixture.
START_MODULES = (
    "lexnet", "lexnet.cli", "lexnet.errors", "lexnet.extraction", "lexnet.files",
    "lexnet.fixture",
)


def _forbidden(name: str) -> bool:
    return any(name == root or name.startswith(root + ".") for root in FORBIDDEN)


def added_modules() -> set[str]:
    """The modules that importing lexnet.cli and building its parser add."""
    before = set(sys.modules)
    import lexnet.cli

    stderr, sys.stderr = sys.stderr, io.StringIO()  # run([]) prints its usage error
    try:
        lexnet.cli.run([])
    finally:
        sys.stderr = stderr
    return set(sys.modules) - before


def third_party_modules() -> list[str]:
    """The modules outside lexnet and the standard library that importing every lexnet module adds."""
    import pkgutil
    from importlib import import_module

    before = set(sys.modules)
    lexnet = import_module("lexnet")
    for module in pkgutil.iter_modules(lexnet.__path__):
        import_module(f"lexnet.{module.name}")
    roots = {name.split(".")[0] for name in set(sys.modules) - before}
    return sorted(roots - {"lexnet"} - sys.stdlib_module_names)


if __name__ == "__main__":
    added = added_modules()
    found = []
    forbidden = sorted(name for name in added if _forbidden(name))
    if forbidden:
        found.append(f"importing lexnet.cli loaded {forbidden}")
    lexnet_modules = sorted(name for name in added if name.split(".")[0] == "lexnet")
    if lexnet_modules != sorted(START_MODULES):
        found.append(f"importing lexnet.cli loaded the lexnet modules {lexnet_modules}, "
                     f"not {list(START_MODULES)}")
    third_party = third_party_modules()
    if third_party:
        found.append(f"importing every lexnet module loaded {third_party}, "
                     "outside the standard library")
    if found:
        sys.exit("\n".join(found))
    print(sys.modules["lexnet"].__file__)
