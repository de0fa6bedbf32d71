"""Check that starting the lexnet CLI loads no heavy standard-library module.

    python tests/check_imports.py

Imports ``lexnet.cli`` and builds its parser with ``run([])``, then lists
the modules this added that belong to a forbidden package. It checks the
lexnet the interpreter finds: the checkout with ``PYTHONPATH=src``, an
installed package without it. Only modules added by the import count,
since what ``site`` loads differs between hosts. Prints where lexnet was
found and exits 0, or lists the offending modules and exits 1.
"""

import io
import sys

# dataclasses pulls in inspect, ast and dis; xml.sax.saxutils pulls in
# urllib.request and with it http, email, ssl and socket. Together they
# cost tens of milliseconds at every command's start. hashlib loads
# OpenSSL's _hashlib, about 5 ms, which only the seed and config digests
# need, so they import it at first use. A name stands for the module and
# everything under it. urllib.parse is allowed: pathlib imports it, and
# it is light.
FORBIDDEN = (
    "dataclasses", "inspect", "xml", "urllib.request", "http", "email", "ssl", "socket",
    "hashlib",
)


def _forbidden(name: str) -> bool:
    return any(name == root or name.startswith(root + ".") for root in FORBIDDEN)


def added_forbidden_modules() -> list[str]:
    before = set(sys.modules)
    import lexnet.cli

    stderr, sys.stderr = sys.stderr, io.StringIO()  # run([]) prints its usage error
    try:
        lexnet.cli.run([])
    finally:
        sys.stderr = stderr
    added = set(sys.modules) - before
    return sorted(name for name in added if _forbidden(name))


if __name__ == "__main__":
    offending = added_forbidden_modules()
    if offending:
        sys.exit(f"importing lexnet.cli loaded {offending}")
    print(sys.modules["lexnet"].__file__)
