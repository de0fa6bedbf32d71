"""Deterministic seed derivation for independent random streams."""

# CPython's builtin SHA-256, as random.py takes its SHA-512: hashlib would
# also load OpenSSL, which costs milliseconds and megabytes at start.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(base: int, tag: str) -> int:
    """Derive a child seed from a base seed and a stream tag.

    The derivation is a hash, so streams for different tags are
    independent of each other and of the base stream, and the result is
    stable across platforms and Python versions.
    """
    digest = sha256(f"{base}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
