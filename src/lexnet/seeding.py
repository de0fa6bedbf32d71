"""Deterministic seed derivation for independent random streams."""


def derive_seed(base: int, tag: str) -> int:
    """Derive a child seed from a base seed and a stream tag.

    The derivation is a hash, so streams for different tags are
    independent of each other and of the base stream, and the result is
    stable across platforms and Python versions.
    """
    import hashlib  # on first use: only analysis commands derive seeds

    digest = hashlib.sha256(f"{base}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
