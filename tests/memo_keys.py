"""The keys a catalog's memo holds at the catalog's own order, as strings."""


def memo_keys(cat) -> set[str]:
    """Every key held at ``cat.order``: a series or polynomial name as it is,
    and a product of powers as name^e*name^e, its factors in key order."""
    return {key if isinstance(key, str) else "*".join(f"{name}^{e}" for name, e in key)
            for key, held in cat._cache.items() if cat.order in held}
