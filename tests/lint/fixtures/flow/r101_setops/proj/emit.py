"""Set algebra iterates in hash order just like a set literal does."""

from proj.hashing import hash_of


def union_hash(a, b):
    last = None
    for member in set(a) | set(b):
        last = member
    return hash_of(last)
