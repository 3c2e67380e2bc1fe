"""Same sink as the other R101 fixtures."""


def hash_of(parts):
    return len(str(parts))
