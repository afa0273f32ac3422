"""A301 non-trigger: keys built once through the shared helper."""

from repro.resultcache import make_key


def lookup(result_cache, fingerprint, procs, algo):
    key = make_key(fingerprint, procs, algo, False, False)
    hit = result_cache.get(key)
    if hit is not None:
        return hit
    return None


def store(result_cache, key, value):
    result_cache.put(key, value)


def tuple_elsewhere(points):
    # Literal tuples are fine when the receiver is not a cache.
    points.append((1, 2))
    return points
