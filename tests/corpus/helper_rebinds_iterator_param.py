def rebind(v: "vector", it):
    v.erase(it)
    it = v.begin()


def caller(v: "vector"):
    it = v.begin()
    rebind(v, it)
    it.deref()
