def erase_same_position(v: "list"):
    it = v.begin()
    jt = v.begin()
    v.erase(jt)
    it.deref()
