# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel lane: matrix products and minors.

`mat_mul`, `det` and `compound` compute what `Matrix.__matmul__`, `det` and
`compound` in `matrices` compute, on packed matrices, restricted to moduli
q <= MAX_Q so that every product of two reduced coefficients fits in a
64-bit signed integer (q < 2^31 gives products < 2^62, and one
accumulation step stays < 2^63).  A minor of order up to 4 is a cofactor
expansion; a larger one is the sign-adjusted constant term of the Berkowitz
characteristic polynomial.  Entries are `a` coefficients per matrix cell,
row-major and flattened.
"""
from cpython cimport array
import array as _array

MAX_Q = (1 << 31) - 1

cdef array.array _LL_TEMPLATE = _array.array('q', [])


cdef inline array.array _zeros(Py_ssize_t n):
    return array.clone(_LL_TEMPLATE, n, zero=True)


cdef array.array _from_list(seq):
    return _array.array('q', seq)


cdef inline long long _mod(long long x, long long q) nogil:
    x %= q
    if x < 0:
        x += q
    return x


cdef inline bint _is_zero(const long long* u, int a) nogil:
    cdef int i
    for i in range(a):
        if u[i] != 0:
            return 0
    return 1


cdef void _mul_into(long long* dst, const long long* u, const long long* v,
                    const long long* fred, long long* tmp, int a, long long q) nogil:
    # schoolbook product into tmp[0 .. 2a-2], then fold x^a = -fred
    cdef int i, j, k
    cdef long long c
    if a == 1:
        dst[0] = (u[0] * v[0]) % q
        return
    for i in range(2 * a - 1):
        tmp[i] = 0
    for i in range(a):
        c = u[i]
        if c != 0:
            for j in range(a):
                tmp[i + j] = (tmp[i + j] + c * v[j]) % q
    for k in range(2 * a - 2, a - 1, -1):
        c = tmp[k]
        if c != 0:
            for i in range(a):
                tmp[k - a + i] = _mod(tmp[k - a + i] - c * fred[i], q)
    for i in range(a):
        dst[i] = tmp[i]


cdef inline void _add_into(long long* dst, const long long* u, const long long* v,
                           int a, long long q) nogil:
    cdef int i
    for i in range(a):
        dst[i] = (u[i] + v[i]) % q


cdef inline void _sub_into(long long* dst, const long long* u, const long long* v,
                           int a, long long q) nogil:
    cdef int i
    for i in range(a):
        dst[i] = _mod(u[i] - v[i], q)


cdef inline void _neg_into(long long* dst, const long long* u, int a, long long q) nogil:
    cdef int i
    for i in range(a):
        dst[i] = _mod(-u[i], q)


cdef inline void _copy(long long* dst, const long long* u, int a) nogil:
    cdef int i
    for i in range(a):
        dst[i] = u[i]


# ---------------------------------------------------------------------------


def mat_mul(A, B, Py_ssize_t n, Py_ssize_t k, Py_ssize_t m, int a, fred, long long q):
    cdef array.array ca = _from_list(A), cb = _from_list(B), cf = _from_list(fred)
    cdef array.array out = _zeros(n * m * a)
    cdef array.array tmp = _zeros(2 * a), acc = _zeros(a), prod = _zeros(a)
    cdef long long* pa = ca.data.as_longlongs
    cdef long long* pb = cb.data.as_longlongs
    cdef long long* pf = cf.data.as_longlongs
    cdef long long* po = out.data.as_longlongs
    cdef long long* pt = tmp.data.as_longlongs
    cdef long long* pacc = acc.data.as_longlongs
    cdef long long* pprod = prod.data.as_longlongs
    cdef Py_ssize_t i, j, l
    with nogil:
        for i in range(n):
            for j in range(m):
                for l in range(a):
                    pacc[l] = 0
                for l in range(k):
                    if not _is_zero(pa + (i * k + l) * a, a):
                        _mul_into(pprod, pa + (i * k + l) * a, pb + (l * m + j) * a,
                                  pf, pt, a, q)
                        _add_into(pacc, pacc, pprod, a, q)
                _copy(po + (i * m + j) * a, pacc, a)
    return list(out)


cdef void _berkowitz_core(const long long* M, Py_ssize_t n, int a,
                          const long long* fred, long long q,
                          long long* vec, long long* scratch) nogil:
    # vec: (n+1)*a slots, filled with DESCENDING charpoly coefficients.
    # scratch: (n+1)*a (t) + n*a (w) + (n+1)*a (nw, doubles as newvec) + a + a + 2a
    cdef long long* t = scratch
    cdef long long* w = t + (n + 1) * a
    cdef long long* nw = w + n * a
    cdef long long* dot = nw + (n + 1) * a
    cdef long long* prod = dot + a
    cdef long long* tmp = prod + a
    cdef Py_ssize_t k0, s, j, idx, i, l, j2, i2
    cdef Py_ssize_t vlen
    cdef int c
    # vec = [1, -M[n-1][n-1]]
    for c in range(a):
        vec[c] = 0
        vec[a + c] = 0
    vec[0] = 1 % q
    _neg_into(vec + a, M + ((n - 1) * n + (n - 1)) * a, a, q)
    vlen = 2
    for k0 in range(n - 2, -1, -1):
        s = n - k0
        # Toeplitz column t[0..s]
        for c in range(a):
            t[c] = 0
        t[0] = 1 % q
        _neg_into(t + a, M + (k0 * n + k0) * a, a, q)
        for i in range(s - 1):
            _copy(w + i * a, M + ((k0 + 1 + i) * n + k0) * a, a)
        for j in range(s - 1):
            for c in range(a):
                dot[c] = 0
            for idx in range(s - 1):
                if not _is_zero(M + (k0 * n + (k0 + 1 + idx)) * a, a) and \
                   not _is_zero(w + idx * a, a):
                    _mul_into(prod, M + (k0 * n + (k0 + 1 + idx)) * a, w + idx * a,
                              fred, tmp, a, q)
                    _add_into(dot, dot, prod, a, q)
            _neg_into(t + (j + 2) * a, dot, a, q)
            if j < s - 2:
                for i in range(s - 1):
                    for c in range(a):
                        nw[i * a + c] = 0
                    for l in range(s - 1):
                        if not _is_zero(M + ((k0 + 1 + i) * n + (k0 + 1 + l)) * a, a) and \
                           not _is_zero(w + l * a, a):
                            _mul_into(prod, M + ((k0 + 1 + i) * n + (k0 + 1 + l)) * a,
                                      w + l * a, fred, tmp, a, q)
                            _add_into(nw + i * a, nw + i * a, prod, a, q)
                for i in range((s - 1) * a):
                    w[i] = nw[i]
        # newvec[i2] = sum_j t[i2-j] vec[j]; build in nw (reused, size (n+1)*a fits)
        for i2 in range((s + 1) * a):
            nw[i2] = 0
        for j2 in range(vlen):
            if not _is_zero(vec + j2 * a, a):
                for i2 in range(j2, s + 1):
                    if not _is_zero(t + (i2 - j2) * a, a):
                        _mul_into(prod, t + (i2 - j2) * a, vec + j2 * a, fred, tmp, a, q)
                        _add_into(nw + i2 * a, nw + i2 * a, prod, a, q)
        for i2 in range((s + 1) * a):
            vec[i2] = nw[i2]
        vlen = s + 1


cdef void _det_cof(const long long* M, Py_ssize_t stride, int* rows, int* cols,
                   int nidx, const long long* fred, long long q, int a,
                   long long* dst, long long* tmp, long long* prod) nogil:
    cdef int sub[32]
    cdef int i, idx, c
    cdef long long* minor
    if nidx == 1:
        _copy(dst, M + (rows[0] * stride + cols[0]) * a, a)
        return
    for c in range(a):
        dst[c] = 0
    minor = prod + a  # each recursion level uses prod[0:a], minor deeper
    for idx in range(nidx):
        if _is_zero(M + (rows[idx] * stride + cols[0]) * a, a):
            continue
        c = 0
        for i in range(nidx):
            if i != idx:
                sub[c] = rows[i]
                c += 1
        _det_cof(M, stride, sub, cols + 1, nidx - 1, fred, q, a,
                 minor, tmp, minor + a)
        _mul_into(prod, M + (rows[idx] * stride + cols[0]) * a, minor, fred, tmp, a, q)
        if idx % 2 == 0:
            _add_into(dst, dst, prod, a, q)
        else:
            _sub_into(dst, dst, prod, a, q)


cdef list _det_dispatch(A, Py_ssize_t stride, rows, cols, int a, fred, long long q):
    # det(A[rows, cols]): cofactor expansion up to order 4, else the
    # sign-adjusted constant term of the Berkowitz charpoly
    cdef int d = len(rows)
    cdef array.array ca, cf, dst, tmp, prod, sub, scr, vec
    cdef int ri[32]
    cdef int ci[32]
    cdef int i, j, k
    ca = _from_list(A)
    cf = _from_list(fred)
    if d <= 4:
        dst = _zeros(a)
        tmp = _zeros(2 * a)
        prod = _zeros(8 * a)  # per-level product/minor buffers, depth <= 4
        for i in range(d):
            ri[i] = rows[i]
            ci[i] = cols[i]
        _det_cof(ca.data.as_longlongs, stride, ri, ci, d, cf.data.as_longlongs,
                 q, a, dst.data.as_longlongs, tmp.data.as_longlongs,
                 prod.data.as_longlongs)
        return list(dst)
    # pack the submatrix
    sub = _zeros(d * d * a)
    for i in range(d):
        for j in range(d):
            for k in range(a):
                sub.data.as_longlongs[(i * d + j) * a + k] = \
                    ca.data.as_longlongs[(rows[i] * stride + cols[j]) * a + k]
    vec = _zeros((d + 1) * a)
    scr = _zeros((3 * d + 2) * a + 4 * a)
    _berkowitz_core(sub.data.as_longlongs, d, a, cf.data.as_longlongs, q,
                    vec.data.as_longlongs, scr.data.as_longlongs)
    # det = (-1)^d * c_0; descending order puts c_0 at slot d
    out = list(vec[d * a:(d + 1) * a])
    if d % 2 == 1:
        out = [(-x) % q for x in out]
    return out


def det(A, Py_ssize_t n, int a, fred, long long q):
    cdef list idx = list(range(n))
    return _det_dispatch(A, n, idx, idx, a, fred, q)


def compound(A, Py_ssize_t n, int d, subsets, int a, fred, long long q):
    out = []
    for S in subsets:
        for T in subsets:
            out.extend(_det_dispatch(A, n, S, T, a, fred, q))
    return out
