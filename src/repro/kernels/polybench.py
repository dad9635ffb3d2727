"""Polybench/C kernel sources, parametric in the FP type.

Each kernel exists in two source forms, mirroring the paper's build
matrix (Section V):

* the *portable* form -- plain scalar C over ``{T}`` arrays.  Compiled
  with ``vectorize_loops=False`` it is the scalar build; with ``True``
  it is the auto-vectorized build.
* the *manual* form -- hand-vectorized with vector types, pointer
  reinterpret casts, broadcast arithmetic and the Xfaux expanding
  dot-product intrinsics (Fig. 5 right).  Manual forms require the
  vectorized dimensions to be multiples of the lane count.

Templates substitute ``{T}`` (scalar keyword), ``{TV}`` (vector
keyword), ``{VF}`` (lane count) and ``{DOTPEX}`` (expanding dot-product
intrinsic).
"""

from __future__ import annotations

from typing import Dict

#: ftype keyword -> (vector keyword, lanes, dotpex intrinsic)
_VECTOR_INFO = {
    "float16": ("float16v", 2, "__dotpex_f16"),
    "float16alt": ("float16altv", 2, "__dotpex_f16alt"),
    "float8": ("float8v", 4, "__dotpex_f8"),
}


def _instantiate(template: str, ftype: str, manual: bool = False) -> str:
    text = template.replace("{T}", ftype)
    if manual:
        tv, vf, dotpex = _VECTOR_INFO[ftype]
        text = (text.replace("{TV}", tv)
                .replace("{VF}", str(vf))
                .replace("{DOTPEX}", dotpex))
    return text


# ----------------------------------------------------------------------
# GEMM: C = beta*C + alpha * A @ B    (i-k-j loop order, stride-1 inner)
# ----------------------------------------------------------------------
GEMM = """
void gemm(int n, {T} alpha, {T} beta, {T} *A, {T} *B, {T} *C) {
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < n; j = j + 1) {
            C[i * n + j] = C[i * n + j] * beta;
        }
        for (int k = 0; k < n; k = k + 1) {
            {T} av = alpha * A[i * n + k];
            for (int j = 0; j < n; j = j + 1) {
                C[i * n + j] = C[i * n + j] + av * B[k * n + j];
            }
        }
    }
}
"""

GEMM_MANUAL = """
void gemm(int n, {T} alpha, {T} beta, {T} *A, {T} *B, {T} *C) {
    int nv = n / {VF};
    {TV} *Bv = ({TV}*)B;
    {TV} *Cv = ({TV}*)C;
    for (int i = 0; i < n; i = i + 1) {
        for (int jv = 0; jv < nv; jv = jv + 1) {
            Cv[i * nv + jv] = Cv[i * nv + jv] * beta;
        }
        for (int k = 0; k < n; k = k + 1) {
            {T} av = alpha * A[i * n + k];
            for (int jv = 0; jv < nv; jv = jv + 1) {
                Cv[i * nv + jv] = Cv[i * nv + jv] + Bv[k * nv + jv] * av;
            }
        }
    }
}
"""

# ----------------------------------------------------------------------
# ATAX: y = A^T (A x)
# ----------------------------------------------------------------------
ATAX = """
void atax(int m, int n, {T} *A, {T} *x, {T} *y, {T} *tmp) {
    for (int j = 0; j < n; j = j + 1) {
        y[j] = ({T})0.0;
    }
    for (int i = 0; i < m; i = i + 1) {
        {T} s = ({T})0.0;
        for (int j = 0; j < n; j = j + 1) {
            s = s + A[i * n + j] * x[j];
        }
        tmp[i] = s;
        for (int j = 0; j < n; j = j + 1) {
            y[j] = y[j] + A[i * n + j] * s;
        }
    }
}
"""

ATAX_MANUAL = """
void atax(int m, int n, {T} *A, {T} *x, {T} *y, {T} *tmp) {
    int nv = n / {VF};
    {TV} *Av = ({TV}*)A;
    {TV} *xv = ({TV}*)x;
    {TV} *yv = ({TV}*)y;
    for (int j = 0; j < n; j = j + 1) {
        y[j] = ({T})0.0;
    }
    for (int i = 0; i < m; i = i + 1) {
        float s = 0.0;
        for (int jv = 0; jv < nv; jv = jv + 1) {
            s = {DOTPEX}(s, Av[i * nv + jv], xv[jv]);
        }
        {T} si = ({T})s;
        tmp[i] = si;
        for (int jv = 0; jv < nv; jv = jv + 1) {
            yv[jv] = yv[jv] + Av[i * nv + jv] * si;
        }
    }
}
"""

# ----------------------------------------------------------------------
# SYRK (triangular): C[i][j] = beta*C + alpha * A A^T, j <= i.
# The triangular inner bound is what creates the paper's noted
# prologue/epilogue overhead for the vectorized build (Section V-B).
# ----------------------------------------------------------------------
SYRK = """
void syrk(int n, int m, {T} alpha, {T} beta, {T} *A, {T} *C) {
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < i + 1; j = j + 1) {
            {T} s = ({T})0.0;
            for (int k = 0; k < m; k = k + 1) {
                s = s + A[i * m + k] * A[j * m + k];
            }
            C[i * n + j] = C[i * n + j] * beta + s * alpha;
        }
    }
}
"""

SYRK_MANUAL = """
void syrk(int n, int m, {T} alpha, {T} beta, {T} *A, {T} *C) {
    int mv = m / {VF};
    {TV} *Av = ({TV}*)A;
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < i + 1; j = j + 1) {
            float s = 0.0;
            for (int k = 0; k < mv; k = k + 1) {
                s = {DOTPEX}(s, Av[i * mv + k], Av[j * mv + k]);
            }
            C[i * n + j] = C[i * n + j] * beta + ({T})s * alpha;
        }
    }
}
"""

# ----------------------------------------------------------------------
# SYR2K (triangular): C = beta*C + alpha*(A B^T + B A^T), j <= i.
# ----------------------------------------------------------------------
SYR2K = """
void syr2k(int n, int m, {T} alpha, {T} beta, {T} *A, {T} *B, {T} *C) {
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < i + 1; j = j + 1) {
            {T} s = ({T})0.0;
            for (int k = 0; k < m; k = k + 1) {
                s = s + A[i * m + k] * B[j * m + k];
                s = s + B[i * m + k] * A[j * m + k];
            }
            C[i * n + j] = C[i * n + j] * beta + s * alpha;
        }
    }
}
"""

SYR2K_MANUAL = """
void syr2k(int n, int m, {T} alpha, {T} beta, {T} *A, {T} *B, {T} *C) {
    int mv = m / {VF};
    {TV} *Av = ({TV}*)A;
    {TV} *Bv = ({TV}*)B;
    for (int i = 0; i < n; i = i + 1) {
        for (int j = 0; j < i + 1; j = j + 1) {
            float s = 0.0;
            for (int k = 0; k < mv; k = k + 1) {
                s = {DOTPEX}(s, Av[i * mv + k], Bv[j * mv + k]);
                s = {DOTPEX}(s, Bv[i * mv + k], Av[j * mv + k]);
            }
            C[i * n + j] = C[i * n + j] * beta + ({T})s * alpha;
        }
    }
}
"""

# ----------------------------------------------------------------------
# FDTD-2D: the Polybench electromagnetic stencil.
# ----------------------------------------------------------------------
FDTD2D = """
void fdtd2d(int t_max, int nx, int ny, {T} *ex, {T} *ey, {T} *hz, {T} *fict) {
    for (int t = 0; t < t_max; t = t + 1) {
        for (int j = 0; j < ny; j = j + 1) {
            ey[j] = fict[t];
        }
        for (int i = 1; i < nx; i = i + 1) {
            for (int j = 0; j < ny; j = j + 1) {
                ey[i * ny + j] = ey[i * ny + j]
                    - (hz[i * ny + j] - hz[i * ny - ny + j]) * ({T})0.5;
            }
        }
        for (int i = 0; i < nx; i = i + 1) {
            for (int j = 1; j < ny; j = j + 1) {
                ex[i * ny + j] = ex[i * ny + j]
                    - (hz[i * ny + j] - hz[i * ny + j - 1]) * ({T})0.5;
            }
        }
        for (int i = 0; i < nx - 1; i = i + 1) {
            for (int j = 0; j < ny - 1; j = j + 1) {
                hz[i * ny + j] = hz[i * ny + j]
                    - (ex[i * ny + j + 1] - ex[i * ny + j]
                       + ey[i * ny + ny + j] - ey[i * ny + j]) * ({T})0.7;
            }
        }
    }
}
"""

FDTD2D_MANUAL = """
void fdtd2d(int t_max, int nx, int ny, {T} *ex, {T} *ey, {T} *hz, {T} *fict) {
    int nyv = ny / {VF};
    {TV} *exv = ({TV}*)ex;
    {TV} *eyv = ({TV}*)ey;
    {TV} *hzv = ({TV}*)hz;
    {TV} *hzm1 = ({TV}*)(hz - 1);
    {TV} *hzmny = ({TV}*)(hz - ny);
    {TV} *exp1 = ({TV}*)(ex + 1);
    {TV} *eypny = ({TV}*)(ey + ny);
    for (int t = 0; t < t_max; t = t + 1) {
        {T} f = fict[t];
        for (int j = 0; j < ny; j = j + 1) {
            ey[j] = f;
        }
        for (int i = 1; i < nx; i = i + 1) {
            for (int jv = 0; jv < nyv; jv = jv + 1) {
                eyv[i * nyv + jv] = eyv[i * nyv + jv]
                    - (hzv[i * nyv + jv] - hzmny[i * nyv + jv]) * ({T})0.5;
            }
        }
        for (int i = 0; i < nx; i = i + 1) {
            for (int j = 1; j < {VF}; j = j + 1) {
                ex[i * ny + j] = ex[i * ny + j]
                    - (hz[i * ny + j] - hz[i * ny + j - 1]) * ({T})0.5;
            }
            for (int jv = 1; jv < nyv; jv = jv + 1) {
                exv[i * nyv + jv] = exv[i * nyv + jv]
                    - (hzv[i * nyv + jv] - hzm1[i * nyv + jv]) * ({T})0.5;
            }
        }
        for (int i = 0; i < nx - 1; i = i + 1) {
            for (int jv = 0; jv < nyv - 1; jv = jv + 1) {
                hzv[i * nyv + jv] = hzv[i * nyv + jv]
                    - (exp1[i * nyv + jv] - exv[i * nyv + jv]
                       + eypny[i * nyv + jv] - eyv[i * nyv + jv]) * ({T})0.7;
            }
            for (int j = ny - {VF}; j < ny - 1; j = j + 1) {
                hz[i * ny + j] = hz[i * ny + j]
                    - (ex[i * ny + j + 1] - ex[i * ny + j]
                       + ey[i * ny + ny + j] - ey[i * ny + j]) * ({T})0.7;
            }
        }
    }
}
"""

_SCALAR_TEMPLATES: Dict[str, str] = {
    "gemm": GEMM,
    "atax": ATAX,
    "syrk": SYRK,
    "syr2k": SYR2K,
    "fdtd2d": FDTD2D,
}

_MANUAL_TEMPLATES: Dict[str, str] = {
    "gemm": GEMM_MANUAL,
    "atax": ATAX_MANUAL,
    "syrk": SYRK_MANUAL,
    "syr2k": SYR2K_MANUAL,
    "fdtd2d": FDTD2D_MANUAL,
}


def source(kernel: str, ftype: str) -> str:
    """Portable (scalar / auto-vectorizable) source for a kernel."""
    return _instantiate(_SCALAR_TEMPLATES[kernel], ftype)


def manual_source(kernel: str, ftype: str) -> str:
    """Hand-vectorized source (smallFloat types only)."""
    if ftype not in _VECTOR_INFO:
        raise ValueError(f"no manual vectorization for {ftype!r}")
    return _instantiate(_MANUAL_TEMPLATES[kernel], ftype, manual=True)
