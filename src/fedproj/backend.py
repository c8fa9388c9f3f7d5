"""The kernel names, bound in one module.

Callers look kernels up here at call time (``backend.topk_indices(...)``), so
a profiler can wrap a kernel by rebinding its name in this module.
"""

from ._purekern import (
    project_decompose,
    qsgd_encode,
    stream_normals,
    stream_signs,
    stream_subset,
    stream_uniforms,
    topk_indices,
)
