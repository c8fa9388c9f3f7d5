"""Per-layer spans for one in-process `fedproj verify` invocation.

The program is not changed: each public function is wrapped where its caller
looks it up (``fedproj.backend.topk_indices`` for the kernels, the names the
harness and the CLI imported for the layers above), and the originals are put
back afterwards.  Every wrapper records the call count, the busy (inclusive)
seconds and the seconds its wrapped children covered, so a layer's self time
is its busy time minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (layer name, module where the function is looked up, attribute path)
TARGETS = [
    ("kern.topk_indices", "fedproj.backend", "topk_indices"),
    ("kern.stream_normals", "fedproj.backend", "stream_normals"),
    ("kern.stream_subset", "fedproj.backend", "stream_subset"),
    ("kern.qsgd_encode", "fedproj.backend", "qsgd_encode"),
    ("kern.project_decompose", "fedproj.backend", "project_decompose"),
    ("vectors.derive_stream", "fedproj.harness", "derive_stream"),
    ("vectors.derive_stream", "fedproj.objectives", "derive_stream"),
    ("compressors.compress", "fedproj.algorithms", "compress"),
    ("compressors.decode", "fedproj.algorithms", "decode"),
    ("algorithms.client_round", "fedproj.harness", "client_round"),
    ("algorithms.server_round", "fedproj.harness", "server_round"),
    ("algorithms.assert_mirror", "fedproj.harness", "assert_mirror"),
    ("objectives.stochastic_gradient", "fedproj.harness", "stochastic_gradient"),
    ("objectives.loss_grad", "fedproj.objectives", "FederatedObjective.loss"),
    ("objectives.loss_grad", "fedproj.objectives", "FederatedObjective.grad"),
    ("accounting.message_bits", "fedproj.harness", "message_bits"),
    ("accounting.downlink_bits", "fedproj.harness", "downlink_bits"),
    ("harness.build_objective", "fedproj.cli", "build_objective"),
    ("harness.build_objective", "fedproj.harness", "build_objective"),
    ("harness.run", "fedproj.cli", "run"),
    ("harness.locate_optimum", "fedproj.harness", "locate_optimum"),
    ("harness.verify", "fedproj.cli", "verify_theorem1"),
    ("harness.verify", "fedproj.cli", "verify_theorem2"),
    ("harness.verify", "fedproj.cli", "verify_lemma_error_bound"),
    ("harness.write_metrics_csv", "fedproj.cli", "write_metrics_csv"),
]

LAYERS = sorted({name for name, _, _ in TARGETS})

# objectives.loss_grad stands for the metrics rows; the L-BFGS search inside
# locate_optimum also calls FederatedObjective.loss, which it must not count.
_NOT_UNDER = {"objectives.loss_grad": "harness.locate_optimum"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []            # [name, seconds covered by children]
        self._saved = []

    def _wrap(self, name, fn):
        excluded = _NOT_UNDER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if excluded and any(frame[0] == excluded for frame in self._stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_s[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
        return wrapper

    def install(self):
        for name, module, attr in TARGETS:
            *path, leaf = attr.split(".")
            try:
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                print(f"trace: {module}.{attr} not found; {name} is not traced there")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)
