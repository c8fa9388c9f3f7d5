"""fedproj: a desk-scale simulator for communication-compressed federated optimization.

Round-synchronous client/server state machines for eight compressed-gradient
algorithms, the sparsification/quantization operators they rely on, exact
bit-level traffic accounting, and verifiers that check the algorithms'
convergence bounds on analytic objectives.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
