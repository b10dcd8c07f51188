"""Bounded model checking — the reproduction's replacement for CBMC.

The paper uses CBMC both to generate failing executions ("in case there are
no available tests, we use bounded model checking to systematically explore
program executions and look for potential assertion violations", Section
4.1) and to validate candidate repairs (Algorithm 2 re-checks the patched
program).  :class:`BoundedModelChecker` provides both capabilities: it
unrolls the whole program up to a loop/recursion bound, encodes every path
bit-precisely, and asks the SAT solver for an input that violates some
assertion.
"""

from repro.bmc.checker import BoundedModelChecker, Counterexample
from repro.bmc.compiled import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactFormatError,
    CompiledProgram,
    artifact_key,
    dumps_artifact,
    loads_artifact,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactFormatError",
    "BoundedModelChecker",
    "CompiledProgram",
    "Counterexample",
    "artifact_key",
    "dumps_artifact",
    "loads_artifact",
]
