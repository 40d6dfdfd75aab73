"""Overall protocol fidelity estimate (paper Fig 9c, Sec 5.4).

Simulating the full distributed circuit is prohibitive, so the paper lower-
bounds the end-to-end fidelity from its components: one GHZ preparation over
ceil(k/2) parties and k-1 two-party CSWAPs across the two rounds:

    F(n, k) >= (1 - p_GHZ(ceil(k/2))) * (1 - p_CSWAP(n))^(k-1)

with p_GHZ from Sec 5.3 (frame-sampled) and p_CSWAP from Sec 5.2
(blackboxed classical fidelity).  Expected shape: fidelity decreasing in n,
k, and p2q; teledata slightly ahead of telegate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..engine import Engine
from ..sim.noisemodel import NoiseModel
from ..utils.fitting import binomial_stderr
from .blackbox import PrimitiveErrorModel
from .cswap_fidelity import cswap_classical_fidelity
from .ghz_fidelity import sample_ghz_fidelity_frames

__all__ = [
    "OverallFidelityPoint",
    "compose_overall_fidelity",
    "overall_fidelity_curve",
]


@dataclass
class OverallFidelityPoint:
    """One Fig 9c point.  ``stderr`` is the delta-method propagation of
    the terms' binomial errors; a caller-supplied ``cswap_error`` is exact."""

    design: str
    n: int
    k: int
    p: float
    ghz_error: float
    cswap_error: float
    fidelity: float
    ghz_stderr: float = 0.0
    cswap_stderr: float = 0.0
    stderr: float = 0.0


def compose_overall_fidelity(
    design: str,
    n: int,
    k: int,
    p: float,
    *,
    ghz_shots: int = 10_000,
    cswap_shots_per_input: int = 20,
    cswap_max_inputs: int = 60,
    seed: int | None = None,
    model: PrimitiveErrorModel | None = None,
    cswap_error: float | None = None,
    engine: Engine | None = None,
) -> OverallFidelityPoint:
    """Compose the Sec 5.4 lower bound for one (design, n, k, p) setting.

    The implementation behind ``Experiment.overall_fidelity``.  The GHZ
    term is the Fig 9a frames job on ``engine`` (a private serial engine
    when ``None``), and so are the CSWAP term's primitive distributions.
    ``cswap_error`` may be supplied to reuse a previously measured value
    across different k (the bound depends on n and p only through it).
    A custom primitive-error ``model`` is only available here, since the
    spec layer cannot hash it.
    """
    ghz_fidelity, good, _ = sample_ghz_fidelity_frames(
        (k + 1) // 2, NoiseModel.from_base(p), shots=ghz_shots, seed=seed, engine=engine
    )
    ghz_stderr = binomial_stderr(good, ghz_shots)
    cswap_stderr = 0.0
    if cswap_error is None:
        result = cswap_classical_fidelity(
            design,
            n,
            p,
            shots_per_input=cswap_shots_per_input,
            max_inputs=cswap_max_inputs,
            seed=seed,
            model=model,
            engine=engine,
        )
        cswap_error = 1.0 - result.fidelity
        cswap_stderr = result.stderr
    cswap_fidelity = 1.0 - cswap_error
    fidelity = ghz_fidelity * cswap_fidelity ** (k - 1)
    # Delta method: dF/dG = C^(k-1) and dF/dC = (k-1) G C^(k-2).
    stderr = math.hypot(
        cswap_fidelity ** (k - 1) * ghz_stderr,
        (k - 1) * ghz_fidelity * cswap_fidelity ** (k - 2) * cswap_stderr,
    )
    return OverallFidelityPoint(
        design=design,
        n=n,
        k=k,
        p=p,
        ghz_error=1.0 - ghz_fidelity,
        cswap_error=cswap_error,
        fidelity=max(fidelity, 0.0),
        ghz_stderr=ghz_stderr,
        cswap_stderr=cswap_stderr,
        stderr=stderr,
    )


def overall_fidelity_curve(
    design: str,
    ns: list[int],
    k: int,
    p: float,
    **kwargs,
) -> list[OverallFidelityPoint]:
    """Fig 9c: sweep the state width n at fixed k and p."""
    return [compose_overall_fidelity(design, n, k, p, **kwargs) for n in ns]
