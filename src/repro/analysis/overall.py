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

from dataclasses import dataclass

from .blackbox import PrimitiveErrorModel
from .cswap_fidelity import cswap_classical_fidelity
from .ghz_fidelity import ghz_fidelity_frames

__all__ = [
    "OverallFidelityPoint",
    "compose_overall_fidelity",
    "overall_fidelity_estimate",
    "overall_fidelity_curve",
]


@dataclass
class OverallFidelityPoint:
    """One Fig 9c point."""

    design: str
    n: int
    k: int
    p: float
    ghz_error: float
    cswap_error: float
    fidelity: float


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
) -> OverallFidelityPoint:
    """The composition itself — the implementation behind
    ``Experiment.overall_fidelity`` and :func:`overall_fidelity_estimate`.
    """
    ghz_parties = (k + 1) // 2
    ghz_fidelity = ghz_fidelity_frames(ghz_parties, p, shots=ghz_shots, seed=seed)
    ghz_error = 1.0 - ghz_fidelity
    if cswap_error is None:
        result = cswap_classical_fidelity(
            design,
            n,
            p,
            shots_per_input=cswap_shots_per_input,
            max_inputs=cswap_max_inputs,
            seed=seed,
            model=model,
        )
        cswap_error = 1.0 - result.fidelity
    fidelity = (1.0 - ghz_error) * (1.0 - cswap_error) ** (k - 1)
    return OverallFidelityPoint(
        design=design,
        n=n,
        k=k,
        p=p,
        ghz_error=ghz_error,
        cswap_error=cswap_error,
        fidelity=max(fidelity, 0.0),
    )


def overall_fidelity_estimate(
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
) -> OverallFidelityPoint:
    """Compose the Sec 5.4 lower bound for one (design, n, k, p) setting.

    ``cswap_error`` may be supplied to reuse a previously measured value
    across different k (the bound depends on n and p only through it).
    ``Experiment.overall_fidelity`` runs the same composition from a
    declarative spec; a custom primitive-error ``model`` is only available
    here, since the spec layer cannot hash it.
    """
    return compose_overall_fidelity(
        design,
        n,
        k,
        p,
        ghz_shots=ghz_shots,
        cswap_shots_per_input=cswap_shots_per_input,
        cswap_max_inputs=cswap_max_inputs,
        seed=seed,
        model=model,
        cswap_error=cswap_error,
    )


def overall_fidelity_curve(
    design: str,
    ns: list[int],
    k: int,
    p: float,
    **kwargs,
) -> list[OverallFidelityPoint]:
    """Fig 9c: sweep the state width n at fixed k and p."""
    return [overall_fidelity_estimate(design, n, k, p, **kwargs) for n in ns]
