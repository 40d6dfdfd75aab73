"""Output checks: every completed operation is verified, none is trusted.

* A noiseless estimate must lie within 5 standard errors of the exact
  value from ``Experiment.run_exact()`` (computed once, in set-up).  The
  standard error is the one the estimator has at the exact value,
  ``sqrt((1 - mu**2) / shots)`` per readout basis, rather than the
  sample's own: at small shot counts every shot of a basis can agree,
  and a sample standard error of 0 would fail a correct estimate.
* A noisy estimate (link or gate noise, GHZ fidelity) has no shot-free
  reference here; it must be finite with each part in [-1, 1].
* Each operation at a fixed seed must reproduce the same bits on every
  repetition: across passes of a run, between a deduplicated service
  repeat and the value first computed for it, between traced and
  untraced phases, and across
  runs with the same seed in one checkout (:class:`DigestBook`).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

SIGMAS = 5.0


def _parts(value) -> tuple[float, float]:
    value = complex(value)
    return value.real, value.imag


class Reference:
    """What one operation's estimate is checked against."""

    def __init__(self, exact=None, shots_re: int = 0, shots_im: int = 0):
        self.exact = exact
        self.shots_re = shots_re
        self.shots_im = shots_im

    @property
    def noisy(self) -> bool:
        return self.exact is None

    def problem(self, estimate) -> str | None:
        """None when ``estimate`` passes, else a one-line reason."""
        try:
            re, im = _parts(estimate)
        except (TypeError, ValueError):
            return f"estimate {estimate!r} is not a number"
        if not (math.isfinite(re) and math.isfinite(im)):
            return f"estimate {estimate!r} is not finite"
        if abs(re) > 1.0 or abs(im) > 1.0:
            return f"estimate {estimate!r} lies outside [-1, 1]"
        if self.noisy:
            return None
        for part, mu, shots in (
            ("re", _parts(self.exact)[0], self.shots_re),
            ("im", _parts(self.exact)[1], self.shots_im),
        ):
            if shots <= 0:
                continue
            got = re if part == "re" else im
            sigma = math.sqrt(max(1.0 - mu * mu, 0.0) / shots)
            if abs(got - mu) > SIGMAS * sigma + 1e-12:
                return (
                    f"{part} {got!r} is {abs(got - mu) / max(sigma, 1e-300):.1f} "
                    f"sigma from the exact {mu!r} ({shots} shots)"
                )
        return None


def reference_for(experiment, noisy: bool) -> Reference:
    """The check of one experiment (exact value computed here, in set-up)."""
    if noisy:
        return Reference()
    shots = experiment.options.shots
    return Reference(
        exact=experiment.run_exact().estimate,
        shots_re=shots // 2,
        shots_im=shots - shots // 2,
    )


def digest(result) -> str:
    """The bits of one outcome: estimate and standard error, exactly."""
    return repr((complex(result.estimate), float(result.stderr)))


class DigestBook:
    """First-seen digest per operation key; later sightings must match.

    With ``path`` set, digests persist across runs in one checkout: the
    file maps ``str(seed)`` to ``{key: digest}``, so a rerun with the
    same seed is held to the bits of the earlier one.
    """

    def __init__(self, seed: int, path: Path | None = None):
        self.path = path
        self.seed = str(seed)
        self._stored: dict = {}
        if path is not None and path.exists():
            try:
                self._stored = json.loads(path.read_text())
            except ValueError:
                self._stored = {}
        self.seen: dict[str, str] = dict(self._stored.get(self.seed, {}))

    def problem(self, key: str, value: str) -> str | None:
        first = self.seen.setdefault(key, value)
        if first != value:
            return f"{value} differs from the earlier {first}"
        return None

    def save(self) -> None:
        if self.path is None:
            return
        self._stored[self.seed] = self.seen
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._stored, sort_keys=True))
        os.replace(tmp, self.path)
