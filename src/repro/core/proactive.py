"""Proactive counting (§6).

"For large, mostly-quiescent channels, the cost of periodically polling
all routers can be high. In this case, the network layer can
proactively maintain the count rather than requiring the source to
continually poll it." Receivers and routers push ``Count`` updates
upstream, unsolicited, whenever the local relative error exceeds a
time-decaying *error tolerance curve*.

The paper's curve family (Figure 7) has two parameters beyond the
maximum tolerated error: "τ controls the x-intercept — the maximum
delay until any change is transmitted upstream. α controls the rate of
decay without changing the maximum allowed error tolerance." We
implement the natural reading of the printed formula:

    e(dt) = clamp( -ln(dt / τ) / α ,  0,  e_max )

which is ``e_max``-clamped near dt = 0, decays at a rate set by α, and
crosses zero exactly at dt = τ — so *any* change is pushed upstream at
most τ seconds after it happens, and larger changes are pushed sooner.

The relative error at a node compares the current downstream sum
``c_cur`` with the count last advertised upstream ``c_adv``:

    e_rel = max( |Δ| / c_adv, |Δ| / c_cur )   (Δ = c_cur − c_adv)

with either denominator floored at 1 so a transition to or from zero is
always a full-scale (1.0) error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ProtocolError


@dataclass(frozen=True)
class ToleranceCurve:
    """The error tolerance curve of Figure 7.

    Parameters
    ----------
    e_max:
        Maximum tolerated relative error (the clamp near dt = 0).
    alpha:
        Decay rate; the paper simulates α = 4 (tight tracking) and
        α = 2.5 (≈2/3 the message cost, lags after bursts).
    tau:
        x-intercept: the maximum delay before any nonzero change is
        sent upstream. The paper's simulations use τ = 120.
    """

    e_max: float = 0.3
    alpha: float = 4.0
    tau: float = 120.0

    def __post_init__(self) -> None:
        # ``not x > 0`` refuses NaN too: a NaN curve compares unequal to
        # itself and a signalling one does not survive a wire round trip.
        if not self.e_max > 0:
            raise ProtocolError(f"e_max must be > 0, got {self.e_max}")
        if not self.alpha > 0:
            raise ProtocolError(f"alpha must be > 0, got {self.alpha}")
        if not self.tau > 0:
            raise ProtocolError(f"tau must be > 0, got {self.tau}")

    def tolerance(self, dt: float) -> float:
        """Maximum relative error tolerated ``dt`` seconds after the
        last upstream update. Monotonically non-increasing in ``dt``;
        zero for dt >= τ."""
        if dt <= 0:
            return self.e_max
        if dt >= self.tau:
            return 0.0
        ratio = dt / self.tau
        if ratio <= 0.0:  # subnormal dt underflowed the division
            return self.e_max
        return min(self.e_max, -math.log(ratio) / self.alpha)

    def deadline_for_error(self, error: float) -> float:
        """The dt at which the curve drops to ``error`` — i.e. how long
        a change of this relative size may be withheld. Inverse of
        :meth:`tolerance` on the decaying segment."""
        if error <= 0:
            return self.tau
        if error >= self.e_max:
            # Find where the clamp ends: tolerance(dt) == e_max until
            # dt = tau * exp(-alpha * e_max).
            return self.tau * math.exp(-self.alpha * self.e_max)
        return self.tau * math.exp(-self.alpha * error)


def relative_error(current: int, advertised: int) -> float:
    """The paper's e_rel = max(|Δ|/c_adv, |Δ|/c_cur), denominators
    floored at 1."""
    delta = abs(current - advertised)
    if delta == 0:
        return 0.0
    return max(delta / max(advertised, 1), delta / max(current, 1))


class ProactiveCounter:
    """Per-(node, channel, countId) proactive update state.

    The owner feeds it the current downstream sum via :meth:`observe`
    and asks :meth:`should_send` / :meth:`next_check_delay`; after
    actually sending upstream it calls :meth:`sent`.
    """

    def __init__(self, curve: ToleranceCurve, now: float = 0.0) -> None:
        self.curve = curve
        self.advertised = 0
        self.current = 0
        self.last_sent = now
        self.updates_sent = 0

    def observe(self, current: int) -> None:
        """Record the latest locally-aggregated count."""
        self.current = current

    def error(self) -> float:
        return relative_error(self.current, self.advertised)

    def should_send(self, now: float) -> bool:
        """True when the pending error exceeds the tolerance curve."""
        if self.current == self.advertised:
            return False
        return self.error() > self.curve.tolerance(now - self.last_sent)

    def next_check_delay(self, now: float) -> Optional[float]:
        """How long until the *current* pending error would cross the
        curve, or None if nothing is pending. Callers schedule a
        re-check at this delay (plus epsilon) to bound staleness by τ.
        """
        if self.current == self.advertised:
            return None
        deadline_dt = self.curve.deadline_for_error(self.error())
        elapsed = now - self.last_sent
        return max(deadline_dt - elapsed, 0.0)

    def sent(self, now: float) -> int:
        """Mark the current value as advertised; returns it."""
        self.advertised = self.current
        self.last_sent = now
        self.updates_sent += 1
        return self.advertised
