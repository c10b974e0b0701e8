"""Assembly of the call-processing application into runnable systems."""

from __future__ import annotations

from dataclasses import dataclass

from ..closing import ClosedProgram, ClosingSpec, close_program
from ..runtime import System, SystemConfig
from .source import generate_source


@dataclass
class CallProcessingApp:
    """The open application plus everything needed to close and run it."""

    n_lines: int
    calls_per_line: int
    seed_deadlock: bool
    seed_billing_bug: bool
    source: str
    spec: ClosingSpec

    #: Process families instantiated by :meth:`make_system` (for reports).
    SERVER_PROCESSES = ("term", "billing", "registration")

    def close(self) -> ClosedProgram:
        """Run the paper's transformation over the whole application."""
        return close_program(self.source, self.spec)

    def make_system(
        self,
        closed: ClosedProgram | None = None,
        with_mobility: bool = True,
        with_maintenance: bool = True,
        with_forwarding: bool = False,
        config: SystemConfig | None = None,
    ) -> System:
        """Build the closed, runnable multi-process system.

        When ``closed`` is omitted the app is closed on the fly.  The
        returned system contains, for ``n_lines = N``:

        * N line handlers and N terminating handlers,
        * the billing daemon and (optionally) registration server, two
          mobile stations, two handover managers, the maintenance and
          audit daemons,
        * channels ``setup_i`` / ``resp_i`` / ``teardown_i`` per line,
          ``billing``, ``reg``; semaphores ``trunks``, ``cell_a``,
          ``cell_b``; shared variables ``line_busy``, ``location``,
          ``alarm``; and the ``status`` sink.
        """
        if closed is None:
            closed = self.close()
        system = System(closed.cfgs, config=config)
        n = self.n_lines
        for i in range(n):
            system.add_channel(f"setup_{i}", capacity=max(1, n))
            system.add_channel(f"resp_{i}", capacity=1)
            system.add_channel(f"teardown_{i}", capacity=1)
        system.add_channel("billing", capacity=2 * n)
        system.add_channel("reg", capacity=2)
        system.add_semaphore("trunks", initial=max(1, n))
        cell_a = system.add_semaphore("cell_a", initial=1)
        cell_b = system.add_semaphore("cell_b", initial=1)
        system.add_shared("line_busy", initial=0)
        system.add_shared("location", initial=0)
        system.add_shared("alarm", initial=0)
        for i in range(n):
            # -1 = forwarding disarmed; provisioning arms it.
            system.add_shared(f"fwd_{i}", initial=-1)
        system.add_env_sink("status")

        args_for = closed.launch_args

        for i in range(n):
            system.add_process(
                f"line_{i}", "line_handler", args_for("line_handler", [i, self.calls_per_line])
            )
            system.add_process(f"term_{i}", "term_handler", args_for("term_handler", [i]))
        system.add_process("billing", "billing_daemon", args_for("billing_daemon", []))
        if with_mobility:
            system.add_process(
                "registration", "registration_server", args_for("registration_server", [])
            )
            system.add_process("mobile_0", "mobile_station", args_for("mobile_station", [0]))
            system.add_process("mobile_1", "mobile_station", args_for("mobile_station", [1]))
            if self.seed_deadlock:
                first, second = (cell_a, cell_b), (cell_b, cell_a)
            else:
                first, second = (cell_a, cell_b), (cell_a, cell_b)
            system.add_process(
                "handover_0", "handover_manager", args_for("handover_manager", list(first))
            )
            system.add_process(
                "handover_1", "handover_manager", args_for("handover_manager", list(second))
            )
        if with_maintenance:
            system.add_process("maintenance", "maintenance_daemon", args_for("maintenance_daemon", []))
            system.add_process("audit", "audit_daemon", args_for("audit_daemon", []))
        if with_forwarding:
            for i in range(n):
                system.add_process(
                    f"provisioning_{i}",
                    "provisioning_daemon",
                    args_for("provisioning_daemon", [i]),
                )
        return system

    @staticmethod
    def classify_deadlock(blocked: tuple[str, ...]) -> str:
        """Distinguish the seeded lock-order deadlock from quiescence.

        A reactive system that has consumed all its work blocks every
        server on its input channel — by the paper's definition that is a
        deadlock, but an expected one.  The *seeded* defect shows up as a
        handover manager stuck holding one cell semaphore.
        """
        if any(name.startswith("handover") for name in blocked):
            return "seeded-lock-order"
        return "quiescence"

    @classmethod
    def classify_event(cls, event) -> str:
        """Classify a :class:`~repro.verisoft.results.DeadlockEvent`.

        Like :meth:`classify_deadlock`, but the per-process waiting
        details additionally expose the *forwarding feature interaction*:
        a terminating handler stuck waiting for a teardown that was
        routed to the originally-dialled line instead of the
        forwarded-to line that answered the call.
        """
        base = cls.classify_deadlock(event.blocked)
        if base != "quiescence":
            return base
        for name, op, obj in event.waiting:
            if (
                name.startswith("term")
                and op == "recv"
                and obj is not None
                and obj.startswith("teardown")
            ):
                return "forwarding-teardown-leak"
        return base


def build_app(
    n_lines: int = 2,
    calls_per_line: int = 1,
    seed_deadlock: bool = True,
    seed_billing_bug: bool = True,
) -> CallProcessingApp:
    """Create the open call-processing application.

    The open interface (everything the environment provides):

    * ``next_subscriber_event()`` — hook state changes;
    * ``answer_decision()`` — callee behaviour;
    * ``radio_measurement()`` — 32-bit signal reports;
    * ``maintenance_code()`` — maintenance opcodes.

    ``collect_digits`` is the one manually-stubbed input (a bounded
    ``VS_toss`` over the dial plan), following the paper's methodology.
    """
    source = generate_source(
        n_lines=n_lines,
        calls_per_line=calls_per_line,
        seed_billing_bug=seed_billing_bug,
    )
    return _make_app(n_lines, calls_per_line, seed_deadlock, seed_billing_bug, source)


def demo_system():
    """A small closed call-processing system, as a zero-argument factory.

    One line, one call, both seeded defects — the counterexample
    engine's stock target: ``repro replay trace.json --module
    repro.fiveess.app:demo_system`` rebuilds exactly this system, so a
    trace captured on it can be replayed or shrunk without carrying the
    system description along.
    """
    return build_app(n_lines=1, calls_per_line=1).make_system(with_maintenance=False)


def _make_app(n_lines, calls_per_line, seed_deadlock, seed_billing_bug, source):
    """Assemble the :class:`CallProcessingApp` record for ``source``."""
    object_bindings = {
        ("handover_manager", "first_cell"): frozenset({"cell_a", "cell_b"}),
        ("handover_manager", "second_cell"): frozenset({"cell_a", "cell_b"}),
    }
    spec = ClosingSpec.make(object_bindings=object_bindings)
    return CallProcessingApp(
        n_lines=n_lines,
        calls_per_line=calls_per_line,
        seed_deadlock=seed_deadlock,
        seed_billing_bug=seed_billing_bug,
        source=source,
        spec=spec,
    )
