"""Built-in operations of the RC runtime.

Following the paper (and VeriSoft), operations on communication objects
are *visible* procedure calls of a specific kind; ``VS_assert`` is
visible; ``VS_toss`` is nondeterministic but treated as *invisible* (its
choice points are still controlled by the scheduler).  The remaining
built-ins are deterministic invisible helpers.

The table below is consulted by the normalizer (to accept calls to
built-ins), the CFG builder (to classify nodes), the closing algorithm
(to distinguish system calls from environment calls and to know which
argument values flow into which objects), and the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class OperationSpec:
    """Static description of one built-in operation.

    Attributes:
        name: the spelling used in RC source.
        visible: whether executing it is a *visible operation* (a
            scheduling point observed by the VeriSoft-style scheduler).
        arity: the number of arguments the operation takes.
        object_arg: index of the argument that designates the
            communication object the operation acts on, or ``None`` for
            operations that touch no object (``VS_toss``, ``VS_assert``,
            object lookups).
        value_args: indices of arguments whose *values* are transmitted
            into the object (used by the cross-process taint analysis).
        returns_value: whether the call produces a result.
        may_block: whether the operation can be disabled in some state.
        nondeterministic: ``VS_toss`` only.
    """

    name: str
    visible: bool
    arity: int
    object_arg: int | None = None
    value_args: tuple[int, ...] = ()
    returns_value: bool = False
    may_block: bool = False
    nondeterministic: bool = False


#: name -> spec for every built-in operation.
BUILTIN_OPERATIONS: dict[str, OperationSpec] = {
    spec.name: spec
    for spec in [
        # FIFO channel operations.  ``send`` blocks when the channel is
        # full, ``recv`` blocks when it is empty — enabledness depends only
        # on the operation history (#sends - #recvs), per Section 2.
        OperationSpec(
            "send", visible=True, arity=2, object_arg=0, value_args=(1,), may_block=True
        ),
        OperationSpec(
            "recv", visible=True, arity=1, object_arg=0, returns_value=True, may_block=True
        ),
        # Non-blocking probe: the number of queued messages.  Visible
        # because it observes a communication object.
        OperationSpec("poll", visible=True, arity=1, object_arg=0, returns_value=True),
        # Counting semaphore.
        OperationSpec("sem_p", visible=True, arity=1, object_arg=0, may_block=True),
        OperationSpec("sem_v", visible=True, arity=1, object_arg=0),
        # Shared variable: always-enabled read/write.
        OperationSpec("read", visible=True, arity=1, object_arg=0, returns_value=True),
        OperationSpec("write", visible=True, arity=2, object_arg=0, value_args=(1,)),
        # Assertion checking — visible, always enabled ([God97]).
        OperationSpec("VS_assert", visible=True, arity=1),
        # Bounded nondeterminism — invisible, returns a value in [0, n].
        OperationSpec(
            "VS_toss", visible=False, arity=1, returns_value=True, nondeterministic=True
        ),
        # Object lookups: resolve a registered communication object by its
        # string name.  Deterministic, invisible.
        OperationSpec("channel", visible=False, arity=1, returns_value=True),
        OperationSpec("semaphore", visible=False, arity=1, returns_value=True),
        OperationSpec("shared", visible=False, arity=1, returns_value=True),
        # Fresh empty record value.  Deterministic, invisible.
        OperationSpec("record", visible=False, arity=0, returns_value=True),
    ]
}

#: Operations whose object argument is a FIFO channel / semaphore / shared
#: variable, respectively — used for object-kind checking.
CHANNEL_OPS = frozenset({"send", "recv", "poll"})
SEMAPHORE_OPS = frozenset({"sem_p", "sem_v"})
SHARED_VAR_OPS = frozenset({"read", "write"})

#: Operations that perform a visible action on a communication object.
OBJECT_OPS = CHANNEL_OPS | SEMAPHORE_OPS | SHARED_VAR_OPS


def is_builtin(name: str) -> bool:
    """Whether ``name`` is a built-in runtime operation."""
    return name in BUILTIN_OPERATIONS
