"""Error types shared across the kernel.

Every error carries a stable machine-readable ``code`` (UPPER_SNAKE string)
so callers and tests can dispatch without string-matching prose.
"""


class KernelError(Exception):
    """Base error: a code, a human-readable detail, optionally a component."""

    def __init__(self, code: str, detail: str, component: str | None = None):
        self.code = code
        self.detail = detail
        self.component = component
        self.step_index: int | None = None  # set by the scenario driver
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.component is not None:  # None: no component; a falsy name keeps its blame
            return f"{self.code} [{self.component}]: {self.detail}"
        return f"{self.code}: {self.detail}"

    def __reduce__(self):
        # Copy and pickle rebuild the error from its fields, not through __init__, whose
        # parameters differ from its ``args`` and from class to class.
        return Exception.__new__, (type(self), *self.args), self.__dict__


class ParseError(KernelError):
    """Positioned syntax error. Line and column are 1-based."""

    def __init__(self, code: str, detail: str, origin: str, line: int, col: int):
        self.origin = origin
        self.line = line
        self.col = col
        super().__init__(code, detail)

    def __str__(self) -> str:
        return f"{self.origin}:{self.line}:{self.col}: {self.code}: {self.detail}"


class RuntimeFault(KernelError):
    """Fault raised while executing a component activation.

    Faults abort the current queue drain and poison the runtime: it stays
    readable but accepts no further emissions.
    """

    def __init__(self, code: str, detail: str, component: str):
        super().__init__(code, detail, component=component)
