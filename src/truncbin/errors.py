"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract, so library code should
raise the most specific class that applies.
"""


class DomainError(ValueError):
    """An argument lies outside the supported domain of an operation."""


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class InconsistentCaseError(PreconditionError):
    """The exponent divides two or more of the coprime variables.

    A common factor in two of the three variables forces the same factor
    into the third, contradicting coprimality, so the input is rejected
    rather than classified.
    """


class ScanBudgetError(RuntimeError):
    """A residue scan of base**power grid cells exceeds the configured cap."""

    def __init__(self, base: int, power: int, budget: int):
        self.base = base
        self.power = power
        self.budget = budget
        # Past 2**256 the count is written as the power base^power: a grid
        # that large is refused without building it, and its decimal can run
        # past the digits Python converts to a string.
        cells = f"{base}^{power}" if power * base.bit_length() > 256 else self.required_cells
        super().__init__(
            f"scan needs {cells} cells but the budget is {budget}; "
            f"raise the cap to at least {cells} to run it"
        )

    @property
    def required_cells(self) -> int:
        return self.base**self.power
