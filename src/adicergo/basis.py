"""Defining sequences (a_i) for a-adic groups and their cumulative moduli."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class Budget(NamedTuple):
    limit: int
    unit: str


# every size limit, checked by _check_budget before the work it sizes; README's
# budget table says what each bounds and prices it
BUDGETS = {
    "sieve": Budget(10**8, "bound N"),  # primes sieved, or naturals summed point by point
    "recursion": Budget(250_000_000, "cells"),  # the table cells primes._plan updates
    "vector": Budget(1 << 22, "residues"),  # A, a class-route den, the class-count table
    "leaf": Budget(10**7, "residues"),  # a prime factor of a phase or Gauss modulus
    "shifts": Budget(1 << 28, "shifts"),  # occupied classes times A of a shift average
    "bits": Budget(10_000, "bits"),  # a modulus within it still prints in decimal
    "naturals": Budget(2**63 - 1, "bound N"),  # the int64 counts of the naturals
}


class BudgetError(RuntimeError):
    """A work budget would be exceeded."""


def _check_budget(n: int, entry: str, what: str, noun: str = "bits"):
    """Refuse a size n past the limit of its BUDGETS entry.  A count against
    the bit budget reads "of n bits" (or digits); any other size past 2^64 is
    named by its bit length, beside the limit's, since its decimal digits can
    be too many to print."""
    limit, unit = BUDGETS[entry]
    if n > limit:
        if unit == "bits":
            n, limit = f"of {n} {noun}", f"{limit} bits"
        elif n > 1 << 64:
            n, limit = f"of {n.bit_length()} bits", f"{limit} ({limit.bit_length()} bits)"
        raise BudgetError(f"{what} {n} exceeds budget {limit}")


@dataclass(frozen=True)
class Basis:
    """A defining sequence (a_i), every entry >= 2, with a window offset <= 0.

    ``kind`` is one of ``"const"``, ``"cycle"``, ``"list"``:

    * ``const``: a(i) is the single entry of ``params`` for every i.
    * ``cycle``: a(i) = params[i mod len(params)], indexed globally, so
      negative indices follow the same cycle.
    * ``list``: params covers exactly the indices offset..offset+len-1.

    ``offset`` is 0 for the integer ring and negative for a window that
    extends finitely many digits below position 0.
    """

    kind: str
    params: tuple[int, ...]
    offset: int = 0

    def __post_init__(self):
        if self.kind not in ("const", "cycle", "list"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not self.params:
            raise ValueError("basis needs at least one entry")
        if self.kind == "const" and len(self.params) != 1:
            raise ValueError("const basis takes exactly one entry")
        if any(p < 2 for p in self.params):
            raise ValueError("basis entries must be >= 2")
        if self.offset > 0:
            raise ValueError("basis offset must be <= 0")

    def a(self, i: int) -> int:
        """Entry at index i; i must be >= offset (and in range for list kind)."""
        if i < self.offset:
            raise IndexError(f"index {i} below basis offset {self.offset}")
        if self.kind != "list":  # const is a one-entry cycle
            return self.params[i % len(self.params)]
        j = i - self.offset
        if j >= len(self.params):
            raise IndexError(f"index {i} beyond explicit basis entries")
        return self.params[j]

    def modulus(self, r: int) -> int:
        """Cumulative modulus: the product a(offset) * ... * a(r).

        In closed form: for const and cycle the n = r - offset + 1 entries
        are whole periods of the parameters, rotated to start at the offset,
        and then the first part of one more.  Every entry is at least 2, so A
        has more than n bits, and an n past the bit budget is refused
        unmultiplied."""
        if r < self.offset:
            raise ValueError(f"precision {r} below basis offset {self.offset}")
        n = self.digit_count(r)
        if self.kind == "list" and n > len(self.params):
            raise ValueError(f"precision {r} beyond the entries of basis {self.spec_string()}")
        _check_budget(n, "bits", f"level {r}", "digits")
        if self.kind == "list":
            return math.prod(self.params[:n])
        k = self.offset % len(self.params)
        period = self.params[k:] + self.params[:k]
        whole, part = divmod(n, len(period))
        return math.prod(period) ** whole * math.prod(period[:part])

    def digit_count(self, r: int) -> int:
        return r - self.offset + 1

    def window_factor(self) -> int:
        """Product of the entries at negative indices (1 when offset == 0)."""
        return self.modulus(-1) if self.offset < 0 else 1

    def nonnegative_part(self) -> "Basis":
        """The offset-0 basis agreeing with this one on indices >= 0."""
        if self.offset == 0:
            return self
        if self.kind == "list":
            return Basis("list", self.params[-self.offset:], 0)
        return Basis(self.kind, self.params, 0)

    def spec_string(self) -> str:
        body = f"{self.kind}:" + ",".join(str(p) for p in self.params)
        if self.offset != 0:
            body += f"@offset:{self.offset}"
        return body


def parse_basis(text: str) -> Basis:
    """Parse ``const:<c>`` | ``cycle:<c0>,...`` | ``list:<c0>,...``
    with an optional ``@offset:<k>`` suffix."""
    body = text.strip()
    offset = 0
    if "@" in body:
        body, _, tail = body.partition("@")
        if not tail.startswith("offset:"):
            raise ValueError(f"bad basis suffix {tail!r} (expected offset:<k>)")
        offset = int(tail[len("offset:"):])
    kind, _, entries = body.partition(":")
    if not entries:
        raise ValueError(f"bad basis spec {text!r}")
    try:
        params = tuple(int(p) for p in entries.split(","))
    except ValueError:
        raise ValueError(f"bad basis entries in {text!r}") from None
    return Basis(kind, params, offset)
