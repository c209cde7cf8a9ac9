"""Subsets of a carrier 0..n-1 with bit-vector semantics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Subset:
    n: int
    mask: int

    @staticmethod
    def of(n: int, members: Iterable[int]) -> "Subset":
        mask = 0
        for m in members:
            if not 0 <= m < n:
                raise ValueError(f"member {m} outside carrier 0..{n - 1}")
            mask |= 1 << m
        return Subset(n, mask)

    @staticmethod
    def full(n: int) -> "Subset":
        return Subset(n, (1 << n) - 1)

    @staticmethod
    def zero(n: int) -> "Subset":
        return Subset(n, 1)

    def indices(self) -> list[int]:
        return [i for i in range(self.n) if self.mask >> i & 1]

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __or__(self, other: "Subset") -> "Subset":
        return Subset(self.n, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        return Subset(self.n, self.mask & other.mask)

    def __le__(self, other: "Subset") -> bool:
        return self.mask | other.mask == other.mask

    def __lt__(self, other: "Subset") -> bool:
        return self <= other and self.mask != other.mask

    def is_full(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def is_zero_only(self) -> bool:
        return self.mask == 1
