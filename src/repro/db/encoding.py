"""Value encoding between SQL space and the circuit field.

The :class:`Encoder` owns the string dictionaries (one per column) and
converts raw Python values into the nonnegative integers the circuits
operate on, and back for result presentation.

Encoding invariants the gates rely on:

- all encoded values are nonnegative and fit in 64 bits,
- join keys, group keys and string codes are >= 1 (zero is reserved for
  dummy/padding rows).
"""

from __future__ import annotations

import datetime
from typing import Any

from repro.db.schema import ColumnDef
from repro.db.types import (
    DATE_END,
    ColumnType,
    SqlType,
    date_to_int,
    decimal_to_int,
    int_to_date,
    int_to_decimal,
)

#: All encoded values must stay below this (the comparison gates
#: decompose differences into 8 byte-limbs).
VALUE_BOUND = 1 << 62


class Encoder:
    """Encodes/decodes values and maintains per-column dictionaries."""

    def __init__(self) -> None:
        # column qualified name -> {string: code}, {code: string}
        self._dicts: dict[str, dict[str, int]] = {}
        self._rev: dict[str, dict[int, str]] = {}

    def build_dictionary(self, qualified: str, values: list[str]) -> None:
        """Assign codes 1..n to the distinct strings, sorted, so code
        order realizes lexicographic order."""
        codes = {s: i + 1 for i, s in enumerate(sorted(set(values)))}
        self._dicts[qualified] = codes
        self._rev[qualified] = {c: s for s, c in codes.items()}

    def encode(self, qualified: str, col_type: ColumnType, value: Any) -> int:
        base = col_type.base
        if base is SqlType.INT:
            encoded = int(value)
        elif base is SqlType.DECIMAL:
            encoded = decimal_to_int(value) if not isinstance(value, int) else value
        elif base is SqlType.DATE:
            if isinstance(value, int):
                encoded = value
            else:
                encoded = date_to_int(value)
        elif base is SqlType.STRING:
            codes = self._dicts.get(qualified)
            if codes is None or value not in codes:
                raise KeyError(
                    f"string {value!r} not in dictionary for {qualified}"
                )
            encoded = codes[value]
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown type {base}")
        if not 0 <= encoded < VALUE_BOUND:
            raise ValueError(f"encoded value {encoded} out of range")
        return encoded

    def decode(self, qualified: str, col_type: ColumnType, value: int) -> Any:
        base = col_type.base
        if base is SqlType.INT:
            return value
        if base is SqlType.DECIMAL:
            return int_to_decimal(value)
        if base is SqlType.DATE:
            return int_to_date(value)
        if base is SqlType.STRING:
            return self._rev[qualified][value]
        raise TypeError(f"unknown type {base}")  # pragma: no cover

    def decode_literal(self, qualified: str, value: str) -> int:
        """Encode a query literal against a column's dictionary (for
        predicates like ``c_mktsegment = 'BUILDING'``)."""
        codes = self._dicts.get(qualified, {})
        if value not in codes:
            # Literal not present in the data: map to an impossible code.
            return VALUE_BOUND - 1
        return codes[value]

    def dictionary(self, qualified: str) -> dict[str, int]:
        return dict(self._dicts.get(qualified, {}))


def column_bound(
    column: ColumnDef, dictionary: dict[str, int], value_bits: int
) -> int:
    """The commitment contract: the largest encoded value a committed
    cell of ``column`` may hold, from public metadata only -- the type,
    the column's string dictionary, the configured ``value_bits`` --
    never from cell values, so prover and verifier derive the same
    number.  The query compiler sizes range checks on it;
    :func:`repro.db.commitment.check_contract` enforces it when the
    database is committed and when it is audited."""
    base = column.type.base
    if base is SqlType.STRING:
        return len(dictionary)  # codes are 1..n
    if base is SqlType.DATE:
        return DATE_END - 1
    return (1 << value_bits) - 1
