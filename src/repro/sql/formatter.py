"""Canonical SQL text for AST nodes.

:func:`to_sql` emits a normalized rendering (uppercase keywords, lowercase
identifiers, single spaces) such that ``parse(to_sql(node)) == node`` — the
parser/formatter round-trip property the test suite checks exhaustively.

The canonical text also serves as the *plaintext* cache key for unencrypted
statements in the DSSP cache, so it must be a pure function of the AST.
"""

from __future__ import annotations

import math
from decimal import Decimal

from repro.errors import UnsupportedSqlError

from repro.sql.ast import (
    Aggregate,
    ColumnRef,
    Comparison,
    Delete,
    Insert,
    Literal,
    OrderByItem,
    Parameter,
    Select,
    SelectItem,
    Star,
    Statement,
    TableRef,
    Update,
    Value,
)

__all__ = ["to_sql"]


def to_sql(node: Statement) -> str:
    """Render any statement AST back to canonical SQL text."""
    if isinstance(node, Select):
        return _format_select(node)
    if isinstance(node, Insert):
        return _format_insert(node)
    if isinstance(node, Delete):
        return _format_delete(node)
    if isinstance(node, Update):
        return _format_update(node)
    raise TypeError(f"cannot format {type(node).__name__}")


def _format_value(value: Value) -> str:
    if isinstance(value, ColumnRef):
        return value.qualified()
    if isinstance(value, Parameter):
        return "?"
    return _format_literal(value)


def _format_literal(literal: Literal) -> str:
    value = literal.value
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return _format_float(value)
    return repr(value)


def _format_float(value: float) -> str:
    """Positional rendering the lexer can re-tokenize.

    ``repr`` switches to exponent notation outside ``1e-4 .. 1e16``
    (``1e-07``, ``1e+20``), which the dialect's number tokens cannot
    express — the round-trip property test caught exactly that drift.
    ``Decimal(repr(value))`` is the shortest decimal that round-trips to
    ``value``, so formatting it positionally preserves the float exactly.
    """
    if not math.isfinite(value):
        raise UnsupportedSqlError(
            f"non-finite float literal {value!r} has no SQL rendering"
        )
    text = repr(value)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    if "." not in text:
        text += ".0"  # keep it a float token; bare digits lex as an integer
    return text


def _format_select_item(item: SelectItem) -> str:
    if isinstance(item, Star):
        return "*"
    if isinstance(item, Aggregate):
        arg = "*" if isinstance(item.argument, Star) else item.argument.qualified()
        if item.distinct:
            arg = f"DISTINCT {arg}"
        return f"{item.func.value.upper()}({arg})"
    return item.qualified()


def _format_table_ref(table: TableRef) -> str:
    if table.alias:
        return f"{table.name} AS {table.alias}"
    return table.name


def _format_comparison(comparison: Comparison) -> str:
    left = _format_value(comparison.left)
    right = _format_value(comparison.right)
    return f"{left} {comparison.op.value} {right}"


def _format_where(where: tuple[Comparison, ...]) -> str:
    if not where:
        return ""
    return " WHERE " + " AND ".join(_format_comparison(c) for c in where)


def _format_order_item(item: OrderByItem) -> str:
    text = item.column.qualified()
    if item.descending:
        text += " DESC"
    return text


def _format_select(select: Select) -> str:
    parts = [
        "SELECT ",
        ", ".join(_format_select_item(item) for item in select.items),
        " FROM ",
        ", ".join(_format_table_ref(t) for t in select.tables),
        _format_where(select.where),
    ]
    if select.group_by:
        parts.append(
            " GROUP BY " + ", ".join(c.qualified() for c in select.group_by)
        )
    if select.order_by:
        parts.append(
            " ORDER BY "
            + ", ".join(_format_order_item(item) for item in select.order_by)
        )
    if select.limit is not None:
        if isinstance(select.limit, Parameter):
            parts.append(" LIMIT ?")
        else:
            parts.append(f" LIMIT {select.limit}")
    return "".join(parts)


def _format_insert(insert: Insert) -> str:
    columns = ", ".join(insert.columns)
    values = ", ".join(_format_value(v) for v in insert.values)
    return f"INSERT INTO {insert.table} ({columns}) VALUES ({values})"


def _format_delete(delete: Delete) -> str:
    return f"DELETE FROM {delete.table}{_format_where(delete.where)}"


def _format_update(update: Update) -> str:
    assignments = ", ".join(
        f"{column} = {_format_value(value)}" for column, value in update.assignments
    )
    return f"UPDATE {update.table} SET {assignments}{_format_where(update.where)}"
