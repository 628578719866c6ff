"""A from-scratch in-memory relational engine with a SQL subset.

The paper's metadata lives "in both a relational database and RDF graphs"
and queries are "processed using a combination of SQL and SPARQL". This
package is the relational half: typed tables, one index structure per
predicate shape (flat hash, B+-tree, R-tree), a cost-based planner that
chooses each scan's access path, an expression compiler (each expression
becomes a closure over a flat row tuple once per statement, column names
resolved to positions up front), a recursive-descent SQL parser and an
executor that streams row tuples through sequential/index scans, hash
joins, grouping, ordering and limits.

Entry point::

    from repro.relational import Database
    db = Database()
    db.execute("CREATE TABLE sensors (id INTEGER PRIMARY KEY, type TEXT)")
    db.execute("INSERT INTO sensors (id, type) VALUES (1, 'wind')")
    result = db.execute("SELECT type, COUNT(*) FROM sensors GROUP BY type")

Supported statements: ``CREATE TABLE``, ``CREATE INDEX``, ``DROP TABLE``,
``INSERT``, ``SELECT`` (joins, WHERE, GROUP BY/HAVING, ORDER BY,
LIMIT/OFFSET, aggregates), ``UPDATE``, ``DELETE``.
"""

from repro.relational.database import Database, ResultSet
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType

__all__ = ["Database", "ResultSet", "Column", "TableSchema", "DataType"]
