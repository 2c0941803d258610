"""PEP 249 module globals and the exception hierarchy.

The connection / cursor / prepared-statement contract is asserted once
for both transports in ``tests/net/test_dbapi_conformance.py``.
"""

import repro
from repro.errors import (
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    SciQLError,
)


class TestModuleGlobals:
    def test_apilevel(self):
        assert repro.apilevel == "2.0"

    def test_threadsafety(self):
        assert repro.threadsafety in (0, 1, 2, 3)

    def test_paramstyle(self):
        assert repro.paramstyle in (
            "qmark", "numeric", "named", "format", "pyformat"
        )

    def test_connect_exists(self):
        assert callable(repro.connect)


class TestExceptionHierarchy:
    def test_error_is_sciql_error(self):
        assert Error is SciQLError

    def test_pep249_tree(self):
        assert issubclass(InterfaceError, Error)
        assert issubclass(DatabaseError, Error)
        for cls in (
            DataError,
            OperationalError,
            IntegrityError,
            InternalError,
            ProgrammingError,
            NotSupportedError,
        ):
            assert issubclass(cls, DatabaseError)

    def test_pipeline_errors_layered(self):
        from repro.errors import (
            CatalogError,
            CoercionError,
            GDKError,
            MALError,
            ParseError,
            SemanticError,
        )

        assert issubclass(ParseError, ProgrammingError)
        assert issubclass(SemanticError, ProgrammingError)
        assert issubclass(CatalogError, ProgrammingError)
        assert issubclass(MALError, OperationalError)
        assert issubclass(GDKError, InternalError)
        assert issubclass(CoercionError, DataError)
