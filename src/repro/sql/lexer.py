"""The SQL/SciQL tokenizer: one master regex, one match per token.

* keywords and identifiers are case-insensitive (keywords are upper-
  cased, identifiers lower-cased); ``"quoted"`` identifiers keep theirs;
* ``'string literals'`` with doubled-quote escaping;
* ``--`` line comments and ``/* ... */`` block comments;
* ``?`` yields a parameter-marker token (DB-API ``qmark`` binding);
  named ``:name`` markers are recognised by the parser from the
  ``:`` + identifier token pair, because a bare ``:`` must remain a
  separator inside SciQL range syntax (``[0:1:4]``, ``A[x:x+2]``).
"""

from __future__ import annotations

import re

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, OPERATORS, Token, TokenType

#: alternatives in priority order (``lastgroup`` names the one that matched);
#: an ``open_*`` group matches only what its closed form did not.
_TOKEN = re.compile(
    r"(?s)(?P<skip>[ \t\r\n]+|--[^\n]*|/\*.*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<number>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<string>'(?:[^']|'')*+')"
    r"|(?P<open_string>')"
    r'|(?P<quoted>"[^"]*")'
    r'|(?P<open_quoted>")'
    rf"|(?P<operator>{'|'.join(map(re.escape, OPERATORS))})"
    r"|(?P<single>[()\[\],;.:*?])"
    r"|(?P<unexpected>.)"
)
_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_quoted": "unterminated quoted identifier",
    "unexpected": "unexpected character {!r}",
}


def _word(lexeme: str) -> tuple:
    upper = lexeme.upper()
    return (TokenType.KEYWORD, upper) if upper in KEYWORDS else (TokenType.IDENT, lexeme.lower())


#: matched group -> ``(type, value)``; a token's text is its value (a number's: its lexeme).
_MAKE = {
    "number": lambda s: (TokenType.INTEGER, int(s)) if s.isdigit() else (TokenType.FLOAT, float(s)),
    "word": _word,
    "string": lambda s: (TokenType.STRING, s[1:-1].replace("''", "'")),
    "quoted": lambda s: (TokenType.IDENT, s[1:-1]),
    "operator": lambda s: (TokenType.OPERATOR, s),
    "single": lambda s: (TokenType(s), s),
}


def tokenize(text: str) -> list[Token]:
    """All tokens of *text*, terminated by an EOF token."""
    tokens: list[Token] = []
    position, line, line_start = 0, 1, 0  # line_start: offset of the line's first char
    while position < len(text):
        match = _TOKEN.match(text, position)
        kind, lexeme = match.lastgroup, match.group()
        if kind in _MAKE:
            type_, value = _MAKE[kind](lexeme)
            shown = lexeme if kind == "number" else value
            tokens.append(Token(type_, shown, value, line, position - line_start + 1))
        elif kind != "skip":
            if kind == "open_comment":  # reported where the input it swallowed ends
                line, line_start = line + text.count("\n", position), text.rfind("\n") + 1
                position = len(text)
            raise LexerError(_ERRORS[kind].format(lexeme), line, position - line_start + 1)
        position = match.end()
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = match.start() + lexeme.rfind("\n") + 1
    tokens.append(Token(TokenType.EOF, "", None, line, position - line_start + 1))
    return tokens
