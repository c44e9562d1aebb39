"""Scope and function indexer over the lexed token stream.

Recovers the structural skeleton the checks need from the controlled house
style of src/: namespaces, classes with their member fields (trailing `_`),
and every function definition — free
functions, out-of-line `Class::Method` definitions, in-class inline methods,
constructors/destructors, operators, and lambdas nested inside any of them.

Each named function records its full body token range (lambdas included, the
view the call graph and hook-coverage checks want) and a set of nested-lambda
body ranges so the CFG-based checks can analyze each lambda as its own unit
(the lambda body runs at a different time than its enclosing function, so
control-flow reasoning must not mix the two).
"""

from lexer import IDENT, PP, PUNCT, STRING

_KEYWORDS_NOT_NAMES = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "new", "delete", "throw", "case", "default", "do", "else", "static_assert",
    "decltype", "noexcept", "assert",
}

_AFTER_PARAMS = {"const", "noexcept", "override", "final", "mutable", "&", "&&"}


class FunctionInfo:
    __slots__ = ("name", "qual_name", "class_name", "file", "body_start",
                 "body_end", "start_line", "end_line", "lambda_ranges",
                 "is_lambda", "parent")

    def __init__(self, name, qual_name, class_name, file, body_start, body_end,
                 start_line, end_line, is_lambda=False, parent=None):
        self.name = name              # Unqualified ("OnCrash", "lambda@123").
        self.qual_name = qual_name    # "Kernel::OnCrash", "MakeMsg", ...
        self.class_name = class_name  # Enclosing/qualifying class or None.
        self.file = file
        self.body_start = body_start  # Token index of the opening '{'.
        self.body_end = body_end      # Token index of the matching '}'.
        self.start_line = start_line
        self.end_line = end_line
        self.lambda_ranges = []       # [(body_start, body_end)] of nested lambdas.
        self.is_lambda = is_lambda
        self.parent = parent          # Enclosing FunctionInfo for lambdas.

    def __repr__(self):
        return f"Fn({self.qual_name} {self.file}:{self.start_line})"


class ClassInfo:
    __slots__ = ("name", "file", "fields", "field_types", "line")

    def __init__(self, name, file, line):
        self.name = name
        self.file = file
        self.line = line
        self.fields = set()     # Member variable names (trailing underscore).
        self.field_types = {}   # field name -> declared type ident (or None).


class FileIndex:
    def __init__(self, lexed):
        self.lexed = lexed
        self.path = lexed.path
        self.functions = []   # Named functions and lambdas, in source order.
        self.classes = {}     # name -> ClassInfo


def _match_forward(tokens, i, open_p, close_p):
    """Index just past the punct matching tokens[i] (which must be open_p)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == PUNCT:
            if t.value == open_p:
                depth += 1
            elif t.value == close_p:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def call_parens(tokens, i, limit):
    """Index of the '(' opening the argument list after the name at
    tokens[i], past simple template arguments (`Call<kLockReq>(`); None when
    no argument list follows."""
    j = i + 1
    if j < limit and tokens[j].kind == PUNCT and tokens[j].value == "<":
        depth = 0
        while j < limit:
            v = tokens[j].value if tokens[j].kind == PUNCT else ""
            if v in (";", "{", "}", "(", ")", "&&", "||"):
                return None  # A comparison, not template arguments.
            depth += {"<": 1, ">": -1, ">>": -2}.get(v, 0)
            j += 1
            if depth <= 0:
                break
        if depth != 0:
            return None
    if j >= limit or tokens[j].kind != PUNCT or tokens[j].value != "(":
        return None
    return j


def _skip_to_body_or_end(tokens, i):
    """From just past a parameter list ')', skip trailing specifiers, a
    trailing return type, and a constructor init list. Returns the index of
    the body '{', or None if this is a declaration (hits ';' / ',' / ')')."""
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == IDENT and t.value in _AFTER_PARAMS:
            i += 1
        elif t.kind == PUNCT and t.value in _AFTER_PARAMS:
            i += 1
        elif t.kind == PUNCT and t.value == "->":  # Trailing return type.
            i += 1
            while i < n and not (tokens[i].kind == PUNCT and
                                 tokens[i].value in ("{", ";")):
                if tokens[i].kind == PUNCT and tokens[i].value == "<":
                    i = _match_forward(tokens, i, "<", ">")
                else:
                    i += 1
        elif t.kind == IDENT and t.value == "noexcept":
            i += 1
            if i < n and tokens[i].kind == PUNCT and tokens[i].value == "(":
                i = _match_forward(tokens, i, "(", ")")
        elif t.kind == PUNCT and t.value == ":":  # Constructor init list.
            i += 1
            while i < n:
                t2 = tokens[i]
                if t2.kind == PUNCT and t2.value == "(":
                    i = _match_forward(tokens, i, "(", ")")
                elif t2.kind == PUNCT and t2.value == "{":
                    # Brace-init of a member, e.g. `: ids_{a, b} {`; a body
                    # brace is preceded by ')' or '}' or ident — disambiguate:
                    # member braces are always followed by ',' or '{'.
                    j = _match_forward(tokens, i, "{", "}")
                    if j < n and tokens[j].kind == PUNCT and tokens[j].value == ",":
                        i = j + 1
                    elif j < n and tokens[j].kind == PUNCT and tokens[j].value == "{":
                        i = j
                    else:
                        return i  # The body brace itself.
                elif t2.kind == PUNCT and t2.value == ";":
                    return None
                else:
                    i += 1
                    continue
                if i < n and tokens[i].kind == PUNCT and tokens[i].value == ",":
                    i += 1
                elif i < n and tokens[i].kind == PUNCT and tokens[i].value == "{":
                    return i
            return None
        elif t.kind == PUNCT and t.value == "{":
            return i
        else:
            return None
    return None


def _qualified_name(tokens, name_idx):
    """Builds Outer::Class::name by walking `Ident::` pairs leftward."""
    parts = [tokens[name_idx].value]
    i = name_idx - 1
    while i >= 1 and tokens[i].kind == PUNCT and tokens[i].value == "::" \
            and tokens[i - 1].kind == IDENT:
        parts.insert(0, tokens[i - 1].value)
        i -= 2
    return parts


class Indexer:
    def __init__(self, lexed):
        self.lexed = lexed
        self.tokens = lexed.tokens
        self.index = FileIndex(lexed)

    def run(self):
        self._scan_scope(0, len(self.tokens), [], None)
        return self.index

    # -- scope scanning ------------------------------------------------------

    def _scan_scope(self, i, end, class_stack, _namespace):
        """Scans a namespace/class/file scope for declarations."""
        tokens = self.tokens
        while i < end:
            t = tokens[i]
            if t.kind == PP:
                i += 1
                continue
            if t.kind == IDENT and t.value == "namespace":
                j = i + 1
                while j < end and not (tokens[j].kind == PUNCT and
                                       tokens[j].value in ("{", ";", "=")):
                    j += 1
                if j < end and tokens[j].value == "{":
                    close = _match_forward(tokens, j, "{", "}")
                    self._scan_scope(j + 1, close - 1, class_stack, None)
                    i = close
                    continue
                i = j + 1
                continue
            if t.kind == IDENT and t.value == "enum":
                i = self._scan_enum(i, end)
                continue
            if t.kind == IDENT and t.value in ("class", "struct"):
                ni = self._scan_class(i, end, class_stack)
                if ni is not None:
                    i = ni
                    continue
                i += 1
                continue
            if t.kind == PUNCT and t.value == "{":
                # Stray initializer block at scope (e.g. array init); skip.
                i = _match_forward(tokens, i, "{", "}")
                continue
            if t.kind == IDENT and t.value not in _KEYWORDS_NOT_NAMES:
                ni = self._try_function(i, end, class_stack)
                if ni is not None:
                    i = ni
                    continue
            i += 1

    def _scan_enum(self, i, end):
        """Skips an enum declaration or definition; returns the index past
        it, so enumerators are never taken for functions."""
        tokens = self.tokens
        j = i + 1
        while j < end and not (tokens[j].kind == PUNCT and tokens[j].value in ("{", ";")):
            j += 1
        if j >= end or tokens[j].value == ";":
            return j + 1
        return _match_forward(tokens, j, "{", "}")

    def _scan_class(self, i, end, class_stack):
        """Returns index past the class definition, or None if this `class`
        token is not a definition (forward decl, template param, ...)."""
        tokens = self.tokens
        j = i + 1
        # Attribute/alignas etc. not used in house style; expect the name.
        if j >= end or tokens[j].kind != IDENT:
            return None
        name = tokens[j].value
        j += 1
        if j < end and tokens[j].kind == IDENT and tokens[j].value == "final":
            j += 1
        # Base clause: skip to '{' or ';' at angle/paren depth 0. A ',' or
        # '>' before any ':' means this was a template parameter
        # (`template <class T>`), not a class-head — bail out.
        depth = 0
        seen_colon = False
        while j < end:
            tj = tokens[j]
            if tj.kind == PUNCT:
                if tj.value in ("(", "["):
                    depth += 1
                elif tj.value in (")", "]"):
                    depth -= 1
                elif tj.value == "<":
                    j = _match_forward(tokens, j, "<", ">") - 1
                elif tj.value == ":" and depth == 0:
                    seen_colon = True
                elif tj.value in (",", ">") and depth == 0 and not seen_colon:
                    return None
                elif tj.value == ";" and depth == 0:
                    return j + 1  # Forward declaration.
                elif tj.value == "{" and depth == 0:
                    break
                elif tj.value == "=" and depth == 0:
                    return None
            j += 1
        if j >= end:
            return None
        close = _match_forward(tokens, j, "{", "}")
        cls = self.index.classes.setdefault(
            name, ClassInfo(name, self.lexed.path, tokens[i].line))
        self._collect_fields(j + 1, close - 1, cls)
        self._scan_scope(j + 1, close - 1, class_stack + [name], None)
        return close

    def _collect_fields(self, i, end, cls):
        """Member variables at the class's own brace depth: an identifier with
        the house-style trailing underscore followed by ;, =, {init}, or [."""
        tokens = self.tokens
        depth = 0
        while i < end:
            t = tokens[i]
            if t.kind == PUNCT and t.value in ("{", "(", "["):
                open_p = t.value
                close_p = {"{": "}", "(": ")", "[": "]"}[open_p]
                i = _match_forward(tokens, i, open_p, close_p)
                continue
            if t.kind == IDENT and t.value.endswith("_") and i + 1 < end:
                nxt = tokens[i + 1]
                if nxt.kind == PUNCT and nxt.value in (";", "=", "{", "["):
                    cls.fields.add(t.value)
                    cls.field_types[t.value] = self._field_type(i)
            i += 1

    def _field_type(self, name_idx):
        """Type identifier of the member declared at name_idx: the identifier
        left of the name after skipping cv/ptr/ref noise, or the template name
        for `map<K, V> field_` declarations. None when unrecognizable."""
        tokens = self.tokens
        k = name_idx - 1
        while k >= 0 and tokens[k].kind == PUNCT and tokens[k].value in ("*", "&"):
            k -= 1
        if k < 0:
            return None
        t = tokens[k]
        if t.kind == IDENT:
            return None if t.value in ("const", "mutable", "static") else t.value
        if t.kind == PUNCT and t.value in (">", ">>"):
            # Walk back over the template argument list; `>>` closes two.
            depth = 0
            while k >= 0:
                v = tokens[k]
                if v.kind == PUNCT:
                    if v.value == ">":
                        depth += 1
                    elif v.value == ">>":
                        depth += 2
                    elif v.value == "<":
                        depth -= 1
                        if depth == 0:
                            break
                k -= 1
            if k - 1 >= 0 and tokens[k - 1].kind == IDENT:
                return tokens[k - 1].value
        return None

    # -- function detection --------------------------------------------------

    def _try_function(self, i, end, class_stack):
        """If tokens[i] starts (or sits inside) a declaration whose declarator
        is a function definition, record it and return the index past the
        body. The caller advances one token otherwise."""
        tokens = self.tokens
        t = tokens[i]
        name_idx = None
        params_open = None
        # operator overloads: `operator` puncts `(` params `)`.
        if t.value == "operator":
            j = i + 1
            sym = ""
            while j < end and tokens[j].kind == PUNCT:
                sym += tokens[j].value
                j += 1
                if sym.endswith("()") or (sym and j < end and
                                          tokens[j].kind == PUNCT and
                                          tokens[j].value == "("):
                    break
            if j < end and tokens[j].kind == PUNCT and tokens[j].value == "(":
                name_idx = i
                params_open = j
            else:
                return None
        else:
            # An explicit specialization names its template arguments:
            # `Kernel::Handle<kReadReq>(...)`.
            params_open = call_parens(tokens, i, end)
            if params_open is None:
                return None
            name_idx = i
        close_params = _match_forward(tokens, params_open, "(", ")")
        body = _skip_to_body_or_end(tokens, close_params)
        if body is None:
            return None
        # Reject obvious non-definitions: a call expression `name(...)  {` can
        # not appear at scope level in this codebase, but an initializer like
        # `int x = f();` never reaches here because of the '{' requirement.
        parts = _qualified_name(tokens, name_idx)
        if t.value == "operator":
            sym_parts = []
            k = i + 1
            while k < params_open:
                sym_parts.append(tokens[k].value)
                k += 1
            base = "operator" + "".join(sym_parts)
            parts = _qualified_name(tokens, name_idx)[:-1] + [base]
        name = parts[-1]
        class_name = parts[-2] if len(parts) > 1 else (
            class_stack[-1] if class_stack else None)
        qual = "::".join(([class_name] if class_name and len(parts) == 1 else [])
                         + parts)
        body_close = _match_forward(tokens, body, "{", "}")
        fn = FunctionInfo(name, qual, class_name, self.lexed.path, body,
                          body_close - 1, tokens[name_idx].line,
                          tokens[body_close - 1].line)
        self.index.functions.append(fn)
        self._scan_lambdas(body + 1, body_close - 1, fn)
        return body_close

    def _scan_lambdas(self, i, end, parent):
        """Finds lambda bodies inside a function body; records each as its own
        FunctionInfo and notes the range on the parent."""
        tokens = self.tokens
        while i < end:
            t = tokens[i]
            if t.kind == PUNCT and t.value == "[":
                close_b = _match_forward(tokens, i, "[", "]")
                j = close_b
                if j < end and tokens[j].kind == PUNCT and tokens[j].value == "(":
                    j = _match_forward(tokens, j, "(", ")")
                body = _skip_to_body_or_end(tokens, j) \
                    if j != close_b else (j if (j < end and tokens[j].kind == PUNCT
                                                and tokens[j].value == "{") else None)
                if body is not None and body < end:
                    body_close = _match_forward(tokens, body, "{", "}")
                    name = f"lambda@{tokens[i].line}"
                    fn = FunctionInfo(
                        name, parent.qual_name + "::" + name, parent.class_name,
                        self.lexed.path, body, body_close - 1, tokens[i].line,
                        tokens[body_close - 1].line, is_lambda=True, parent=parent)
                    parent.lambda_ranges.append((body, body_close - 1))
                    self.index.functions.append(fn)
                    self._scan_lambdas(body + 1, body_close - 1, fn)
                    i = body_close
                    continue
                i = close_b
                continue
            i += 1


def index_file(lexed):
    return Indexer(lexed).run()
