"""Project-wide view: merged class table, name-resolved call graph, and the
observer-hook predicates the coverage check runs on top of it.

Resolution is deliberately simple and errs toward over-linking:
  1. `field_.Method(...)` where the field's declared type is a known class
     resolves to exactly that class's methods,
  2. a receiver-less `Method(...)` inside a class that declares `Method`
     resolves to the same class,
  3. anything else falls back to every project function with that name.
Over-linking only adds caller paths, which can make the hook-coverage check
stricter, never blind — the safe direction for an invariant guard.
"""

from indexer import call_parens
from lexer import IDENT, PUNCT

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "new",
    "delete", "throw", "catch", "case", "default", "do", "else", "assert",
    "static_assert", "decltype", "noexcept", "static_cast", "const_cast",
    "reinterpret_cast", "dynamic_cast", "defined", "typeid", "co_await",
    "alignas", "operator",
}


class Project:
    def __init__(self):
        self.indexes = []        # FileIndex per analyzed file, in add order.
        self.by_path = {}        # abs path -> FileIndex
        self.functions = []      # Named (non-lambda) functions, all files.
        self.by_name = {}        # fn name -> [FunctionInfo]
        self.methods = {}        # (class name, fn name) -> [FunctionInfo]
        self.classes = {}        # class name -> merged {"fields", "field_types",
                                 #                       "file", "line"}

    def add(self, file_index):
        self.indexes.append(file_index)
        self.by_path[file_index.path] = file_index
        for fn in file_index.functions:
            if fn.is_lambda:
                continue
            self.functions.append(fn)
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.class_name:
                self.methods.setdefault((fn.class_name, fn.name), []).append(fn)
        for name, cls in file_index.classes.items():
            merged = self.classes.setdefault(
                name, {"fields": set(), "field_types": {}, "file": cls.file,
                       "line": cls.line})
            merged["fields"] |= cls.fields
            merged["field_types"].update(cls.field_types)

    def tokens_of(self, fn):
        return self.by_path[fn.file].lexed.tokens


def calls_in(project, fn):
    """(callee name, receiver ident or None, line) for each call expression in
    the function body, nested lambdas included (a call made from a lambda is
    still made on behalf of the enclosing function)."""
    toks = project.tokens_of(fn)
    out = []
    for i in range(fn.body_start + 1, fn.body_end):
        t = toks[i]
        if t.kind != IDENT or t.value in _KEYWORDS:
            continue
        if call_parens(toks, i, fn.body_end) is None:  # Typed calls included.
            continue
        recv = None
        if i >= 2 and toks[i - 1].kind == PUNCT and toks[i - 1].value in (".", "->"):
            r = toks[i - 2]
            if r.kind == IDENT:
                recv = r.value
        out.append((t.value, recv, t.line))
    return out


def resolve_call(project, caller, name, recv):
    """Set of qualified names the call may target (empty if it is not a call
    to any project function — std:: and libc calls resolve to nothing)."""
    if name not in project.by_name:
        return set()
    if recv is not None:
        cls = project.classes.get(caller.class_name) if caller.class_name else None
        ftype = cls["field_types"].get(recv) if cls else None
        if ftype and (ftype, name) in project.methods:
            return {g.qual_name for g in project.methods[(ftype, name)]}
    elif caller.class_name and (caller.class_name, name) in project.methods:
        return {g.qual_name for g in project.methods[(caller.class_name, name)]}
    return {g.qual_name for g in project.by_name[name]}


def build_call_graph(project):
    """qualified name -> set of callee qualified names."""
    edges = {}
    for fn in project.functions:
        tgt = edges.setdefault(fn.qual_name, set())
        for (name, recv, _line) in calls_in(project, fn):
            tgt |= resolve_call(project, fn, name, recv)
    return edges


def is_hooked(project, fn):
    """True if the function body (lambdas included) fires an observer
    notification: `audit_->OnX(...)` or `...observers().OnX(...)`."""
    toks = project.tokens_of(fn)
    for i in range(fn.body_start + 1, fn.body_end):
        t = toks[i]
        if t.kind != IDENT or not t.value.startswith("On") or len(t.value) < 3 \
                or not t.value[2].isupper():
            continue
        if not (toks[i - 1].kind == PUNCT and toks[i - 1].value in (".", "->")):
            continue
        r = toks[i - 2]
        if r.kind == IDENT and r.value == "audit_":
            return True
        if r.kind == PUNCT and r.value == ")" and \
                toks[i - 3].kind == PUNCT and toks[i - 3].value == "(" and \
                toks[i - 4].kind == IDENT and toks[i - 4].value == "observers":
            return True
    return False


def exposed_functions(edges, hooked):
    """Functions reachable from a call-graph root through a chain on which no
    function (the root included) fires an observer hook. A protocol-state
    write in an exposed function is invisible to every runtime oracle.

    Roots are functions with no in-edges (entry points, handlers bound by
    name, tests driving the class directly). Cycles not reachable from any
    root are dead code and stay unexposed."""
    incoming = {f: 0 for f in edges}
    for f, callees in edges.items():
        for g in callees:
            if g in incoming:
                incoming[g] += 1
    exposed = set()
    work = [f for f, n in incoming.items() if n == 0]
    exposed.update(work)
    while work:
        f = work.pop()
        if hooked.get(f, False):
            continue  # A hooked frame covers everything beneath it.
        for g in edges.get(f, ()):
            if g not in exposed:
                exposed.add(g)
                work.append(g)
    return exposed
