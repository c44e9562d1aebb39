"""All analyzer checks.

Rules 1-5 are the retired regex linter's rules, re-implemented on the token
stream so comments/strings can never false-positive and statements wrapped
across lines can never false-negative. (Its rule 6, exhaustive switches over
the engine's enums, went once EventTag and the crash points became tables
whose switches are generated; a hand-written switch that misses a case
fails -Wswitch under -Werror.) The newer families are:

  7. bare suppression  - every suppression tag must carry a justification.
  8. hook coverage     - protocol-state writes must reach an observer
                         notification in-function or via a hooked caller.
  9. obligation pairing - CFG-checked acquire/release pairing for RPC call
                         ids, lock-call abort withdraws, formation flush
                         registration, and RPC wait timeout arming.
 10. type-erased payload - no std::any under src/: messages and log records
                         are typed (a message row's struct, a LogPayload
                         variant), so a wrong read fails to compile.

Every finding is `rel:line: <class>: message`; the class strings are the
contract with ci.sh's fixture self-test and must not drift.
"""

import os
import re
import sys

from lexer import IDENT, NUMBER, PP, PUNCT, STRING, lex
from indexer import call_parens, index_file
import cfg as cfglib
from callgraph import (Project, build_call_graph, exposed_functions,
                       is_hooked)

# ---------------------------------------------------------------------------
# Shared configuration (ported 1:1 from the regex linter where applicable).

NONDET_ALLOWED_FILES = {os.path.join("src", "sim", "random.h")}
ORDER_JUSTIFICATIONS = ("sorted", "order-insensitive", "unordered-ok")
STAT_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

DECISION_DIRS = (os.path.join("src", "sim") + os.sep,
                 os.path.join("src", "net") + os.sep)
FORMATION_DIRS = (os.path.join("src", "locus") + os.sep,)
# The message table: rows whose route column is kFormation are the ones rule 5
# keeps off the raw Network.
MESSAGE_TABLE_SOURCE = os.path.join("src", "locus", "messages.h")
_MESSAGE_ROW = re.compile(r"X\(\s*(\w+)\s*,\s*\w+\s*,\s*\w+\s*,\s*(\w+)\s*,")

SUPPRESSION_TAGS = ("hook-ok", "obligation-ok", "form-ok", "policy-ok",
                    "nondet-ok")

# Hook coverage: a protocol class declares a `ProtocolObserver* audit_`
# member and lives in one of these layers.
PROTOCOL_DIRS = (os.path.join("src", "lock") + os.sep,
                 os.path.join("src", "txn") + os.sep,
                 os.path.join("src", "fs") + os.sep,
                 os.path.join("src", "storage") + os.sep)
# Infrastructure members whose writes are not protocol state (observer/stat
# plumbing and interned stat-id handles).
NONPROTOCOL_FIELDS = {"audit_", "stats_", "ids_"}
CONTAINER_MUTATORS = {
    "insert", "erase", "emplace", "emplace_back", "emplace_front",
    "push_back", "pop_back", "push_front", "pop_front", "clear", "resize",
    "assign", "swap", "merge", "extract", "try_emplace",
}
# House-style value types whose named operations mutate protocol state.
VALUE_MUTATORS = {"Grant", "Unlock", "ReleaseTransaction", "ReleaseProcess",
                  "MarkDirtyCovered"}
ITER_SOURCES = {"find", "begin", "emplace", "insert", "try_emplace",
                "lower_bound", "upper_bound"}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
              ">>="}

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}

OBLIGATION_CLOSERS = {"FinishCall", "WaitCall", "CompleteBatchedCall"}
OBLIGATION_TRANSFERS = {"emplace_back", "push_back", "emplace", "insert",
                        "return"}
LOCK_WITHDRAWALS = {"kAbortTxnAtSiteReq", "AbortTxnAtSiteRequest", "RouteAbort"}
# Calls that can carry a kLockReq: untyped `Call(..., kLockReq ...)` and
# typed `Call<kLockReq>(...)` forms.
LOCK_CALLS = {"Call", "Call2", "ChannelCall"}

_INCLUDE = re.compile(r'#\s*include\s+"([^"]+)"')
_ANY_INCLUDE = re.compile(r"#\s*include\s*<any>")
TYPED_PAYLOAD_DIRS = ("src" + os.sep,)


def _in_dirs(rel, dirs):
    rel_slashed = rel if rel.endswith(os.sep) else rel + os.sep
    return any(d in rel_slashed for d in dirs)


def _match_fwd(toks, i, open_p, close_p, limit=None):
    depth = 0
    n = limit if limit is not None else len(toks)
    while i < n:
        t = toks[i]
        if t.kind == PUNCT:
            if t.value == open_p:
                depth += 1
            elif t.value == close_p:
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


class Analyzer:
    def __init__(self, root):
        self.root = root
        self.lex_cache = {}
        self.project = Project()
        self.findings = []
        self.formation_types = None  # Parsed from the message table on demand.

    # -- plumbing -----------------------------------------------------------

    def lexed(self, path):
        path = os.path.abspath(path)
        if path not in self.lex_cache:
            self.lex_cache[path] = lex(path)
        return self.lex_cache[path]

    def report(self, rel, line, cls, message):
        self.findings.append((rel, line, f"{rel}:{line}: {cls}: {message}"))

    def suppressed(self, lexed, line, tag, above=2):
        return tag in lexed.comment_window(line, above)

    # -- driver -------------------------------------------------------------

    def run(self, paths):
        units = []
        for path in paths:
            lexed = self.lexed(path)
            idx = index_file(lexed)
            self.project.add(idx)
            units.append((path, lexed, idx))
        for (path, lexed, idx) in units:
            rel = os.path.relpath(path, self.root)
            self.check_nondeterminism(lexed, rel)
            self.check_unordered_iteration(lexed, rel)
            self.check_stat_names(lexed, rel)
            self.check_decision_points(lexed, rel)
            self.check_formation_bypass(lexed, rel)
            self.check_bare_suppressions(lexed, rel)
            self.check_obligations(lexed, idx, rel)
            self.check_type_erasure(lexed, rel)
        self.check_hook_coverage()
        self.findings.sort(key=lambda f: (f[0], f[1]))
        return [text for (_rel, _line, text) in self.findings]

    # -- rule 1: nondeterminism sources -------------------------------------

    def check_nondeterminism(self, lexed, rel):
        if os.path.normpath(rel) in NONDET_ALLOWED_FILES:
            return
        toks = lexed.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            nxt = toks[i + 1] if i + 1 < n else None
            reason = None
            v = t.value
            if v in ("rand", "srand") and nxt and nxt.value == "(":
                reason = "non-seeded C randomness (use src/sim/random.h)"
            elif v == "random_device":
                reason = "hardware entropy source (breaks seed reproducibility)"
            elif v in ("mt19937", "mt19937_64"):
                reason = "raw mersenne twister (route through src/sim/random.h)"
            elif v in ("steady_clock", "system_clock", "high_resolution_clock") \
                    and nxt and nxt.value == "::" and i + 2 < n \
                    and toks[i + 2].value == "now":
                reason = "wall-clock read (use Simulation::Now for virtual time)"
            elif v in ("gettimeofday", "clock_gettime"):
                reason = "wall-clock read (use Simulation::Now for virtual time)"
            elif v == "time" and nxt and nxt.value == "(" and i + 2 < n:
                arg = toks[i + 2]
                if arg.value == ")" or (arg.value in ("NULL", "nullptr", "0")
                                        and i + 3 < n
                                        and toks[i + 3].value == ")"):
                    reason = "wall-clock read (use Simulation::Now for virtual time)"
            if reason is None:
                continue
            if self.suppressed(lexed, t.line, "nondet-ok", above=0):
                continue
            self.report(rel, t.line, "nondeterminism", reason)

    # -- rule 2: unordered-container iteration ------------------------------

    def _unordered_names(self, lexed):
        """Identifiers declared as (or accessors returning) unordered
        containers in this file."""
        names = set()
        toks = lexed.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT or t.value not in UNORDERED_TYPES:
                continue
            j = i + 1
            if j < n and toks[j].kind == PUNCT and toks[j].value == "<":
                depth = 0
                while j < n:
                    v = toks[j]
                    if v.kind == PUNCT:
                        if v.value == "<":
                            depth += 1
                        elif v.value == ">":
                            depth -= 1
                        elif v.value == ">>":
                            depth -= 2
                        if depth <= 0:
                            break
                    j += 1
                j += 1
            else:
                continue
            if j < n and toks[j].kind == PUNCT and toks[j].value == "&":
                j += 1
            if j >= n or toks[j].kind != IDENT:
                continue
            name = toks[j].value
            after = toks[j + 1] if j + 1 < n else None
            if after and after.kind == PUNCT and after.value in (";", "=", "{",
                                                                "[", ",", ")"):
                names.add(name)
            elif after and after.kind == PUNCT and after.value == "(":
                # Accessor: `name() const { return member_; }` — both the
                # accessor and the member it exposes iterate in hash order.
                close = _match_fwd(toks, j + 1, "(", ")")
                k = close + 1
                if k < n and toks[k].value == "const":
                    k += 1
                if k + 2 < n and toks[k].value == "{" and \
                        toks[k + 1].value == "return" and \
                        toks[k + 2].kind == IDENT:
                    names.add(name)
                    names.add(toks[k + 2].value)
        return names

    def check_unordered_iteration(self, lexed, rel):
        names = self._unordered_names(lexed)
        for t in lexed.tokens:
            if t.kind != PP:
                continue
            m = _INCLUDE.match(t.value)
            if not m:
                continue
            for base in (self.root, os.path.dirname(lexed.path)):
                cand = os.path.join(base, m.group(1))
                if os.path.isfile(cand):
                    names |= self._unordered_names(self.lexed(cand))
                    break
        if not names:
            return
        toks = lexed.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT or t.value != "for" or i + 1 >= n \
                    or toks[i + 1].value != "(":
                continue
            close = _match_fwd(toks, i + 1, "(", ")")
            colon = None
            depth = 0
            for k in range(i + 2, close):
                v = toks[k]
                if v.kind == PUNCT:
                    if v.value in ("(", "[", "{"):
                        depth += 1
                    elif v.value in (")", "]", "}"):
                        depth -= 1
                    elif v.value == ":" and depth == 0:
                        colon = k
                        break
            if colon is None:
                continue
            expr = toks[colon + 1:close]
            if expr and expr[0].kind == PUNCT and expr[0].value == "*":
                expr = expr[1:]
            name = None
            if len(expr) == 1 and expr[0].kind == IDENT:
                name = expr[0].value
            elif len(expr) == 3 and expr[0].kind == IDENT and \
                    expr[1].value == "(" and expr[2].value == ")":
                name = expr[0].value
            if name is None or name not in names:
                continue
            if any(j in lexed.comment_window(t.line)
                   for j in ORDER_JUSTIFICATIONS):
                continue
            self.report(rel, t.line, "hash-order iteration",
                        f"range-for over unordered container '{name}' without "
                        f"a '// sorted' / '// order-insensitive' justification")

    # -- rule 3: stat-counter naming ----------------------------------------

    def check_stat_names(self, lexed, rel):
        toks = lexed.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT or t.value not in ("Add", "Intern"):
                continue
            if i + 3 >= n or toks[i + 1].value != "(" \
                    or toks[i + 2].kind != STRING \
                    or toks[i + 3].value not in (",", ")"):
                continue
            lit = toks[i + 2].value
            if not (lit.startswith('"') and lit.endswith('"')):
                continue
            name = lit[1:-1]
            if name.endswith(".") or "." not in name:
                # Prefix fragments ("cpu." + site) are composed at runtime;
                # only whole dotted literals are validated.
                continue
            if not STAT_NAME.match(name):
                self.report(rel, t.line, "stat counter",
                            f"'{name}' is not a lowercase dotted identifier")

    # -- rule 4: decision points outside SchedulePolicy ----------------------

    def check_decision_points(self, lexed, rel):
        if not _in_dirs(rel, DECISION_DIRS):
            return
        toks = lexed.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            nxt = toks[i + 1] if i + 1 < n else None
            prev = toks[i - 1] if i > 0 else None
            reason = None
            if t.value == "next_seq_" and ((nxt and nxt.value == "++") or
                                           (prev and prev.value == "++")):
                reason = ("event seq id minted outside the sanctioned "
                          "ScheduleAt path")
            elif t.value == "seq" and nxt and nxt.kind == PUNCT and \
                    nxt.value in ("<", ">", "<=", ">="):
                reason = ("seq-order comparison is a schedule tie-break; "
                          "route it through SchedulePolicy (PopNext)")
            elif t.value in ("rng", "rng_"):
                j = i + 1
                if t.value == "rng" and j + 1 < n and toks[j].value == "(" \
                        and toks[j + 1].value == ")":
                    j += 2
                if j + 2 < n and toks[j].kind == PUNCT and \
                        toks[j].value in (".", "->") and \
                        toks[j + 1].kind == IDENT and \
                        toks[j + 1].value in ("Next", "Below", "Range",
                                              "Chance") and \
                        toks[j + 2].value == "(":
                    reason = ("scheduler-layer randomness; decisions must "
                              "come from SchedulePolicy")
            if reason is None:
                continue
            if self.suppressed(lexed, t.line, "policy-ok"):
                continue
            self.report(rel, t.line, "decision point", reason)

    # -- rule 5: formation routing -------------------------------------------

    def _formation_msg_types(self):
        """Rows of the LOCUS_MESSAGES table whose route column is kFormation."""
        if self.formation_types is None:
            self.formation_types = set()
            source = os.path.join(self.root, MESSAGE_TABLE_SOURCE)
            if os.path.isfile(source):
                for t in self.lexed(source).tokens:
                    if t.kind == PP and "LOCUS_MESSAGES(X)" in t.value:
                        self.formation_types = {
                            name for name, route in _MESSAGE_ROW.findall(t.value)
                            if route == "kFormation"}
        return self.formation_types

    def check_formation_bypass(self, lexed, rel):
        if not _in_dirs(rel, FORMATION_DIRS):
            return
        formation_types = self._formation_msg_types()
        toks = lexed.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            call_open = None
            if t.value == "net" and i + 5 < n and toks[i + 1].value == "(" \
                    and toks[i + 2].value == ")" \
                    and toks[i + 3].value in (".", "->") \
                    and toks[i + 4].value in ("Send", "Call") \
                    and toks[i + 5].value == "(":
                call_open = i + 5
            elif t.value == "net_" and i + 3 < n \
                    and toks[i + 1].value in (".", "->") \
                    and toks[i + 2].value in ("Send", "Call") \
                    and toks[i + 3].value == "(":
                call_open = i + 3
            if call_open is None:
                continue
            close = _match_fwd(toks, call_open, "(", ")")
            msg = None
            for k in range(call_open + 1, close):
                if toks[k].kind == IDENT and toks[k].value in formation_types:
                    msg = toks[k].value
                    break
            if msg is None:
                continue
            if self.suppressed(lexed, t.line, "form-ok"):
                continue
            self.report(rel, t.line, "formation bypass",
                        f"direct Network Send/Call of {msg} must route "
                        f"through the FormationQueue (form().Send / "
                        f"form().Call); suppress with '// form-ok'")

    # -- check 7: bare suppression tags --------------------------------------

    def check_bare_suppressions(self, lexed, rel):
        for line in sorted(lexed.comments):
            text = lexed.comments[line]
            for tag in SUPPRESSION_TAGS:
                pos = text.find(tag)
                if pos == -1:
                    continue
                rest = text[pos + len(tag):]
                if not re.search(r"[A-Za-z0-9]", rest):
                    self.report(rel, line, "bare suppression",
                                f"'// {tag}' carries no justification; write "
                                f"'// {tag} <why>'")

    # -- check 10: type-erased payloads --------------------------------------

    def check_type_erasure(self, lexed, rel):
        if not _in_dirs(rel, TYPED_PAYLOAD_DIRS):
            return
        toks = lexed.tokens
        flagged = set()
        for i, t in enumerate(toks):
            what = None
            if t.kind == PP and _ANY_INCLUDE.match(t.value):
                what = "<any>"
            elif t.kind == IDENT and t.value == "any_cast":
                what = "any_cast"
            elif t.kind == IDENT and t.value == "any" and i >= 2 \
                    and toks[i - 1].value == "::" and toks[i - 2].value == "std":
                what = "std::any"
            if what is None or t.line in flagged:
                continue
            flagged.add(t.line)
            self.report(rel, t.line, "type-erased payload",
                        f"{what} hides the payload's type until run time; "
                        f"use a typed struct or a std::variant of the "
                        f"record types")

    # -- check 8: observer-hook coverage -------------------------------------

    def _protocol_classes(self):
        out = {}
        for name, cls in self.project.classes.items():
            if "audit_" in cls["fields"] and \
                    _in_dirs(os.path.relpath(cls["file"], self.root),
                             PROTOCOL_DIRS):
                out[name] = cls
        return out

    def _protocol_writes(self, fn, fields):
        """(field, line) pairs where the function mutates protocol member
        state. Tracks iterator locals obtained from a member container so
        `it->second.Unlock(...)` counts as a write to the container."""
        toks = self.project.tokens_of(fn)
        writes = []
        aliases = {}  # local ident -> member field it aliases
        i = fn.body_start + 1
        end = fn.body_end
        while i < end:
            t = toks[i]
            # Iterator/ref alias registration: `auto it = files_.find(...)`.
            if t.kind == IDENT and i + 4 < end and toks[i + 1].value == "=" \
                    and toks[i + 2].kind == IDENT \
                    and toks[i + 2].value in fields \
                    and toks[i + 3].value in (".", "->") \
                    and toks[i + 4].kind == IDENT \
                    and toks[i + 4].value in ITER_SOURCES:
                aliases[t.value] = toks[i + 2].value
                i += 2  # Don't read the `it =` back as a write via the alias.
                continue
            # Mutable reference binding: `LockList& list = files_[...]`.
            if t.kind == PUNCT and t.value == "&" and i + 3 < end \
                    and toks[i + 1].kind == IDENT \
                    and toks[i + 2].value == "=" \
                    and toks[i + 3].kind == IDENT \
                    and toks[i + 3].value in fields \
                    and toks[i + 3].value not in NONPROTOCOL_FIELDS:
                k = i - 1
                is_const = False
                while k > fn.body_start:
                    v = toks[k]
                    if v.kind == PUNCT and v.value in (";", "{", "}"):
                        break
                    if v.kind == IDENT and v.value == "const":
                        is_const = True
                        break
                    k -= 1
                if not is_const:
                    writes.append((toks[i + 3].value, toks[i + 3].line))
                    aliases[toks[i + 1].value] = toks[i + 3].value
            target = None
            if t.kind == IDENT and t.value in fields and \
                    t.value not in NONPROTOCOL_FIELDS:
                target = t.value
            elif t.kind == IDENT and t.value in aliases:
                target = aliases[t.value]
            if target is not None:
                prev = toks[i - 1]
                if prev.kind == PUNCT and prev.value in ("++", "--"):
                    writes.append((target, t.line))
                    i += 1
                    continue
                j = i + 1
                wrote = False
                settled = False
                while j < end and not settled:
                    v = toks[j]
                    if v.kind == PUNCT and v.value == "[":
                        j = _match_fwd(toks, j, "[", "]") + 1
                    elif v.kind == PUNCT and v.value in (".", "->") and \
                            j + 1 < end and toks[j + 1].kind == IDENT:
                        member = toks[j + 1].value
                        if j + 2 < end and toks[j + 2].value == "(":
                            wrote = member in CONTAINER_MUTATORS or \
                                member in VALUE_MUTATORS
                            settled = True
                        else:
                            j += 2
                    else:
                        break
                if not settled and j < end:
                    v = toks[j]
                    wrote = v.kind == PUNCT and (v.value in ASSIGN_OPS or
                                                 v.value in ("++", "--"))
                if wrote:
                    writes.append((target, t.line))
            i += 1
        return writes

    def check_hook_coverage(self):
        protocol = self._protocol_classes()
        if not protocol:
            return
        edges = build_call_graph(self.project)
        # Overloads share one call-graph node: it counts as hooked only when
        # every definition is.
        hooked = {}
        for fn in self.project.functions:
            hooked[fn.qual_name] = hooked.get(fn.qual_name, True) and \
                is_hooked(self.project, fn)
        exposed = exposed_functions(edges, hooked)
        for fn in self.project.functions:
            if fn.class_name not in protocol:
                continue
            if is_hooked(self.project, fn) or fn.qual_name not in exposed:
                continue
            writes = self._protocol_writes(fn, protocol[fn.class_name]["fields"])
            if not writes:
                continue
            field, line = writes[0]
            lexed = self.project.by_path[fn.file].lexed
            if self.suppressed(lexed, line, "hook-ok") or \
                    self.suppressed(lexed, fn.start_line, "hook-ok"):
                continue
            rel = os.path.relpath(fn.file, self.root)
            self.report(rel, line, "hook coverage",
                        f"'{fn.qual_name}' mutates protocol state "
                        f"('{field}') with no observer notification in the "
                        f"function or on any caller path; add a hook or "
                        f"annotate '// hook-ok <why>'")

    # -- check 9: obligation pairing -----------------------------------------

    def _units(self, idx):
        """Analysis units: every function, lambdas as their own unit."""
        return idx.functions

    def _build_cfg(self, fn, toks):
        try:
            return cfglib.build_cfg(toks, fn.body_start, fn.body_end,
                                    fn.lambda_ranges)
        except Exception as e:  # Tolerant: never let one body kill the run.
            print(f"locus_analyze: warning: CFG failed for {fn.qual_name} "
                  f"({fn.file}:{fn.start_line}): {e}", file=sys.stderr)
            return None

    def check_obligations(self, lexed, idx, rel):
        in_locus = _in_dirs(rel, FORMATION_DIRS)
        in_form = _in_dirs(rel, (os.path.join("src", "form") + os.sep,))
        in_net = _in_dirs(rel, (os.path.join("src", "net") + os.sep,))
        toks = lexed.tokens
        for fn in self._units(idx):
            has_acquire = any(
                toks[k].kind == IDENT and toks[k].value in ("BeginCall",
                                                            "PrepareCall")
                for k in range(fn.body_start + 1, fn.body_end))
            has_enqueue = in_form and any(
                toks[k].kind == IDENT and toks[k].value == "push_back"
                for k in range(fn.body_start + 1, fn.body_end))
            has_wait = in_net and any(
                toks[k].kind == IDENT and toks[k].value == "Wait"
                for k in range(fn.body_start + 1, fn.body_end))
            if has_acquire or has_enqueue or has_wait:
                graph = self._build_cfg(fn, toks)
                if graph is not None:
                    if has_acquire:
                        self._check_split_calls(fn, graph, lexed, rel)
                    if has_enqueue:
                        self._check_enqueue_flush(fn, graph, lexed, rel)
                    if has_wait:
                        self._check_wait_arming(fn, graph, lexed, rel)
            if in_locus and not fn.is_lambda:
                self._check_lock_withdraw(fn, toks, lexed, rel)

    # (a) split RPC calls: BeginCall/PrepareCall id must be finished,
    # transferred, or known-zero on every path to exit.

    @staticmethod
    def _node_has_call(node, names):
        for k, t in enumerate(node.tokens):
            if t.kind == IDENT and t.value in names and \
                    k + 1 < len(node.tokens) and \
                    node.tokens[k + 1].value == "(":
                return True
        return False

    @staticmethod
    def _zero_edges(node, var):
        """Which branch labels of this cond node imply `var == 0` (the
        obligation is void there). Returns a set of labels to prune."""
        nt = node.tokens
        vals = [t.value for t in nt]
        prune = set()
        for k, v in enumerate(vals):
            if v != var:
                continue
            if k + 2 < len(vals) and vals[k + 1] == "==" and vals[k + 2] == "0":
                prune.add("true")
            if k + 2 < len(vals) and vals[k + 1] == "!=" and vals[k + 2] == "0":
                prune.add("false")
            if k >= 2 and vals[k - 1] == "==" and vals[k - 2] == "0":
                prune.add("true")
            if k >= 2 and vals[k - 1] == "!=" and vals[k - 2] == "0":
                prune.add("false")
            if k >= 1 and vals[k - 1] == "!":
                prune.add("true")
            if len(vals) == 1:
                prune.add("false")
        return prune

    def _check_split_calls(self, fn, graph, lexed, rel):
        for node in graph.nodes:
            nt = node.tokens
            acq_kind = None
            for k, t in enumerate(nt):
                if t.kind == IDENT and t.value in ("BeginCall", "PrepareCall") \
                        and k + 1 < len(nt) and nt[k + 1].value == "(":
                    acq_kind = t.value
                    break
            if acq_kind is None:
                continue
            # Closed in the same statement (FinishCall(BeginCall(...)),
            # `return BeginCall(...)` handing the id to the caller).
            if self._node_has_call(node, OBLIGATION_CLOSERS) or \
                    (nt and nt[0].kind == IDENT and nt[0].value == "return"):
                continue
            var = None
            for k, t in enumerate(nt):
                if t.kind == PUNCT and t.value == "=" and k >= 1 and \
                        nt[k - 1].kind == IDENT:
                    var = nt[k - 1].value
                    break
            if self.suppressed(lexed, node.line, "obligation-ok"):
                continue
            if var is None:
                self.report(rel, node.line, "obligation pairing",
                            f"result of {acq_kind} is discarded; the pending "
                            f"call can never be finished or cancelled")
                continue
            if self._open_reaches_exit(graph, node, var):
                self.report(rel, node.line, "obligation pairing",
                            f"call id '{var}' from {acq_kind} can reach "
                            f"return without FinishCall/WaitCall, a transfer, "
                            f"or a == 0 cancellation on some path")

    def _open_reaches_exit(self, graph, acq_node, var):
        def closes(node):
            vals = [t.value for t in node.tokens]
            if var not in vals:
                return False
            return any(v in OBLIGATION_CLOSERS or v in OBLIGATION_TRANSFERS
                       for v in vals)

        stack = [dst for (dst, _l) in acq_node.succs]
        visited = set()
        while stack:
            nid = stack.pop()
            if nid in visited:
                continue
            visited.add(nid)
            node = graph.nodes[nid]
            if nid == cfglib.EXIT:
                return True
            if closes(node):
                continue
            if node.kind == "cond":
                prune = self._zero_edges(node, var)
                for (dst, label) in node.succs:
                    if label in prune:
                        continue
                    stack.append(dst)
            else:
                for (dst, _l) in node.succs:
                    stack.append(dst)
        return False

    # (b) lock-call withdraw: a kLockReq call must have the abort cascade in
    # reach for its timeout path.

    def _check_lock_withdraw(self, fn, toks, lexed, rel):
        lock_line = None
        for k in range(fn.body_start + 1, fn.body_end):
            t = toks[k]
            args = call_parens(toks, k, fn.body_end) \
                if t.kind == IDENT and t.value in LOCK_CALLS else None
            if args is None:
                continue
            close = _match_fwd(toks, args, "(", ")", fn.body_end + 1)
            if any(toks[m].kind == IDENT and toks[m].value == "kLockReq"
                   for m in range(k + 2, close)):
                lock_line = t.line
                break
        if lock_line is None:
            return
        has_withdraw = any(
            toks[k].kind == IDENT and toks[k].value in LOCK_WITHDRAWALS
            for k in range(fn.body_start + 1, fn.body_end))
        if has_withdraw:
            return
        if self.suppressed(lexed, lock_line, "obligation-ok"):
            return
        self.report(rel, lock_line, "obligation pairing",
                    f"'{fn.qual_name}' sends kLockReq but has no abort-"
                    f"cascade withdraw (kAbortTxnAtSiteReq / "
                    f"AbortTxnAtSiteRequest / RouteAbort) for its failure "
                    f"path")

    # (c) formation enqueue: every path from items.push_back to exit must
    # register a flush (immediate Flush or timer_armed arming).

    def _check_enqueue_flush(self, fn, graph, lexed, rel):
        def is_enqueue(node):
            vals = [t.value for t in node.tokens]
            return "push_back" in vals and "items" in vals

        def is_protector(node):
            vals = [t.value for t in node.tokens]
            return "timer_armed" in vals or \
                self._node_has_call(node, {"Flush"})

        protectors = {n.id for n in graph.nodes if is_protector(n)}
        for node in graph.nodes:
            if not is_enqueue(node) or node.id in protectors:
                continue
            reach = cfglib.reachable_avoiding(
                graph, [dst for (dst, _l) in node.succs], protectors)
            if cfglib.EXIT not in reach:
                continue
            if self.suppressed(lexed, node.line, "obligation-ok"):
                continue
            self.report(rel, node.line, "obligation pairing",
                        "batch enqueue (items.push_back) can reach return "
                        "without registering a flush (Flush(...) or "
                        "timer_armed arming); the batch would sit forever")

    # (d) RPC wait arming: a Wait() in src/net must be dominated by a
    # kRpcTimeout arming, or a lost reply hangs the caller forever.

    def _check_wait_arming(self, fn, graph, lexed, rel):
        def is_wait(node):
            nt = node.tokens
            for k, t in enumerate(nt):
                if t.kind == IDENT and t.value == "Wait" and k >= 1 and \
                        nt[k - 1].kind == PUNCT and \
                        nt[k - 1].value in (".", "->") and \
                        k + 1 < len(nt) and nt[k + 1].value == "(":
                    return True
            return False

        def is_arming(node):
            return any(t.kind == IDENT and t.value == "kRpcTimeout"
                       for t in node.tokens)

        arming = {n.id for n in graph.nodes if is_arming(n)}
        waits = [n for n in graph.nodes if is_wait(n) and n.id not in arming]
        if not waits:
            return
        reach = cfglib.reachable_avoiding(graph, [cfglib.ENTRY], arming)
        for node in waits:
            if node.id not in reach:
                continue
            if self.suppressed(lexed, node.line, "obligation-ok"):
                continue
            self.report(rel, node.line, "obligation pairing",
                        "Wait() on an RPC wake is reachable without arming a "
                        "kRpcTimeout; a lost reply would hang the caller "
                        "forever")
