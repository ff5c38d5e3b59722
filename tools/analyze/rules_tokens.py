"""mnsim-analyze rules, token-stream implementations.

These run on the exact token stream from cpptok (comments and strings
can never confuse them, constructs may span lines) plus a flow-insensitive
per-file symbol table of floating-point names. Operand types declared in
another file are not seen: a comparison of two values whose types come
only from an included header is classified from the names and literals
in this file alone.

Rule catalogue (see docs/STATIC_ANALYSIS.md for the workflow):

  fp-equality          == / != with a floating operand in the numeric core
  quantity-narrowing   double -> float/int at physical-value boundaries
  swallowed-exception  catch blocks that eat errors silently
  lock-discipline      bare mutex.lock(), thread.detach()
  unseeded-rng         RNG engines constructed without an explicit seed
  mn-code-extraction   MN-* codes in string literals vs DIAGNOSTICS.md
  parallel-capture     unguarded mutable shared capture in a pool lambda
  raw-thread           std::thread/std::async outside src/util/parallel
  atomic-order         explicit memory_order arguments need a written why

The three concurrency rules cover what Clang's -Wthread-safety pass
cannot see (capture discipline, thread provenance, ordering rationale);
the capability annotations in src/util/thread_safety.hpp cover lock/
data associations.
"""

from __future__ import annotations

import dataclasses
import re

from cpptok import Token, match_backward, match_forward
from engine import Finding

# ---- rule metadata -----------------------------------------------------------

RULE_DOCS: dict[str, str] = {
    "fp-equality": (
        "floating-point == / != in src/numeric, src/spice, src/accuracy; "
        "route through util::approx_equal / util::exactly_equal "
        "(util/fp.hpp) so the intended semantics are visible"
    ),
    "quantity-narrowing": (
        "implicit double->float/int at a physical-value boundary "
        "(.value() results, physical-parameter members); make the "
        "narrowing explicit or keep the value wide"
    ),
    "swallowed-exception": (
        "catch block that neither rethrows, records the message, nor "
        "emits an MN-*/SolverDiagnostics entry; errors must never "
        "vanish silently"
    ),
    "lock-discipline": (
        "bare mutex.lock() without an RAII guard, or thread.detach(), "
        "outside src/util/parallel; locks are held by scope "
        "(util::MutexLock), threads stay joinable and owned"
    ),
    "unseeded-rng": (
        "std::random_device, or an RNG engine constructed without an "
        "explicit seed, in src/ (outside src/util), tests/, bench/ or "
        "examples/; fresh entropy breaks bit-identical reproducibility"
    ),
    "mn-code-extraction": (
        "MN-* diagnostic codes in string literals must match "
        "docs/DIAGNOSTICS.md exactly, in both directions"
    ),
    "parallel-capture": (
        "a parallel_map/for_each_index lambda mutates a by-reference "
        "capture that is not worker-slot indexed, locally declared, "
        "atomic, or behind a lock guard; shared writes from pool tasks "
        "break the determinism contract (util/parallel.hpp)"
    ),
    "raw-thread": (
        "direct std::thread/std::jthread/std::async outside "
        "src/util/parallel; run work on the bounded pool "
        "(util::parallel_map) so thread counts, shutdown, and "
        "determinism stay centralized"
    ),
    "atomic-order": (
        "explicit std::memory_order argument; weaker-than-seq_cst "
        "orderings are correctness claims — justify each with "
        "`mnsim-analyze: allow(atomic-order, <why>)` or drop the "
        "argument for the sequentially-consistent default"
    ),
    "malformed-escape": (
        "mnsim-analyze: allow(...) escape without a written reason"
    ),
}

# Which repo-relative prefixes each rule applies to (None = all analyzed
# files), and which it is excluded from. Only unseeded-rng reaches past
# src/: a test or bench that draws fresh entropy is as irreproducible as
# library code that does.
RULE_SCOPE: dict[str, tuple[tuple[str, ...] | None, tuple[str, ...]]] = {
    "fp-equality": (("src/numeric/", "src/spice/", "src/accuracy/"), ()),
    "quantity-narrowing": (("src/",), ()),
    "swallowed-exception": (("src/",), ()),
    # thread_safety.hpp implements the annotated lock primitives (its
    # Mutex::lock() forwards to std::mutex::lock), so the lock rule
    # cannot apply to it, same as the pool itself.
    "lock-discipline": (
        ("src/",), ("src/util/parallel.", "src/util/thread_safety.")
    ),
    "unseeded-rng": (
        ("src/", "tests/", "bench/", "examples/"), ("src/util/",)
    ),
    "mn-code-extraction": (("src/",), ()),
    "parallel-capture": (("src/",), ("src/util/parallel.",)),
    "raw-thread": (("src/",), ("src/util/parallel.",)),
    "atomic-order": (("src/",), ()),
}


def rule_applies(rule: str, relpath: str) -> bool:
    prefixes, excludes = RULE_SCOPE[rule]
    if any(relpath.startswith(e) for e in excludes):
        return False
    return prefixes is None or any(relpath.startswith(p) for p in prefixes)


# ---- floating-point classification ------------------------------------------

_FP_SUFFIX = re.compile(r"[fF]$")
_INT_SUFFIX = re.compile(r"[uUlLzZ]+$")
_EXP = re.compile(r"^[0-9][0-9']*[eE][+-]?[0-9]")

# Functions whose result is floating-point by contract. `value` is the
# Quantity<Dim> raw-double escape hatch; its presence is also what marks
# an expression as "physical" for quantity-narrowing.
FP_FUNCS = frozenset({
    "fabs", "sqrt", "cbrt", "exp", "exp2", "expm1", "log", "log2", "log10",
    "log1p", "pow", "hypot", "sinh", "cosh", "tanh", "sin", "cos", "tan",
    "atan", "atan2", "asin", "acos", "erf", "erfc", "floor", "ceil",
    "round", "trunc", "fmax", "fmin", "fmod", "copysign", "lerp", "value",
})

# Conversions that make a narrowing visible and intentional.
EXPLICIT_NARROWERS = frozenset({
    "static_cast", "lround", "llround", "lrint", "llrint", "narrow_cast",
})

INT_TYPES = frozenset({
    "int", "long", "short", "unsigned", "signed", "size_t", "ptrdiff_t",
    "int8_t", "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "uintptr_t", "intptr_t",
})

PHYSICAL_NAME = re.compile(
    r"""(?x)^\w*(
        resist | conduct | volt | vdd | current | amp |
        power | leakage | energy |
        latency | delay | _time | time_ | duration |
        capacit | inductance |
        clock | freq | bandwidth |
        area | feature_size
    )\w*$"""
)


def is_fp_literal(text: str) -> bool:
    if text.startswith(("0x", "0X")):
        return "p" in text or "P" in text  # hex floats
    body = _INT_SUFFIX.sub("", text)
    if _FP_SUFFIX.search(text):
        return True
    return "." in body or bool(_EXP.match(body))


@dataclasses.dataclass
class FileContext:
    relpath: str
    text: str
    tokens: list[Token]
    fp_names: frozenset[str] = frozenset()

    def line_text(self, line: int) -> str:
        lines = self.text.splitlines()
        return lines[line - 1] if 1 <= line <= len(lines) else ""


_QUALIFIERS = frozenset({"const", "constexpr", "static", "inline", "*", "&",
                         "&&", "volatile", "mutable"})


def collect_fp_names(tokens: list[Token]) -> frozenset[str]:
    """Names declared with type double/float anywhere in the file.

    Matches `double [qualifiers] name` — variables, parameters, members,
    and functions returning double (a call through such a name is fp
    evidence too, which is exactly what the equality rule needs).
    """
    names: set[str] = set()
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "id" and t.text in ("double", "float"):
            j = i + 1
            while j < len(tokens) and tokens[j].text in _QUALIFIERS:
                j += 1
            if j < len(tokens) and tokens[j].kind == "id":
                names.add(tokens[j].text)
                i = j
        i += 1
    return frozenset(names)


def make_context(relpath: str, text: str, tokens: list[Token]) -> FileContext:
    return FileContext(relpath, text, tokens,
                       fp_names=collect_fp_names(tokens))


# ---- operand spans -----------------------------------------------------------

_STOP_PUNCT = frozenset({
    ",", ";", "?", ":", "&&", "||", "=", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=", "<<=", ">>=", "{", "}", "<", ">", "<=", ">=",
    "==", "!=", "return",
})


def _operand_span_left(tokens: list[Token], op_index: int) -> list[Token]:
    out: list[Token] = []
    depth = 0
    j = op_index - 1
    while j >= 0:
        t = tokens[j]
        if t.kind == "punct":
            if t.text in (")", "]"):
                depth += 1
            elif t.text in ("(", "["):
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and t.text in _STOP_PUNCT:
                break
        elif depth == 0 and t.kind == "id" and t.text == "return":
            break
        out.append(t)
        j -= 1
    out.reverse()
    return out


def _operand_span_right(tokens: list[Token], op_index: int) -> list[Token]:
    out: list[Token] = []
    depth = 0
    j = op_index + 1
    while j < len(tokens):
        t = tokens[j]
        if t.kind == "punct":
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and t.text in _STOP_PUNCT:
                break
        out.append(t)
        j += 1
    return out


def _fp_evidence(span: list[Token], ctx: FileContext) -> str | None:
    """Why this operand is floating-point, or None."""
    for k, t in enumerate(span):
        if t.kind == "num" and is_fp_literal(t.text):
            return f"literal {t.text}"
        if t.kind == "id":
            is_call = k + 1 < len(span) and span[k + 1].text == "("
            if is_call and t.text in FP_FUNCS:
                return f"call to {t.text}()"
            if not is_call and t.text in ctx.fp_names:
                # A member chain continuing past this name (`r.x.size()`)
                # means the expression's type is whatever the chain ends
                # in, not this name's.
                if k + 1 < len(span) and span[k + 1].text in (".", "->"):
                    continue
                return f"'{t.text}' is declared double/float"
            if is_call and t.text in ctx.fp_names:
                return f"'{t.text}()' returns double/float"
    return None


_RELATIONAL = frozenset({"<", ">", "<=", ">=", "==", "!=", "!"})


def _is_boolean_span(span: list[Token]) -> bool:
    """True if the operand is a parenthesized comparison — `(a > 0)` —
    whose type is bool regardless of what it compares."""
    return any(t.kind == "punct" and t.text in _RELATIONAL for t in span)


# ---- rule: fp-equality -------------------------------------------------------


def check_fp_equality(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != "punct" or t.text not in ("==", "!="):
            continue
        # `operator==` declarations are definitions of comparison, not
        # uses of it.
        if i > 0 and toks[i - 1].kind == "id" and toks[i - 1].text == "operator":
            continue
        left = _operand_span_left(toks, i)
        right = _operand_span_right(toks, i)
        if _is_boolean_span(left) or _is_boolean_span(right):
            continue
        why = _fp_evidence(left, ctx) or _fp_evidence(right, ctx)
        if why is None:
            continue
        findings.append(Finding(
            rule="fp-equality",
            path=ctx.relpath,
            line=t.line,
            col=t.col,
            message=(
                f"floating-point `{t.text}` ({why}); use "
                f"util::approx_equal for computed values or "
                f"util::exactly_zero/exactly_equal for sentinel/"
                f"stored-value semantics (util/fp.hpp)"
            ),
            line_text=ctx.line_text(t.line),
        ))
    return findings


# ---- rule: quantity-narrowing ------------------------------------------------


def _physical_evidence(span: list[Token]) -> str | None:
    for k, t in enumerate(span):
        if t.kind != "id":
            continue
        if t.text == "value" and k + 1 < len(span) and span[k + 1].text == "(":
            return ".value() result"
        if PHYSICAL_NAME.match(t.text) and t.text not in ("time", "value"):
            return f"physical parameter '{t.text}'"
    return None


def check_quantity_narrowing(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    toks = ctx.tokens
    i = 0
    while i < len(toks) - 2:
        t = toks[i]
        if not (t.kind == "id" and (t.text in INT_TYPES or t.text == "float")):
            i += 1
            continue
        target = t.text
        j = i + 1
        while j < len(toks) and toks[j].text in _QUALIFIERS:
            j += 1
        if not (j + 1 < len(toks) and toks[j].kind == "id"
                and toks[j + 1].text == "="):
            i += 1
            continue
        name_tok = toks[j]
        # initializer span: up to the `;` (or, for default arguments and
        # multi-declarator statements, the `,`/`)` of the enclosing
        # context) at depth 0
        span: list[Token] = []
        depth = 0
        k = j + 2
        while k < len(toks):
            tk = toks[k]
            if tk.kind == "punct":
                if tk.text in ("(", "[", "{"):
                    depth += 1
                elif tk.text in (")", "]", "}"):
                    if depth == 0:
                        break  # closes an enclosing bracket (default arg)
                    depth -= 1
                elif tk.text in (";", ",") and depth == 0:
                    break
            span.append(tk)
            k += 1
        has_explicit = any(
            s.kind == "id" and s.text in EXPLICIT_NARROWERS for s in span
        )
        phys = _physical_evidence(span)
        fp = _fp_evidence(span, ctx)
        if phys and fp and not has_explicit:
            findings.append(Finding(
                rule="quantity-narrowing",
                path=ctx.relpath,
                line=name_tok.line,
                col=name_tok.col,
                message=(
                    f"`{target} {name_tok.text}` initialized from a "
                    f"floating expression involving {phys}; physical "
                    f"values narrow silently here — keep the double or "
                    f"make the conversion explicit (static_cast/lround)"
                ),
                line_text=ctx.line_text(name_tok.line),
            ))
        i = k
    return findings


# ---- rule: swallowed-exception -----------------------------------------------

# A catch body "handles" the exception if it rethrows, captures the
# message, stashes the exception object, or emits a diagnostic. These are
# the signals the solver ladder / DSE quarantine / check layer use.
_HANDLER_IDS = frozenset({
    "throw", "what", "current_exception", "rethrow_exception",
    "emit", "diagnostic", "diagnostics", "Diagnostic", "DiagnosticList",
    "value_error",
})


def check_swallowed_exception(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if not (t.kind == "id" and t.text == "catch"):
            continue
        try:
            open_paren = next(
                j for j in range(i + 1, min(i + 3, len(toks)))
                if toks[j].text == "("
            )
            close_paren = match_forward(toks, open_paren, "(", ")")
            open_brace = next(
                j for j in range(close_paren + 1, close_paren + 3)
                if toks[j].text == "{"
            )
            close_brace = match_forward(toks, open_brace, "{", "}")
        except (StopIteration, IndexError):
            continue  # not a catch statement shape we understand
        body = toks[open_brace + 1:close_brace]
        handled = any(
            (tk.kind == "id" and tk.text in _HANDLER_IDS)
            or (tk.kind == "str" and "MN-" in tk.text)
            for tk in body
        )
        if handled:
            continue
        exc = " ".join(tk.text for tk in toks[open_paren + 1:close_paren])
        detail = "empty handler" if not body else "handler drops the error"
        findings.append(Finding(
            rule="swallowed-exception",
            path=ctx.relpath,
            line=t.line,
            col=t.col,
            message=(
                f"catch ({exc}): {detail}; rethrow, record e.what(), or "
                f"emit an MN-* / SolverDiagnostics entry — errors must "
                f"not vanish silently"
            ),
            line_text=ctx.line_text(t.line),
        ))
    return findings


# ---- rule: lock-discipline ---------------------------------------------------


def check_lock_discipline(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    toks = ctx.tokens
    for i in range(len(toks) - 2):
        t = toks[i]
        # receiver.lock() / receiver->lock()
        if (t.kind == "punct" and t.text in (".", "->")
                and toks[i + 1].kind == "id" and toks[i + 1].text == "lock"
                and i + 2 < len(toks) and toks[i + 2].text == "("):
            findings.append(Finding(
                rule="lock-discipline",
                path=ctx.relpath,
                line=toks[i + 1].line,
                col=toks[i + 1].col,
                message=(
                    "bare .lock(); an exception (or early return) between "
                    "lock() and unlock() leaks the mutex — use "
                    "util::MutexLock (annotated classes) or std::lock_guard"
                ),
                line_text=ctx.line_text(toks[i + 1].line),
                end_col=toks[i + 1].col + len("lock"),
            ))
        if (t.kind == "punct" and t.text in (".", "->")
                and toks[i + 1].kind == "id" and toks[i + 1].text == "detach"
                and i + 2 < len(toks) and toks[i + 2].text == "("):
            findings.append(Finding(
                rule="lock-discipline",
                path=ctx.relpath,
                line=toks[i + 1].line,
                col=toks[i + 1].col,
                message=(
                    "thread.detach(): a detached thread outlives shutdown "
                    "and races static destruction; keep threads joinable "
                    "and owned (util/parallel.hpp)"
                ),
                line_text=ctx.line_text(toks[i + 1].line),
                end_col=toks[i + 1].col + len("detach"),
            ))
        # Raw thread *construction* moved to the raw-thread rule in its
        # own right (provenance, not lock hygiene) — see check_raw_thread.
    return findings


# ---- rule: raw-thread --------------------------------------------------------


def check_raw_thread(ctx: FileContext) -> list[Finding]:
    """std::thread/std::jthread type uses and std::async calls.

    Thread provenance is centralized in util::ThreadPool: ad-hoc threads
    bypass the [parallel] Threads knob, the deterministic scheduling
    contract, and pool shutdown. Template args (vector<std::thread>) are
    container *storage*, which only the pool owns — still flagged, since
    storage outside the pool implies construction outside the pool.
    """
    findings: list[Finding] = []
    toks = ctx.tokens

    def flag(tok: Token, what: str, advice: str) -> None:
        findings.append(Finding(
            rule="raw-thread",
            path=ctx.relpath,
            line=tok.line,
            col=tok.col,
            message=f"{what} outside src/util/parallel; {advice}",
            line_text=ctx.line_text(tok.line),
            end_col=tok.col + len(tok.text),
        ))

    for i in range(len(toks) - 2):
        t = toks[i]
        if not (t.kind == "id" and t.text == "std"
                and toks[i + 1].text == "::"):
            continue
        name = toks[i + 2]
        after = toks[i + 3] if i + 3 < len(toks) else None
        if name.kind == "id" and name.text in ("thread", "jthread"):
            # `std::thread::id` etc. is a nested-name use, not a thread.
            if after is not None and after.text != "::":
                if after.kind == "id" or after.text in ("(", "{"):
                    flag(name, f"raw std::{name.text}",
                         "run work on the bounded pool "
                         "(util::parallel_map) so thread counts, "
                         "shutdown, and determinism stay centralized")
        elif name.kind == "id" and name.text == "async":
            if after is not None and after.text == "(":
                flag(name, "std::async",
                     "its launch policy and thread lifetime are "
                     "implementation-defined; use util::parallel_map "
                     "for compute, or a pool task for background work")
    return findings


# ---- rule: atomic-order ------------------------------------------------------

_MEMORY_ORDERS = frozenset({
    "memory_order_relaxed", "memory_order_consume", "memory_order_acquire",
    "memory_order_release", "memory_order_acq_rel", "memory_order_seq_cst",
})
_MEMORY_ORDER_MEMBERS = frozenset({
    "relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst",
})


def check_atomic_order(ctx: FileContext) -> list[Finding]:
    """Every explicit memory_order argument is a finding by design.

    A non-default ordering is a proof obligation the compiler cannot
    check; the rule forces each site to carry a reviewed justification
    (escape or baseline). Spelling out seq_cst is flagged too: it either
    means the default (drop it) or documents a subtle fence (say why).
    """
    findings: list[Finding] = []
    toks = ctx.tokens

    def flag(tok: Token, order: str, end: int) -> None:
        findings.append(Finding(
            rule="atomic-order",
            path=ctx.relpath,
            line=tok.line,
            col=tok.col,
            message=(
                f"explicit {order}: relaxed/acquire/release orderings "
                f"are unverified correctness claims — justify with "
                f"`mnsim-analyze: allow(atomic-order, <why>)` or use "
                f"the sequentially-consistent default"
            ),
            line_text=ctx.line_text(tok.line),
            end_col=end,
        ))

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in _MEMORY_ORDERS:
            flag(t, f"std::{t.text}", t.col + len(t.text))
        elif (t.text == "memory_order" and i + 2 < len(toks)
                and toks[i + 1].text == "::"
                and toks[i + 2].kind == "id"
                and toks[i + 2].text in _MEMORY_ORDER_MEMBERS):
            flag(t, f"std::memory_order::{toks[i + 2].text}",
                 toks[i + 2].col + len(toks[i + 2].text))
    return findings


# ---- rule: parallel-capture --------------------------------------------------

_PAR_ENTRY_POINTS = frozenset({"parallel_map", "for_each_index"})
# Mutating container/stream methods. Deliberately excludes read-mostly
# accessors; a miss here is a false negative, never a false positive.
_MUTATOR_METHODS = frozenset({
    "push_back", "emplace_back", "pop_back", "insert", "emplace", "erase",
    "clear", "append", "push", "pop", "resize", "assign", "store",
})
_COMPOUND_ASSIGN = frozenset({
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
})
# RAII guard types: a guard constructed earlier in the lambda body makes
# later writes lock-protected. Flow-insensitive on purpose — the Clang
# -Wthread-safety pass owns the exact lock-region analysis; this rule
# only has to catch writes with no locking story at all.
_GUARD_TYPES = frozenset({
    "lock_guard", "scoped_lock", "unique_lock", "shared_lock", "MutexLock",
})
_DECL_STOPWORDS = frozenset({
    "return", "throw", "new", "delete", "else", "do", "goto", "case",
    "typename", "template", "operator", "public", "private", "protected",
    "break", "continue",
})


def _collect_atomic_names(tokens: list[Token]) -> frozenset[str]:
    """Names declared as std::atomic<...> anywhere in the file."""
    names: set[str] = set()
    for i, t in enumerate(tokens):
        if not (t.kind == "id" and t.text == "atomic"):
            continue
        if i + 1 < len(tokens) and tokens[i + 1].text == "<":
            try:
                close = match_forward(tokens, i + 1, "<", ">")
            except IndexError:
                continue
            j = close + 1
            if j < len(tokens) and tokens[j].kind == "id":
                names.add(tokens[j].text)
    return frozenset(names)


def _body_declared_names(body: list[Token]) -> set[str]:
    """Names plausibly *declared* inside the lambda body.

    An identifier directly preceded by another identifier (its type), or
    by `&`/`*`/`&&` (reference/pointer declarator, range-for bindings),
    is treated as a local declaration. C++ gives adjacent identifiers no
    other legal meaning at statement scope, so the approximation errs
    toward false negatives for this rule's purposes (a name wrongly
    marked declared is a missed finding, not a false alarm).
    """
    declared: set[str] = set()
    for k in range(1, len(body)):
        t = body[k]
        if t.kind != "id" or t.text in _DECL_STOPWORDS:
            continue
        prev = body[k - 1]
        if prev.kind == "id" and prev.text not in _DECL_STOPWORDS:
            declared.add(t.text)
        elif prev.kind == "punct" and prev.text in ("&", "*", "&&", ">"):
            # `double& v : row`, `Foo* p = ...`, `vector<T> name`
            declared.add(t.text)
        elif (prev.kind == "punct" and prev.text == ","
                and k >= 2 and body[k - 2].kind == "id"
                and body[k - 2].text in declared):
            # Multi-declarator statements: `vector<M> clean, faulted;`.
            # Overshoots onto call arguments (`f(a, b)` marks b if a is
            # declared) — a false *negative* for this rule, per the
            # err-toward-silence policy above.
            declared.add(t.text)
    return declared


def _target_root(toks: list[Token], end: int,
                 start: int) -> tuple[Token | None, list[Token]]:
    """Root identifier and subscript tokens of the postfix chain ending
    just before token index `end`, never scanning left of `start`.

    `caches[worker].hits` -> (caches, [worker]); `a.b.c` -> (a, []);
    anything ending in `)` (call results) gives up with (None, [])."""
    subs: list[Token] = []
    j = end - 1
    root: Token | None = None
    while j >= start:
        t = toks[j]
        if t.kind == "punct" and t.text == "]":
            try:
                open_b = match_backward(toks, j, "[", "]")
            except IndexError:
                return None, []
            if open_b <= start:
                return None, []
            subs.extend(toks[open_b + 1:j])
            j = open_b - 1
        elif t.kind == "id":
            root = t
            if j - 1 >= start and toks[j - 1].kind == "punct" \
                    and toks[j - 1].text in (".", "->"):
                j -= 2  # member access: keep walking to the receiver
            else:
                break
        else:
            return None, []  # `(expr).x`, `get().x`, literals, ...
    return root, subs


def check_parallel_capture(ctx: FileContext) -> list[Finding]:
    """Mutable shared captures inside pool-task lambdas.

    For every lambda passed to parallel_map/for_each_index with a
    by-reference capture, flag writes (assignment, compound assignment,
    ++/--, mutating method calls) whose target is a captured name that
    is not (a) declared inside the lambda, (b) a lambda parameter,
    (c) subscripted by a lambda parameter (the worker-slot / out[index]
    idiom), (d) declared std::atomic, or (e) preceded by an RAII lock
    guard in the body. Internally-synchronized objects take a reasoned
    `allow(parallel-capture, ...)` escape.
    """
    findings: list[Finding] = []
    toks = ctx.tokens
    atomics = _collect_atomic_names(toks)

    for i, t in enumerate(toks):
        if not (t.kind == "id" and t.text in _PAR_ENTRY_POINTS):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        try:
            call_close = match_forward(toks, i + 1, "(", ")")
        except IndexError:
            continue
        # Lambda introducers among the call arguments: a `[` directly
        # after `(` or `,` can only start a lambda capture list.
        j = i + 1
        while j < call_close:
            if not (toks[j].kind == "punct" and toks[j].text == "["
                    and toks[j - 1].text in ("(", ",")):
                j += 1
                continue
            j = _scan_lambda(ctx, toks, j, atomics, findings)
    return findings


def _scan_lambda(ctx: FileContext, toks: list[Token], lb: int,
                 atomics: frozenset[str], findings: list[Finding]) -> int:
    """Analyze the lambda whose capture list opens at toks[lb]; returns
    the index to resume the caller's scan at."""
    try:
        cap_close = match_forward(toks, lb, "[", "]")
    except IndexError:
        return lb + 1

    # Parse the capture list: default `&`, named `&x` refs.
    default_ref = False
    by_ref: set[str] = set()
    k = lb + 1
    while k < cap_close:
        t = toks[k]
        if t.kind == "punct" and t.text == "&":
            nxt = toks[k + 1]
            if nxt.kind == "id":
                by_ref.add(nxt.text)
                k += 2
                continue
            default_ref = True
        k += 1
    if not default_ref and not by_ref:
        return cap_close + 1  # by-value / empty capture: nothing shared

    # Parameter names (worker-slot evidence for subscripted writes).
    params: set[str] = set()
    p = cap_close + 1
    body_open = None
    if p < len(toks) and toks[p].text == "(":
        try:
            p_close = match_forward(toks, p, "(", ")")
        except IndexError:
            return cap_close + 1
        chunk_last_id: Token | None = None
        depth = 0
        for q in range(p + 1, p_close):
            tq = toks[q]
            if tq.kind == "punct":
                if tq.text in ("(", "[", "{", "<"):
                    depth += 1
                elif tq.text in (")", "]", "}", ">"):
                    depth -= 1
                elif tq.text == "," and depth == 0:
                    if chunk_last_id is not None:
                        params.add(chunk_last_id.text)
                    chunk_last_id = None
                continue
            if tq.kind == "id" and depth == 0:
                chunk_last_id = tq
        if chunk_last_id is not None:
            params.add(chunk_last_id.text)
        p = p_close + 1
    # Skip specifiers (mutable, noexcept, -> Ret) to the body brace; a
    # long gap means this isn't a lambda shape we recognize.
    limit = p + 12
    while p < min(limit, len(toks)) and toks[p].text != "{":
        p += 1
    if p >= len(toks) or toks[p].text != "{":
        return cap_close + 1
    body_open = p
    try:
        body_close = match_forward(toks, body_open, "{", "}")
    except IndexError:
        return cap_close + 1
    body = toks[body_open + 1:body_close]
    declared = _body_declared_names(body) | params

    guard_at: list[int] = [
        bi for bi, bt in enumerate(body)
        if bt.kind == "id" and bt.text in _GUARD_TYPES
    ]

    def is_safe(root: Token | None, subs: list[Token], at: int) -> bool:
        if root is None:
            return True  # could not resolve: stay silent
        if root.text in declared or root.text in atomics:
            return True
        if any(s.kind == "id" and s.text in params for s in subs):
            return True  # worker-slot / out[index] idiom
        if any(g < at for g in guard_at):
            return True  # a lock guard precedes the write
        if not default_ref and root.text not in by_ref:
            return True  # not captured by reference
        return False

    def flag(root: Token, how: str) -> None:
        findings.append(Finding(
            rule="parallel-capture",
            path=ctx.relpath,
            line=root.line,
            col=root.col,
            message=(
                f"pool-task lambda {how} by-reference capture "
                f"`{root.text}` with no worker-slot index, atomic, or "
                f"lock guard; concurrent tasks race on it — index by "
                f"the lambda's worker/index parameter, make it atomic, "
                f"or guard it (see util/parallel.hpp's determinism "
                f"contract)"
            ),
            line_text=ctx.line_text(root.line),
            end_col=root.col + len(root.text),
        ))

    for bi, bt in enumerate(body):
        if bt.kind != "punct":
            continue
        if bt.text == "=" or bt.text in _COMPOUND_ASSIGN:
            root, subs = _target_root(body, bi, 0)
            if not is_safe(root, subs, bi):
                flag(root, f"writes (`{bt.text}`) the")
        elif bt.text in ("++", "--"):
            if bi + 1 < len(body) and body[bi + 1].kind == "id":
                root, subs = body[bi + 1], []
            else:
                root, subs = _target_root(body, bi, 0)
            if not is_safe(root, subs, bi):
                flag(root, f"mutates (`{bt.text}`) the")
        elif (bt.text in (".", "->") and bi + 2 < len(body)
                and body[bi + 1].kind == "id"
                and body[bi + 1].text in _MUTATOR_METHODS
                and body[bi + 2].text == "("):
            root, subs = _target_root(body, bi, 0)
            if not is_safe(root, subs, bi):
                flag(root, f"calls `{body[bi + 1].text}()` on the")
    return body_close + 1


# ---- rule: unseeded-rng ------------------------------------------------------

_ENGINES = frozenset({
    "mt19937", "mt19937_64", "default_random_engine", "minstd_rand",
    "minstd_rand0", "ranlux24", "ranlux48", "ranlux24_base",
    "ranlux48_base", "knuth_b",
})


def check_unseeded_rng(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    toks = ctx.tokens

    def flag(tok: Token, msg: str) -> None:
        findings.append(Finding(
            rule="unseeded-rng", path=ctx.relpath, line=tok.line,
            col=tok.col, message=msg, line_text=ctx.line_text(tok.line),
        ))

    for i in range(len(toks)):
        t = toks[i]
        if t.kind != "id":
            continue
        if t.text == "random_device":
            flag(t, "std::random_device draws fresh entropy; take an "
                    "explicit seed (util::derive_stream_seed) so runs "
                    "stay bit-identical")
            continue
        if t.text not in _ENGINES:
            continue
        # Engine type name: inspect what follows to find the constructor.
        j = i + 1
        if j < len(toks) and toks[j].text == "::":
            continue  # std::mt19937::result_type etc.
        msg = ("RNG engine constructed without a seed; every stochastic "
               "component takes an explicit seed "
               "(util::derive_stream_seed) — default-seeded engines make "
               "trial results non-reproducible")
        if j < len(toks) and toks[j].kind == "id":  # declaration
            k = j + 1
            if k >= len(toks):
                continue
            nxt = toks[k]
            if nxt.text == ";":
                flag(toks[j], msg)
            elif nxt.text in ("(", "{"):
                close = match_forward(
                    toks, k, nxt.text, ")" if nxt.text == "(" else "}"
                )
                if close == k + 1:
                    flag(toks[j], msg)
        elif j < len(toks) and toks[j].text in ("(", "{"):  # temporary
            close = match_forward(
                toks, j, toks[j].text, ")" if toks[j].text == "(" else "}"
            )
            if close == j + 1:
                flag(t, msg)
    return findings


# ---- rule: mn-code-extraction ------------------------------------------------

MN_CODE = re.compile(r"\bMN-[A-Z]{2,4}-\d{3}\b")


def extract_mn_codes(ctx: FileContext) -> dict[str, tuple[int, int]]:
    """code -> (line, col) of its first string-literal occurrence.

    Exact by construction: only codes inside string literals count, so a
    code mentioned in a comment ("see MN-SPI-008") can never masquerade
    as an emission site the way it does for a line-regex scan.
    """
    out: dict[str, tuple[int, int]] = {}
    for t in ctx.tokens:
        if t.kind != "str":
            continue
        for code in MN_CODE.findall(t.text):
            out.setdefault(code, (t.line, t.col))
    return out


PER_FILE_CHECKS = {
    "fp-equality": check_fp_equality,
    "quantity-narrowing": check_quantity_narrowing,
    "swallowed-exception": check_swallowed_exception,
    "lock-discipline": check_lock_discipline,
    "unseeded-rng": check_unseeded_rng,
    "parallel-capture": check_parallel_capture,
    "raw-thread": check_raw_thread,
    "atomic-order": check_atomic_order,
}
