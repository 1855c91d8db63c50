#!/usr/bin/env python3
"""pw-lint: repo-specific static invariants clang-tidy cannot express.

Rules (see docs/STATIC_ANALYSIS.md for the full contract vocabulary):

  no-alloc          Functions whose definitions carry PW_NO_ALLOC, and
                    regions between `// PW_NO_ALLOC_BEGIN(...)` and
                    `// PW_NO_ALLOC_END` markers, must not heap-allocate:
                    no `new`, no std::make_shared/make_unique, no local
                    construction of owning containers (std::vector,
                    std::string, maps/sets) or value-semantic
                    Matrix/Vector locals, and no calls to
                    value-returning Matrix ops (.Transpose(),
                    .Inverse(), .SelectSubmatrix(), .Row(), .Col()).
                    Exceptions: statements that are
                    `return Status::...` error exits (building the error
                    message aborts the hot path anyway), and lines
                    covered by an explicit allow directive.

  nodiscard-status  Every function declaration in a src/ header that
                    returns Status or Result<T> must carry PW_NODISCARD.

  rng-discipline    No Rng construction in src/ outside common/rng.*:
                    derived streams must come from Rng::Fork so parallel
                    and serial runs stay bit-identical. Root seed
                    streams at experiment entry points carry an explicit
                    allow directive justifying themselves.

  raw-storage       No raw double* walks over matrix storage outside
                    src/linalg/: no pointer arithmetic on .data() and no
                    double* locals initialized from .data(). Use the
                    view layer (linalg/views.h), which keeps stride math
                    bounds-checked and inside the linalg boundary.

  iwyu-project      Files using a project facility must include its
                    header directly (no transitive-include reliance) for
                    a curated symbol -> header map (check/status/
                    rng/views/obs macros).

  sync-discipline   No raw standard-library synchronization primitives
                    (std::mutex, std::shared_mutex, std::lock_guard,
                    std::unique_lock, std::condition_variable, ...)
                    outside common/sync.h: all locking goes through the
                    annotated Mutex/SharedMutex/MutexLock/CondVar layer
                    so the Clang thread-safety analysis and the debug
                    lock-rank tracker see every acquisition. And inside
                    any class that declares a Mutex/SharedMutex member,
                    every mutable data member must be PW_GUARDED_BY,
                    std::atomic, const, or carry a justified allow —
                    an unannotated field next to a lock is exactly the
                    bug the contract layer exists to make impossible.

  atomic-ordering   Every atomic access spells out its memory order:
                    .load/.store/.exchange/.fetch_*/.compare_exchange_*
                    calls must name an explicit std::memory_order
                    (matched across wrapped lines), and bare ++/--/+=/=
                    on a variable declared std::atomic in the same file
                    is flagged as an implicit seq_cst. The tree's
                    orders are a reviewed decision (docs/PARALLELISM.md);
                    defaulting hides that decision from the reader.

  single-producer   A type whose definition carries a
                    `// PW_SINGLE_PRODUCER(Method, ...)` marker (e.g.
                    SpscQueue::TryPush) has producer methods that are
                    safe from exactly one thread. Every call site of a
                    marked method must carry a `// pw-producer:` comment
                    (covering its own line, any wrapped comment lines,
                    and the next code line) naming the argument for why
                    this caller is the single producer.

Suppressions:
  - Inline: a comment `pw-lint: allow(<rule>)` suppresses findings of
    <rule> on its own line and the following line. Always append a
    reason: `// pw-lint: allow(no-alloc) result escapes to caller.`
  - Baseline: tools/pw_lint_baseline.txt lists `file:rule` pairs that
    are accepted legacy findings. The tree's baseline is empty; keep it
    that way.

Exit status: 0 when no findings outside the baseline, 1 otherwise,
2 on usage/internal errors.

Self-test: `pw_lint.py --self-test` lints the fixture files under
tools/lint_fixtures/ and verifies that each seeded violation is caught
and that the clean fixture stays clean.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BASELINE_PATH = REPO / "tools" / "pw_lint_baseline.txt"
FIXTURES = REPO / "tools" / "lint_fixtures"

RULES = (
    "no-alloc",
    "nodiscard-status",
    "rng-discipline",
    "raw-storage",
    "iwyu-project",
    "sync-discipline",
    "atomic-ordering",
    "single-producer",
)

ALLOW_RE = re.compile(r"pw-lint:\s*allow\(([a-z-]+)\)")
NO_ALLOC_BEGIN_RE = re.compile(r"PW_NO_ALLOC_BEGIN\(([^)]*)\)")
NO_ALLOC_END_RE = re.compile(r"PW_NO_ALLOC_END")

# Banned constructs inside a no-alloc span. Each entry: (regex, message).
NO_ALLOC_BANNED = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\bstd::make_(?:shared|unique)\b"), "std::make_shared/make_unique"),
    (
        re.compile(
            r"\b(?:std::)?(?:vector|string|unordered_map|unordered_set|map|set|deque|list)\s*<[^;()]*>\s+\w+"
        ),
        "owning container construction",
    ),
    (re.compile(r"\bstd::string\s+\w+"), "std::string construction"),
    (
        # Value-semantic Matrix/Vector local (references and views do
        # not match: '&' breaks the pattern, and View types have no
        # word boundary after Matrix/Vector).
        re.compile(r"\b(?:linalg::)?(?:Matrix|Vector|ComplexMatrix)\s+\w+\s*[;({=]"),
        "value-semantic Matrix/Vector construction",
    ),
    (
        re.compile(r"\.\s*(?:Transpose|Inverse)\s*\(\s*\)"),
        "value-returning Matrix op",
    ),
    (
        re.compile(r"\.\s*(?:SelectSubmatrix|Row|Col)\s*\("),
        "value-returning Matrix op",
    ),
]

BARE_STATUS_DECL_RE = re.compile(
    r"^\s*(?:static\s+)?(?:Status|Result<[^;=]*>)\s+[A-Za-z_]\w*\s*\("
)

RNG_CONSTRUCT_RE = re.compile(r"\bRng\s+\w+\s*(?:\(|\{)|=\s*Rng\s*(?:\(|\{)|\bnew\s+Rng\b")

RAW_STORAGE_RES = [
    re.compile(r"\.data\(\)\s*\+"),
    re.compile(r"\.data\(\)\s*\["),
    re.compile(r"\bdouble\s*\*\s*\w+\s*=\s*[^;]*\.data\(\)"),
    re.compile(r"\bconst\s+double\s*\*\s*\w+\s*=\s*[^;]*\.data\(\)"),
]

# iwyu-project: symbol pattern -> required direct include.
IWYU_MAP = [
    (
        re.compile(r"\bPW_CHECK|\bPW_DCHECK|\bPW_NODISCARD\b|\bPW_NO_ALLOC\b|\bPW_HOT_PATH\b"),
        "common/check.h",
    ),
    (
        re.compile(r"\bStatus\b|\bResult<|\bPW_RETURN_IF_ERROR\b|\bPW_ASSIGN_OR_RETURN\b"),
        "common/status.h",
    ),
    (re.compile(r"\bRng\b"), "common/rng.h"),
    (
        re.compile(
            r"\bConstMatrixView\b|\bMutableMatrixView\b|\bConstVectorView\b|\bVectorView\b"
            r"|\bMultiplyInto\b|\bMatVecInto\b|\bTransposedTimesInto\b|\bTransposeInto\b"
            r"|\bSelectSubmatrixInto\b|\bSubtractInto\b|\bCopyInto\b"
        ),
        "linalg/views.h",
    ),
    (re.compile(r"\bPW_OBS_"), "obs/metrics.h"),
    (re.compile(r"\bPW_TRACE_SCOPE\b"), "obs/trace.h"),
    (
        re.compile(
            r"\bMutex\b|\bSharedMutex\b|\bMutexLock\b|\bReaderLock\b|\bWriterLock\b"
            r"|\bCondVar\b|\bPW_GUARDED_BY\b|\bPW_PT_GUARDED_BY\b|\bPW_REQUIRES\b"
            r"|\bPW_REQUIRES_SHARED\b|\bPW_EXCLUDES\b|\block_rank::"
        ),
        "common/sync.h",
    ),
]

# sync-discipline: raw standard-library primitives banned outside
# common/sync.h (the annotated wrapper layer).
RAW_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
)

# Class/struct definition head (forward declarations are filtered by
# looking for '{' before ';'); the lookbehind skips `enum class`.
CLASS_RE = re.compile(r"(?<!enum )\b(?:class|struct)\s+[A-Za-z_]\w*")

SYNC_MEMBER_RE = re.compile(r"\b(?:Mutex|SharedMutex)\s+[A-Za-z_]\w*")

# atomic-ordering: member calls whose argument list must name an order.
ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or|"
    r"fetch_and|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\("
)

# single-producer: the type-side marker and the call-site directive.
SINGLE_PRODUCER_MARK_RE = re.compile(r"PW_SINGLE_PRODUCER\(([^)]*)\)")
PRODUCER_DIRECTIVE = "pw-producer:"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return f"{self.path}:{self.rule}"

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comment and string-literal contents, preserving line
    structure so line numbers survive."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append("\n" if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allow_lines(raw_lines):
    """Line numbers (1-based) covered by each rule's allow directives: a
    directive covers its own line and the next one."""
    allowed = {rule: set() for rule in RULES}
    for lineno, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            rule = m.group(1)
            if rule in allowed:
                allowed[rule].add(lineno)
                allowed[rule].add(lineno + 1)
    return allowed


def no_alloc_spans(raw_text, stripped_text):
    """(start_line, end_line, label) spans subject to the no-alloc rule:
    marked function bodies plus BEGIN/END regions. Lines are 1-based,
    inclusive."""
    spans = []
    raw_lines = raw_text.split("\n")

    # Region markers live in comments: scan the raw text.
    begin = None
    for lineno, line in enumerate(raw_lines, start=1):
        m = NO_ALLOC_BEGIN_RE.search(line)
        if m:
            begin = (lineno, m.group(1))
            continue
        if NO_ALLOC_END_RE.search(line) and begin is not None:
            spans.append((begin[0], lineno, begin[1] or "region"))
            begin = None

    # Marked definitions: find PW_NO_ALLOC in code (stripped text), then
    # brace-match the body that follows. Declarations (';' before '{' at
    # paren depth 0) are skipped.
    for m in re.finditer(r"\bPW_NO_ALLOC\b", stripped_text):
        i = m.end()
        depth = 0
        body_open = None
        while i < len(stripped_text):
            c = stripped_text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == ";" and depth == 0:
                break  # declaration only
            elif c == "{" and depth == 0:
                body_open = i
                break
            i += 1
        if body_open is None:
            continue
        depth = 0
        j = body_open
        while j < len(stripped_text):
            if stripped_text[j] == "{":
                depth += 1
            elif stripped_text[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        # The span starts at the body's opening brace, not the
        # annotation: return types in the signature (e.g. a
        # Result<std::vector<...>> that escapes to the caller) are type
        # names, not allocations.
        start_line = stripped_text.count("\n", 0, body_open) + 1
        end_line = stripped_text.count("\n", 0, j) + 1
        # Label with the function name: last identifier before '('.
        sig = stripped_text[m.end() : body_open]
        name_m = re.findall(r"([A-Za-z_][\w:]*)\s*\(", sig)
        label = name_m[0] if name_m else "function"
        spans.append((start_line, end_line, label))
    return spans


def statement_is_error_exit(stripped_lines, lineno):
    """True when the statement containing `lineno` (1-based) begins with
    `return Status::` — hot paths may build an error message on the way
    out."""
    before = "\n".join(stripped_lines[: lineno - 1])
    # Find the start of the current statement: after the last ; { or }
    # on a preceding line (the statement may span multiple lines).
    start = max(before.rfind(";"), before.rfind("{"), before.rfind("}"))
    head = before[start + 1 :] if start >= 0 else before
    current = stripped_lines[lineno - 1] if lineno - 1 < len(stripped_lines) else ""
    stmt = head + "\n" + current
    return re.match(r"\s*return\s+Status::", stmt) is not None


def collapse_templates(text):
    """Iteratively removes <...> template-argument lists (innermost
    first) so declaration heuristics are not confused by commas, parens,
    or nested angle brackets inside them."""
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"<[^<>\n]*>", "", text)
    return text


def match_paren(text, open_index):
    """Index of the ')' matching the '(' at open_index, or len(text)."""
    depth = 0
    i = open_index
    n = len(text)
    while i < n:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def class_bodies(stripped):
    """Yields (body_open_index, body_close_index) for every class/struct
    definition in the stripped text, including nested ones."""
    for m in CLASS_RE.finditer(stripped):
        i = m.end()
        while i < len(stripped) and stripped[i] not in "{;":
            i += 1
        if i >= len(stripped) or stripped[i] == ";":
            continue  # forward declaration
        depth = 0
        j = i
        while j < len(stripped):
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        yield i, j


def flatten_class_body(body):
    """Blanks everything nested deeper than the class body itself
    (inline method bodies, default member initializers, nested types)
    while preserving newlines, and turns the nested braces into ';' so
    an inline definition terminates its statement the way a declaration
    would. The result splits on ';' into member-level statements."""
    out = []
    depth = 1
    for c in body:
        if c == "{":
            depth += 1
            out.append(";" if depth == 2 else " ")
        elif c == "}":
            depth -= 1
            out.append(";" if depth == 1 else " ")
        elif c == "\n":
            out.append("\n")
        else:
            out.append(c if depth == 1 else " ")
    return "".join(out)


MEMBER_SKIP_RE = re.compile(
    r"^(?:using\b|typedef\b|friend\b|static\b|constexpr\b|enum\b|class\b"
    r"|struct\b|template\b|PW_[A-Z_]+\s*$)"
)


def check_sync_discipline(rel, stripped, stripped_lines, allowed, findings):
    # Raw primitives outside the wrapper layer.
    for lineno, line in enumerate(stripped_lines, start=1):
        if lineno in allowed["sync-discipline"]:
            continue
        m = RAW_SYNC_RE.search(line)
        if m:
            findings.append(
                Finding(
                    rel,
                    lineno,
                    "sync-discipline",
                    f"raw {m.group(0)} outside common/sync.h; use the "
                    f"annotated layer",
                )
            )

    # Guarded-field audit for Mutex-holding classes.
    for body_open, body_close in class_bodies(stripped):
        body = flatten_class_body(stripped[body_open + 1 : body_close])
        if not SYNC_MEMBER_RE.search(body):
            continue
        base_line = stripped.count("\n", 0, body_open) + 1
        pos = 0
        for stmt in body.split(";"):
            stmt_offset = pos + (len(stmt) - len(stmt.lstrip()))
            pos += len(stmt) + 1
            lineno = base_line + body.count("\n", 0, stmt_offset)
            flat = " ".join(stmt.split())
            flat = re.sub(r"^(?:public|private|protected)\s*:\s*", "", flat)
            if not flat:
                continue
            if lineno in allowed["sync-discipline"]:
                continue
            if "PW_GUARDED_BY" in flat or "PW_PT_GUARDED_BY" in flat:
                continue  # annotated
            if "std::atomic" in flat:
                continue  # atomics carry their own ordering contract
            if re.search(r"\b(?:Mutex|SharedMutex|CondVar)\b", flat):
                continue  # the sync members themselves
            if re.search(r"\bconst\b", flat):
                continue  # immutable (covers `T* const` handles too)
            if MEMBER_SKIP_RE.match(flat):
                continue
            # Strip annotations/alignas and collapse templates; whatever
            # still calls with '(' is a function, not a field.
            work = re.sub(r"\bPW_\w+\s*\([^()]*\)", "", flat)
            work = re.sub(r"\balignas\s*\([^()]*\)", "", work)
            work = collapse_templates(work)
            if "(" in work or ")" in work:
                continue
            names = re.findall(r"[A-Za-z_]\w*", work.split("=")[0])
            if not names:
                continue
            field = names[-1]
            findings.append(
                Finding(
                    rel,
                    lineno,
                    "sync-discipline",
                    f"mutable field '{field}' in a Mutex-holding class "
                    f"lacks PW_GUARDED_BY (or atomic/const/allow)",
                )
            )


def check_atomic_ordering(rel, stripped, stripped_lines, allowed, findings):
    # Calls: paren-match so wrapped argument lists are seen whole.
    for m in ATOMIC_CALL_RE.finditer(stripped):
        open_index = m.end() - 1
        close_index = match_paren(stripped, open_index)
        args = stripped[open_index + 1 : close_index]
        if "memory_order" in args:
            continue
        lineno = stripped.count("\n", 0, m.start()) + 1
        if lineno in allowed["atomic-ordering"]:
            continue
        findings.append(
            Finding(
                rel,
                lineno,
                "atomic-ordering",
                f"{m.group(1)}() without an explicit std::memory_order",
            )
        )

    # Bare operators on variables declared std::atomic in this file.
    collapsed = collapse_templates(stripped)
    names = set(re.findall(r"\bstd::atomic\s+([A-Za-z_]\w*)", collapsed))
    if not names:
        return
    alt = "|".join(re.escape(n) for n in sorted(names))
    # Increments and compound assignments anywhere; plain `name = ...`
    # only at statement start, so declarations of unrelated variables
    # that happen to share an atomic's name (`uint64_t samples = 0;`)
    # and member accesses on other types (`row.samples = ...`) do not
    # trip the heuristic.
    bare_re = re.compile(
        r"(?:\+\+|--)\s*(?:" + alt + r")\b"
        r"|\b(?:" + alt + r")\s*(?:\+\+|--|\+=|-=|\|=|&=|\^=)"
        r"|(?:^|[;{}(])\s*(?:" + alt + r")\s*=(?!=)"
    )
    for lineno, line in enumerate(stripped_lines, start=1):
        if lineno in allowed["atomic-ordering"]:
            continue
        if "std::atomic" in line:
            continue  # declaration with initializer
        m = bare_re.search(line)
        if m:
            findings.append(
                Finding(
                    rel,
                    lineno,
                    "atomic-ordering",
                    f"implicit seq_cst operator on atomic "
                    f"'{m.group(0).strip()}'; use an explicit "
                    f"load/store/fetch_* with a memory order",
                )
            )


_TREE_PRODUCER_METHODS = None


def tree_producer_methods():
    """Producer-marked method names collected across the whole src tree,
    so linting a single file still knows which calls are gated."""
    global _TREE_PRODUCER_METHODS
    if _TREE_PRODUCER_METHODS is None:
        methods = set()
        for path in default_paths():
            for m in SINGLE_PRODUCER_MARK_RE.finditer(path.read_text()):
                methods.update(s.strip() for s in m.group(1).split(",") if s.strip())
        _TREE_PRODUCER_METHODS = methods
    return _TREE_PRODUCER_METHODS


def producer_directive_lines(raw_lines):
    """Line numbers covered by `// pw-producer:` directives: the
    directive line, any immediately following comment-only lines (a
    wrapped justification), and the first code line after them."""
    covered = set()
    n = len(raw_lines)
    for idx, line in enumerate(raw_lines, start=1):
        if PRODUCER_DIRECTIVE not in line:
            continue
        covered.add(idx)
        k = idx + 1
        while k <= n and raw_lines[k - 1].lstrip().startswith("//"):
            covered.add(k)
            k += 1
        covered.add(k)
    return covered


def check_single_producer(rel, raw, raw_lines, stripped_lines, allowed, findings):
    methods = set(tree_producer_methods())
    for m in SINGLE_PRODUCER_MARK_RE.finditer(raw):
        methods.update(s.strip() for s in m.group(1).split(",") if s.strip())
    if not methods:
        return
    covered = producer_directive_lines(raw_lines)
    for method in sorted(methods):
        call_re = re.compile(r"(?:\.|->)\s*" + re.escape(method) + r"\s*\(")
        for lineno, line in enumerate(stripped_lines, start=1):
            if not call_re.search(line):
                continue
            if lineno in covered or lineno in allowed["single-producer"]:
                continue
            findings.append(
                Finding(
                    rel,
                    lineno,
                    "single-producer",
                    f"call to producer-gated {method}() without a "
                    f"`// pw-producer:` justification at the call site",
                )
            )


def lint_file(path, rel, findings):
    raw = path.read_text()
    raw_lines = raw.split("\n")
    stripped = strip_comments_and_strings(raw)
    stripped_lines = stripped.split("\n")
    allowed = allow_lines(raw_lines)
    in_linalg = rel.startswith("src/linalg/")
    is_header = rel.endswith(".h")

    # --- no-alloc ---
    for start, end, label in no_alloc_spans(raw, stripped):
        for lineno in range(start, end + 1):
            if lineno in allowed["no-alloc"]:
                continue
            line = stripped_lines[lineno - 1] if lineno - 1 < len(stripped_lines) else ""
            for pattern, what in NO_ALLOC_BANNED:
                if not pattern.search(line):
                    continue
                if statement_is_error_exit(stripped_lines, lineno):
                    continue
                findings.append(
                    Finding(rel, lineno, "no-alloc", f"{what} inside PW_NO_ALLOC {label}")
                )

    # --- nodiscard-status ---
    if is_header and rel != "src/common/status.h":
        for lineno, line in enumerate(stripped_lines, start=1):
            if lineno in allowed["nodiscard-status"]:
                continue
            if not BARE_STATUS_DECL_RE.match(line):
                continue
            if "PW_NODISCARD" in line:
                continue
            # The previous line may hold the annotation for a wrapped
            # declaration.
            prev = stripped_lines[lineno - 2] if lineno >= 2 else ""
            if "PW_NODISCARD" in prev:
                continue
            findings.append(
                Finding(
                    rel,
                    lineno,
                    "nodiscard-status",
                    "Status/Result-returning declaration lacks PW_NODISCARD",
                )
            )

    # --- rng-discipline ---
    if rel not in ("src/common/rng.h", "src/common/rng.cc"):
        for lineno, line in enumerate(stripped_lines, start=1):
            if lineno in allowed["rng-discipline"]:
                continue
            if RNG_CONSTRUCT_RE.search(line):
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        "rng-discipline",
                        "Rng constructed outside Rng::Fork seed streams",
                    )
                )

    # --- raw-storage ---
    if not in_linalg:
        for lineno, line in enumerate(stripped_lines, start=1):
            if lineno in allowed["raw-storage"]:
                continue
            for pattern in RAW_STORAGE_RES:
                if pattern.search(line):
                    findings.append(
                        Finding(
                            rel,
                            lineno,
                            "raw-storage",
                            "raw double* walk over matrix storage outside src/linalg/",
                        )
                    )
                    break

    # --- sync-discipline ---
    # common/sync.h IS the wrapper layer: it alone may touch the raw
    # primitives, and its internal classes are the contract, not users
    # of it.
    if rel != "src/common/sync.h":
        check_sync_discipline(rel, stripped, stripped_lines, allowed, findings)

    # --- atomic-ordering ---
    check_atomic_ordering(rel, stripped, stripped_lines, allowed, findings)

    # --- single-producer ---
    check_single_producer(rel, raw, raw_lines, stripped_lines, allowed, findings)

    # --- iwyu-project ---
    includes = set(re.findall(r'#include\s+"([^"]+)"', raw))
    for pattern, header in IWYU_MAP:
        if rel == "src/" + header:
            continue
        if header in includes:
            continue
        m = pattern.search(stripped)
        if not m:
            continue
        lineno = stripped.count("\n", 0, m.start()) + 1
        if lineno in allowed["iwyu-project"]:
            continue
        findings.append(
            Finding(
                rel,
                lineno,
                "iwyu-project",
                f'uses {m.group(0).strip()} but does not include "{header}" directly',
            )
        )


def load_baseline():
    if not BASELINE_PATH.exists():
        return set()
    entries = set()
    for line in BASELINE_PATH.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def run(paths, use_baseline=True):
    findings = []
    for path in paths:
        rel = str(path.relative_to(REPO)) if path.is_absolute() else str(path)
        lint_file(path if path.is_absolute() else REPO / path, rel, findings)
    if use_baseline:
        baseline = load_baseline()
        findings = [f for f in findings if f.key() not in baseline]
    return findings


def default_paths():
    return sorted(p for p in SRC.rglob("*") if p.suffix in (".h", ".cc"))


def self_test():
    """Lints the fixtures: every rule must fire on its seeded violation
    in bad_fixture.cc / bad_fixture.h, and good_fixture.cc must be
    clean."""
    bad_cc = FIXTURES / "bad_fixture.cc"
    bad_h = FIXTURES / "bad_fixture.h"
    good_cc = FIXTURES / "good_fixture.cc"
    for p in (bad_cc, bad_h, good_cc):
        if not p.exists():
            print(f"pw-lint self-test: missing fixture {p}", file=sys.stderr)
            return 2

    findings = []
    lint_file(bad_cc, "src/lint_fixtures/bad_fixture.cc", findings)
    lint_file(bad_h, "src/lint_fixtures/bad_fixture.h", findings)
    fired = {f.rule for f in findings}
    missing = set(RULES) - fired
    ok = True
    if missing:
        print(
            f"pw-lint self-test: rules did not fire on seeded violations: "
            f"{sorted(missing)}",
            file=sys.stderr,
        )
        ok = False

    clean = []
    lint_file(good_cc, "src/lint_fixtures/good_fixture.cc", clean)
    if clean:
        print("pw-lint self-test: clean fixture produced findings:", file=sys.stderr)
        for f in clean:
            print(f"  {f}", file=sys.stderr)
        ok = False

    if ok:
        print(
            f"pw-lint self-test ok: {len(findings)} seeded findings caught, "
            f"clean fixture clean"
        )
        return 0
    return 1


def main():
    parser = argparse.ArgumentParser(description="phasorwatch invariant linter")
    parser.add_argument("files", nargs="*", help="files to lint (default: src/)")
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report findings even when baselined",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the linter catches the seeded fixture violations",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if args.files:
        paths = [Path(f).resolve() for f in args.files]
    else:
        paths = default_paths()

    findings = run(paths, use_baseline=not args.no_baseline)
    for f in findings:
        print(f)
    if findings:
        print(f"pw-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"pw-lint: clean ({len(paths)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
