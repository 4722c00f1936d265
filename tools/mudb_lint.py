#!/usr/bin/env python3
"""mudb-lint: machine-enforcement of the mudb determinism contract.

Every estimate this repo produces must be bit-identical for any thread
count or tracing mode (ARCHITECTURE.md, "Determinism contract"). The contract used to live in prose and in runtime
tests that catch violations after the fact; this linter encodes it as named,
token-level rules that run on every push with no compiler dependency.

Rules (see BUILDING.md "Static analysis" for the policy):

  no-raw-clock        std::chrono::{steady,system,high_resolution}_clock::now()
                      anywhere outside src/obs/clock.cc. All timers go
                      through obs::Clock so tests can fake time and so no
                      result-producing path can observe wall time.
  no-ambient-entropy  std::random_device, rand(), srand(), time(nullptr),
                      getenv() in src/. All randomness flows from the caller
                      seed via util::Rng substreams; configuration flows
                      through options structs, never the environment.
  no-signgam-lgamma   lgamma / lgamma_r / signgam outside the reentrant
                      wrapper in src/geom/geometry.cc. glibc's lgamma()
                      writes the process-global `signgam` (the PR 8 data
                      race); the wrapper uses lgamma_r and is the one
                      audited call site.
  no-raw-thread       std::thread storage or construction, std::jthread,
                      std::async, pthread_create, hardware_concurrency()
                      in src/ outside util::ThreadPool. Ad-hoc threads
                      bypass the pool's substream/grid discipline; an
                      audited exception carries an inline allow-pragma
                      with its reason.
  no-threadcount-grid A thread-count value (num_threads, NumThreads(),
                      ResolveThreadCount(), hardware_concurrency()) linked
                      by arithmetic or assignment to a chunk/grid/lane-
                      shaped identifier. Work grids must be derived from
                      the workload, never the thread count.
                      The estimators take a pool, never a thread count, and
                      hand it with a workload-derived grid to the audited
                      seams (util::ReduceSampleChunks, ThreadPool::RunGrid);
                      a thread count and a grid shape passed to a seam as
                      separate arguments are not flagged.
  no-unordered-iteration-in-results
                      Range-for over a std::unordered_{map,set} (including
                      via typedefs and functions returning one) in result-
                      producing modules (src/ minus src/obs, src/util).
                      Hash-table iteration order is not part of the
                      contract; iterate a sorted copy or annotate why the
                      loop is order-insensitive.
  obs-purity          util::Rng use (or rng.h / parallel.h includes) inside
                      src/obs/. The observability layer must not draw RNG
                      or feed work grids: tracing on or off leaves every
                      estimate bit-identical.

Suppression: only via an inline pragma

    // mudb-lint: allow(<rule>[, <rule>...]) -- <reason>

placed either at the end of the offending line or on a comment line above
it (it then applies to the next line that holds code, so it may close an
explanatory comment block). The reason is mandatory. A pragma that suppresses nothing is itself an
error (stale-pragma), so the allowlist can never rot; an unknown rule name
or a missing reason is a bad-pragma error.

Usage:
    tools/mudb_lint.py [--root DIR] [--json] [--list-rules] [paths...]

With no paths, scans src/ bench/ examples/ tests/ under --root (default:
the repository root containing this script), excluding tests/lint_fixtures
(deliberate violations used by the linter's own test suite). Output is
deterministic: violations sorted by (path, line, rule). Exit status: 0
clean, 1 violations found, 2 usage or internal error.
"""

import argparse
import json
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "examples", "tests")
SCAN_EXTS = (".cc", ".h")
EXCLUDE_PREFIXES = ("tests/lint_fixtures/",)

# ---------------------------------------------------------------------------
# Source scanning: blank out comments and string/char literals so rule
# regexes only ever see code, while collecting comments for pragma parsing.
# ---------------------------------------------------------------------------


def strip_code(text):
    """Return (code, comments): `code` is `text` with comments, string
    literals, and char literals replaced by spaces (newlines preserved, so
    offsets and line numbers survive); `comments` is a list of
    (line_number, comment_text) with line numbers 1-based at the comment
    start. Handles //, /* */, "...", '...', and R"delim(...)delim"."""
    out = []
    comments = []
    i, n = 0, len(text)
    line = 1

    def blank(segment):
        return "".join(c if c == "\n" else " " for c in segment)

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comments.append((line, text[i:j]))
            out.append(blank(text[i:j]))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comments.append((line, text[i:j]))
            seg = text[i:j]
            out.append(blank(seg))
            line += seg.count("\n")
            i = j
        elif c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                seg = text[i:j]
                out.append(blank(seg))
                line += seg.count("\n")
                i = j
            else:
                out.append(c)
                i += 1
        elif c == '"' or c == "'":
            # Don't treat digit separators / apostrophes in numbers as char
            # literals: 1'000'000.
            if c == "'" and i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
                out.append(" ")
                i += 1
                continue
            # Keep #include "..." paths visible: rules match on them.
            if c == '"':
                line_start = text.rfind("\n", 0, i) + 1
                if re.match(r'\s*#\s*include\s*$', text[line_start:i]):
                    j = text.find('"', i + 1)
                    j = n if j == -1 else j + 1
                    out.append(text[i:j])
                    i = j
                    continue
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            seg = text[i:j]
            out.append(quote + blank(seg[1:-1]) + (seg[-1] if len(seg) > 1 else ""))
            line += seg.count("\n")
            i = j
        else:
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(out), comments


def line_of(code, pos):
    return code.count("\n", 0, pos) + 1


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

PRAGMA_RE = re.compile(r"mudb-lint:\s*allow\(([^)]*)\)\s*(?:--\s*(\S.*))?")


class Pragma:
    def __init__(self, path, pragma_line, target_line, rules, reason):
        self.path = path
        self.line = pragma_line    # line the pragma comment starts on
        self.target = target_line  # line whose violations it suppresses
        self.rules = rules
        self.reason = reason
        self.used = {r: False for r in rules}


def pragma_target(code_lines, pragma_line):
    """A pragma on a line that also holds code suppresses that line; a
    pragma on a comment-only line suppresses the next line holding code
    (so it can sit on top of an explanatory comment block)."""
    idx = pragma_line - 1
    if idx < len(code_lines) and code_lines[idx].strip():
        return pragma_line
    for i in range(idx + 1, min(idx + 11, len(code_lines))):
        if code_lines[i].strip():
            return i + 1
    return pragma_line


def parse_pragmas(path, comments, code, known_rules, violations):
    pragmas = []
    code_lines = code.split("\n")
    for line, text in comments:
        if "mudb-lint" not in text:
            continue
        m = PRAGMA_RE.search(text)
        if not m:
            violations.append(
                Violation(path, line, "bad-pragma",
                          "malformed mudb-lint pragma; expected "
                          "`mudb-lint: allow(<rule>) -- <reason>`"))
            continue
        rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
        reason = (m.group(2) or "").strip()
        bad = [r for r in rules if r not in known_rules]
        if bad:
            violations.append(
                Violation(path, line, "bad-pragma",
                          "unknown rule(s) in pragma: " + ", ".join(sorted(bad))))
            continue
        if not rules:
            violations.append(
                Violation(path, line, "bad-pragma", "pragma allows no rules"))
            continue
        if not reason:
            violations.append(
                Violation(path, line, "bad-pragma",
                          "pragma missing reason (`-- <reason>` is mandatory)"))
            continue
        pragmas.append(Pragma(path, line, pragma_target(code_lines, line),
                              rules, reason))
    return pragmas


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule, self.message)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def in_scope(relpath, dirs, exempt):
    rel = relpath.replace(os.sep, "/")
    if rel in exempt:
        return False
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


class RegexRule:
    """Flags every match of any pattern in the blanked code."""

    def __init__(self, name, message, patterns, dirs, exempt=()):
        self.name = name
        self.message = message
        self.patterns = [re.compile(p) for p in patterns]
        self.dirs = dirs
        self.exempt = set(exempt)

    def check(self, relpath, code, out):
        if not in_scope(relpath, self.dirs, self.exempt):
            return
        for pat in self.patterns:
            for m in pat.finditer(code):
                out.append(Violation(relpath, line_of(code, m.start()),
                                     self.name, self.message))


IDENT_RE = re.compile(r"[A-Za-z_]\w*")

THREAD_TOKENS = {
    "num_threads", "n_threads", "nthreads", "thread_count", "NumThreads",
    "ResolveThreadCount", "hardware_concurrency", "router_threads",
}
GRID_SUBSTRINGS = ("chunk", "grid", "lane", "work_item")
# The audited transfer seams: a thread count *and* a grid shape passed to
# these as separate arguments are not flagged.
GRID_IDENT_EXEMPT = {"ReduceSampleChunks", "RunGrid", "PartitionChainGrid"}
LINK_OPS = set("=*/%+-<>?")


class ThreadcountGridRule:
    """no-threadcount-grid: a thread-count token linked by arithmetic or
    assignment (with no intervening argument-separating comma) to a
    chunk/grid/lane-shaped identifier within one statement."""

    name = "no-threadcount-grid"
    message = ("thread count flows into chunk/grid-size arithmetic; work "
               "grids must be derived from the workload, never the thread "
               "count (ARCHITECTURE.md determinism contract)")

    def __init__(self, dirs, exempt=()):
        self.dirs = dirs
        self.exempt = set(exempt)

    def check(self, relpath, code, out):
        if not in_scope(relpath, self.dirs, self.exempt):
            return
        # Statement boundaries: ';', '{', '}' at any depth is close enough
        # for a token-level pass (for(;;) headers over-split, which only
        # narrows the window and can't create false positives).
        start = 0
        for m in re.finditer(r"[;{}]", code):
            self._check_stmt(relpath, code, start, m.start(), out)
            start = m.end()
        self._check_stmt(relpath, code, start, len(code), out)

    def _check_stmt(self, relpath, code, lo, hi, out):
        stmt = code[lo:hi]
        idents = [(m.start(), m.group(0)) for m in IDENT_RE.finditer(stmt)]
        threads = [(p, t) for p, t in idents if t in THREAD_TOKENS]
        if not threads:
            return
        grids = [
            (p, t) for p, t in idents
            if t not in GRID_IDENT_EXEMPT and t not in THREAD_TOKENS
            and any(s in t.lower() for s in GRID_SUBSTRINGS)
        ]
        if not grids:
            return
        flagged = set()
        for tp, _ in threads:
            for gp, _ in grids:
                a, b = min(tp, gp), max(tp, gp)
                between = stmt[a:b]
                if "," in between:
                    continue  # separate arguments, not an expression link
                if any(op in between for op in LINK_OPS):
                    line = line_of(code, lo + b)
                    if line not in flagged:
                        flagged.add(line)
                        out.append(Violation(relpath, line, self.name,
                                             self.message))


UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
USING_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")


def matching_angle(code, pos):
    """pos points just past '<'; return index just past the matching '>',
    or -1. Treats '>>' as two closes (template context)."""
    depth = 1
    i = pos
    while i < len(code):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":
            return -1  # gave up: operator< in an expression, not a template
        i += 1
    return -1


class UnorderedIterationRule:
    """no-unordered-iteration-in-results: range-for over a name declared as
    an unordered container (or a typedef of one) in the same translation
    unit (own file + sibling .h/.cc with the same stem — generic variable
    names like `base` must not alias across unrelated files), or a call to
    a function declared *anywhere in the scanned tree* as returning one
    (accessors like base_map() are declared in headers and iterated
    elsewhere)."""

    name = "no-unordered-iteration-in-results"
    message = ("range-for over an unordered container in a result-producing "
               "module; hash-table iteration order is outside the "
               "determinism contract — iterate a sorted copy or annotate "
               "why the loop is order-insensitive")

    def __init__(self, dirs, exempt=()):
        self.dirs = dirs
        self.exempt = set(exempt)
        self.vars_by_file = {}   # relpath -> set of variable names
        self.fn_names = set()    # global: functions returning unordered

    def collect(self, relpath, code):
        """Pass 1 over every scanned file."""
        local = set()
        aliases = {m.group(1) for m in USING_ALIAS_RE.finditer(code)}
        for m in UNORDERED_DECL_RE.finditer(code):
            end = matching_angle(code, m.end())
            if end == -1:
                continue
            tail = code[end:end + 200]
            dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*([;({=])?", tail)
            if dm and dm.group(1):
                if dm.group(2) == "(":
                    self.fn_names.add(dm.group(1))
                else:
                    local.add(dm.group(1))
        for alias in aliases:
            local.add(alias)
            for dm in re.finditer(r"\b%s\s*&?\s+([A-Za-z_]\w*)" % re.escape(alias),
                                  code):
                local.add(dm.group(1))
        self.vars_by_file[relpath] = local

    def _local_names(self, relpath):
        names = set(self.vars_by_file.get(relpath, ()))
        stem, ext = os.path.splitext(relpath)
        for sibling_ext in (".h", ".cc"):
            if sibling_ext != ext:
                names |= self.vars_by_file.get(stem + sibling_ext, set())
        return names

    def check(self, relpath, code, out):
        if not in_scope(relpath, self.dirs, self.exempt):
            return
        local_names = self._local_names(relpath)
        for m in RANGE_FOR_RE.finditer(code):
            # Find the matching close paren of the for(...) header.
            depth = 0
            i = m.end() - 1
            colon = -1
            while i < len(code):
                c = code[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif c == ":" and depth == 1:
                    # Skip '::' scope operators.
                    if code[i + 1 : i + 2] == ":":
                        i += 2
                        continue
                    if code[i - 1 : i] == ":":
                        i += 1
                        continue
                    colon = i
                i += 1
            if colon == -1 or i >= len(code):
                continue
            range_expr = code[colon + 1 : i]
            names = IDENT_RE.findall(range_expr)
            if not names:
                continue
            last = names[-1]
            is_call = re.search(r"\b%s\s*\([^()]*\)\s*$" % re.escape(last),
                                range_expr) is not None
            hit = (last in self.fn_names) if is_call else (last in local_names)
            if hit:
                out.append(Violation(relpath, line_of(code, colon), self.name,
                                     self.message))


def build_rules():
    src = ("src",)
    everywhere = ("src", "bench", "examples", "tests")
    results = tuple(
        "src/" + d for d in (
            "constraints", "convex", "datagen", "engine", "geom", "io",
            "logic", "lp", "measure", "model", "poly", "service", "sql",
            "translate", "volume"))
    return [
        RegexRule(
            "no-raw-clock",
            "raw std::chrono clock read; all timers must go "
            "through obs::Clock (src/obs/clock.h) so time is fakeable and "
            "result paths can never observe it",
            [r"\b(?:steady_clock|system_clock|high_resolution_clock)"
             r"\s*::\s*now\b"],
            everywhere,
            exempt=("src/obs/clock.cc",)),
        RegexRule(
            "no-ambient-entropy",
            "ambient entropy source; all randomness must flow from the "
            "caller's seed via util::Rng substreams and configuration "
            "through options structs, never the environment",
            [r"\brandom_device\b",
             r"(?<![\w:])s?rand\s*\(",
             r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)",
             r"(?<![\w:])getenv\s*\(",
             r"\bstd\s*::\s*getenv\b"],
            src),
        RegexRule(
            "no-signgam-lgamma",
            "lgamma/signgam outside the reentrant wrapper; glibc lgamma() "
            "writes the process-global `signgam` (data race under "
            "concurrent callers) — call mudb::geom's wrapper instead",
            [r"\b(?:lgamma_r|lgammaf_r|lgammaf|lgammal|lgamma|signgam)\b"],
            everywhere,
            exempt=("src/geom/geometry.cc",)),
        RegexRule(
            "no-raw-thread",
            "raw thread storage/construction outside util::ThreadPool; "
            "ad-hoc threads bypass the pool's substream and work-grid "
            "discipline",
            [r"\bstd\s*::\s*thread\b(?!\s*&)",
             r"\bstd\s*::\s*jthread\b",
             r"\bstd\s*::\s*async\s*[(<]",
             r"\bpthread_create\b",
             r"\bhardware_concurrency\b"],
            src,
            exempt=("src/util/thread_pool.h", "src/util/thread_pool.cc")),
        ThreadcountGridRule(src),
        UnorderedIterationRule(results),
        RegexRule(
            "obs-purity",
            "util::Rng (or a sampling-runtime include) inside src/obs/; "
            "the observability layer must draw no RNG and feed no work "
            "grid so tracing can never perturb results",
            [r"\bRng\b",
             r"src/util/rng\.h",
             r"src/util/parallel\.h",
             r"\bReduceSampleChunks\b"],
            ("src/obs",)),
    ]


RULE_DOCS = {
    "no-raw-clock": "raw std::chrono *_clock::now() outside src/obs/clock.cc",
    "no-ambient-entropy": "random_device/rand/srand/time(nullptr)/getenv in src/",
    "no-signgam-lgamma": "lgamma/signgam outside src/geom/geometry.cc",
    "no-raw-thread": "std::thread et al. outside util::ThreadPool",
    "no-threadcount-grid": "thread count linked into chunk/grid arithmetic",
    "no-unordered-iteration-in-results": "range-for over unordered containers "
                                         "in result modules",
    "obs-purity": "util::Rng use inside src/obs/",
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(root, paths):
    files = []
    if paths:
        for p in paths:
            ap = os.path.join(root, p) if not os.path.isabs(p) else p
            if os.path.isdir(ap):
                for dirpath, _, names in os.walk(ap):
                    for name in sorted(names):
                        if name.endswith(SCAN_EXTS):
                            files.append(os.path.join(dirpath, name))
            elif os.path.isfile(ap):
                files.append(ap)
            else:
                raise FileNotFoundError(p)
    else:
        for d in SCAN_DIRS:
            base = os.path.join(root, d)
            if not os.path.isdir(base):
                continue
            for dirpath, _, names in os.walk(base):
                for name in sorted(names):
                    if name.endswith(SCAN_EXTS):
                        files.append(os.path.join(dirpath, name))
    rels = sorted(os.path.relpath(f, root).replace(os.sep, "/") for f in files)
    return [r for r in rels
            if not any(r.startswith(e) for e in EXCLUDE_PREFIXES)]


def apply_pragmas(violations, pragmas):
    """Suppress violations on a pragma's target line; return surviving
    violations. Marks pragma rules used."""
    by_loc = {}
    for p in pragmas:
        for r in p.rules:
            by_loc.setdefault((p.path, p.target, r), []).append(p)
    survivors = []
    for v in violations:
        hits = by_loc.get((v.path, v.line, v.rule), ())
        if hits:
            hits[0].used[v.rule] = True
        else:
            survivors.append(v)
    return survivors


def main(argv):
    ap = argparse.ArgumentParser(
        prog="mudb_lint.py",
        description="token-level determinism-contract linter for mudb")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON on stdout")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("paths", nargs="*",
                    help="files or directories relative to --root "
                         "(default: src bench examples tests)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULE_DOCS):
            print("%-36s %s" % (name, RULE_DOCS[name]))
        return 0

    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        files = collect_files(root, args.paths)
    except FileNotFoundError as e:
        print("mudb-lint: no such file or directory: %s" % e, file=sys.stderr)
        return 2

    rules = build_rules()
    known = set(RULE_DOCS)
    unordered_rule = next(r for r in rules
                          if isinstance(r, UnorderedIterationRule))

    stripped = {}
    violations = []
    pragmas = []
    for rel in files:
        try:
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as f:
                text = f.read()
        except OSError as e:
            print("mudb-lint: cannot read %s: %s" % (rel, e), file=sys.stderr)
            return 2
        code, comments = strip_code(text)
        stripped[rel] = code
        pragmas.extend(parse_pragmas(rel, comments, code, known, violations))
        unordered_rule.collect(rel, code)

    for rel in files:
        for rule in rules:
            rule.check(rel, stripped[rel], violations)

    violations = apply_pragmas(violations, pragmas)
    for p in pragmas:
        for rule_name, used in sorted(p.used.items()):
            if not used:
                violations.append(Violation(
                    p.path, p.line, "stale-pragma",
                    "pragma allows `%s` but suppresses nothing; delete it "
                    "(the allowlist must not rot)" % rule_name))

    # Deterministic order; collapse duplicate (file, line, rule) hits (e.g.
    # std::thread::hardware_concurrency() trips two patterns of one rule).
    violations.sort(key=Violation.key)
    deduped = []
    for v in violations:
        if not deduped or (v.path, v.line, v.rule) != \
                (deduped[-1].path, deduped[-1].line, deduped[-1].rule):
            deduped.append(v)
    violations = deduped

    if args.json:
        doc = {
            "schema_version": 1,
            "files_scanned": len(files),
            "pragmas": len(pragmas),
            "violations": [
                {"file": v.path, "line": v.line, "rule": v.rule,
                 "message": v.message}
                for v in violations
            ],
        }
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for v in violations:
            print("%s:%d: [%s] %s" % (v.path, v.line, v.rule, v.message))
        print("mudb-lint: %d file(s), %d pragma(s), %d violation(s)"
              % (len(files), len(pragmas), len(violations)))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
