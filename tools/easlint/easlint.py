#!/usr/bin/env python3
"""easlint: project-specific static analysis for the energy-aware scheduler.

The simulator's reproducibility claims rest on invariants no general linter
knows about: every run must be bit-identical across thread counts, worker
counts and skip-ahead modes. easlint enforces the whole class at lint time
instead of one instance at test time. Three check families:

  determinism        In src/, wall-clock reads, rand()/srand()/
                     std::random_device and std::<random> engines are banned
                     (eas::Rng, explicitly seeded, is the one sanctioned
                     randomness source); iteration over std::unordered_{map,
                     set} is flagged (iteration order is
                     implementation-defined, so a result-affecting loop over
                     one breaks bit-identity); declaring an associative
                     container keyed by a pointer is flagged (address-keyed
                     order changes run to run - the historical seed case was
                     BalanceAggregateCache keying group aggregates by
                     `const CpuGroup*`).
  shard-confinement  Functions annotated EAS_SHARD_LOCAL (src/base/
                     annotations.h) run inside the package-parallel tick
                     region and must never reach an EAS_CROSS_SHARD function
                     - directly or through any call chain within src/. The
                     checker builds a token-level call graph and reports the
                     offending chain.
  registry/metric    Registered scenario and governor names are lowercase
  hygiene            kebab-case, balance-policy names lowercase snake_case
                     (the established naming rules); the metric schema is
                     defined exactly once - MetricValue construction outside
                     src/sim/metrics.cc is flagged so every summary column
                     keeps flowing through MetricScalars.
  text-values        Number parsing has one home: atoi/strtol/sscanf/
                     std::sto*/std::from_chars and their kin are flagged in
                     src/ outside src/base/, so every parser reads its values
                     through the shared rules of src/base/text.h.

Engines
-------
easlint is driven from the build's compile_commands.json (configure with
-DCMAKE_EXPORT_COMPILE_COMMANDS=ON; the project CMakeLists sets it). When the
libclang Python bindings are importable (`python3-clang` + libclang), the
determinism family runs as real AST matching over each translation unit, with
the token engine covering headers; otherwise every check runs on the
token engine. The token engine is a complete, documented fallback - a
comment/string-blanked line-exact scan - so an environment without libclang
still enforces every rule; nothing is ever silently skipped. The report
header names the engine that ran (`--engine ast` errors out if libclang is
unavailable rather than degrade quietly; the default `auto` degrades loudly).

Suppressions
------------
    some_call();  // easlint: allow(rule-name) -- why this is sound

on the offending line or the line directly above. The justification after
`--` is mandatory: a bare allow() suppresses the original finding but is
itself reported as `suppression-justification`. Unknown rule names in
allow() are reported too.

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

import argparse
import json
import os
import re
import sys

RULES = (
    "determinism-wall-clock",
    "determinism-raw-rand",
    "determinism-unseeded-prng",
    "determinism-unordered-iter",
    "determinism-pointer-key",
    "shard-confinement",
    "fault-rng-isolation",
    "registry-naming",
    "metric-schema",
    "text-values",
    "suppression-justification",
)

# Rules the determinism family comprises (the set the AST engine can take
# over from the token engine for .cc translation units).
DETERMINISM_RULES = {
    "determinism-wall-clock",
    "determinism-raw-rand",
    "determinism-unseeded-prng",
    "determinism-unordered-iter",
    "determinism-pointer-key",
}

# The one source file allowed to construct MetricValue / register builtin
# metric families: the schema single source of truth.
METRIC_SCHEMA_SOURCE = os.path.join("src", "sim", "metrics.cc")

SUPPRESS_RE = re.compile(r"//\s*easlint:\s*allow\(([\w,\s-]+)\)(\s*--\s*(\S.*))?")

# C++ keywords and cast-like tokens that look like calls in `name (`.
NOT_CALLS = frozenset(
    """if for while switch catch sizeof alignof alignas decltype return new delete
    static_cast dynamic_cast reinterpret_cast const_cast static_assert assert
    defined throw noexcept operator""".split()
)

# Method names too generic to traverse in the shard-confinement call graph:
# they are overwhelmingly std:: members (begin, size, ...) and following every
# same-named definition in src/ would only manufacture collisions. A genuine
# cross-shard accessor must not hide behind one of these names - keep
# annotated API names distinctive.
GENERIC_NAMES = frozenset(
    """begin end cbegin cend rbegin rend size empty clear resize reserve
    push_back pop_back emplace_back emplace front back at data find count
    insert erase get reset release str c_str swap min max abs first second
    value has_value push pop top""".split()
)

WALL_CLOCK_RES = (
    re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"),
    re.compile(r"\bgettimeofday\s*\("),
    re.compile(r"\bclock_gettime\s*\("),
    re.compile(r"\bstd\s*::\s*time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    re.compile(r"\bstd\s*::\s*clock\s*\(\s*\)"),
    re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"),
)

RAW_RAND_RES = (
    re.compile(r"\bstd\s*::\s*s?rand\s*\("),
    re.compile(r"(?<![\w:.>])s?rand\s*\("),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\b(?:lrand48|drand48|mrand48)\s*\("),
)

STD_ENGINE_RE = re.compile(
    r"\b(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b|subtract_with_carry_engine|"
    r"linear_congruential_engine|mersenne_twister_engine)\b"
)

ASSOC_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(unordered_map|unordered_set|unordered_multimap|"
    r"unordered_multiset|map|set|multimap|multiset)\s*<"
)

IDENT_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")

# Fault-layer RNG isolation: a chaos schedule must be a function of the
# fault spec text alone. Drawing from a shared RNG accessor (state.rng(),
# env->rng()) couples fault timing to workload evolution; a
# default-constructed Rng hides the seed. Both break replay.
FAULT_SHARED_RNG_RE = re.compile(r"(?:\.|->)\s*rng\s*\(")
FAULT_UNSEEDED_RNG_RE = re.compile(r"\b(?:eas\s*::\s*)?Rng\s+\w+\s*;")


# Library number parsers: each carries its own rule for what a number is
# (space, signs, saturation), so outside src/base/ values go through
# src/base/text.h instead.
TEXT_VALUE_RE = re.compile(
    r"(?<![\w.>:])(?:std\s*::\s*)?(atoi|atol|atoll|atof|strto(?:l|ll|ul|ull|d|f)|sscanf|"
    r"sto(?:i|l|ll|ul|ull|f|d|ld)|from_chars)\s*\("
)


def die(message):
    sys.stderr.write(message + "\n")
    sys.exit(2)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root):
        path = os.path.relpath(self.path, root) if root else self.path
        return f"{path}:{self.line}: [{self.rule}] {self.message}"


class Suppression:
    def __init__(self, rules, justified, line):
        self.rules = rules
        self.justified = justified
        self.line = line
        self.used = False


class SourceFile:
    """One scanned file: raw text plus comment/string-blanked views.

    `code` blanks comments, string and char literals, and preprocessor
    directives (layout preserved, so offsets and line numbers match the raw
    text). `nocomment` blanks only comments and preprocessor lines - the view
    the registry-naming check reads string literals from.
    """

    def __init__(self, path, text, in_src):
        self.path = path
        self.text = text
        self.in_src = in_src
        self.code, self.nocomment = _blank_views(text)
        self.lines = text.splitlines()
        self.suppressions = self._parse_suppressions()

    def _parse_suppressions(self):
        out = {}
        for number, line in enumerate(self.lines, start=1):
            match = SUPPRESS_RE.search(line)
            if match:
                rules = tuple(r.strip() for r in match.group(1).split(","))
                out[number] = Suppression(rules, match.group(3) is not None, number)
        return out

    def suppression_for(self, line, rule):
        """allow() applies on the finding's line or the line directly above."""
        for candidate in (line, line - 1):
            supp = self.suppressions.get(candidate)
            if supp and rule in supp.rules:
                return supp
        return None

    def line_of(self, offset):
        return self.code.count("\n", 0, offset) + 1


def _blank_views(text):
    """Blanks comments/strings/preprocessor lines, preserving layout."""
    code = []
    nocomment = []
    i, n = 0, len(text)
    state = "code"  # code, line_comment, block_comment, string, char, raw_string
    raw_delim = ""
    line_start = True
    preproc = False
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if preproc:
                # Blank the whole preprocessor line (plus continuations).
                if c == "\n":
                    preproc = text[i - 1] == "\\"
                    code.append("\n")
                    nocomment.append("\n")
                else:
                    code.append(" ")
                    nocomment.append(" ")
                i += 1
                line_start = c == "\n"
                continue
            if line_start and c == "#":
                preproc = True
                code.append(" ")
                nocomment.append(" ")
                i += 1
                line_start = False
                continue
            if c == "/" and nxt == "/":
                state = "line_comment"
                code.append("  ")
                nocomment.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                code.append("  ")
                nocomment.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                end = text.find("(", i + 2)
                if end != -1:
                    raw_delim = ")" + text[i + 2 : end] + '"'
                    state = "raw_string"
                    span = end + 1 - i
                    code.append(" " * span)
                    nocomment.append(text[i : end + 1])
                    i = end + 1
                    continue
            if c == '"':
                state = "string"
                code.append(" ")
                nocomment.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                code.append(" ")
                nocomment.append("'")
                i += 1
                continue
            code.append(c)
            nocomment.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                code.append("\n")
                nocomment.append("\n")
            else:
                code.append(" ")
                nocomment.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                code.append("  ")
                nocomment.append("  ")
                i += 2
                continue
            code.append("\n" if c == "\n" else " ")
            nocomment.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                code.append("  ")
                nocomment.append(text[i : i + 2] if state == "string" else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                code.append(" ")
                nocomment.append(quote)
            elif c == "\n":  # unterminated; recover
                state = "code"
                code.append("\n")
                nocomment.append("\n")
            else:
                code.append(" ")
                nocomment.append(c)
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                span = len(raw_delim)
                code.append(" " * span)
                nocomment.append(text[i : i + span])
                state = "code"
                i += span
                continue
            code.append("\n" if c == "\n" else " ")
            nocomment.append("\n" if c == "\n" else " ")
        line_start = c == "\n"
        i += 1
    return "".join(code), "".join(nocomment)


def match_paren(text, open_index):
    """Index just past the ')' matching the '(' at open_index, or -1."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_brace(text, open_index):
    """Index just past the '}' matching the '{' at open_index, or -1."""
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


# --- the linter --------------------------------------------------------------


class Linter:
    def __init__(self, disabled, root):
        self.disabled = disabled
        self.root = root
        self.findings = []
        self.files = []

    def add(self, source, line, rule, message):
        if rule in self.disabled:
            return
        supp = source.suppression_for(line, rule)
        if supp is not None:
            supp.used = True
            return
        self.findings.append(Finding(source.path, line, rule, message))

    # -- determinism (token engine) ------------------------------------------

    def check_determinism_tokens(self, source):
        if not source.in_src:
            return
        code = source.code
        for regex in WALL_CLOCK_RES:
            for match in regex.finditer(code):
                self.add(
                    source,
                    source.line_of(match.start()),
                    "determinism-wall-clock",
                    f"wall-clock read '{match.group(0).strip()}' in src/: results "
                    "must not depend on real time (use the tick clock)",
                )
        for regex in RAW_RAND_RES:
            for match in regex.finditer(code):
                self.add(
                    source,
                    source.line_of(match.start()),
                    "determinism-raw-rand",
                    f"'{match.group(0).strip()}' in src/: all randomness must come "
                    "from an explicitly seeded eas::Rng",
                )
        for match in STD_ENGINE_RE.finditer(code):
            self.add(
                source,
                source.line_of(match.start()),
                "determinism-unseeded-prng",
                f"std::<random> engine '{match.group(0)}' in src/: eas::Rng "
                "(explicitly seeded, platform-stable) is the sanctioned PRNG",
            )
        self._check_containers(source)

    def _check_containers(self, source):
        """Pointer-keyed associative containers and unordered iteration."""
        code = source.code
        unordered_vars = []
        for match in ASSOC_DECL_RE.finditer(code):
            family = match.group(1)
            open_angle = code.index("<", match.end() - 1)
            args, close = _template_args(code, open_angle)
            if args is None:
                continue
            line = source.line_of(match.start())
            key = args[0].strip()
            if key.endswith("*"):
                self.add(
                    source,
                    line,
                    "determinism-pointer-key",
                    f"std::{family} keyed by pointer type '{key}': address-based "
                    "order/hashing varies run to run; key by a stable dense index "
                    "instead (cf. DomainHierarchy group indices)",
                )
            if family.startswith("unordered"):
                name_match = re.match(r"\s*(\w+)\s*(?:[;={]|$)", code[close:close + 80])
                if name_match:
                    unordered_vars.append((name_match.group(1), family))
        for var, family in unordered_vars:
            # Range-for over the container, possibly through a qualified
            # access path (state.shards, this->counts_, ...).
            for match in re.finditer(
                    r"for\s*\([^;)]*:[^;)]*\b" + re.escape(var) + r"\s*\)", code):
                self.add(
                    source,
                    source.line_of(match.start()),
                    "determinism-unordered-iter",
                    f"iteration over std::{family} '{var}': iteration order is "
                    "implementation-defined, so any result-affecting loop breaks "
                    "bit-identity; iterate a sorted or dense-indexed mirror",
                )
            for match in re.finditer(re.escape(var) + r"\s*\.\s*c?begin\s*\(", code):
                self.add(
                    source,
                    source.line_of(match.start()),
                    "determinism-unordered-iter",
                    f"iterator over std::{family} '{var}': iteration order is "
                    "implementation-defined and breaks bit-identity",
                )

    # -- registry / metric hygiene -------------------------------------------

    KEBAB_RE = re.compile(r"^[a-z0-9]+(-[a-z0-9]+)*$")
    SNAKE_RE = re.compile(r"^[a-z0-9]+(_[a-z0-9]+)*$")

    REGISTRY_STYLES = {
        "BalancePolicyRegistry": ("snake_case", SNAKE_RE),
        "ScenarioRegistry": ("kebab-case", KEBAB_RE),
        "FrequencyGovernorRegistry": ("kebab-case", KEBAB_RE),
    }

    def check_fault_rng_isolation(self, source):
        """The fault layer never draws from shared or unseeded RNG streams.

        Scope: fault-layer files (src/fault/ plus fault_*.cc/.h living in
        other src/ layers, e.g. the engine-facing FaultPhase). The chaos
        schedule must be a pure function of the spec text: two runs that
        differ only in workload must see identical fault timings.
        """
        if not source.in_src:
            return
        path_norm = source.path.replace(os.sep, "/")
        basename = os.path.basename(path_norm)
        if "/fault/" not in path_norm and "fault" not in basename:
            return
        code = source.code
        for match in FAULT_SHARED_RNG_RE.finditer(code):
            self.add(
                source,
                source.line_of(match.start()),
                "fault-rng-isolation",
                "fault-layer draw from a shared rng() accessor: chaos "
                "schedules must come only from the plan's own seeded "
                "eas::Rng, never the experiment's stream",
            )
        for match in FAULT_UNSEEDED_RNG_RE.finditer(code):
            self.add(
                source,
                source.line_of(match.start()),
                "fault-rng-isolation",
                "default-constructed Rng in the fault layer: construct "
                "eas::Rng with the clause's explicit seed so the schedule "
                "replays from the spec text",
            )

    def check_registry_naming(self, source):
        text = source.nocomment
        for match in re.finditer(
                r"\b(\w+(?:\s*::\s*Global\s*\(\s*\))?)\s*\.\s*Register\s*\(\s*\"([^\"]*)\"",
                text):
            receiver = match.group(1)
            name = match.group(2)
            registry = self._registry_type(source, receiver)
            if registry is None:
                continue
            style, regex = self.REGISTRY_STYLES[registry]
            if not regex.match(name):
                self.add(
                    source,
                    source.line_of(match.start(2)),
                    "registry-naming",
                    f"{registry} name '{name}' breaks the established naming "
                    f"rule: {registry} names are lowercase {style}",
                )

    def _registry_type(self, source, receiver):
        if "Global" in receiver:
            base = receiver.split("::", 1)[0].strip()
            return base if base in self.REGISTRY_STYLES else None
        # A plain identifier: resolve its declared type in this file
        # (parameter or local of one of the known registry types).
        for registry in self.REGISTRY_STYLES:
            if re.search(r"\b" + registry + r"\s*[&*]?\s*" + re.escape(receiver) + r"\b", source.nocomment):
                return registry
        return None

    def check_metric_schema(self, source):
        if source.path.replace(os.sep, "/").endswith("src/sim/metrics.cc"):
            return
        if not source.in_src:
            return
        code = source.code
        for match in re.finditer(r"\bMetricValue\s*\{", code):
            # The type's own definition (`struct MetricValue {`) is not a
            # construction site.
            before = code[: match.start()].rstrip()
            if re.search(r"\b(?:struct|class)$", before):
                continue
            self.add(
                source,
                source.line_of(match.start()),
                "metric-schema",
                "MetricValue constructed outside src/sim/metrics.cc: summary "
                "columns are defined once, in MetricScalars - add the column "
                "family there instead",
            )

    def check_text_values(self, source):
        if not source.in_src:
            return
        if "/src/base/" in source.path.replace(os.sep, "/"):
            return
        for match in TEXT_VALUE_RE.finditer(source.code):
            self.add(
                source,
                source.line_of(match.start()),
                "text-values",
                f"'{match.group(1)}' outside src/base/: read numbers through "
                "src/base/text.h (ParseUint, ParseInt, ParseFinite) so every "
                "input shares one rule",
            )

    # -- suppression hygiene ---------------------------------------------------

    def check_suppressions(self, source):
        for supp in source.suppressions.values():
            for rule in supp.rules:
                if rule not in RULES:
                    self.add(
                        source,
                        supp.line,
                        "suppression-justification",
                        f"allow() names unknown rule '{rule}' (known: "
                        f"{', '.join(RULES)})",
                    )
            if not supp.justified:
                self.add(
                    source,
                    supp.line,
                    "suppression-justification",
                    "suppression without a written justification: use "
                    "'// easlint: allow(rule) -- why this is sound'",
                )


# --- shard-confinement -------------------------------------------------------


class Definition:
    def __init__(self, name, qualified, source, line, calls):
        self.name = name
        self.qualified = qualified
        self.source = source
        self.line = line
        self.calls = calls  # list of (simple_name, line, kind); kind in
        #                     {"plain", "member", "scoped"}

    @property
    def cls(self):
        return self.qualified.split("::", 1)[0] if self.qualified else None


def _template_args(code, open_angle):
    """Splits the top-level comma-separated args of the <...> at open_angle.

    Returns (args, index_past_closing_angle) or (None, -1) when unbalanced.
    """
    depth = 0
    args = []
    current = []
    i = open_angle
    while i < len(code):
        c = code[i]
        if c == "<":
            depth += 1
            if depth > 1:
                current.append(c)
        elif c == ">":
            depth -= 1
            if depth == 0:
                args.append("".join(current))
                return args, i + 1
            current.append(c)
        elif c == "," and depth == 1:
            args.append("".join(current))
            current = []
        elif c in ";{}" :
            return None, -1
        else:
            current.append(c)
        i += 1
    return None, -1


def parse_annotations(source):
    """(macro, simple_name, line) for each EAS_* annotated declaration."""
    out = []
    for match in re.finditer(r"\b(EAS_SHARD_LOCAL|EAS_CROSS_SHARD)\b", source.code):
        paren = source.code.find("(", match.end())
        if paren == -1:
            continue
        head = source.code[match.end():paren]
        idents = re.findall(r"[A-Za-z_]\w*", head)
        if not idents:
            continue
        out.append((match.group(1), idents[-1], source.line_of(match.start())))
    return out


def parse_definitions(source):
    """Token-level function definitions with their outgoing calls."""
    out = []
    code = source.code
    for match in IDENT_CALL_RE.finditer(code):
        name = match.group(1)
        if name in NOT_CALLS:
            continue
        close = match_paren(code, match.end() - 1)
        if close == -1:
            continue
        # Skip trailing qualifiers to find the body opener (or bail: a call).
        i = close
        while i < len(code):
            rest = code[i:]
            qualifier = re.match(
                r"\s*(const|noexcept|override|final|mutable|->\s*[\w:<>,\s&*]+)", rest
            )
            if qualifier and qualifier.end() > 0 and qualifier.group(1):
                i += qualifier.end()
                continue
            break
        tail = code[i:]
        body_open = None
        brace = re.match(r"\s*\{", tail)
        if brace:
            body_open = i + brace.end() - 1
        else:
            init = re.match(r"\s*:\s*[^;{]*\{", tail)  # constructor init list
            if init:
                body_open = i + init.end() - 1
        if body_open is None:
            continue
        # Reject control flow that slipped through and declarations like
        # `struct Foo {`: require the '(' to directly follow the name.
        body_close = match_brace(code, body_open)
        if body_close == -1:
            continue
        qualified = None
        before = code[: match.start()].rstrip()
        qual_match = re.search(r"([A-Za-z_]\w*)\s*::\s*$", before)
        if qual_match:
            qualified = f"{qual_match.group(1)}::{name}"
        body = code[body_open:body_close]
        body_line = source.line_of(body_open)
        calls = []
        for call in IDENT_CALL_RE.finditer(body):
            callee = call.group(1)
            if callee in NOT_CALLS or callee == name:
                continue
            # How the callee is reached decides how it may be resolved later:
            # `x.Foo(` / `x->Foo(` is a member of the receiver's class (which
            # the token engine cannot name), `NS::Foo(` is scoped, a bare
            # `Foo(` is this-class or free.
            prefix = body[: call.start()].rstrip()
            if prefix.endswith(".") or prefix.endswith("->"):
                kind = "member"
            elif prefix.endswith("::"):
                kind = "scoped"
            else:
                kind = "plain"
            calls.append((callee, body_line + body[: call.start()].count("\n"), kind))
        out.append(Definition(name, qualified, source, source.line_of(match.start()), calls))
    return out


def check_shard_confinement(linter, sources):
    shard_local = {}
    cross_shard = {}
    for source in sources:
        for macro, name, line in parse_annotations(source):
            target = shard_local if macro == "EAS_SHARD_LOCAL" else cross_shard
            target.setdefault(name, (source, line))
    if not shard_local and not cross_shard:
        return

    defs_by_name = {}
    for source in sources:
        for definition in parse_definitions(source):
            defs_by_name.setdefault(definition.name, []).append(definition)

    for root_name in sorted(shard_local):
        for root_def in defs_by_name.get(root_name, []):
            _walk_shard_local(linter, root_def, root_name, shard_local, cross_shard,
                              defs_by_name)


def _resolve_targets(definition, callee, kind, defs_by_name):
    """Definitions a call from `definition` may land on.

    Annotated (cross-shard) names are matched by bare name elsewhere; this
    resolution only governs how far the walk *expands* through unannotated
    intermediates, so it must stay precise rather than complete:
      - a bare call resolves within the caller's class, then to free/sibling
        definitions in the caller's file;
      - a member call through a receiver (whose class the token engine cannot
        name) or a scoped call expands only when the name is defined exactly
        once in the tree - an ambiguous name would conflate unrelated classes
        (e.g. every `Step`/`Run` in the codebase) into one node.
    """
    candidates = defs_by_name.get(callee, [])
    if not candidates:
        return []
    if kind == "plain":
        same_class = [d for d in candidates
                      if definition.cls and d.cls == definition.cls]
        if same_class:
            return same_class
        same_file = [d for d in candidates if d.source is definition.source]
        if same_file:
            return same_file
    if len(candidates) == 1:
        return candidates
    return []


def _walk_shard_local(linter, root_def, root_name, shard_local, cross_shard,
                      defs_by_name):
    # DFS over the call graph. Cross-shard hits are matched by annotated name
    # regardless of call form; expansion through unannotated intermediates
    # follows _resolve_targets, and generic std-ish names are never expanded
    # (see GENERIC_NAMES). Chains through another shard-local entry point are
    # not re-walked - that entry point is checked from its own root.
    stack = [(root_def, [f"{root_def.qualified or root_def.name}"])]
    visited = {root_name}
    while stack:
        definition, chain = stack.pop()
        for callee, line, kind in definition.calls:
            if callee in cross_shard:
                pretty = " -> ".join(chain + [callee])
                linter.add(
                    definition.source,
                    line,
                    "shard-confinement",
                    f"shard-local '{root_name}' reaches cross-shard '{callee}' "
                    f"({pretty}): package-parallel phases must only touch their "
                    "own PackageShard; move this call to a sequential section "
                    "or re-scope the annotation",
                )
                continue
            if callee in visited or callee in GENERIC_NAMES or callee in shard_local:
                continue
            visited.add(callee)
            for target in _resolve_targets(definition, callee, kind, defs_by_name):
                if len(chain) < 12:
                    stack.append((target, chain + [callee]))


# --- AST engine (libclang) ---------------------------------------------------


class AstEngine:
    """Determinism checks as real AST matching, when libclang is importable.

    Covers .cc translation units from compile_commands.json; headers (and
    everything the AST cannot see) stay on the token engine. Any per-TU
    failure falls back to the token engine for that TU and is noted in the
    report - never silently skipped.
    """

    BANNED_CALLS = {
        "rand": "determinism-raw-rand",
        "srand": "determinism-raw-rand",
        "lrand48": "determinism-raw-rand",
        "drand48": "determinism-raw-rand",
        "gettimeofday": "determinism-wall-clock",
        "clock_gettime": "determinism-wall-clock",
        "clock": "determinism-wall-clock",
    }
    CLOCKS = ("system_clock", "steady_clock", "high_resolution_clock")

    def __init__(self):
        import clang.cindex as cindex  # noqa: deferred, availability-gated

        self.cindex = cindex
        self.index = cindex.Index.create()

    def scan(self, linter, source, compile_args):
        cindex = self.cindex
        tu = self.index.parse(source.path, args=compile_args)
        for cursor in tu.cursor.walk_preorder():
            location = cursor.location
            if location.file is None or os.path.abspath(location.file.name) != source.path:
                continue
            line = location.line
            kind = cursor.kind
            if kind == cindex.CursorKind.CALL_EXPR:
                callee = cursor.referenced
                name = callee.spelling if callee is not None else cursor.spelling
                rule = self.BANNED_CALLS.get(name)
                if rule is not None and self._is_global(callee):
                    linter.add(source, line, rule,
                               f"call to '{name}' (AST): banned in src/")
                if name == "now" and callee is not None:
                    parent = callee.semantic_parent
                    if parent is not None and parent.spelling in self.CLOCKS:
                        linter.add(source, line, "determinism-wall-clock",
                                   f"std::chrono::{parent.spelling}::now() (AST): "
                                   "results must not depend on real time")
            elif kind in (cindex.CursorKind.VAR_DECL, cindex.CursorKind.FIELD_DECL):
                spelling = cursor.type.spelling
                if "random_device" in spelling:
                    linter.add(source, line, "determinism-raw-rand",
                               "std::random_device (AST): all randomness must "
                               "come from an explicitly seeded eas::Rng")
                elif STD_ENGINE_RE.search(spelling):
                    linter.add(source, line, "determinism-unseeded-prng",
                               f"std::<random> engine '{spelling}' (AST): "
                               "eas::Rng is the sanctioned PRNG")
                pointer_key = re.search(
                    r"\b(unordered_map|unordered_set|unordered_multimap|"
                    r"unordered_multiset|map|set|multimap|multiset)<\s*"
                    r"(?:const\s+)?[\w:]+\s*\*", spelling)
                if pointer_key:
                    linter.add(source, line, "determinism-pointer-key",
                               f"std::{pointer_key.group(1)} keyed by pointer "
                               "(AST): address order varies run to run; key by "
                               "a stable dense index")
            elif kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                for child in cursor.get_children():
                    spelling = child.type.spelling
                    if re.search(r"\bunordered_(map|set|multimap|multiset)\b", spelling):
                        linter.add(source, line, "determinism-unordered-iter",
                                   f"range-for over '{spelling}' (AST): iteration "
                                   "order is implementation-defined and breaks "
                                   "bit-identity")
                        break

    @staticmethod
    def _is_global(callee):
        # rand()/clock()/... are free functions; a method of the same simple
        # name (e.g. some class's clock()) is not the libc call.
        if callee is None:
            return False
        parent = callee.semantic_parent
        return parent is None or parent.kind.name in ("TRANSLATION_UNIT", "NAMESPACE",
                                                      "LINKAGE_SPEC")


# --- driver ------------------------------------------------------------------


def discover_from_compile_commands(path, root):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            db = json.load(handle)
    except (OSError, ValueError) as error:
        die(f"easlint: cannot read compile database {path}: {error}\n"
                 "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON")
    tus = {}
    src_prefix = os.path.join(root, "src") + os.sep
    for entry in db:
        file_path = os.path.abspath(os.path.join(entry.get("directory", "."), entry["file"]))
        if not file_path.startswith(src_prefix):
            continue
        if "arguments" in entry:
            args = entry["arguments"][1:]
        else:
            args = entry.get("command", "").split()[1:]
        # Strip -o/-c and the source file itself; keep includes/defines/std.
        kept = []
        skip = False
        for arg in args:
            if skip:
                skip = False
                continue
            if arg in ("-o", "-c"):
                skip = arg == "-o"
                continue
            if os.path.abspath(arg) == file_path:
                continue
            kept.append(arg)
        tus[file_path] = kept
    headers = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in sorted(names):
            if name.endswith(".h"):
                headers.append(os.path.join(dirpath, name))
    return tus, headers


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[1], formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*",
                        help="explicit files to lint (fixture mode); default: the "
                             "src/ tree via --compile-commands")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json (default: <root>/build/compile_commands.json)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--engine", choices=("auto", "ast", "tokens"), default="auto",
                        help="auto: AST via libclang when importable, token fallback "
                             "otherwise; ast: require libclang; tokens: force the "
                             "token engine")
    parser.add_argument("--disable", action="append", default=[], metavar="RULE",
                        help="disable a rule (repeatable); known: " + ", ".join(RULES))
    parser.add_argument("--report", default=None, help="also write findings to this file")
    args = parser.parse_args()

    for rule in args.disable:
        if rule not in RULES:
            die(f"easlint: --disable names unknown rule '{rule}'")

    root = os.path.abspath(args.root) if args.root else os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))

    ast_engine = None
    engine_note = "tokens"
    if args.engine in ("auto", "ast"):
        try:
            ast_engine = AstEngine()
            engine_note = "ast+tokens"
        except Exception as error:  # ImportError, LibclangError, ...
            if args.engine == "ast":
                die(f"easlint: --engine ast requested but libclang is "
                         f"unavailable ({error}); install python3-clang + libclang "
                         "or run --engine tokens")
            engine_note = f"tokens (libclang unavailable: {type(error).__name__})"

    tu_args = {}
    if args.files:
        paths = [os.path.abspath(f) for f in args.files]
        for path in paths:
            if not os.path.exists(path):
                die(f"easlint: no such file: {path}")
    else:
        db = args.compile_commands or os.path.join(root, "build", "compile_commands.json")
        tu_args, headers = discover_from_compile_commands(db, root)
        paths = sorted(tu_args) + headers

    sources = []
    src_prefix = os.path.join(root, "src") + os.sep
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        # Explicit files (fixture mode) are all treated as src-scoped.
        in_src = bool(args.files) or path.startswith(src_prefix)
        sources.append(SourceFile(path, text, in_src))

    linter = Linter(set(args.disable), root)
    notes = []
    for source in sources:
        ast_covered = False
        if ast_engine is not None and source.path in tu_args and source.path.endswith(".cc"):
            try:
                ast_engine.scan(linter, source, tu_args[source.path])
                ast_covered = True
            except Exception as error:
                notes.append(f"note: AST parse failed for "
                             f"{os.path.relpath(source.path, root)} ({error}); "
                             "token engine covered it")
        if not ast_covered:
            linter.check_determinism_tokens(source)
        linter.check_fault_rng_isolation(source)
        linter.check_registry_naming(source)
        linter.check_metric_schema(source)
        linter.check_text_values(source)
        linter.check_suppressions(source)
    check_shard_confinement(linter, sources)

    linter.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    out_lines = [f"easlint: engine={engine_note} files={len(sources)} "
                 f"findings={len(linter.findings)}"]
    out_lines += notes
    out_lines += [finding.render(root) for finding in linter.findings]
    output = "\n".join(out_lines) + "\n"
    sys.stdout.write(output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(output)
    return 1 if linter.findings else 0


if __name__ == "__main__":
    sys.exit(main())
